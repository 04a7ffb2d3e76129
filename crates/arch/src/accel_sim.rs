//! A functional + cycle-level simulator of the discrete RSU accelerator
//! (paper §6.2 / Fig. 3).
//!
//! The analytic model in [`crate::accelerator`] gives the DRAM-bound upper
//! bound; this simulator fills in the microarchitecture: a controller
//! iterates the checkerboard schedule over the image, dispatching pixel
//! updates to an array of RSU-G units while a DRAM front end delivers each
//! update's operand bundle (neighbour labels + data bytes). Per iteration
//! it accounts the unit-array and DRAM service cycles and takes their
//! maximum — exposing *which* resource binds and at what utilization —
//! while the same dispatch drives real [`RsuGSampler`] draws, so the
//! simulated accelerator produces an actual labeling whose quality can be
//! scored.

use crate::workload::Workload;
use mogs_core::rsu_g::RsuGSampler;
use mogs_core::variants::RsuVariant;
use mogs_gibbs::sampler::LabelSampler;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::precision::EnergyQuantizer;
use mogs_mrf::{Label, MarkovRandomField, Parity};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the simulated accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelSimConfig {
    /// RSU-G units in the array.
    pub units: usize,
    /// Width variant of each unit.
    pub variant: RsuVariant,
    /// Clock frequency (Hz).
    pub frequency_hz: f64,
    /// DRAM bandwidth (bytes/s).
    pub dram_bandwidth: f64,
}

impl AccelSimConfig {
    /// The paper's design point: 336 RSU-G1 units, 1 GHz, 336 GB/s.
    pub fn paper_design() -> Self {
        AccelSimConfig {
            units: 336,
            variant: RsuVariant::g1(),
            frequency_hz: 1e9,
            dram_bandwidth: 336e9,
        }
    }

    /// DRAM bytes deliverable per clock cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth / self.frequency_hz
    }
}

/// Cycle accounting for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleReport {
    /// Total cycles.
    pub cycles: u64,
    /// Wall-clock seconds at the configured frequency.
    pub seconds: f64,
    /// Fraction of the run the unit array was the binding resource.
    pub unit_utilization: f64,
    /// Fraction of the run DRAM was the binding resource.
    pub dram_utilization: f64,
}

/// The accelerator simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelSim {
    config: AccelSimConfig,
}

impl AccelSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics on a zero-unit array or non-positive frequency/bandwidth.
    pub fn new(config: AccelSimConfig) -> Self {
        assert!(config.units > 0, "need at least one unit");
        assert!(config.frequency_hz > 0.0, "frequency must be positive");
        assert!(config.dram_bandwidth > 0.0, "bandwidth must be positive");
        AccelSim { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AccelSimConfig {
        &self.config
    }

    /// Cycle accounting for one checkerboard *phase* of `updates` pixel
    /// updates with `m` labels and `bytes_per_update` DRAM traffic each.
    fn phase_cycles(&self, updates: u64, m: u8, bytes_per_update: f64) -> (u64, u64) {
        let interval = u64::from(self.config.variant.sample_interval(m));
        // The unit array completes `units` updates every `interval` cycles.
        let unit_cycles = (updates * interval).div_ceil(self.config.units as u64)
            + u64::from(self.config.variant.latency_cycles(m)); // drain
        let dram_cycles =
            (updates as f64 * bytes_per_update / self.config.bytes_per_cycle()).ceil() as u64;
        (unit_cycles, dram_cycles)
    }

    /// Paper-scale timing estimate for a workload (no functional run):
    /// both checkerboard phases of every iteration, each bounded by the
    /// slower of the unit array and DRAM.
    pub fn estimate(&self, workload: &Workload) -> CycleReport {
        let m = workload.app.labels();
        let bytes = workload.app.bytes_per_pixel() as f64;
        let pixels = workload.size.pixels() as u64;
        let per_phase_updates = pixels / 2;
        let mut cycles = 0u64;
        let mut unit_bound_cycles = 0u64;
        let mut dram_bound_cycles = 0u64;
        for _ in 0..2 * workload.app.iterations() {
            let (unit, dram) = self.phase_cycles(per_phase_updates, m, bytes);
            let phase = unit.max(dram);
            cycles += phase;
            if unit >= dram {
                unit_bound_cycles += phase;
            } else {
                dram_bound_cycles += phase;
            }
        }
        CycleReport {
            cycles,
            seconds: cycles as f64 / self.config.frequency_hz,
            unit_utilization: unit_bound_cycles as f64 / cycles as f64,
            dram_utilization: dram_bound_cycles as f64 / cycles as f64,
        }
    }

    /// Functional simulation: runs `iterations` checkerboard sweeps of the
    /// field on the RSU-G sampler (dispatched exactly as the controller
    /// would) *and* accounts the cycles of every phase. Returns the final
    /// labeling, the total energy after every sweep, and the cycle
    /// report.
    ///
    /// `t_model` is the application temperature baked into the units'
    /// intensity maps.
    pub fn simulate<S>(
        &self,
        mrf: &MarkovRandomField<S>,
        bytes_per_update: f64,
        t_model: f64,
        iterations: usize,
        seed: u64,
    ) -> (Vec<Label>, Vec<f64>, CycleReport)
    where
        S: SingletonPotential,
    {
        let m = mrf.space().count() as u8;
        let mut sampler = RsuGSampler::new(EnergyQuantizer::new(8.0), t_model);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut labels = mrf.uniform_labeling();
        let mut energies = vec![0.0; mrf.space().count()];
        let mut energy_trace = Vec::with_capacity(iterations);
        let mut cycles = 0u64;
        let mut unit_bound = 0u64;
        let mut dram_bound = 0u64;
        for _ in 0..iterations {
            for parity in Parity::BOTH {
                // Functional: the controller walks this parity; all its
                // sites read the pre-phase snapshot (conditionally
                // independent, so this is exact Gibbs).
                let snapshot: Vec<Label> = labels.to_vec();
                let mut updates = 0u64;
                for site in mrf.grid().sites_of_parity(parity) {
                    mrf.conditional_energies_into(&snapshot, site, &mut energies);
                    labels[site] =
                        sampler.sample_label(&energies, t_model, snapshot[site], &mut rng);
                    updates += 1;
                }
                // Timing: the same dispatch, costed.
                let (unit, dram) = self.phase_cycles(updates, m, bytes_per_update);
                let phase = unit.max(dram);
                cycles += phase;
                if unit >= dram {
                    unit_bound += phase;
                } else {
                    dram_bound += phase;
                }
            }
            energy_trace.push(mrf.total_energy(&labels));
        }
        let report = CycleReport {
            cycles,
            seconds: cycles as f64 / self.config.frequency_hz,
            unit_utilization: unit_bound as f64 / cycles.max(1) as f64,
            dram_utilization: dram_bound as f64 / cycles.max(1) as f64,
        };
        (labels, energy_trace, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Accelerator;
    use crate::workload::ImageSize;
    use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
    use mogs_vision::synthetic;

    #[test]
    fn estimate_approaches_analytic_bound_when_dram_bound() {
        // Motion is DRAM-bound on the paper design: the simulator's time
        // must land within the controller/drain overhead of the analytic
        // bound (within ~10%).
        let sim = AccelSim::new(AccelSimConfig::paper_design());
        let w = Workload::motion(ImageSize::HD);
        let report = sim.estimate(&w);
        let bound = Accelerator::paper_design().execution_time(&w);
        assert!(report.seconds >= bound, "cannot beat the DRAM bound");
        assert!(
            report.seconds < 1.10 * bound,
            "simulated {:.4} vs bound {:.4}",
            report.seconds,
            bound
        );
        assert!(report.dram_utilization > 0.9, "motion must be DRAM-bound");
    }

    #[test]
    fn segmentation_is_balanced_on_the_paper_design() {
        // Segmentation's 5 labels and 5 bytes/pixel balance the 336-unit
        // array against 336 B/cycle almost exactly.
        let sim = AccelSim::new(AccelSimConfig::paper_design());
        let w = Workload::segmentation(ImageSize::HD);
        let report = sim.estimate(&w);
        let bound = Accelerator::paper_design().execution_time(&w);
        assert!(report.seconds < 1.15 * bound);
    }

    #[test]
    fn halving_the_units_makes_motion_unit_bound_free() {
        // Motion needs 336/49 updates/cycle ⇒ demand 370 B/cycle > 336:
        // DRAM binds. With twice the DRAM it flips to unit-bound.
        let fat_dram = AccelSim::new(AccelSimConfig {
            dram_bandwidth: 672e9,
            ..AccelSimConfig::paper_design()
        });
        let report = fat_dram.estimate(&Workload::motion(ImageSize::HD));
        assert!(
            report.unit_utilization > 0.9,
            "unit array should bind with fat DRAM"
        );
    }

    #[test]
    fn functional_simulation_converges_and_costs_cycles() {
        let scene = synthetic::region_scene(24, 24, 5, 7.0, 50);
        let config = SegmentationConfig::default();
        let t = config.temperature;
        let app = Segmentation::new(scene.image.clone(), config);
        let sim = AccelSim::new(AccelSimConfig::paper_design());
        let (labels, energy_trace, report) = sim.simulate(app.mrf(), 5.0, t, 30, 1);
        assert!(energy_trace[29] < energy_trace[0], "energy must fall");
        let accuracy = mogs_vision::metrics::label_accuracy(&labels, &scene.truth);
        assert!(accuracy > 0.8, "accelerator labeling accuracy {accuracy}");
        assert!(report.cycles > 0);
        assert!((report.unit_utilization + report.dram_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wider_units_reduce_unit_cycles_only() {
        let g1 = AccelSim::new(AccelSimConfig::paper_design());
        let g4 = AccelSim::new(AccelSimConfig {
            variant: RsuVariant::g4(),
            ..AccelSimConfig::paper_design()
        });
        let w = Workload::motion(ImageSize::HD);
        // Both are DRAM-bound at the paper BW, so same time...
        let t1 = g1.estimate(&w).seconds;
        let t4 = g4.estimate(&w).seconds;
        assert!((t1 - t4).abs() / t1 < 0.05, "DRAM bound hides unit width");
        // ...but with abundant DRAM the wider unit wins.
        let fat = |variant| {
            AccelSim::new(AccelSimConfig {
                variant,
                dram_bandwidth: 10e12,
                ..AccelSimConfig::paper_design()
            })
            .estimate(&w)
            .seconds
        };
        assert!(fat(RsuVariant::g4()) < 0.5 * fat(RsuVariant::g1()));
    }

    #[test]
    #[should_panic(expected = "need at least one unit")]
    fn zero_units_rejected() {
        AccelSim::new(AccelSimConfig {
            units: 0,
            ..AccelSimConfig::paper_design()
        });
    }
}
