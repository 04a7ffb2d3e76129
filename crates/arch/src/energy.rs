//! Energy-per-run analysis (derived from §8.3's power figures).
//!
//! The paper reports power (Table 3 and the 12 W / 1.3 W system figures)
//! and performance (Table 2) separately; combining them gives the energy
//! consumed per complete inference run — the metric a deployment actually
//! pays for. The GPU board power is the Titan X's 250 W TDP; the
//! accelerator budget adds DRAM-interface and control estimates to the
//! RSU array so the comparison is not unfairly optimistic.

#![deny(clippy::as_conversions)]

use crate::accelerator::Accelerator;
use crate::gpu::GpuModel;
use crate::kernel::KernelVariant;
use crate::workload::Workload;
use mogs_core::power::{PowerModel, TechNode};

/// GTX Titan X board power (W).
pub const GPU_BOARD_WATTS: f64 = 250.0;

/// RSU-G units integrated on the GPU (one per CUDA-core-group lane, §8.3).
pub const GPU_RSU_UNITS: usize = 3072;

/// Estimated DRAM interface power for the discrete accelerator (W) —
/// a 384-bit GDDR5 interface at full tilt.
pub const ACCEL_DRAM_WATTS: f64 = 30.0;

/// Estimated control/NoC overhead for the discrete accelerator (W).
pub const ACCEL_CONTROL_WATTS: f64 = 5.0;

/// Energy analysis over the calibrated models.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    gpu: GpuModel,
    accelerator: Accelerator,
    rsu_power: PowerModel,
}

/// Energy of one complete run, with the power split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunEnergy {
    /// Total system power during the run (W).
    pub watts: f64,
    /// Run time (s).
    pub seconds: f64,
    /// Total energy (J).
    pub joules: f64,
}

impl EnergyModel {
    /// The paper's design points.
    pub fn paper_design() -> Self {
        EnergyModel {
            gpu: GpuModel::calibrated(),
            accelerator: Accelerator::paper_design(),
            rsu_power: PowerModel::new(TechNode::N15),
        }
    }

    /// Energy of a run on the (possibly RSU-augmented) GPU.
    pub fn gpu_run(&self, workload: &Workload, variant: KernelVariant) -> RunEnergy {
        let seconds = self.gpu.execution_time(workload, variant);
        let rsu_watts = match variant {
            KernelVariant::Rsu { .. } => self.rsu_power.system_watts(GPU_RSU_UNITS),
            _ => 0.0,
        };
        let watts = GPU_BOARD_WATTS + rsu_watts;
        RunEnergy {
            watts,
            seconds,
            joules: watts * seconds,
        }
    }

    /// Energy of a run on the discrete accelerator.
    pub fn accelerator_run(&self, workload: &Workload) -> RunEnergy {
        let seconds = self.accelerator.execution_time(workload);
        let watts = self
            .rsu_power
            .system_watts(self.accelerator.units_required())
            + ACCEL_DRAM_WATTS
            + ACCEL_CONTROL_WATTS;
        RunEnergy {
            watts,
            seconds,
            joules: watts * seconds,
        }
    }

    /// Energy-efficiency gain of `variant` over the baseline GPU kernel.
    pub fn gpu_efficiency_gain(&self, workload: &Workload, variant: KernelVariant) -> f64 {
        self.gpu_run(workload, KernelVariant::Baseline).joules
            / self.gpu_run(workload, variant).joules
    }

    /// Energy-efficiency gain of the accelerator over the baseline GPU.
    pub fn accelerator_efficiency_gain(&self, workload: &Workload) -> f64 {
        self.gpu_run(workload, KernelVariant::Baseline).joules
            / self.accelerator_run(workload).joules
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::paper_design()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ImageSize;

    #[test]
    fn rsu_units_add_five_percent_power_for_multiplied_speed() {
        // The RSU array costs 12 W on a 250 W board (<5%) while cutting run
        // time 3–16x: efficiency gain tracks the speedup closely.
        let model = EnergyModel::paper_design();
        let w = Workload::motion(ImageSize::HD);
        let run = model.gpu_run(&w, KernelVariant::rsu(1));
        assert!((run.watts - 262.0).abs() < 0.5, "watts {}", run.watts);
        let gain = model.gpu_efficiency_gain(&w, KernelVariant::rsu(1));
        let speedup = model.gpu.speedup_over_baseline(&w, KernelVariant::rsu(1));
        assert!(gain > 0.9 * speedup, "gain {gain} vs speedup {speedup}");
    }

    #[test]
    fn accelerator_is_dramatically_more_efficient() {
        let model = EnergyModel::paper_design();
        let w = Workload::segmentation(ImageSize::HD);
        // 21x faster AND ~7x lower power ⇒ >100x less energy per run.
        let gain = model.accelerator_efficiency_gain(&w);
        assert!(gain > 100.0, "gain {gain}");
    }

    #[test]
    fn accelerator_power_is_tens_of_watts() {
        let model = EnergyModel::paper_design();
        let run = model.accelerator_run(&Workload::motion(ImageSize::HD));
        assert!(run.watts > 30.0 && run.watts < 50.0, "watts {}", run.watts);
    }

    #[test]
    fn joules_are_consistent() {
        let model = EnergyModel::paper_design();
        let w = Workload::segmentation(ImageSize::SMALL);
        let run = model.gpu_run(&w, KernelVariant::Baseline);
        assert!((run.joules - run.watts * run.seconds).abs() < 1e-9);
    }

    #[test]
    fn plain_gpu_variants_do_not_pay_rsu_power() {
        let model = EnergyModel::paper_design();
        let w = Workload::segmentation(ImageSize::HD);
        let base = model.gpu_run(&w, KernelVariant::Baseline);
        let opt = model.gpu_run(&w, KernelVariant::OptimizedSingleton);
        assert_eq!(base.watts, GPU_BOARD_WATTS);
        assert_eq!(opt.watts, GPU_BOARD_WATTS);
    }
}
