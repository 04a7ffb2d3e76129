//! Sampler backends: software softmax or an emulated RSU-G pool.
//!
//! The paper's accelerator exposes many physical RSU-G units; a site
//! update can land on any of them. [`RsuPool`] models that sharing by
//! round-robining consecutive draws over `K` replicated unit models, so
//! unit-to-unit calibration spread (when the units are configured with
//! different rigs) shows up in inference results the way a real multi-unit
//! part would exhibit it. [`BackendSampler`] packages the runtime choice
//! between the exact software sampler and the pool behind one type, which
//! keeps job types uniform in code that selects the backend from
//! configuration (the serve and fleet job specs, the benchmark).

use crate::error::EngineError;
use mogs_core::rsu_g::RsuGSampler;
use mogs_gibbs::kernel::{KernelScratch, SweepKernel, UnitFault};
use mogs_gibbs::{LabelSampler, SoftmaxGibbs};
use mogs_mrf::{EnergyQuantizer, Label};
use rand::Rng;

/// Round-robin pool of replicated sampling units.
///
/// Cloning resets the rotation to unit 0 — and the engine clones the
/// sampler fresh for every (chunk, group) phase — so pooled draws are as
/// deterministic as the underlying units.
///
/// The rotation runs over a *live set*: quarantining a unit (see
/// [`SweepKernel::set_live_units`]) removes it from the rotation without
/// disturbing the units themselves, so the health monitor can rebalance
/// the pool over survivors mid-job. A fresh pool's live set is all
/// units, and the healthy indexing is identical to the pre-quarantine
/// scheme (`(next + j) % replicas`).
#[derive(Debug, Clone)]
pub struct RsuPool<U> {
    units: Vec<U>,
    /// Indices of live (unquarantined) units, in rotation order.
    rotation: Vec<usize>,
    /// Position in `rotation` that serves the next draw.
    next: usize,
}

impl<U: LabelSampler> RsuPool<U> {
    /// Builds a pool of `replicas` clones of `unit`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(unit: U, replicas: usize) -> Self
    where
        U: Clone,
    {
        assert!(replicas > 0, "pool needs at least one unit");
        RsuPool {
            units: vec![unit; replicas],
            rotation: (0..replicas).collect(),
            next: 0,
        }
    }

    /// Builds a pool from distinct units (e.g. per-unit calibration).
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty.
    pub fn from_units(units: Vec<U>) -> Self {
        let rotation = (0..units.len()).collect();
        assert!(!units.is_empty(), "pool needs at least one unit");
        RsuPool {
            units,
            rotation,
            next: 0,
        }
    }

    /// Number of units in the pool (live or quarantined).
    pub fn replicas(&self) -> usize {
        self.units.len()
    }

    /// Number of units currently serving draws.
    pub fn live_units(&self) -> usize {
        self.rotation.len()
    }
}

impl<U: LabelSampler> LabelSampler for RsuPool<U> {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        let slot = self.rotation[self.next];
        self.next = (self.next + 1) % self.rotation.len();
        self.units[slot].sample_label(energies, temperature, current, rng)
    }

    fn name(&self) -> &'static str {
        "rsu-pool"
    }
}

impl RsuPool<RsuGSampler> {
    /// `out[j] = draw(unit, j, current[j])` on live unit `rotation[(next +
    /// j) % k]`, rotating per draw like the per-site path, in RNG order.
    fn draw_rotating(
        &mut self,
        current: &[Label],
        out: &mut [Label],
        mut draw: impl FnMut(&RsuGSampler, usize, Label) -> Label,
    ) {
        let k = self.rotation.len();
        for (j, (&cur, slot)) in current.iter().zip(out.iter_mut()).enumerate() {
            *slot = draw(&self.units[self.rotation[(self.next + j) % k]], j, cur);
        }
        self.next = (self.next + current.len()) % k;
    }
}

impl SweepKernel for RsuPool<RsuGSampler> {
    fn sample_chunk<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        m: usize,
        _temperature: f64,
        current: &[Label],
        out: &mut [Label],
        _scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        self.draw_rotating(current, out, |unit, j, cur| {
            unit.draw_row(&energies[j * m..(j + 1) * m], cur, rng)
        });
    }

    fn wants_fixed_rows(&self) -> bool {
        true
    }

    fn sample_fixed_chunk<R: Rng + ?Sized>(
        &mut self,
        rows: &[i16],
        m: usize,
        shift: u32,
        _temperature: f64,
        current: &[Label],
        out: &mut [Label],
        _scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        self.draw_rotating(current, out, |unit, j, cur| {
            unit.draw_fixed_row(&rows[j * m..(j + 1) * m], shift, cur, rng)
        });
    }

    fn unit_count(&self) -> usize {
        self.units.len()
    }

    fn inject_unit_fault(&mut self, unit: usize, fault: UnitFault) -> bool {
        match self.units.get_mut(unit) {
            Some(u) => {
                u.set_fault(Some(fault));
                true
            }
            None => false,
        }
    }

    fn set_live_units(&mut self, live: &[bool]) -> usize {
        let rotation: Vec<usize> = (0..self.units.len())
            .filter(|&i| live.get(i).copied().unwrap_or(true))
            .collect();
        if rotation.is_empty() {
            // Refuse an all-dead mask so the pool stays drawable; the
            // caller is expected to fail over instead.
            return 0;
        }
        self.rotation = rotation;
        self.next = 0;
        self.rotation.len()
    }

    fn probe_unit(&self, unit: usize, energies: &[f64], draws: u32, seed: u64) -> Option<Vec<f64>> {
        self.units
            .get(unit)
            .map(|u| u.probe_distribution(energies, draws, seed))
    }

    fn unit_faults(&self) -> Vec<Option<UnitFault>> {
        self.units.iter().map(RsuGSampler::fault).collect()
    }
}

/// The most units an RSU-G pool may hold: every phase clones the pool,
/// and a job description must not ask for an unsurvivable allocation.
pub const MAX_REPLICAS: usize = 1024;

/// Which sampler family a job should run on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Exact software Gibbs (softmax of the conditionals).
    Softmax,
    /// A pool of emulated RSU-G units sharing the site stream.
    RsuG {
        /// Units in the pool, `1..=MAX_REPLICAS`.
        replicas: usize,
    },
}

/// A runtime-selected sampler: one concrete type for either backend, so a
/// single monomorphized job pipeline serves both.
#[derive(Debug, Clone)]
pub enum BackendSampler {
    /// Exact software Gibbs.
    Softmax(SoftmaxGibbs),
    /// Emulated RSU-G pool.
    RsuPool(RsuPool<RsuGSampler>),
}

impl BackendSampler {
    /// Builds the sampler for `backend`, reporting invalid backend
    /// descriptions as [`EngineError::Backend`].
    ///
    /// RSU-G units use the workspace's standard emulation setup, matching
    /// the reference experiments: an energy-quantizer *scale* of 8.0
    /// (model energy `e` becomes `round(8e)`, which saturates at 255 from
    /// `e ≈ 31.8`) and the paper's `T` as the unit model temperature.
    pub fn try_new(backend: Backend, temperature: f64) -> Result<Self, EngineError> {
        match backend {
            Backend::Softmax => Ok(BackendSampler::Softmax(SoftmaxGibbs::new())),
            Backend::RsuG { replicas } => {
                if !(1..=MAX_REPLICAS).contains(&replicas) {
                    return Err(EngineError::Backend {
                        reason: format!("RSU-G pool of {replicas} not in 1..={MAX_REPLICAS}"),
                    });
                }
                if !(temperature.is_finite() && temperature > 0.0) {
                    return Err(EngineError::Backend {
                        reason: format!(
                            "RSU-G unit model temperature must be finite and positive, got {temperature}"
                        ),
                    });
                }
                Ok(BackendSampler::RsuPool(RsuPool::new(
                    RsuGSampler::new(EnergyQuantizer::new(8.0), temperature),
                    replicas,
                )))
            }
        }
    }
}

/// Forwards a method call to whichever sampler a [`BackendSampler`]
/// holds.
macro_rules! forward {
    ($self:expr, $s:ident => $call:expr) => {
        match $self {
            BackendSampler::Softmax($s) => $call,
            BackendSampler::RsuPool($s) => $call,
        }
    };
}

impl LabelSampler for BackendSampler {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        forward!(self, s => s.sample_label(energies, temperature, current, rng))
    }

    fn name(&self) -> &'static str {
        forward!(self, s => s.name())
    }
}

impl SweepKernel for BackendSampler {
    fn sample_chunk<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        m: usize,
        temperature: f64,
        current: &[Label],
        out: &mut [Label],
        scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        forward!(self, s => s.sample_chunk(energies, m, temperature, current, out, scratch, rng));
    }

    fn wants_fixed_rows(&self) -> bool {
        forward!(self, s => s.wants_fixed_rows())
    }

    fn sample_fixed_chunk<R: Rng + ?Sized>(
        &mut self,
        rows: &[i16],
        m: usize,
        shift: u32,
        temperature: f64,
        current: &[Label],
        out: &mut [Label],
        scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        forward!(self, s => s.sample_fixed_chunk(rows, m, shift, temperature, current, out, scratch, rng));
    }

    fn unit_count(&self) -> usize {
        forward!(self, s => s.unit_count())
    }

    fn inject_unit_fault(&mut self, unit: usize, fault: UnitFault) -> bool {
        forward!(self, s => s.inject_unit_fault(unit, fault))
    }

    fn set_live_units(&mut self, live: &[bool]) -> usize {
        forward!(self, s => s.set_live_units(live))
    }

    fn probe_unit(&self, unit: usize, energies: &[f64], draws: u32, seed: u64) -> Option<Vec<f64>> {
        forward!(self, s => s.probe_unit(unit, energies, draws, seed))
    }

    fn unit_faults(&self) -> Vec<Option<UnitFault>> {
        forward!(self, s => s.unit_faults())
    }

    /// Failing over swaps the RSU pool for the exact softmax sampler;
    /// an already-exact backend has nowhere to fail over to and reports
    /// `false` (the health monitor never probes it either).
    fn fail_over_to_exact(&mut self) -> bool {
        match self {
            BackendSampler::Softmax(_) => false,
            BackendSampler::RsuPool(_) => {
                *self = BackendSampler::Softmax(SoftmaxGibbs::new());
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pool_rotates_over_units_and_resets_on_clone() {
        let mut pool = RsuPool::new(SoftmaxGibbs::new(), 3);
        assert_eq!(pool.replicas(), 3);
        let energies = [0.0, 5.0];
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..7 {
            let _ = pool.sample_label(&energies, 1.0, Label::new(0), &mut rng);
        }
        assert_eq!(pool.next, 7 % 3);
        let clone = pool.clone();
        assert_eq!(clone.next, 7 % 3);
        let fresh = RsuPool::from_units(pool.units.clone());
        assert_eq!(fresh.next, 0);
    }

    #[test]
    fn identical_units_make_the_pool_transparent() {
        // A pool of identical deterministic-stream units must draw exactly
        // what a single unit draws: rotation only matters when units
        // differ.
        let energies = [0.0, 2.0, 4.0];
        let mut single = SoftmaxGibbs::new();
        let mut pool = RsuPool::new(SoftmaxGibbs::new(), 4);
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let a = single.sample_label(&energies, 2.0, Label::new(0), &mut rng_a);
            let b = pool.sample_label(&energies, 2.0, Label::new(0), &mut rng_b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn backend_sampler_selects_families() {
        let soft = BackendSampler::try_new(Backend::Softmax, 4.0).expect("valid backend");
        assert_eq!(soft.name(), "softmax-gibbs");
        let pool = BackendSampler::try_new(Backend::RsuG { replicas: 4 }, 4.0).expect("valid");
        assert_eq!(pool.name(), "rsu-pool");
    }

    #[test]
    fn quarantine_rebalances_the_rotation_and_failover_goes_exact() {
        let mut pool = BackendSampler::try_new(Backend::RsuG { replicas: 3 }, 4.0).expect("valid");
        assert_eq!(pool.unit_count(), 3);
        assert!(pool.inject_unit_fault(1, UnitFault::Dead));
        assert!(!pool.inject_unit_fault(9, UnitFault::Dead));
        assert_eq!(pool.set_live_units(&[true, false, true]), 2);
        if let BackendSampler::RsuPool(p) = &pool {
            assert_eq!(p.rotation, vec![0, 2]);
            assert_eq!(p.live_units(), 2);
            assert_eq!(p.replicas(), 3);
        } else {
            panic!("expected a pool");
        }
        // An all-dead mask is refused without touching the rotation.
        assert_eq!(pool.set_live_units(&[false, false, false]), 0);
        if let BackendSampler::RsuPool(p) = &pool {
            assert_eq!(p.rotation, vec![0, 2]);
        }
        assert!(pool.fail_over_to_exact());
        assert_eq!(pool.name(), "softmax-gibbs");
        assert!(!pool.fail_over_to_exact(), "already exact");
        assert_eq!(pool.unit_count(), 1);
        assert!(pool.probe_unit(0, &[0.0, 1.0], 8, 1).is_none());
    }

    #[test]
    fn try_new_reports_bad_backends_as_engine_errors() {
        // Past the bound, `vec![unit; replicas]` aborts or overflows.
        for replicas in [0, MAX_REPLICAS + 1, 1 << 40, usize::MAX] {
            let err = BackendSampler::try_new(Backend::RsuG { replicas }, 4.0).unwrap_err();
            assert_eq!(err.variant(), "backend");
        }
        let err = BackendSampler::try_new(Backend::RsuG { replicas: 2 }, 0.0).unwrap_err();
        assert_eq!(err.variant(), "backend");
        assert!(BackendSampler::try_new(Backend::Softmax, 0.0).is_ok());
    }

    /// Distinct per-unit calibrations so the rotation actually matters,
    /// then: batched chunk == per-site loop, labels and RNG stream both.
    #[test]
    fn pooled_batched_kernel_is_bit_identical_to_per_site_rotation() {
        use mogs_gibbs::kernel::KernelScratch;

        let units: Vec<RsuGSampler> = (0..3)
            .map(|i| RsuGSampler::new(EnergyQuantizer::new(6.0 + f64::from(i)), 4.0))
            .collect();
        let mut reference = RsuPool::from_units(units.clone());
        let mut batched = RsuPool::from_units(units);

        let m = 5;
        let sites = 17;
        let energies: Vec<f64> = (0..sites * m).map(|i| (i % 11) as f64 * 0.7).collect();
        let current: Vec<Label> = (0..sites).map(|i| Label::new((i % m) as u8)).collect();

        // Skew the rotation so the chunk does not start at unit 0.
        let mut skew = StdRng::seed_from_u64(9);
        for _ in 0..4 {
            let _ = reference.sample_label(&energies[..m], 4.0, current[0], &mut skew);
            let _ = batched.sample_label(&energies[..m], 4.0, current[0], &mut skew);
        }

        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let expected: Vec<Label> = (0..sites)
            .map(|j| {
                reference.sample_label(&energies[j * m..(j + 1) * m], 4.0, current[j], &mut rng_a)
            })
            .collect();

        let mut out = vec![Label::new(0); sites];
        let mut scratch = KernelScratch::new();
        batched.sample_chunk(
            &energies,
            m,
            4.0,
            &current,
            &mut out,
            &mut scratch,
            &mut rng_b,
        );

        assert_eq!(out, expected);
        assert_eq!(
            rng_a.gen::<u64>(),
            rng_b.gen::<u64>(),
            "RNG streams diverged"
        );
        assert_eq!(batched.next, reference.next, "rotation state diverged");
    }
}
