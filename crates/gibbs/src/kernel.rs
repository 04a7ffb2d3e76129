//! Chunk-batched sweep kernels: evaluate a whole chunk, then draw.
//!
//! The per-site [`LabelSampler`] contract is the right unit for fidelity
//! studies, but an engine hot loop pays for it per visit: one virtual-ish
//! call, one stack energy buffer, one branchy scan per site. A
//! [`SweepKernel`] amortizes that over a chunk of same-phase sites — the
//! caller evaluates all `M` conditional energies for every site of the
//! chunk into one flat structure-of-arrays buffer (`site`-major rows of
//! `m`), and the kernel draws every label in one pass, reusing
//! caller-owned scratch ([`KernelArena`]) so the inner loops are
//! branch-light and allocation-free. A kernel may also opt in to the
//! same rows as exact fixed-point integers
//! ([`SweepKernel::sample_fixed_chunk`]) for fields whose energies are
//! small dyadic rationals.
//!
//! # Bit-identity contract
//!
//! `sample_chunk` must be **bit-identical** to the per-site reference
//! loop (the trait's default body): same labels out, same RNG consumption
//! order and count. Batched implementations may reorder or skip RNG-free
//! work (softmax weights, RSU intensity codes of labels that cannot
//! fire) but draw sites in chunk order, consuming the RNG exactly as the
//! per-site path would. The engine's `kernel_identity` and
//! `engine_runtime` tests hold every implementation to this, and
//! `gather_bits` and `fixed_rows` hold the rows the kernel draws from.

use crate::sampler::LabelSampler;
use mogs_mrf::label::MAX_LABELS;
use mogs_mrf::Label;
use rand::Rng;

/// A unit-level device fault, as a physical RSU would exhibit it.
///
/// Faults are injected through [`SweepKernel::inject_unit_fault`]; kernels
/// without addressable units (the exact software samplers) ignore them.
/// The semantics are fixed here so every backend degrades the same way:
///
/// - [`Dead`](UnitFault::Dead): the unit's detector never fires — every
///   draw keeps the current label and consumes no randomness (the
///   hardware analogue of an all-saturated TTF window).
/// - [`Stuck`](UnitFault::Stuck): the selection stage latches one label
///   regardless of the energies, consuming no randomness.
/// - [`DarkCount`](UnitFault::DarkCount): the SPAD fires spuriously at
///   `rate_per_ns`; when the dark event beats every real label's
///   time-to-first-fire, the draw lands on a uniformly random label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnitFault {
    /// The unit never fires; draws keep the current label.
    Dead,
    /// The unit always returns this label.
    Stuck(Label),
    /// Spurious detector events competing with the real labels.
    DarkCount {
        /// Dark-count rate in events per nanosecond.
        rate_per_ns: f64,
    },
}

/// Caller-owned kernel-internal buffers, split from [`KernelArena`] so a
/// kernel can borrow it mutably while reading the arena. Empty: the
/// softmax and RSU-G kernels both draw each row in one fused pass over
/// stack storage, but the slot stays in the `sample_chunk` ABI.
#[derive(Debug, Default, Clone)]
pub struct KernelScratch;

impl KernelScratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Self {
        KernelScratch
    }
}

/// Per-worker scratch arena for chunk-batched sweeps: the energy
/// structure-of-arrays (f64 and fixed-point), the chunk's current and
/// output labels, and the kernel-internal [`KernelScratch`]. One arena
/// lives on each engine worker thread and is reused across phases and
/// jobs, so the hot path never allocates after warm-up.
#[derive(Debug, Default, Clone)]
pub struct KernelArena {
    /// Conditional energies, `site`-major: entry `j * m + l` is label `l`
    /// of the chunk's `j`-th site.
    pub energies: Vec<f64>,
    /// The same rows as exact fixed-point integers, for kernels that take
    /// them ([`SweepKernel::sample_fixed_chunk`]).
    pub fixed: Vec<i16>,
    /// The chunk's pre-phase labels, one per site.
    pub current: Vec<Label>,
    /// The kernel's drawn labels, one per site.
    pub out: Vec<Label>,
    /// Kernel-internal buffers.
    pub scratch: KernelScratch,
}

impl KernelArena {
    /// An empty arena; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        KernelArena::default()
    }

    /// Sizes the buffers for a chunk of `sites` sites with `m` labels.
    /// Growth-only, so a worker's arena settles at the largest chunk it
    /// has seen.
    pub fn prepare(&mut self, sites: usize, m: usize) {
        let cells = sites * m;
        if self.energies.len() < cells {
            self.energies.resize(cells, 0.0);
            self.fixed.resize(cells, 0);
        }
        if self.current.len() < sites {
            self.current.resize(sites, Label::new(0));
            self.out.resize(self.current.len(), Label::new(0));
        }
    }
}

/// A [`LabelSampler`] that can draw a whole chunk of same-phase sites
/// from a flat energy buffer.
///
/// The default body *is* the per-site reference loop, so every sampler
/// gets a correct (if unbatched) kernel for free; batched overrides must
/// preserve it bit for bit — see the module docs.
pub trait SweepKernel: LabelSampler {
    /// Draws new labels for a whole chunk.
    ///
    /// `energies` holds `current.len()` site-major rows of `m`
    /// conditional energies; `out[j]` receives the label drawn for the
    /// chunk's `j`-th site. Implementations consume `rng` site by site in
    /// chunk order, exactly like the reference loop.
    #[expect(
        clippy::too_many_arguments,
        reason = "the kernel ABI: buffers are flat slices on purpose"
    )]
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
        let _ = scratch;
        debug_assert_eq!(energies.len(), current.len() * m);
        debug_assert_eq!(out.len(), current.len());
        for (j, (&cur, slot)) in current.iter().zip(out.iter_mut()).enumerate() {
            *slot = self.sample_label(&energies[j * m..(j + 1) * m], temperature, cur, rng);
        }
    }

    /// Whether the engine may hand this kernel exact fixed-point rows
    /// through [`SweepKernel::sample_fixed_chunk`] when the field has
    /// them ([`MarkovRandomField::fixed_rows`]). The default declines, so
    /// the kernel only ever sees f64 rows.
    ///
    /// [`MarkovRandomField::fixed_rows`]: mogs_mrf::MarkovRandomField::fixed_rows
    fn wants_fixed_rows(&self) -> bool {
        false
    }

    /// [`SweepKernel::sample_chunk`] over exact fixed-point rows: entry
    /// `j * m + l` of `rows` is the conditional energy in units of
    /// `2^-shift`: times `2^-shift`, it is the f64 energy bit for bit.
    /// Implementations must draw exactly what `sample_chunk` draws from
    /// the scaled rows, labels and RNG stream both; the default body
    /// scales each row and draws it with `sample_label`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the kernel ABI: buffers are flat slices on purpose"
    )]
    fn sample_fixed_chunk<R: Rng + ?Sized>(
        &mut self,
        rows: &[i16],
        m: usize,
        shift: u32,
        temperature: f64,
        current: &[Label],
        out: &mut [Label],
        rng: &mut R,
    ) {
        let unit = 1.0 / f64::from(1u32 << shift);
        let mut row = [0.0f64; MAX_LABELS as usize];
        for (j, (&cur, slot)) in current.iter().zip(out.iter_mut()).enumerate() {
            for (e, &units) in row.iter_mut().zip(&rows[j * m..(j + 1) * m]) {
                *e = f64::from(units) * unit;
            }
            *slot = self.sample_label(&row[..m], temperature, cur, rng);
        }
    }

    /// Number of addressable hardware units behind this kernel.
    ///
    /// Exact software samplers report `1`; an RSU pool reports its
    /// replica count. Unit indices passed to the other fault hooks are
    /// `0..unit_count()`.
    fn unit_count(&self) -> usize {
        1
    }

    /// Injects a device fault into one unit.
    ///
    /// Returns `true` when the kernel has addressable units and applied
    /// the fault; the default (exact samplers) ignores it and returns
    /// `false`.
    fn inject_unit_fault(&mut self, unit: usize, fault: UnitFault) -> bool {
        let _ = (unit, fault);
        false
    }

    /// Restricts the kernel's unit rotation to the units flagged live.
    ///
    /// Returns the number of units actually serving after the call. The
    /// default ignores the mask and keeps every unit live. Implementors
    /// must refuse an all-dead mask (return `0` without changing state)
    /// so callers can fail over instead of wedging the kernel.
    fn set_live_units(&mut self, live: &[bool]) -> usize {
        let _ = live;
        self.unit_count()
    }

    /// Draws `draws` labels for one fixed energy row on a single unit and
    /// returns the empirical label distribution (length [`MAX_LABELS`],
    /// indexed by label value), or `None` when the kernel has no
    /// per-unit probe (exact samplers).
    ///
    /// The probe uses its own RNG seeded from `seed` — it never touches
    /// a job's sampling stream — so for a fixed `(energies, draws,
    /// seed)` the result is a pure function of the unit's device state.
    fn probe_unit(&self, unit: usize, energies: &[f64], draws: u32, seed: u64) -> Option<Vec<f64>> {
        let _ = (unit, energies, draws, seed);
        None
    }

    /// Swaps this kernel for an exact software implementation, if it has
    /// one to fail over to. Returns `true` when the swap happened; the
    /// default (already-exact kernels, or kernels with no fallback)
    /// returns `false`.
    fn fail_over_to_exact(&mut self) -> bool {
        false
    }

    /// Exports the per-unit device-fault state, indexed by unit, for
    /// checkpointing. Kernels without addressable fault state (the exact
    /// software samplers) return an empty vector; a pool returns one
    /// entry per unit, `None` for healthy units. Re-injecting the
    /// returned faults through [`SweepKernel::inject_unit_fault`] into a
    /// pristine kernel must reproduce the exported device state exactly
    /// — that is what bit-identical restore relies on.
    fn unit_faults(&self) -> Vec<Option<UnitFault>> {
        Vec::new()
    }
}

/// Exact softmax Gibbs, batched: one fused pass per site row computes the
/// min-shifted Boltzmann weights and draws by inverse CDF.
///
/// Bit-identity with [`SoftmaxGibbs::sample_label`] is preserved
/// operation for operation, with one legitimate shortcut: when the row
/// minimum is finite and the temperature positive, the minimal energy's
/// weight is exactly `exp(-0.0/T) = 1.0` by IEEE-754, so the `exp` call
/// is skipped for it (at least one of the `M` exponentials per site).
impl SweepKernel for crate::sampler::SoftmaxGibbs {
    #[expect(
        clippy::as_conversions,
        reason = "array lengths must be const-evaluable and u16 -> usize widening is exact; \
                  label indices are bounded by `m <= MAX_LABELS (64)`, so they always fit a \
                  u8 (the reference scan, cast for cast)"
    )]
    fn sample_chunk<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        m: usize,
        temperature: f64,
        current: &[Label],
        out: &mut [Label],
        _scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        debug_assert!(m > 0 && m <= usize::from(MAX_LABELS));
        debug_assert_eq!(energies.len(), current.len() * m);
        debug_assert_eq!(out.len(), current.len());
        // The shortcut needs `e - min == 0.0` and `0.0 / T == 0.0`; a
        // non-finite min (empty or all-infinite row) or a zero/NaN
        // temperature would break either step, so those rows take the
        // reference arithmetic unshortened.
        let shortcut = temperature > 0.0;
        let mut weights = [0.0f64; MAX_LABELS as usize];
        for (j, (&cur, slot)) in current.iter().zip(out.iter_mut()).enumerate() {
            let row = &energies[j * m..(j + 1) * m];
            let min = row.iter().copied().fold(f64::INFINITY, f64::min);
            let fast = shortcut && min.is_finite();
            let mut total = 0.0;
            for (w, e) in weights[..m].iter_mut().zip(row) {
                *w = if fast && *e == min {
                    1.0
                } else {
                    (-(e - min) / temperature).exp()
                };
                total += *w;
            }
            if total <= 0.0 {
                // Degenerate row (all weights underflowed): keep the
                // current label without consuming the RNG, like the
                // reference.
                *slot = cur;
                continue;
            }
            let mut u = rng.gen::<f64>() * total;
            *slot = 'drawn: {
                for (l, w) in weights[..m].iter().enumerate() {
                    if u < *w {
                        break 'drawn Label::new(l as u8);
                    }
                    u -= w;
                }
                Label::new((m - 1) as u8)
            };
        }
    }
}

/// Metropolis keeps the reference per-site loop: its draw consumes the
/// RNG for the proposal *and* (conditionally) the acceptance test, which
/// leaves nothing RNG-free to batch.
impl SweepKernel for crate::sampler::Metropolis {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{Metropolis, SoftmaxGibbs};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs the trait's default body (the per-site reference loop) no
    /// matter what `sample_chunk` override `L` carries.
    fn reference_chunk<L: LabelSampler, R: Rng + ?Sized>(
        sampler: &mut L,
        energies: &[f64],
        m: usize,
        temperature: f64,
        current: &[Label],
        out: &mut [Label],
        rng: &mut R,
    ) {
        for (j, (&cur, slot)) in current.iter().zip(out.iter_mut()).enumerate() {
            *slot = sampler.sample_label(&energies[j * m..(j + 1) * m], temperature, cur, rng);
        }
    }

    fn assert_bit_identical<L: SweepKernel + Clone>(
        sampler: &L,
        energies: &[f64],
        m: usize,
        temperature: f64,
        current: &[Label],
        seed: u64,
    ) {
        let sites = current.len();
        let mut expect = vec![Label::new(0); sites];
        let mut got = vec![Label::new(0); sites];
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let mut reference = sampler.clone();
        let mut batched = sampler.clone();
        reference_chunk(
            &mut reference,
            energies,
            m,
            temperature,
            current,
            &mut expect,
            &mut rng_a,
        );
        let mut scratch = KernelScratch::new();
        batched.sample_chunk(
            energies,
            m,
            temperature,
            current,
            &mut got,
            &mut scratch,
            &mut rng_b,
        );
        assert_eq!(got, expect, "labels diverged");
        assert_eq!(
            rng_a.gen::<u64>(),
            rng_b.gen::<u64>(),
            "RNG consumption diverged"
        );
    }

    #[test]
    fn arena_growth_is_monotonic() {
        let mut arena = KernelArena::new();
        arena.prepare(10, 4);
        assert!(arena.energies.len() >= 40);
        arena.prepare(3, 2);
        assert!(arena.energies.len() >= 40, "arena must never shrink");
        assert_eq!(arena.fixed.len(), arena.energies.len());
        assert!(arena.current.len() >= 10 && arena.out.len() >= 10);
    }

    #[test]
    fn softmax_kernel_matches_reference_on_degenerate_rows() {
        // Energies so large every weight underflows: the reference keeps
        // the current label and consumes no RNG.
        let m = 3;
        let energies = vec![0.0, 1e300, 1e300, 1e300, 0.0, 1e300];
        let current = vec![Label::new(2), Label::new(1)];
        assert_bit_identical(&SoftmaxGibbs::new(), &energies, m, 1.0, &current, 7);
    }

    #[test]
    fn softmax_kernel_matches_reference_at_zero_temperature() {
        // T = 0 sends the shortcut's `0.0 / T` to NaN territory; the
        // kernel must fall back to the reference arithmetic.
        let energies = vec![1.0, 2.0, 1.0, 3.0];
        let current = vec![Label::new(1), Label::new(0)];
        assert_bit_identical(&SoftmaxGibbs::new(), &energies, 2, 0.0, &current, 9);
    }

    #[test]
    fn metropolis_default_body_is_the_reference() {
        let energies = vec![0.5, 1.5, 0.0, 2.0, 1.0, 0.25];
        let current = vec![Label::new(0), Label::new(1), Label::new(0)];
        assert_bit_identical(&Metropolis::new(), &energies, 2, 1.0, &current, 11);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn softmax_kernel_bit_identical(
            sites in 1usize..24,
            m in 2usize..=64,
            temperature in 0.05f64..8.0,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
            let energies: Vec<f64> =
                (0..sites * m).map(|_| rng.gen_range(-4.0..12.0)).collect();
            #[expect(clippy::as_conversions, reason = "m <= 64 fits u8")]
            let current: Vec<Label> = (0..sites)
                .map(|_| Label::new(rng.gen_range(0..m) as u8))
                .collect();
            assert_bit_identical(
                &SoftmaxGibbs::new(), &energies, m, temperature, &current, seed,
            );
        }
    }
}
