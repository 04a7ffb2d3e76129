//! Full-grid MCMC sweeps: sequential and checkerboard-parallel.
//!
//! One MCMC iteration updates every random variable once (paper §4.2). In a
//! first-order MRF, all sites of one checkerboard colour are conditionally
//! independent given the other colour, so they can be updated concurrently —
//! the parallelism the paper's GPU baselines and RSU arrays exploit. The
//! parallel sweep here uses scoped threads over per-thread sampler clones
//! and deterministically seeded RNG streams, so results are reproducible
//! for a fixed seed and thread count.

use crate::sampler::LabelSampler;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Label, MarkovRandomField, Parity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Updates every site once, in row-major order, in place.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the grid size.
pub fn sequential_sweep<S, L, R>(
    mrf: &MarkovRandomField<S>,
    labels: &mut [Label],
    sampler: &mut L,
    temperature: f64,
    rng: &mut R,
) where
    S: SingletonPotential,
    L: LabelSampler,
    R: Rng + ?Sized,
{
    assert_eq!(
        labels.len(),
        mrf.grid().len(),
        "labeling must cover the grid"
    );
    let m = mrf.space().count();
    let mut energies = vec![0.0; m];
    for site in mrf.grid().sites() {
        mrf.conditional_energies_into(labels, site, &mut energies);
        labels[site] = sampler.sample_label(&energies, temperature, labels[site], rng);
    }
}

/// Reusable buffers for repeated [`checkerboard_sweep`]/[`colored_sweep`]
/// calls.
///
/// Each parity phase of a parallel sweep needs an immutable snapshot of
/// the pre-phase labeling for neighbour reads. Allocating that snapshot
/// per phase (`labels.to_vec()`) dominates allocator traffic in the hot
/// loop of a long chain; a `SweepScratch` owns one snapshot buffer and
/// reuses it across phases and sweeps.
#[derive(Debug, Default, Clone)]
pub struct SweepScratch {
    snapshot: Vec<Label>,
}

impl SweepScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        SweepScratch::default()
    }

    /// Refreshes the snapshot buffer from `labels` and returns it.
    fn refresh(&mut self, labels: &[Label]) -> &[Label] {
        self.snapshot.clear();
        self.snapshot.extend_from_slice(labels);
        &self.snapshot
    }
}

/// Updates every site once using the checkerboard schedule: all even-parity
/// sites (in parallel across `threads`), then all odd-parity sites.
///
/// Valid for first-order fields; for a field of either order use
/// [`colored_sweep`], which derives the independent groups from the
/// field's neighbourhood (two parities or four block colours).
///
/// Each (thread, parity) pair gets an RNG seeded as `seed ⊕ f(thread,
/// parity)`, so the sweep is deterministic for fixed `seed` and `threads`.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the grid size or `threads == 0`.
pub fn checkerboard_sweep<S, L>(
    mrf: &MarkovRandomField<S>,
    labels: &mut [Label],
    sampler: &L,
    temperature: f64,
    threads: usize,
    seed: u64,
) where
    S: SingletonPotential + Sync,
    L: LabelSampler + Clone + Send + Sync,
{
    let mut scratch = SweepScratch::new();
    checkerboard_sweep_with_scratch(
        mrf,
        labels,
        sampler,
        temperature,
        threads,
        seed,
        &mut scratch,
    );
}

/// [`checkerboard_sweep`] with caller-owned scratch buffers, for hot loops
/// that sweep many times. Bit-identical to the scratch-free entry point
/// for the same arguments.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the grid size or `threads == 0`.
pub fn checkerboard_sweep_with_scratch<S, L>(
    mrf: &MarkovRandomField<S>,
    labels: &mut [Label],
    sampler: &L,
    temperature: f64,
    threads: usize,
    seed: u64,
    scratch: &mut SweepScratch,
) where
    S: SingletonPotential + Sync,
    L: LabelSampler + Clone + Send + Sync,
{
    let groups: Vec<Vec<usize>> = Parity::BOTH
        .into_iter()
        .map(|p| mrf.grid().sites_of_parity(p).collect())
        .collect();
    sweep_groups(
        mrf,
        labels,
        sampler,
        temperature,
        threads,
        seed,
        &groups,
        scratch,
    );
}

/// Updates every site once using the field's own conditionally independent
/// groups ([`MarkovRandomField::independent_groups`]): checkerboard
/// parities for first-order fields, 2×2-block colours for second-order
/// fields.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the grid size or `threads == 0`.
pub fn colored_sweep<S, L>(
    mrf: &MarkovRandomField<S>,
    labels: &mut [Label],
    sampler: &L,
    temperature: f64,
    threads: usize,
    seed: u64,
) where
    S: SingletonPotential + Sync,
    L: LabelSampler + Clone + Send + Sync,
{
    let mut scratch = SweepScratch::new();
    colored_sweep_with_scratch(
        mrf,
        labels,
        sampler,
        temperature,
        threads,
        seed,
        &mut scratch,
    );
}

/// [`colored_sweep`] with caller-owned scratch buffers, for hot loops that
/// sweep many times. Bit-identical to the scratch-free entry point for the
/// same arguments.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the grid size or `threads == 0`.
pub fn colored_sweep_with_scratch<S, L>(
    mrf: &MarkovRandomField<S>,
    labels: &mut [Label],
    sampler: &L,
    temperature: f64,
    threads: usize,
    seed: u64,
    scratch: &mut SweepScratch,
) where
    S: SingletonPotential + Sync,
    L: LabelSampler + Clone + Send + Sync,
{
    let groups = mrf.independent_groups();
    sweep_groups(
        mrf,
        labels,
        sampler,
        temperature,
        threads,
        seed,
        &groups,
        scratch,
    );
}

/// # Panics
///
/// Panics if `labels.len()` differs from the grid size or `threads == 0`,
/// and re-panics when a sweep worker panicked.
#[expect(
    clippy::too_many_arguments,
    reason = "the public sweep's parameters plus its phase groups"
)]
fn sweep_groups<S, L>(
    mrf: &MarkovRandomField<S>,
    labels: &mut [Label],
    sampler: &L,
    temperature: f64,
    threads: usize,
    seed: u64,
    groups: &[Vec<usize>],
    scratch: &mut SweepScratch,
) where
    S: SingletonPotential + Sync,
    L: LabelSampler + Clone + Send + Sync,
{
    assert_eq!(
        labels.len(),
        mrf.grid().len(),
        "labeling must cover the grid"
    );
    assert!(threads > 0, "need at least one thread");
    for (parity_idx, sites) in groups.iter().enumerate() {
        // Immutable snapshot for neighbour reads; same-parity sites never
        // read each other, so reading the pre-sweep labels is exact Gibbs.
        let snapshot = scratch.refresh(labels);
        let chunk = sites.len().div_ceil(threads);
        let mut updates: Vec<Vec<(usize, Label)>> = Vec::new();
        crossbeam::scope(|scope| {
            let mut handles = Vec::new();
            for (t, chunk_sites) in sites.chunks(chunk.max(1)).enumerate() {
                let snapshot = &snapshot;
                let mut local_sampler = sampler.clone();
                let handle = scope.spawn(move |_| {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ ((parity_idx as u64) << 32),
                    );
                    let m = mrf.space().count();
                    let mut energies = vec![0.0; m];
                    let mut out = Vec::with_capacity(chunk_sites.len());
                    for &site in chunk_sites {
                        mrf.conditional_energies_into(snapshot, site, &mut energies);
                        let new = local_sampler.sample_label(
                            &energies,
                            temperature,
                            snapshot[site],
                            &mut rng,
                        );
                        out.push((site, new));
                    }
                    out
                });
                handles.push(handle);
            }
            updates = handles
                .into_iter()
                // Join fails only when the worker panicked; re-panicking
                // here just propagates it.
                .map(|h| h.join().expect("sweep worker"))
                .collect();
        })
        // The scope errs only on a worker panic, which this propagates.
        .expect("scoped threads");
        for (site, label) in updates.into_iter().flatten() {
            labels[site] = label;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SoftmaxGibbs;
    use mogs_mrf::{Grid2D, LabelSpace, SmoothnessPrior};

    fn test_mrf() -> MarkovRandomField<impl SingletonPotential> {
        // Data pulls the left half to label 0 and the right half to 1.
        let grid = Grid2D::new(8, 8);
        let width = grid.width();
        MarkovRandomField::builder(grid, LabelSpace::scalar(2))
            .prior(SmoothnessPrior::potts(0.5))
            .singleton(move |site: usize, label: Label| {
                let x = site % width;
                let want = if x < width / 2 { 0 } else { 1 };
                if label.value() == want {
                    0.0
                } else {
                    3.0
                }
            })
            .build()
    }

    #[test]
    fn sequential_sweep_moves_toward_data() {
        let mrf = test_mrf();
        let mut labels = mrf.uniform_labeling();
        let mut sampler = SoftmaxGibbs::new();
        let mut rng = StdRng::seed_from_u64(1);
        let e0 = mrf.total_energy(&labels);
        for _ in 0..20 {
            sequential_sweep(&mrf, &mut labels, &mut sampler, 1.0, &mut rng);
        }
        assert!(
            mrf.total_energy(&labels) < e0,
            "energy should fall from uniform start"
        );
    }

    #[test]
    fn checkerboard_sweep_moves_toward_data() {
        let mrf = test_mrf();
        let mut labels = mrf.uniform_labeling();
        let sampler = SoftmaxGibbs::new();
        let e0 = mrf.total_energy(&labels);
        for i in 0..20 {
            checkerboard_sweep(&mrf, &mut labels, &sampler, 1.0, 4, 100 + i);
        }
        assert!(mrf.total_energy(&labels) < e0);
    }

    #[test]
    fn checkerboard_deterministic_for_fixed_seed() {
        let mrf = test_mrf();
        let sampler = SoftmaxGibbs::new();
        let mut a = mrf.uniform_labeling();
        let mut b = mrf.uniform_labeling();
        for i in 0..5 {
            checkerboard_sweep(&mrf, &mut a, &sampler, 1.0, 3, i);
            checkerboard_sweep(&mrf, &mut b, &sampler, 1.0, 3, i);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn single_thread_checkerboard_works() {
        let mrf = test_mrf();
        let sampler = SoftmaxGibbs::new();
        let mut labels = mrf.uniform_labeling();
        checkerboard_sweep(&mrf, &mut labels, &sampler, 1.0, 1, 7);
        assert_eq!(labels.len(), mrf.grid().len());
    }

    #[test]
    fn both_sweeps_converge_to_same_segmentation() {
        // Statistically, both kernels should find the left/right split.
        let mrf = test_mrf();
        let sampler = SoftmaxGibbs::new();
        let mut seq = mrf.uniform_labeling();
        let mut par = mrf.uniform_labeling();
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = sampler;
        for i in 0..50 {
            sequential_sweep(&mrf, &mut seq, &mut s, 0.3, &mut rng);
            checkerboard_sweep(&mrf, &mut par, &sampler, 0.3, 2, 1000 + i);
        }
        let agree = |labels: &[Label]| {
            let w = mrf.grid().width();
            mrf.grid()
                .sites()
                .filter(|&site| {
                    let want = if site % w < w / 2 { 0 } else { 1 };
                    labels[site].value() == want
                })
                .count() as f64
                / mrf.grid().len() as f64
        };
        assert!(agree(&seq) > 0.9, "sequential accuracy {}", agree(&seq));
        assert!(agree(&par) > 0.9, "parallel accuracy {}", agree(&par));
    }

    #[test]
    fn colored_sweep_handles_second_order_fields() {
        use mogs_mrf::Neighborhood;
        let grid = Grid2D::new(8, 8);
        let width = grid.width();
        let mrf = MarkovRandomField::builder(grid, LabelSpace::scalar(2))
            .prior(SmoothnessPrior::potts(0.5))
            .neighborhood(Neighborhood::SecondOrder)
            .singleton(move |site: usize, label: Label| {
                let want = u8::from(site % width >= width / 2);
                if label.value() == want {
                    0.0
                } else {
                    3.0
                }
            })
            .build();
        let sampler = SoftmaxGibbs::new();
        let mut labels = mrf.uniform_labeling();
        let e0 = mrf.total_energy(&labels);
        for i in 0..25 {
            colored_sweep(&mrf, &mut labels, &sampler, 0.5, 3, 500 + i);
        }
        assert!(mrf.total_energy(&labels) < e0);
        // The diagonal coupling should still allow the data split through.
        let accuracy = mrf
            .grid()
            .sites()
            .filter(|&s| {
                let want = u8::from(s % width >= width / 2);
                labels[s].value() == want
            })
            .count() as f64
            / mrf.grid().len() as f64;
        assert!(accuracy > 0.85, "second-order accuracy {accuracy}");
    }

    #[test]
    fn colored_sweep_matches_checkerboard_for_first_order() {
        let mrf = test_mrf();
        let sampler = SoftmaxGibbs::new();
        let mut a = mrf.uniform_labeling();
        let mut b = mrf.uniform_labeling();
        for i in 0..5 {
            checkerboard_sweep(&mrf, &mut a, &sampler, 1.0, 2, i);
            colored_sweep(&mrf, &mut b, &sampler, 1.0, 2, i);
        }
        // First-order independent groups ARE the parities, in the same
        // order, so the two entry points are bit-identical.
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "labeling must cover the grid")]
    fn wrong_labeling_size_panics() {
        let mrf = test_mrf();
        let mut labels = vec![Label::new(0); 3];
        let mut sampler = SoftmaxGibbs::new();
        let mut rng = StdRng::seed_from_u64(0);
        sequential_sweep(&mrf, &mut labels, &mut sampler, 1.0, &mut rng);
    }
}
