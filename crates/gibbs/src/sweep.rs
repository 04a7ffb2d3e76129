//! Full-grid MCMC sweeps: the one reference for the engine's hot loop.
//!
//! One MCMC iteration updates every random variable once (paper §4.2). In a
//! first-order MRF, all sites of one checkerboard colour are conditionally
//! independent given the other colour, so they could be updated
//! concurrently — the parallelism the paper's GPU baselines and RSU arrays
//! exploit, and the engine's. The sweeps here run serially: each colour
//! group is cut into `threads` deterministic chunks, and each chunk draws
//! with its own sampler clone and its own seeded RNG stream, in chunk
//! order on the calling thread. Same-group sites never neighbour each
//! other, so updating them in place reads exactly the labels a parallel
//! update would, and the result is bit-identical to the engine for the
//! same seed and chunk count.

use crate::sampler::LabelSampler;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Label, MarkovRandomField, Parity};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-iteration sweep seed of a chain seeded `seed`: iteration `t`
/// sweeps with `seed + t·0xA24BAED4963EE407`. The engine and every
/// reference loop derive their sweeps' streams from it.
#[must_use]
#[inline]
pub fn sweep_seed(seed: u64, iteration: usize) -> u64 {
    seed.wrapping_add((iteration as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Reusable buffers for repeated [`checkerboard_sweep`]/[`colored_sweep`]
/// calls: the per-site energy row, allocated once for a long chain
/// instead of once per sweep.
#[derive(Debug, Default, Clone)]
pub struct SweepScratch {
    energies: Vec<f64>,
}

impl SweepScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        SweepScratch::default()
    }
}

/// Updates every site once using the checkerboard schedule: all even-parity
/// sites, then all odd-parity sites, each parity cut into `threads` chunks.
///
/// Valid for first-order fields; for a field of either order use
/// [`colored_sweep`], which derives the independent groups from the
/// field's neighbourhood (two parities or four block colours).
///
/// Each (chunk, parity) pair gets an RNG seeded as `seed ⊕ f(chunk,
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
    S: SingletonPotential,
    L: LabelSampler + Clone,
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
    S: SingletonPotential,
    L: LabelSampler + Clone,
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
    S: SingletonPotential,
    L: LabelSampler + Clone,
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
        &mut SweepScratch::new(),
    );
}

/// # Panics
///
/// Panics if `labels.len()` differs from the grid size or `threads == 0`.
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
    S: SingletonPotential,
    L: LabelSampler + Clone,
{
    assert_eq!(
        labels.len(),
        mrf.grid().len(),
        "labeling must cover the grid"
    );
    assert!(threads > 0, "need at least one chunk");
    scratch.energies.resize(mrf.space().count(), 0.0);
    for (group, sites) in groups.iter().enumerate() {
        let chunk_len = sites.len().div_ceil(threads).max(1);
        for (chunk, chunk_sites) in sites.chunks(chunk_len).enumerate() {
            let mut sampler = sampler.clone();
            let mut rng = StdRng::seed_from_u64(
                seed ^ (chunk as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((group as u64) << 32),
            );
            for &site in chunk_sites {
                mrf.conditional_energies_into(labels, site, &mut scratch.energies);
                labels[site] =
                    sampler.sample_label(&scratch.energies, temperature, labels[site], &mut rng);
            }
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
    fn one_chunk_sweep_moves_toward_data() {
        let mrf = test_mrf();
        let mut labels = mrf.uniform_labeling();
        let sampler = SoftmaxGibbs::new();
        let e0 = mrf.total_energy(&labels);
        for i in 0..20 {
            colored_sweep(&mrf, &mut labels, &sampler, 1.0, 1, sweep_seed(1, i));
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
        // Statistically, both entry points and chunkings should find the
        // left/right split.
        let mrf = test_mrf();
        let sampler = SoftmaxGibbs::new();
        let mut seq = mrf.uniform_labeling();
        let mut par = mrf.uniform_labeling();
        for i in 0..50 {
            colored_sweep(&mrf, &mut seq, &sampler, 0.3, 1, sweep_seed(2, i));
            checkerboard_sweep(&mrf, &mut par, &sampler, 0.3, 2, 1000 + i as u64);
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
        assert!(agree(&seq) > 0.9, "one-chunk accuracy {}", agree(&seq));
        assert!(agree(&par) > 0.9, "two-chunk accuracy {}", agree(&par));
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
        colored_sweep(&mrf, &mut labels, &SoftmaxGibbs::new(), 1.0, 1, 0);
    }
}
