//! The engine's energy gather is bit-identical to `site_energy`, down to
//! the last bit of every conditional energy.
//!
//! `kernel_identity` compares labels drawn from nearly exact sums, so a
//! one-ulp change in a gathered energy almost never flips a draw there.
//! Here the kernel's draw is a hash of the row's energy *bits* mixed
//! with one `next_u64()`, so any bit that differs from the reference —
//! a reordered addition, a diagonal added before an axis neighbour —
//! changes the label with probability `(m - 1) / m` per site. The
//! potentials are non-dyadic (a hashed singleton, a truncated quadratic
//! at 0.731, an uncapped quadratic at 0.113) so reordered sums really do
//! round differently.
//!
//! Covers every label count 1..=10 — each compile-time row width and the
//! runtime one — in both neighbourhood orders, odd grid shapes and 1–4
//! chunks, plus one field above the engine's singleton cache cap, whose
//! rows are seeded from the potential instead of the table.
//!
//! With one label every prior term is zero, and with two every non-zero
//! term of one site is the same value, so no reordering can be seen at
//! `m = 1`, nor an axis reversal at `m = 2`: those rows are kept for
//! coverage, and the larger label counts carry the detection.

use mogs_engine::prelude::*;
use mogs_gibbs::kernel::SweepKernel;
use mogs_gibbs::{colored_sweep, LabelSampler};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior};
use rand::Rng;

/// Draws a label from a hash of the row's energy bits and one RNG word;
/// the default `sample_chunk` body drives it site by site.
#[derive(Debug, Clone, Copy)]
struct BitsKernel;

impl LabelSampler for BitsKernel {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        _temperature: f64,
        _current: Label,
        rng: &mut R,
    ) -> Label {
        let mut h = rng.next_u64();
        for e in energies {
            h = mix(h ^ e.to_bits());
        }
        Label::new((h % energies.len() as u64) as u8)
    }

    fn name(&self) -> &'static str {
        "energy-bits"
    }
}

impl SweepKernel for BitsKernel {}

/// The splitmix64 finalizer: every input bit reaches every output bit.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A field with a hashed, non-dyadic singleton and one of three priors.
fn field(
    width: usize,
    height: usize,
    m: usize,
    second_order: bool,
    prior: usize,
) -> MarkovRandomField<impl SingletonPotential + Clone + 'static> {
    let prior = match prior % 3 {
        0 => SmoothnessPrior::truncated_quadratic(0.731, 6.5),
        1 => SmoothnessPrior::squared_difference(0.113),
        _ => SmoothnessPrior::potts(0.7),
    };
    let order = if second_order {
        Neighborhood::SecondOrder
    } else {
        Neighborhood::FirstOrder
    };
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(m as u16))
        .prior(prior)
        .neighborhood(order)
        .temperature(1.3)
        .singleton(|site: usize, label: Label| {
            let h = mix(site as u64 ^ (u64::from(label.value()) << 40));
            (h >> 11) as f64 * (3.7 / (1u64 << 53) as f64)
        })
        .build()
}

/// The largest chunk count `<= want` that chunks every phase group
/// exactly, which admission requires.
fn exact_chunks(groups: &[Vec<usize>], want: usize) -> usize {
    (1..=want)
        .rev()
        .find(|&c| {
            groups.iter().all(|g| {
                let size = g.len().div_ceil(c);
                size > 0 && g.len().div_ceil(size) == c
            })
        })
        .unwrap_or(1)
}

/// The chain's per-iteration sweep-seed derivation.
fn sweep_seed(seed: u64, iteration: usize) -> u64 {
    seed.wrapping_add((iteration as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Runs one configuration through the engine and through
/// `colored_sweep`, and requires the same labels.
#[expect(clippy::too_many_arguments, reason = "one case of the coverage grid")]
fn assert_bits_match(
    engine: &Engine,
    width: usize,
    height: usize,
    m: usize,
    second_order: bool,
    prior: usize,
    chunks: usize,
    iterations: usize,
) {
    let mrf = field(width, height, m, second_order, prior);
    let threads = exact_chunks(&mrf.independent_groups(), chunks);
    let seed = 0x5EED ^ (m * 131 + width * 17 + chunks) as u64;
    let mut reference = mrf.uniform_labeling();
    for iteration in 0..iterations {
        colored_sweep(
            &mrf,
            &mut reference,
            &BitsKernel,
            mrf.temperature(),
            threads,
            sweep_seed(seed, iteration),
        );
    }
    let spec = InferenceJob::new(field(width, height, m, second_order, prior), BitsKernel)
        .threads(threads)
        .seed(seed)
        .iterations(iterations)
        .record_energy(false)
        .build()
        .expect("valid spec");
    let out = engine.submit(spec).expect("engine running").wait();
    assert_eq!(
        out.labels, reference,
        "gathered energies diverged from site_energy at {width}x{height}, m={m}, \
         second_order={second_order}, prior={prior}, chunks={threads}"
    );
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 2,
        max_active_jobs: 1,
        ..EngineConfig::default()
    })
}

#[test]
fn every_row_width_gathers_site_energy_bit_for_bit() {
    let engine = engine();
    let shapes = [(7, 5), (9, 11), (13, 3), (5, 9)];
    for m in 1..=10 {
        for second_order in [false, true] {
            for chunks in 1..=4 {
                let (width, height) = shapes[(m + chunks) % shapes.len()];
                assert_bits_match(
                    &engine,
                    width,
                    height,
                    m,
                    second_order,
                    m + chunks,
                    chunks,
                    3,
                );
            }
        }
    }
    engine.shutdown();
}

#[test]
fn fields_above_the_singleton_cache_gather_bit_for_bit() {
    // 725 × 725 sites × 8 labels = 4,205,000 entries, just over the
    // engine's 2^22 = 4,194,304-entry singleton cache, so rows are
    // seeded from the potential itself.
    let engine = engine();
    assert_bits_match(&engine, 725, 725, 8, false, 0, 2, 1);
    engine.shutdown();
}
