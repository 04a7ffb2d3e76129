//! The engine's fixed-point gather is bit-identical to `site_energy`,
//! and fields that cannot take it are refused it.
//!
//! The kernel is `gather_bits`' energy-bit hash, opted in to
//! fixed-point rows: it scales each `i16` row back to f64 by `2^-shift`
//! and hashes the bits, so any gathered energy that differs from the
//! reference's f64 sum — or a wrong shift — flips labels with
//! probability `(m - 1) / m` per site.
//!
//! Admitted fields are random dyadic ones (integer singletons and prior
//! weights times `2^-k`, `k` in 0..=16) at every label count 1..=64, on
//! odd grids with 1–4 chunks. Refused fields — a non-dyadic weight, a
//! row that overflows `i16`, a finer shift than `2^-16`, second order,
//! above the singleton cache cap, NaN, ±∞, subnormal and −0 energies —
//! must report no fixed rows and still match the reference on the f64
//! path.

use mogs_engine::prelude::*;
use mogs_gibbs::kernel::SweepKernel;
use mogs_gibbs::{colored_sweep, LabelSampler};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior};
use rand::Rng;

/// Draws a label from a hash of the row's energy bits and one RNG word.
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

impl SweepKernel for BitsKernel {
    fn wants_fixed_rows(&self) -> bool {
        true
    }

    fn sample_fixed_chunk<R: Rng + ?Sized>(
        &mut self,
        rows: &[i16],
        m: usize,
        shift: u32,
        temperature: f64,
        current: &[Label],
        out: &mut [Label],
        _scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        let unit = 0.5f64.powi(shift as i32);
        for (j, (&cur, slot)) in current.iter().zip(out.iter_mut()).enumerate() {
            let row: Vec<f64> = rows[j * m..(j + 1) * m]
                .iter()
                .map(|&units| f64::from(units) * unit)
                .collect();
            *slot = self.sample_label(&row, temperature, cur, rng);
        }
    }
}

/// The splitmix64 finalizer: every input bit reaches every output bit.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A hashed integer singleton in `-span..=span`, times `2^-k`.
fn dyadic_singleton(k: u32, span: i64, salt: u64) -> impl Fn(usize, Label) -> f64 + Clone {
    let unit = 0.5f64.powi(k as i32);
    move |site: usize, label: Label| {
        let h = mix(site as u64 ^ (u64::from(label.value()) << 40) ^ salt);
        (h % (2 * span as u64 + 1)) as i64 as f64 * unit - span as f64 * unit
    }
}

/// One of three priors with integer weight `weight` times `2^-k`.
fn dyadic_prior(k: u32, weight: u32, kind: usize) -> SmoothnessPrior {
    let w = f64::from(weight) * 0.5f64.powi(k as i32);
    match kind % 3 {
        0 => SmoothnessPrior::squared_difference(w),
        1 => SmoothnessPrior::potts(w),
        _ => SmoothnessPrior::truncated_quadratic(w, f64::from(1 + weight % 40)),
    }
}

fn build<S: SingletonPotential>(
    width: usize,
    height: usize,
    m: usize,
    order: Neighborhood,
    prior: SmoothnessPrior,
    singleton: S,
) -> MarkovRandomField<S> {
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(m as u16))
        .prior(prior)
        .neighborhood(order)
        .temperature(1.3)
        .singleton(singleton)
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

/// Runs `mrf` through the engine on the opted-in kernel and through
/// `colored_sweep`, and requires the same labels.
fn assert_matches_reference<S>(
    engine: &Engine,
    mrf: MarkovRandomField<S>,
    chunks: usize,
    iterations: usize,
    what: &str,
) where
    S: SingletonPotential + Clone + 'static,
{
    let threads = exact_chunks(&mrf.independent_groups(), chunks);
    let seed = 0xF1ED ^ (mrf.grid().len() * 131 + mrf.space().count() * 7 + threads) as u64;
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
    let spec = InferenceJob::new(mrf, BitsKernel)
        .threads(threads)
        .seed(seed)
        .iterations(iterations)
        .record_energy(false)
        .build()
        .expect("valid spec");
    let out = engine.submit(spec).expect("engine running").wait();
    assert_eq!(
        out.labels, reference,
        "{what}: labels diverged from site_energy"
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
fn dyadic_fields_gather_fixed_rows_equal_to_site_energy() {
    let engine = engine();
    let shapes = [(7, 5), (9, 11), (13, 3), (5, 9), (3, 3), (11, 7)];
    for m in 1..=64 {
        for pass in 0..2 {
            let chunks = 1 + (m + pass) % 4;
            let (width, height) = shapes[(m * 2 + pass) % shapes.len()];
            let k = ((m * 5 + pass * 3) % 17) as u32;
            let weight = 1 + (m as u32 * 37 + pass as u32) % 64;
            // Worst row: 20,000 + 4 · 64 · 49 = 32,544 units, inside i16.
            let mrf = build(
                width,
                height,
                m,
                Neighborhood::FirstOrder,
                dyadic_prior(k, weight, m + pass),
                dyadic_singleton(k, 20_000, (m * 2 + pass) as u64),
            );
            let fixed = mrf
                .fixed_rows()
                .expect("a dyadic first-order field has fixed rows");
            assert!(fixed.shift <= k, "shift {} for k = {k}", fixed.shift);
            let what = format!("{width}x{height}, m={m}, k={k}, chunks={chunks}");
            assert_matches_reference(&engine, mrf, chunks, 3, &what);
        }
    }
    engine.shutdown();
}

#[test]
fn the_shift_is_the_least_that_makes_every_energy_integral() {
    let field = |value: f64, prior: f64| {
        build(
            5,
            3,
            3,
            Neighborhood::FirstOrder,
            SmoothnessPrior::potts(prior),
            move |_: usize, l: Label| {
                if l.value() == 1 {
                    value
                } else {
                    0.0
                }
            },
        )
    };
    let shift = |value: f64, prior: f64| field(value, prior).fixed_rows().map(|f| f.shift);
    assert_eq!(shift(3.0 / 8.0, 1.0), Some(3));
    assert_eq!(shift(6.0, 1.0), Some(0));
    assert_eq!(shift(-5.0 / 65_536.0, 1.0 / 65_536.0), Some(16));
    // One unit of 2^-16 per prior step: 4 · 65,536 units overflow i16.
    assert_eq!(shift(-5.0 / 65_536.0, 1.0), None);
    assert_eq!(shift(1.0, 0.25), Some(2));
    assert_eq!(shift(1.0, 0.0), Some(0));
    let fixed = field(-3.0 / 8.0, 2.0);
    let fixed = fixed.fixed_rows().expect("dyadic");
    assert_eq!(&fixed.singleton[..6], &[0, -3, 0, 0, -3, 0]);
    assert_eq!(
        fixed.prior[1], 16,
        "potts(2) between labels 1 and 0, in eighths"
    );
    assert_eq!(
        shift(1.0 / 131_072.0, 1.0),
        None,
        "2^-17 is finer than the path takes"
    );
}

fn refused<S: SingletonPotential>(mrf: &MarkovRandomField<S>, what: &str) {
    assert!(
        mrf.fixed_rows().is_none(),
        "{what}: must be refused fixed rows"
    );
}

#[test]
fn fields_refused_the_fixed_path_still_match_the_reference() {
    let engine = engine();
    let first = Neighborhood::FirstOrder;

    let non_dyadic = build(
        9,
        7,
        6,
        first,
        SmoothnessPrior::potts(0.1),
        dyadic_singleton(3, 50, 1),
    );
    refused(&non_dyadic, "weight 0.1");
    assert_matches_reference(&engine, non_dyadic, 3, 3, "weight 0.1");

    // 30,000 + 4 · 1,000 units overflows i16 though each entry fits.
    let overflow = build(
        9,
        7,
        6,
        first,
        SmoothnessPrior::potts(1000.0),
        dyadic_singleton(0, 30_000, 2),
    );
    refused(&overflow, "i16 overflow");
    assert_matches_reference(&engine, overflow, 2, 3, "i16 overflow");

    let fine = build(
        7,
        5,
        4,
        first,
        dyadic_prior(17, 3, 0),
        dyadic_singleton(17, 9, 3),
    );
    refused(&fine, "shift 17");
    assert_matches_reference(&engine, fine, 4, 3, "shift 17");

    let second = build(
        9,
        7,
        6,
        Neighborhood::SecondOrder,
        dyadic_prior(2, 3, 0),
        dyadic_singleton(2, 40, 4),
    );
    refused(&second, "second order");
    assert_matches_reference(&engine, second, 2, 3, "second order");

    for (bad, what) in [
        (f64::NAN, "NaN"),
        (f64::INFINITY, "+inf"),
        (f64::NEG_INFINITY, "-inf"),
        (f64::MIN_POSITIVE / 4.0, "subnormal"),
        (-0.0, "-0"),
    ] {
        let base = dyadic_singleton(4, 100, 5);
        let mrf = build(
            7,
            9,
            5,
            first,
            dyadic_prior(4, 5, 2),
            move |site: usize, label: Label| {
                if site == 17 && label.value() == 2 {
                    bad
                } else {
                    base(site, label)
                }
            },
        );
        refused(&mrf, what);
        assert_matches_reference(&engine, mrf, 3, 3, what);
    }
    engine.shutdown();
}

#[test]
fn fields_above_the_singleton_cache_are_refused_and_match() {
    // 725 × 725 sites × 8 labels = 4,205,000 entries, just over the
    // engine's 2^22-entry singleton cache, so there is no table to
    // derive fixed rows from.
    let engine = engine();
    let mrf = build(
        725,
        725,
        8,
        Neighborhood::FirstOrder,
        dyadic_prior(1, 2, 0),
        dyadic_singleton(1, 30, 6),
    );
    assert!(mrf.fixed_rows().is_none(), "above the cache cap");
    assert_matches_reference(&engine, mrf, 2, 1, "above the cache cap");
    engine.shutdown();
}
