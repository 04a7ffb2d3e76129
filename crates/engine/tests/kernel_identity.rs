//! Property test: the engine's chunk-batched [`SweepKernel`] hot path is
//! bit-identical to the reference `colored_sweep` for BOTH backends,
//! across grid shapes, label-space sizes, chunk counts, and seeds.
//!
//! This is the determinism contract from the crate docs, held under
//! random configuration instead of a handful of fixed ones. A dyadic
//! prior weight puts first-order fields on the RSU pool's fixed-point
//! `i16` row path; a non-dyadic one keeps them on the f64 rows.

use mogs_engine::prelude::*;
use mogs_gibbs::colored_sweep;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior};
use proptest::prelude::*;

/// A deterministic field parameterised by the proptest case; two calls
/// with the same arguments build identical fields. `dyadic` picks a
/// prior weight of 0.75 (exact in `i16` units, so first-order fields
/// get fixed rows) over 0.7 (refused fixed rows).
fn field(
    width: usize,
    height: usize,
    m: usize,
    second_order: bool,
    dyadic: bool,
) -> MarkovRandomField<impl SingletonPotential + Clone + 'static> {
    let order = if second_order {
        Neighborhood::SecondOrder
    } else {
        Neighborhood::FirstOrder
    };
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(m as u16))
        .prior(SmoothnessPrior::potts(if dyadic { 0.75 } else { 0.7 }))
        .neighborhood(order)
        .temperature(2.0)
        .singleton(move |site: usize, label: Label| {
            if usize::from(label.value()) == site % m {
                0.0
            } else {
                1.5
            }
        })
        .build()
}

/// The chain's per-iteration sweep-seed derivation.
fn sweep_seed(seed: u64, iteration: usize) -> u64 {
    seed.wrapping_add((iteration as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// The largest chunk count `<= want` that chunks every phase group
/// exactly — the admission audit rejects anything else (and rightly so:
/// an inexact count silently degrades parallelism).
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

/// Runs one (backend, config) pair through the engine and through the
/// reference sweep and requires bit-identical labelings.
#[expect(clippy::too_many_arguments, reason = "mirrors the proptest case tuple")]
fn assert_engine_matches_reference(
    backend: Backend,
    width: usize,
    height: usize,
    m: usize,
    second_order: bool,
    dyadic: bool,
    threads: usize,
    iterations: usize,
    seed: u64,
) {
    let sampler = BackendSampler::try_new(backend, 2.0).expect("well-formed backend");
    let mrf = field(width, height, m, second_order, dyadic);
    if dyadic && !second_order {
        assert!(
            mrf.fixed_rows().is_some(),
            "a dyadic first-order field must take the fixed-row path"
        );
    }
    let threads = exact_chunks(&mrf.independent_groups(), threads);
    let mut reference = mrf.uniform_labeling();
    for iteration in 0..iterations {
        colored_sweep(
            &mrf,
            &mut reference,
            &sampler,
            mrf.temperature(),
            threads,
            sweep_seed(seed, iteration),
        );
    }
    let engine = Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 2,
        max_active_jobs: 1,
        ..EngineConfig::default()
    });
    let spec = InferenceJob::new(field(width, height, m, second_order, dyadic), sampler)
        .threads(threads)
        .seed(seed)
        .iterations(iterations)
        .record_energy(false)
        .build()
        .expect("valid spec");
    let out = engine.submit(spec).expect("engine running").wait();
    engine.shutdown();
    assert_eq!(
        out.labels, reference,
        "{backend:?} diverged from colored_sweep at {width}x{height}, \
         m={m}, threads={threads}, seed={seed:#x}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_is_bit_identical_to_colored_sweep_for_both_backends(
        width in 2usize..10,
        height in 2usize..10,
        m in 2usize..=64,
        threads in 1usize..6,
        iterations in 1usize..4,
        second_order in proptest::bool::ANY,
        dyadic in proptest::bool::ANY,
        replicas in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        assert_engine_matches_reference(
            Backend::Softmax, width, height, m, second_order, dyadic,
            threads, iterations, seed,
        );
        assert_engine_matches_reference(
            Backend::RsuG { replicas }, width, height, m, second_order, dyadic,
            threads, iterations, seed,
        );
    }
}
