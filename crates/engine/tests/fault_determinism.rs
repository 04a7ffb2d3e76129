//! The fault plane's two determinism contracts, held under random
//! configuration:
//!
//! 1. **Zero-fault transparency** — attaching an empty [`FaultPlan`]
//!    (with or without a [`HealthPolicy`]) to a job must leave the
//!    labeling bit-identical to the same job with no fault plane at
//!    all, for BOTH backends. The fault machinery may not perturb a
//!    healthy run by even one RNG draw.
//! 2. **Schedule determinism** — a wear-out-derived fault plan is a
//!    pure function of its seed: same seed, same events; different
//!    seeds (almost surely) different events.

use mogs_engine::prelude::*;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};
use mogs_ret::wearout::EnsembleWearout;
use proptest::prelude::*;

/// A deterministic field parameterised by the proptest case.
fn field(
    width: usize,
    height: usize,
    m: usize,
) -> MarkovRandomField<impl SingletonPotential + Clone + 'static> {
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(m as u16))
        .prior(SmoothnessPrior::potts(0.6))
        .temperature(2.5)
        .singleton(move |site: usize, label: Label| {
            if usize::from(label.value()) == site % m {
                0.0
            } else {
                2.0
            }
        })
        .build()
}

/// Runs one job and returns its labeling; `plane` decides whether a
/// fault plane (empty plan, optionally with health probing) rides along.
fn labels_with(
    backend: Backend,
    width: usize,
    height: usize,
    m: usize,
    seed: u64,
    plane: Option<HealthPolicy>,
    attach_empty_plan: bool,
) -> Vec<Label> {
    let sampler = BackendSampler::try_new(backend, 2.5).expect("well-formed backend");
    let engine = Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 2,
        max_active_jobs: 1,
        ..EngineConfig::default()
    });
    let mut builder = InferenceJob::new(field(width, height, m), sampler)
        .threads(2)
        .seed(seed)
        .iterations(6)
        .record_energy(false);
    if attach_empty_plan {
        builder = builder.fault_plan(FaultPlan::none());
    }
    if let Some(policy) = plane {
        builder = builder.health(policy);
    }
    let spec = builder.build().expect("valid spec");
    let out = engine.submit(spec).expect("engine running").wait();
    engine.shutdown();
    out.labels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn empty_fault_plane_is_bit_identical_on_both_backends(
        width in 3usize..10,
        height in 3usize..10,
        m in 2usize..6,
        seed in 0u64..u64::MAX,
        replicas in 1usize..5,
    ) {
        for backend in [Backend::Softmax, Backend::RsuG { replicas }] {
            let bare = labels_with(backend, width, height, m, seed, None, false);
            let planned = labels_with(backend, width, height, m, seed, None, true);
            prop_assert_eq!(
                &bare, &planned,
                "empty plan perturbed {:?}", backend
            );
            let monitored = labels_with(
                backend, width, height, m, seed,
                Some(HealthPolicy::default()), true,
            );
            prop_assert_eq!(
                &bare, &monitored,
                "healthy-pool monitoring perturbed {:?}", backend
            );
        }
    }

    #[test]
    fn wearout_fault_schedules_are_a_pure_function_of_the_seed(
        units in 1usize..12,
        horizon in 4usize..64,
        seed in 0u64..u64::MAX,
    ) {
        let wearout = EnsembleWearout::new(64, 2_000.0, 1.0);
        let a = FaultPlan::from_wearout(&wearout, units, 120.0, horizon, seed);
        let b = FaultPlan::from_wearout(&wearout, units, 120.0, horizon, seed);
        prop_assert_eq!(&a, &b, "same seed must give the same schedule");
        // Events arrive sorted by sweep and inside the horizon.
        let mut last = 0usize;
        for event in a.events() {
            prop_assert!(event.sweep >= last);
            prop_assert!(event.sweep < horizon);
            prop_assert!(event.unit < units);
            last = event.sweep;
        }
    }
}

/// Seed sensitivity, pinned at a short-lifetime design point where the
/// schedule is guaranteed non-empty (the probabilistic version of this
/// claim lives in `fault::tests::wearout_plans_are_seed_deterministic`).
#[test]
fn different_seeds_give_different_schedules_at_short_lifetimes() {
    let wearout = EnsembleWearout::new(64, 100.0, 1.0);
    let a = FaultPlan::from_wearout(&wearout, 8, 100.0, 1_000, 1);
    let b = FaultPlan::from_wearout(&wearout, 8, 100.0, 1_000, 2);
    assert!(!a.is_empty(), "short lifetimes must schedule deaths");
    assert_ne!(a, b, "seed must drive the schedule");
}
