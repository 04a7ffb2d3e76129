//! Cross-commit golden of the reference chain and the engine.
//!
//! The two hashes were recorded from the threaded chain runner this
//! workspace used before every chain moved to the engine (`threads = 2`,
//! FNV-1a over final labels, MAP and energy-trace bits): one
//! constant-temperature chain with burn-in and mode tracking on a
//! first-order field, one geometrically annealed chain on a second-order
//! field. The serial reference chain (`support/reference_chain.rs`) and
//! the engine must both still produce them, so neither the successor nor
//! the reference can drift.

#[path = "support/reference_chain.rs"]
mod reference_chain;

use mogs_engine::prelude::*;
use mogs_gibbs::{SoftmaxGibbs, TemperatureSchedule};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior};
use reference_chain::reference_chain;

/// Constant T = 2, burn-in 4, modes tracked, first-order field, 12 sweeps.
const GOLDEN_CONSTANT: u64 = 0xf291_120a_a0d6_ea76;
/// Geometric annealing 4.0·0.8ᵗ (floor 0.5), burn-in 3, second-order
/// field, 10 sweeps.
const GOLDEN_ANNEALED: u64 = 0xa97a_5a8c_0083_f375;

fn field(order: Neighborhood) -> MarkovRandomField<impl SingletonPotential + Clone + 'static> {
    MarkovRandomField::builder(Grid2D::new(12, 10), LabelSpace::scalar(4))
        .prior(SmoothnessPrior::potts(0.6))
        .neighborhood(order)
        .temperature(2.0)
        .singleton(|site: usize, label: Label| {
            if usize::from(label.value()) == (site / 3) % 4 {
                0.0
            } else {
                2.0
            }
        })
        .build()
}

/// One golden case: field order, schedule, sweeps, burn-in, seed and
/// the recorded hash.
type Case = (Neighborhood, TemperatureSchedule, usize, usize, u64, u64);

fn cases() -> [Case; 2] {
    [
        (
            Neighborhood::FirstOrder,
            TemperatureSchedule::constant(2.0),
            12,
            4,
            0x5EED,
            GOLDEN_CONSTANT,
        ),
        (
            Neighborhood::SecondOrder,
            TemperatureSchedule::geometric(4.0, 0.8, 0.5),
            10,
            3,
            0x00A7_7EA1,
            GOLDEN_ANNEALED,
        ),
    ]
}

/// The case's chain: two chunks, modes tracked.
fn job(
    (order, schedule, iterations, burn_in, seed, _): Case,
) -> InferenceJob<impl SingletonPotential + Clone + 'static, SoftmaxGibbs> {
    InferenceJob::new(field(order), SoftmaxGibbs::new())
        .schedule(schedule)
        .iterations(iterations)
        .burn_in(burn_in)
        .track_modes(true)
        .threads(2)
        .seed(seed)
}

/// FNV-1a over the final labels, a MAP presence byte and the MAP, the
/// energy trace's bits and the iteration count.
fn fnv(result: &JobOutput) -> u64 {
    let map = result.map_estimate.as_deref();
    let bytes = (result.labels.iter().map(|l| l.value()))
        .chain(std::iter::once(u8::from(map.is_some())))
        .chain(map.into_iter().flatten().map(|l| l.value()))
        .chain(
            result
                .energy_trace
                .iter()
                .flat_map(|e| e.to_bits().to_le_bytes()),
        )
        .chain((result.iterations_run as u64).to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn reference_chain_reproduces_the_retired_threaded_chain() {
    for case in cases() {
        let result = reference_chain(&job(case));
        assert!(result.map_estimate.is_some());
        assert_eq!(fnv(&result), case.5, "{:?}: the reference moved", case.0);
    }
}

#[test]
fn engine_reproduces_the_retired_threaded_chain() {
    let engine = Engine::with_default_config();
    for case in cases() {
        let result = engine
            .submit(job(case))
            .expect("engine running")
            .wait_result()
            .expect("job completes");
        assert_eq!(fnv(&result), case.5, "{:?}: the engine moved", case.0);
    }
}
