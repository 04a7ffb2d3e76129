//! One chain on the engine: the energy trace, burn-in and marginal-MAP
//! mode tracking, and chunk counts.

use mogs_engine::prelude::*;
use mogs_gibbs::{SoftmaxGibbs, TemperatureSchedule};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};

/// Data pulls the left half of the field to label 0, the right half to 1.
fn striped_mrf(
    width: usize,
    height: usize,
) -> MarkovRandomField<impl SingletonPotential + 'static> {
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(2))
        .prior(SmoothnessPrior::potts(0.4))
        .singleton(move |site: usize, label: Label| {
            let want = u8::from(site % width >= width / 2);
            if label.value() == want {
                0.0
            } else {
                2.5
            }
        })
        .build()
}

/// The chain these tests run unless they say otherwise: T = 1, two
/// chunks, seed 0, no burn-in, modes tracked.
fn chain<S: SingletonPotential>(
    mrf: MarkovRandomField<S>,
    iterations: usize,
) -> InferenceJob<S, SoftmaxGibbs> {
    InferenceJob::new(mrf, SoftmaxGibbs::new())
        .schedule(TemperatureSchedule::constant(1.0))
        .iterations(iterations)
        .track_modes(true)
}

fn run<S: SingletonPotential + 'static>(job: InferenceJob<S, SoftmaxGibbs>) -> JobOutput {
    let engine = Engine::with_default_config();
    engine
        .submit(job)
        .expect("engine running")
        .wait_result()
        .expect("job completes")
}

/// Fraction of a 10-wide striped field's labels on the data's side.
fn accuracy(labels: &[Label]) -> f64 {
    let right = labels
        .iter()
        .enumerate()
        .filter(|(site, l)| l.value() == u8::from(site % 10 >= 5))
        .count();
    right as f64 / labels.len() as f64
}

#[test]
fn chain_reduces_energy() {
    let result = run(chain(striped_mrf(10, 10), 30));
    let trace = &result.energy_trace;
    assert_eq!(trace.len(), 30);
    assert!(trace[29] < trace[0]);
}

#[test]
fn map_estimate_beats_single_sample_noise() {
    let result = run(chain(striped_mrf(10, 10), 60).burn_in(10).seed(3));
    let map = result.map_estimate.expect("modes tracked");
    assert!(accuracy(&map) > 0.95, "MAP accuracy {}", accuracy(&map));
}

#[test]
fn burn_in_defers_mode_tracking() {
    assert!(
        run(chain(striped_mrf(6, 6), 3).burn_in(5))
            .map_estimate
            .is_none(),
        "no samples before burn-in completes"
    );
    assert!(run(chain(striped_mrf(6, 6), 8).burn_in(5))
        .map_estimate
        .is_some());
}

#[test]
fn parallel_chain_matches_quality() {
    // Four chunks per group against the default two: same model, both
    // converged, so the energies land in the same band.
    let e_four = *run(chain(striped_mrf(10, 10), 40).threads(4).seed(9))
        .energy_trace
        .last()
        .unwrap();
    let e_two = *run(chain(striped_mrf(10, 10), 40).seed(9))
        .energy_trace
        .last()
        .unwrap();
    assert!((e_four - e_two).abs() < 0.5 * e_two.abs().max(20.0));
}

#[test]
fn result_captures_everything() {
    let result = run(chain(striped_mrf(6, 6), 5));
    assert_eq!(result.iterations_run, 5);
    assert_eq!(result.energy_trace.len(), 5);
    assert_eq!(result.labels.len(), 36);
    assert!(result.map_estimate.is_some());
}

#[test]
fn disabled_mode_tracking_returns_none() {
    assert!(run(chain(striped_mrf(6, 6), 5).track_modes(false))
        .map_estimate
        .is_none());
}
