//! One chain on the engine: the energy trace, burn-in and marginal-MAP
//! mode tracking, and chunk counts, as `ChainConfig` describes them.

use mogs_engine::prelude::*;
use mogs_gibbs::{ChainConfig, ChainResult, SoftmaxGibbs};
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

fn run<S: SingletonPotential + 'static>(
    mrf: MarkovRandomField<S>,
    config: ChainConfig,
    iterations: usize,
) -> ChainResult {
    let engine = Engine::with_default_config();
    let job = InferenceJob::from_chain_config(mrf, SoftmaxGibbs::new(), config, iterations);
    engine
        .submit(job)
        .expect("engine running")
        .wait_result()
        .expect("job completes")
        .into_chain_result()
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
    let result = run(striped_mrf(10, 10), ChainConfig::default(), 30);
    let trace = &result.energy_trace;
    assert_eq!(trace.len(), 30);
    assert!(trace[29] < trace[0]);
}

#[test]
fn map_estimate_beats_single_sample_noise() {
    let config = ChainConfig {
        burn_in: 10,
        seed: 3,
        ..ChainConfig::default()
    };
    let result = run(striped_mrf(10, 10), config, 60);
    let map = result.map_estimate.expect("modes tracked");
    assert!(accuracy(&map) > 0.95, "MAP accuracy {}", accuracy(&map));
}

#[test]
fn burn_in_defers_mode_tracking() {
    let config = ChainConfig {
        burn_in: 5,
        ..ChainConfig::default()
    };
    assert!(
        run(striped_mrf(6, 6), config, 3).map_estimate.is_none(),
        "no samples before burn-in completes"
    );
    assert!(run(striped_mrf(6, 6), config, 8).map_estimate.is_some());
}

#[test]
fn parallel_chain_matches_quality() {
    // Four chunks per group against the default two: same model, both
    // converged, so the energies land in the same band.
    let four = ChainConfig {
        threads: 4,
        seed: 9,
        ..ChainConfig::default()
    };
    let two = ChainConfig {
        seed: 9,
        ..ChainConfig::default()
    };
    let e_four = *run(striped_mrf(10, 10), four, 40)
        .energy_trace
        .last()
        .unwrap();
    let e_two = *run(striped_mrf(10, 10), two, 40)
        .energy_trace
        .last()
        .unwrap();
    assert!((e_four - e_two).abs() < 0.5 * e_two.abs().max(20.0));
}

#[test]
fn result_captures_everything() {
    let result = run(striped_mrf(6, 6), ChainConfig::default(), 5);
    assert_eq!(result.iterations, 5);
    assert_eq!(result.energy_trace.len(), 5);
    assert_eq!(result.labels.len(), 36);
    assert!(result.map_estimate.is_some());
}

#[test]
fn disabled_mode_tracking_returns_none() {
    let config = ChainConfig {
        track_modes: false,
        ..ChainConfig::default()
    };
    assert!(run(striped_mrf(6, 6), config, 5).map_estimate.is_none());
}
