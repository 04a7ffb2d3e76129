//! Scheduling stress: a mix of small jobs submitted at once from several
//! threads, onto engines of every small worker count and active-job
//! limit. Whichever thread runs a chunk or advances a phase, every
//! completed job must equal the same spec run alone on one worker, bit
//! for bit; a cancelled job must stop at a phase boundary with a valid
//! labeling; and the counters must account for every submitted job.

use std::sync::Arc;
use std::time::Duration;

use mogs_engine::prelude::*;
use mogs_gibbs::SoftmaxGibbs;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior};

const M: u16 = 3;
const JOBS: u64 = 24;
const SUBMITTERS: u64 = 3;
/// Sweep budget of a job the test cancels: long enough that the cancel
/// lands mid-run.
const LONG: usize = 2_000;
/// The job whose sink stops it early.
const EARLY: u64 = 5;

fn field(order: Neighborhood) -> MarkovRandomField<impl SingletonPotential + Clone + 'static> {
    MarkovRandomField::builder(Grid2D::new(10, 8), LabelSpace::scalar(M))
        .prior(SmoothnessPrior::potts(0.7))
        .neighborhood(order)
        .temperature(1.5)
        .singleton(|site: usize, label: Label| {
            if usize::from(label.value()) == (site / 5) % usize::from(M) {
                0.0
            } else {
                1.5
            }
        })
        .build()
}

fn is_cancel_target(k: u64) -> bool {
    k % 7 == 3
}

fn order(k: u64) -> Neighborhood {
    if k.is_multiple_of(2) {
        Neighborhood::FirstOrder
    } else {
        Neighborhood::SecondOrder
    }
}

/// Stops its job at the boundary after `.0` sweeps.
struct StopAfter(usize);

impl DiagSink for StopAfter {
    fn on_sweep(&self, observation: &SweepObservation<'_>) -> SweepDecision {
        if observation.iteration + 1 >= self.0 {
            SweepDecision::Stop
        } else {
            SweepDecision::Continue
        }
    }
}

/// Job `k` of the mix, with its sweep budget overridden by `iterations`
/// when given: first and second order, 1–5 chunks, so some jobs have
/// fewer chunks than workers and some more.
fn spec(
    k: u64,
    iterations: Option<usize>,
) -> InferenceJob<impl SingletonPotential + Clone + 'static, SoftmaxGibbs> {
    let budget = if is_cancel_target(k) {
        LONG
    } else {
        3 + (k % 4) as usize
    };
    let builder = InferenceJob::new(field(order(k)), SoftmaxGibbs::new())
        .threads(1 + (k % 5) as usize)
        .seed(0x5EED ^ k)
        .iterations(iterations.unwrap_or(budget));
    let builder = if k == EARLY {
        builder.sink(Arc::new(StopAfter(2)) as Arc<dyn DiagSink>)
    } else {
        builder
    };
    builder.build().expect("valid spec")
}

fn run_alone(engine: &Engine, k: u64, iterations: Option<usize>) -> JobOutput {
    engine
        .submit(spec(k, iterations))
        .expect("reference engine running")
        .wait_result()
        .expect("reference job completes")
}

/// Job `k`'s labeling after its first `sweeps` sweeps, run alone.
fn labels_after(solo: &Engine, k: u64, sweeps: usize) -> Vec<Label> {
    if sweeps == 0 {
        field(order(k)).uniform_labeling()
    } else {
        run_alone(solo, k, Some(sweeps)).labels
    }
}

/// Submits the whole mix from `SUBMITTERS` threads at once, cancelling
/// each cancel target as soon as it runs.
fn submit_mix(engine: &Engine) -> Vec<(u64, JobHandle)> {
    let mut handles: Vec<(u64, JobHandle)> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                scope.spawn(move || {
                    (t..JOBS)
                        .step_by(SUBMITTERS as usize)
                        .map(|k| {
                            let handle = engine.submit(spec(k, None)).expect("engine running");
                            if is_cancel_target(k) {
                                while handle.status() == JobStatus::Queued {
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                                handle.cancel();
                            }
                            (k, handle)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        submitters
            .into_iter()
            .flat_map(|s| s.join().expect("submitter"))
            .collect()
    });
    handles.sort_by_key(|(k, _)| *k);
    handles
}

#[test]
fn concurrent_jobs_match_solo_runs_bit_for_bit() {
    let solo = Engine::new(EngineConfig {
        workers: 1,
        max_active_jobs: 1,
        ..EngineConfig::default()
    });
    let reference: Vec<JobOutput> = (0..JOBS).map(|k| run_alone(&solo, k, None)).collect();
    assert!(reference[EARLY as usize].early_stopped);
    for workers in 1..=3 {
        for max_active_jobs in [1, 3] {
            let engine = Engine::new(EngineConfig {
                workers,
                queue_capacity: 4,
                max_active_jobs,
                ..EngineConfig::default()
            });
            let config = format!("workers {workers}, max_active_jobs {max_active_jobs}");
            let mut cancelled = 0;
            for (k, handle) in submit_mix(&engine) {
                let out = handle.wait_result().expect("no job fails");
                let expected = &reference[k as usize];
                if !out.cancelled {
                    assert_eq!(&out, expected, "job {k} on {config}");
                    continue;
                }
                cancelled += 1;
                assert!(is_cancel_target(k), "job {k} on {config} cancelled itself");
                // Every completed sweep matches the solo run...
                let run = out.iterations_run;
                assert!(run <= LONG);
                assert_eq!(out.energy_trace, expected.energy_trace[..run]);
                // ...and each site holds its label from after sweep `run`
                // or sweep `run + 1`: the cancel landed between phases.
                let before = labels_after(&solo, k, run);
                let after = labels_after(&solo, k, run + 1);
                assert_eq!(out.labels.len(), before.len());
                for (site, label) in out.labels.iter().enumerate() {
                    assert!(
                        *label == before[site] || *label == after[site],
                        "job {k} on {config}: site {site} is torn"
                    );
                }
            }
            assert!(cancelled > 0, "no cancel landed mid-run on {config}");
            let m = engine.metrics();
            assert_eq!(m.jobs_submitted, JOBS);
            assert_eq!(
                m.jobs_completed + m.jobs_cancelled + m.jobs_early_stopped + m.jobs_failed,
                JOBS,
                "{config}"
            );
            assert_eq!(m.jobs_early_stopped, 1, "{config}");
            assert_eq!(m.jobs_failed, 0, "{config}");
            assert_eq!(m.active_jobs, 0, "{config}");
            assert_eq!(m.queue_depth, 0, "{config}");
            drop(engine);
        }
    }
}
