//! End-to-end tests of the persistent engine: determinism against the
//! reference sweep path, queue backpressure, mid-job cancellation, and
//! metrics sanity.

use std::time::Duration;

#[path = "support/reference_chain.rs"]
mod reference_chain;

use mogs_audit::Violation;
use mogs_engine::prelude::*;
use mogs_gibbs::sweep::sweep_seed;
use mogs_gibbs::{checkerboard_sweep, colored_sweep, SoftmaxGibbs, TemperatureSchedule};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior};
use reference_chain::reference_chain;

/// A deterministic test field; two calls build identical fields.
fn field(order: Neighborhood) -> MarkovRandomField<impl SingletonPotential> {
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

#[test]
fn engine_matches_checkerboard_sweep_bit_for_bit() {
    let mrf = field(Neighborhood::FirstOrder);
    let (threads, seed, iterations) = (4, 0xC0FFEE, 6);
    let mut reference = mrf.uniform_labeling();
    for iteration in 0..iterations {
        checkerboard_sweep(
            &mrf,
            &mut reference,
            &SoftmaxGibbs::new(),
            mrf.temperature(),
            threads,
            sweep_seed(seed, iteration),
        );
    }
    let engine = Engine::new(EngineConfig {
        workers: 3,
        queue_capacity: 4,
        max_active_jobs: 2,
        ..EngineConfig::default()
    });
    let spec = InferenceJob::new(field(Neighborhood::FirstOrder), SoftmaxGibbs::new())
        .threads(threads)
        .seed(seed)
        .iterations(iterations)
        .build()
        .expect("valid spec");
    let out = engine.submit(spec).expect("engine running").wait();
    assert!(!out.cancelled);
    assert_eq!(out.iterations_run, iterations);
    assert_eq!(
        out.labels, reference,
        "engine must be bit-identical to the reference sweep"
    );
    engine.shutdown();
}

#[test]
fn engine_matches_colored_sweep_on_second_order_fields() {
    let mrf = field(Neighborhood::SecondOrder);
    let (threads, seed, iterations) = (3, 77, 5);
    let mut reference = mrf.uniform_labeling();
    for iteration in 0..iterations {
        colored_sweep(
            &mrf,
            &mut reference,
            &SoftmaxGibbs::new(),
            mrf.temperature(),
            threads,
            sweep_seed(seed, iteration),
        );
    }
    let engine = Engine::with_default_config();
    let spec = InferenceJob::new(field(Neighborhood::SecondOrder), SoftmaxGibbs::new())
        .threads(threads)
        .seed(seed)
        .iterations(iterations)
        .build()
        .expect("valid spec");
    let out = engine.submit(spec).expect("engine running").wait();
    assert_eq!(
        out.labels, reference,
        "diagonal fast path must be bit-identical"
    );
}

#[test]
fn engine_reproduces_a_multithreaded_chain_including_modes_and_energies() {
    let job = InferenceJob::new(field(Neighborhood::FirstOrder), SoftmaxGibbs::new())
        .schedule(TemperatureSchedule::constant(2.0))
        .iterations(10)
        .burn_in(3)
        .track_modes(true)
        .threads(2)
        .seed(99);
    let reference = reference_chain(&job);

    let engine = Engine::with_default_config();
    let result = engine.submit(job).expect("engine running").wait();
    assert_eq!(
        result, reference,
        "engine must reproduce the chain bit-for-bit"
    );
}

#[test]
fn engine_runs_backend_selected_jobs() {
    // The RSU-G pool backend must run end to end and produce a valid
    // labeling (its draws are hardware-model, not softmax, so only
    // structural properties are asserted).
    let engine = Engine::with_default_config();
    let mrf = field(Neighborhood::FirstOrder);
    let sites = mrf.grid().len();
    let spec = InferenceJob::new(
        mrf,
        BackendSampler::try_new(Backend::RsuG { replicas: 4 }, 2.0).expect("valid backend"),
    )
    .threads(2)
    .seed(5)
    .iterations(4)
    .build()
    .expect("valid spec");
    let out = engine.submit(spec).expect("engine running").wait();
    assert_eq!(out.labels.len(), sites);
    assert!(out.labels.iter().all(|l| l.value() < 4));
    assert_eq!(out.energy_trace.len(), 4);
}

/// A job sized so cancellation lands mid-run.
fn long_job() -> InferenceJob<impl SingletonPotential, SoftmaxGibbs> {
    InferenceJob::new(field(Neighborhood::FirstOrder), SoftmaxGibbs::new())
        .threads(2)
        .iterations(50_000)
        .record_energy(false)
        .build()
        .expect("valid spec")
}

/// Submits fresh copies of a job until the queue accepts one.
fn submit_until_accepted<S, L>(engine: &Engine, job: impl Fn() -> InferenceJob<S, L>) -> JobHandle
where
    S: SingletonPotential + 'static,
    L: SweepKernel + Clone + Send + Sync + 'static,
{
    loop {
        match engine.try_submit(job()) {
            Ok(handle) => return handle,
            Err(TrySubmitError::Full) => std::thread::sleep(Duration::from_millis(2)),
            Err(TrySubmitError::Engine(err)) => panic!("well-formed job failed: {err}"),
        }
    }
}

#[test]
fn full_queue_rejects_then_accepts_after_drain() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        queue_capacity: 1,
        max_active_jobs: 1,
        ..EngineConfig::default()
    });
    // First job occupies the single active slot (possibly after a moment
    // in the queue); the second can only be accepted once the first has
    // been admitted, so after this the queue holds exactly the second.
    let first = engine.submit(long_job()).expect("engine running");
    let second = submit_until_accepted(&engine, long_job);
    // With one job active for many more sweeps and one queued, the queue
    // is full: submissions must bounce.
    match engine.try_submit(long_job()) {
        Err(TrySubmitError::Full) => {}
        Ok(handle) => panic!("expected Full, got acceptance as {}", handle.id()),
        Err(TrySubmitError::Engine(err)) => panic!("well-formed job failed: {err}"),
    }
    assert!(engine.metrics().jobs_rejected >= 1);
    // Draining the active job frees the slot; a later submission fits.
    first.cancel();
    second.cancel();
    let third = submit_until_accepted(&engine, long_job);
    third.cancel();
    assert!(first.wait().cancelled);
    assert!(second.wait().cancelled);
    assert!(third.wait().cancelled);
    engine.shutdown();
}

#[test]
fn cancellation_stops_a_running_job_at_a_phase_boundary() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 2,
        max_active_jobs: 1,
        ..EngineConfig::default()
    });
    let handle = engine.submit(long_job()).expect("engine running");
    // Let it actually sweep for a moment.
    std::thread::sleep(Duration::from_millis(30));
    handle.cancel();
    let out = handle.wait();
    assert!(out.cancelled);
    assert!(
        out.iterations_run < 50_000,
        "cancel must cut the budget short"
    );
    assert_eq!(
        out.labels.len(),
        120,
        "partial labeling still covers the grid"
    );
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_cancelled, 1);
    assert_eq!(metrics.jobs_completed, 0);
}

#[test]
fn metrics_account_for_completed_work_exactly() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 8,
        max_active_jobs: 2,
        ..EngineConfig::default()
    });
    let (jobs, iterations, sites) = (3u64, 7u64, 120u64);
    let handles: Vec<_> = (0..jobs)
        .map(|k| {
            let spec = InferenceJob::new(field(Neighborhood::FirstOrder), SoftmaxGibbs::new())
                .threads(2)
                .seed(k)
                .iterations(iterations as usize)
                .build()
                .expect("valid spec");
            engine.submit(spec).expect("engine running")
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.wait().iterations_run as u64, iterations);
    }
    let m = engine.metrics();
    assert_eq!(m.jobs_submitted, jobs);
    assert_eq!(m.jobs_completed, jobs);
    assert_eq!(m.jobs_cancelled, 0);
    assert_eq!(m.sweeps_completed, jobs * iterations);
    assert_eq!(m.site_updates, jobs * iterations * sites);
    assert_eq!(m.active_jobs, 0);
    assert_eq!(m.queue_depth, 0);
    assert_eq!(m.job_wall_time.count, jobs);
    assert_eq!(m.sweep_latency.count, jobs * iterations);
    assert!(m.site_updates_per_sec > 0.0);
    let json = m.to_json();
    assert!(json.contains("\"site_updates\":2520"), "json: {json}");
}

#[test]
fn handles_report_lifecycle_status() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        queue_capacity: 2,
        max_active_jobs: 1,
        ..EngineConfig::default()
    });
    let blocker = engine.submit(long_job()).expect("engine running");
    let queued = engine.submit(long_job()).expect("engine running");
    // The blocker hogs the only active slot, so the second job stays
    // queued until cancellation drains the first.
    assert_ne!(queued.status(), JobStatus::Finished);
    blocker.cancel();
    queued.cancel();
    assert!(blocker.wait().cancelled);
    assert!(queued.wait().cancelled);
}

#[test]
fn corrupted_schedule_is_rejected_at_admission_before_any_plane_write() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        queue_capacity: 2,
        max_active_jobs: 1,
        ..EngineConfig::default()
    });
    // Corrupt the derived checkerboard schedule: move site 1 (a horizontal
    // neighbour of site 0) into site 0's phase group, so two workers could
    // race on adjacent plane cells if the job were ever admitted.
    let mrf = field(Neighborhood::FirstOrder);
    let mut groups = mrf.independent_groups();
    let from = groups
        .iter()
        .position(|g| g.contains(&1))
        .expect("site 1 is scheduled");
    groups[from].retain(|&s| s != 1);
    let to = groups
        .iter()
        .position(|g| g.contains(&0))
        .expect("site 0 is scheduled");
    groups[to].push(1);
    let spec = InferenceJob::new(mrf, SoftmaxGibbs::new())
        .threads(2)
        .iterations(5)
        .groups(groups)
        .build()
        .expect("the interference audit runs at admission, not build()");
    match engine.submit(spec) {
        Err(EngineError::Schedule(err)) => {
            assert!(
                err.report
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::NeighborsSharePhase { .. })),
                "expected a neighbour-interference violation, got: {}",
                err.report
            );
        }
        Ok(handle) => panic!("corrupted schedule admitted as {}", handle.id()),
        Err(other) => panic!("wrong rejection: {other}"),
    }
    // The job never reached the queue, let alone a worker: nothing was
    // submitted, no plane was built, and a well-formed job still runs.
    let m = engine.metrics();
    assert_eq!(m.jobs_denied, 1);
    assert_eq!(m.jobs_submitted, 0);
    assert_eq!(m.site_updates, 0, "no plane write may precede rejection");
    let ok = InferenceJob::new(field(Neighborhood::FirstOrder), SoftmaxGibbs::new())
        .threads(2)
        .iterations(3)
        .build()
        .expect("valid spec");
    let handle = engine.submit(ok).expect("well-formed job admitted");
    assert_eq!(handle.wait().iterations_run, 3);
    engine.shutdown();
}

#[test]
fn zero_chunk_jobs_are_rejected_not_degraded() {
    // `build()` refuses a zero chunk count outright...
    let job = || {
        InferenceJob::new(field(Neighborhood::FirstOrder), SoftmaxGibbs::new())
            .threads(0)
            .iterations(3)
    };
    let err = job().build().expect_err("zero chunks must fail at build()");
    assert_eq!(err.variant(), "invalid-spec");
    // ...and admission runs the same validation, so `submit` refuses it
    // with the same typed error before the schedule audit runs.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        queue_capacity: 2,
        max_active_jobs: 1,
        ..EngineConfig::default()
    });
    match engine.submit(job()) {
        Err(EngineError::InvalidSpec { field, .. }) => assert_eq!(field, "threads"),
        other => panic!("expected an invalid-spec rejection, got {other:?}"),
    }
    engine.shutdown();
}

#[test]
fn shutdown_drains_queued_jobs_before_stopping() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 4,
        max_active_jobs: 1,
        ..EngineConfig::default()
    });
    let handles: Vec<_> = (0..3)
        .map(|k| {
            let spec = InferenceJob::new(field(Neighborhood::FirstOrder), SoftmaxGibbs::new())
                .threads(2)
                .seed(k)
                .iterations(5)
                .build()
                .expect("valid spec");
            engine.submit(spec).expect("engine running")
        })
        .collect();
    engine.shutdown();
    for handle in handles {
        let out = handle.wait();
        assert!(!out.cancelled, "shutdown must finish admitted work");
        assert_eq!(out.iterations_run, 5);
    }
}

/// A test sink: counts observations, records energies and label-snapshot
/// iterations, and stops the job after `stop_after` sweeps.
#[derive(Debug)]
struct ProbeSink {
    needs: SinkNeeds,
    stop_after: usize,
    energies: std::sync::Mutex<Vec<Option<f64>>>,
    label_sweeps: std::sync::Mutex<Vec<usize>>,
    started: std::sync::atomic::AtomicBool,
    finished: std::sync::atomic::AtomicBool,
}

impl ProbeSink {
    fn new(needs: SinkNeeds, stop_after: usize) -> Self {
        ProbeSink {
            needs,
            stop_after,
            energies: std::sync::Mutex::new(Vec::new()),
            label_sweeps: std::sync::Mutex::new(Vec::new()),
            started: std::sync::atomic::AtomicBool::new(false),
            finished: std::sync::atomic::AtomicBool::new(false),
        }
    }
}

impl DiagSink for ProbeSink {
    fn needs(&self) -> SinkNeeds {
        self.needs
    }

    fn on_start(&self, info: &JobStartInfo) {
        assert_eq!(info.sites, info.width * info.height);
        self.started
            .store(true, std::sync::atomic::Ordering::Release);
    }

    fn on_sweep(&self, obs: &SweepObservation<'_>) -> SweepDecision {
        self.energies.lock().unwrap().push(obs.energy);
        if obs.labels.is_some() {
            self.label_sweeps.lock().unwrap().push(obs.iteration);
        }
        if obs.iteration + 1 >= self.stop_after {
            SweepDecision::Stop
        } else {
            SweepDecision::Continue
        }
    }

    fn on_finish(&self, output: &JobOutput) {
        assert!(output.early_stopped || output.iterations_run > 0);
        self.finished
            .store(true, std::sync::atomic::Ordering::Release);
    }
}

#[test]
fn sink_observes_sweeps_and_early_stops_through_the_cancel_path() {
    let engine = Engine::with_default_config();
    let sink = std::sync::Arc::new(ProbeSink::new(
        SinkNeeds {
            energy: true,
            labels_stride: 2,
        },
        4,
    ));
    let spec = InferenceJob::new(field(Neighborhood::FirstOrder), SoftmaxGibbs::new())
        .threads(3)
        .seed(5)
        .iterations(50)
        .sink(std::sync::Arc::clone(&sink) as std::sync::Arc<dyn DiagSink>)
        .build()
        .expect("valid spec");
    let out = engine.submit(spec).expect("engine running").wait();
    assert!(out.early_stopped, "sink verdict must stop the job");
    assert!(!out.cancelled, "an early stop is not a user cancel");
    assert_eq!(out.iterations_run, 4, "stopped at the requested boundary");
    assert!(sink.started.load(std::sync::atomic::Ordering::Acquire));
    assert!(sink.finished.load(std::sync::atomic::Ordering::Acquire));
    // Every sweep carried an energy; labels arrived on the stride.
    let energies = sink.energies.lock().unwrap();
    assert_eq!(energies.len(), 4);
    assert!(energies.iter().all(Option::is_some));
    assert_eq!(*sink.label_sweeps.lock().unwrap(), vec![0, 2]);
    // The sink's energies are the job's own energy trace.
    let observed: Vec<f64> = energies.iter().map(|e| e.expect("energy")).collect();
    assert_eq!(observed, out.energy_trace);
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_early_stopped, 1);
    assert_eq!(metrics.jobs_cancelled, 0);
    assert_eq!(metrics.jobs_completed, 0);
    assert!(metrics.phase_latency.count > 0, "phases were timed");
    engine.shutdown();
}

#[test]
fn sink_does_not_perturb_results_and_stop_at_budget_counts_as_completed() {
    let iterations = 6;
    let bare = InferenceJob::new(field(Neighborhood::FirstOrder), SoftmaxGibbs::new())
        .threads(4)
        .seed(123)
        .iterations(iterations)
        .build()
        .expect("valid spec");
    let engine = Engine::with_default_config();
    let reference = engine.submit(bare).expect("engine running").wait();

    // Same job with a sink that "stops" exactly at the budget boundary:
    // the labeling is untouched and the job still counts as completed.
    let sink = std::sync::Arc::new(ProbeSink::new(
        SinkNeeds {
            energy: true,
            labels_stride: 0,
        },
        iterations,
    ));
    let spec = InferenceJob::new(field(Neighborhood::FirstOrder), SoftmaxGibbs::new())
        .threads(4)
        .seed(123)
        .iterations(iterations)
        .sink(std::sync::Arc::clone(&sink) as std::sync::Arc<dyn DiagSink>)
        .build()
        .expect("valid spec");
    let observed = engine.submit(spec).expect("engine running").wait();
    assert!(!observed.early_stopped);
    assert!(!observed.cancelled);
    assert_eq!(observed.labels, reference.labels, "sink must not perturb");
    assert_eq!(observed.energy_trace, reference.energy_trace);
    assert_eq!(engine.metrics().jobs_completed, 2);
    engine.shutdown();
}

/// A dyadic first-order field: every energy is a multiple of `2^-3`, so
/// a softmax job draws from its fixed-point rows.
fn dyadic_field(side: usize) -> MarkovRandomField<impl SingletonPotential> {
    MarkovRandomField::builder(Grid2D::new(side, side), LabelSpace::scalar(6))
        .prior(SmoothnessPrior::potts(0.75))
        .temperature(1.0)
        .singleton(|site: usize, label: Label| {
            f64::from((site as u32 * 7 + u32::from(label.value()) * 5) % 23) / 8.0
        })
        .build()
}

/// A sink that keeps every sweep's labels.
#[derive(Debug, Default)]
struct SweepLabels(std::sync::Mutex<Vec<Vec<Label>>>);

impl DiagSink for SweepLabels {
    fn needs(&self) -> SinkNeeds {
        SinkNeeds {
            energy: false,
            labels_stride: 1,
        }
    }

    fn on_sweep(&self, obs: &SweepObservation<'_>) -> SweepDecision {
        let labels = obs.labels.expect("stride 1 carries labels").to_vec();
        self.0.lock().unwrap().push(labels);
        SweepDecision::Continue
    }
}

#[test]
fn annealed_softmax_job_on_fixed_rows_matches_the_reference_sweep_by_sweep() {
    let mrf = dyadic_field(12);
    assert!(mrf.fixed_rows().is_some(), "the field must take fixed rows");
    let schedule = TemperatureSchedule::geometric(6.0, 0.6, 0.3);
    let (threads, seed, iterations) = (4, 0xA11E, 9);
    let mut reference = mrf.uniform_labeling();
    let mut expect = Vec::new();
    for iteration in 0..iterations {
        colored_sweep(
            &mrf,
            &mut reference,
            &SoftmaxGibbs::new(),
            schedule.temperature(iteration),
            threads,
            sweep_seed(seed, iteration),
        );
        expect.push(reference.clone());
    }
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let sink = std::sync::Arc::new(SweepLabels::default());
    let spec = InferenceJob::new(dyadic_field(12), SoftmaxGibbs::new())
        .schedule(schedule)
        .threads(threads)
        .seed(seed)
        .iterations(iterations)
        .sink(std::sync::Arc::clone(&sink) as std::sync::Arc<dyn DiagSink>)
        .build()
        .expect("valid spec");
    let out = engine.submit(spec).expect("engine running").wait();
    engine.shutdown();
    let sweeps = sink.0.lock().unwrap();
    for (iteration, (got, want)) in sweeps.iter().zip(&expect).enumerate() {
        assert_eq!(got, want, "sweep {iteration} diverged from the reference");
    }
    assert_eq!(sweeps.len(), iterations);
    assert_eq!(out.labels, reference);
}

#[test]
fn concurrent_softmax_jobs_at_different_temperatures_match_their_solo_runs() {
    let job = |temperature: f64| {
        InferenceJob::new(dyadic_field(32), SoftmaxGibbs::new())
            .schedule(TemperatureSchedule::constant(temperature))
            .threads(4)
            .seed(0x7E3)
            .iterations(24)
            .record_energy(false)
            .build()
            .expect("valid spec")
    };
    let config = EngineConfig {
        workers: 2,
        max_active_jobs: 2,
        ..EngineConfig::default()
    };
    let (cold, hot) = (0.375, 3.0);
    let solo = |temperature| {
        let engine = Engine::new(config.clone());
        let out = engine
            .submit(job(temperature))
            .expect("engine running")
            .wait();
        engine.shutdown();
        out.labels
    };
    let (solo_cold, solo_hot) = (solo(cold), solo(hot));
    assert_ne!(solo_cold, solo_hot, "the temperatures must matter");
    // One engine runs both at once, so a worker's scratch switches
    // between the two keys mid-stream.
    let engine = Engine::new(config);
    let a = engine.submit(job(cold)).expect("engine running");
    let b = engine.submit(job(hot)).expect("engine running");
    let (a, b) = (a.wait(), b.wait());
    engine.shutdown();
    assert_eq!(
        a.labels, solo_cold,
        "the T = {cold} job diverged from its solo run"
    );
    assert_eq!(
        b.labels, solo_hot,
        "the T = {hot} job diverged from its solo run"
    );
}
