//! The engine-survives suite: hostile kernels and collapsed pools must
//! end every job in a *typed* terminal state — `Completed`, `Degraded`,
//! or `Failed(EngineError)` — and must never wedge the engine. After
//! each failure the same engine has to accept and complete a fresh,
//! healthy job.
//!
//! The hostile kernels live here, not in the library: `PoisonKernel`
//! panics inside `sample_chunk`, `SleepyKernel` blocks past the phase
//! watchdog, and `BrittleKernel` exposes addressable units with no
//! exact fallback so a pool collapse has nowhere to fail over to, and
//! `PanickySink` panics at a sweep boundary or at finish, on the worker
//! that drains the job's last phase. Expect panic backtraces in this suite's stderr — they are the test
//! stimulus, caught by the workers' isolation boundary.

use mogs_engine::prelude::*;
use mogs_gibbs::kernel::KernelScratch;
use mogs_gibbs::{LabelSampler, SoftmaxGibbs};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const M: usize = 4;

/// A small deterministic field shared by every scenario.
fn field() -> MarkovRandomField<impl SingletonPotential + Clone + 'static> {
    MarkovRandomField::builder(Grid2D::new(8, 8), LabelSpace::scalar(M as u16))
        .prior(SmoothnessPrior::potts(0.6))
        .temperature(2.5)
        .singleton(|site: usize, label: Label| {
            if usize::from(label.value()) == site % M {
                0.0
            } else {
                2.0
            }
        })
        .build()
}

/// Builds a 6-sweep job over [`field`] on `kernel`.
fn job_on<L>(kernel: L) -> InferenceJob<impl SingletonPotential + Clone + 'static, L>
where
    L: LabelSampler,
{
    InferenceJob::new(field(), kernel)
        .threads(2)
        .seed(11)
        .iterations(6)
        .record_energy(false)
        .build()
        .expect("valid spec")
}

/// Submits a healthy softmax job and requires it to complete — the
/// "engine still serviceable" probe run after every induced failure.
fn engine_accepts_fresh_work(engine: &Engine) {
    let out = engine
        .submit(job_on(SoftmaxGibbs::new()))
        .expect("engine accepts work after a failure")
        .wait_result()
        .expect("healthy job completes after a failure");
    assert_eq!(out.labels.len(), 64);
    assert!(out.degraded.is_none());
}

/// Panics inside `sample_chunk`: on every call (`panic_at: None`) or on
/// exactly one call of the shared hit counter (`panic_at: Some(n)`).
#[derive(Clone)]
struct PoisonKernel {
    inner: SoftmaxGibbs,
    hits: Arc<AtomicUsize>,
    panic_at: Option<usize>,
}

impl PoisonKernel {
    fn new(panic_at: Option<usize>) -> Self {
        PoisonKernel {
            inner: SoftmaxGibbs::new(),
            hits: Arc::new(AtomicUsize::new(0)),
            panic_at,
        }
    }
}

impl LabelSampler for PoisonKernel {
    fn name(&self) -> &'static str {
        "poison"
    }

    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        self.inner.sample_label(energies, temperature, current, rng)
    }
}

impl SweepKernel for PoisonKernel {
    fn sample_chunk<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        m: usize,
        temperature: f64,
        current: &[Label],
        out: &mut [Label],
        scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        let hit = self.hits.fetch_add(1, Ordering::SeqCst);
        match self.panic_at {
            None => panic!("poison kernel: unconditional panic on chunk call {hit}"),
            Some(n) if hit == n => panic!("poison kernel: one-shot panic on chunk call {hit}"),
            Some(_) => {}
        }
        self.inner
            .sample_chunk(energies, m, temperature, current, out, scratch, rng);
    }
}

/// Blocks inside `sample_chunk` for longer than any phase deadline the
/// test arms, simulating a wedged device driver.
#[derive(Clone)]
struct SleepyKernel {
    inner: SoftmaxGibbs,
    nap: Duration,
}

impl LabelSampler for SleepyKernel {
    fn name(&self) -> &'static str {
        "sleepy"
    }

    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        self.inner.sample_label(energies, temperature, current, rng)
    }
}

impl SweepKernel for SleepyKernel {
    fn sample_chunk<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        m: usize,
        temperature: f64,
        current: &[Label],
        out: &mut [Label],
        scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        std::thread::sleep(self.nap);
        self.inner
            .sample_chunk(energies, m, temperature, current, out, scratch, rng);
    }
}

/// Exposes addressable units to the fault plane but — unlike the RSU
/// pool backend — has no exact software fallback, so a collapse below
/// the live-unit floor is fatal by design.
#[derive(Clone)]
struct BrittleKernel {
    inner: SoftmaxGibbs,
    dead: Vec<bool>,
}

impl BrittleKernel {
    fn with_units(units: usize) -> Self {
        BrittleKernel {
            inner: SoftmaxGibbs::new(),
            dead: vec![false; units],
        }
    }
}

impl LabelSampler for BrittleKernel {
    fn name(&self) -> &'static str {
        "brittle"
    }

    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        self.inner.sample_label(energies, temperature, current, rng)
    }
}

impl SweepKernel for BrittleKernel {
    fn unit_count(&self) -> usize {
        self.dead.len()
    }

    fn inject_unit_fault(&mut self, unit: usize, _fault: UnitFault) -> bool {
        if unit < self.dead.len() {
            self.dead[unit] = true;
            true
        } else {
            false
        }
    }

    fn set_live_units(&mut self, live: &[bool]) -> usize {
        live.iter().filter(|&&l| l).count()
    }

    fn probe_unit(
        &self,
        unit: usize,
        energies: &[f64],
        _draws: u32,
        _seed: u64,
    ) -> Option<Vec<f64>> {
        // A healthy unit reports the uniform marginal, a dead one a point
        // mass — far past any sane drift threshold.
        let mut dist = vec![0.0; energies.len()];
        if self.dead.get(unit).copied()? {
            dist[0] = 1.0;
        } else {
            dist.fill(1.0 / energies.len() as f64);
        }
        Some(dist)
    }
}

#[test]
fn unrecoverable_panics_fail_typed_and_leave_the_engine_serviceable() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        max_phase_retries: 2,
        ..EngineConfig::default()
    });
    let err = engine
        .submit(job_on(PoisonKernel::new(None)))
        .expect("admission accepts the job")
        .wait_result()
        .expect_err("a kernel that always panics must fail the job");
    match err {
        EngineError::WorkerPanicked {
            iteration,
            group,
            retries,
            ref message,
        } => {
            assert_eq!((iteration, group), (0, 0), "first phase never completes");
            assert_eq!(retries, 2, "the full retry budget was spent");
            assert!(
                message.contains("poison kernel"),
                "payload preserved: {message}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let metrics = engine.metrics();
    assert!(metrics.jobs_panicked >= 1);
    assert!(metrics.phase_retries >= 2);
    assert_eq!(metrics.jobs_failed, 1);
    engine_accepts_fresh_work(&engine);
    engine.shutdown();
}

#[test]
fn a_transient_panic_is_retried_to_completion() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        max_phase_retries: 2,
        ..EngineConfig::default()
    });
    let out = engine
        .submit(job_on(PoisonKernel::new(Some(0))))
        .expect("admission accepts the job")
        .wait_result()
        .expect("one panic under a 2-retry budget must not fail the job");
    assert_eq!(out.labels.len(), 64);
    assert_eq!(out.iterations_run, 6);
    let metrics = engine.metrics();
    assert!(metrics.phase_retries >= 1, "the panicked phase was retried");
    assert_eq!(metrics.jobs_panicked, 0, "no job died of the panic");
    assert_eq!(metrics.jobs_failed, 0);
    engine.shutdown();
}

#[test]
fn the_watchdog_reaps_stuck_phases() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        phase_deadline: Some(Duration::from_millis(25)),
        ..EngineConfig::default()
    });
    let err = engine
        .submit(job_on(SleepyKernel {
            inner: SoftmaxGibbs::new(),
            nap: Duration::from_millis(400),
        }))
        .expect("admission accepts the job")
        .wait_result()
        .expect_err("a wedged kernel must trip the watchdog");
    match err {
        EngineError::WatchdogTimeout { deadline_ms, .. } => assert_eq!(deadline_ms, 25),
        other => panic!("expected WatchdogTimeout, got {other:?}"),
    }
    assert_eq!(engine.metrics().jobs_failed, 1);
    // The watchdog freed the *scheduler*; the worker threads stay
    // occupied until their naps end, and the deadline still applies to
    // the next job's phases. Let the sleepers wake (their stale
    // completions are dropped) so the freed workers serve the next job.
    std::thread::sleep(Duration::from_millis(500));
    engine_accepts_fresh_work(&engine);
    engine.shutdown();
}

#[test]
fn an_all_dead_pool_with_a_fallback_completes_degraded() {
    let engine = Engine::with_default_config();
    let pool = BackendSampler::try_new(Backend::RsuG { replicas: 4 }, 2.5)
        .expect("fixed positive replica count");
    let spec = InferenceJob::new(field(), pool)
        .threads(2)
        .seed(11)
        .iterations(6)
        .record_energy(false)
        .fault_plan(FaultPlan::new(
            (0..4)
                .map(|unit| FaultEvent {
                    sweep: 1,
                    unit,
                    fault: UnitFault::Dead,
                })
                .collect(),
        ))
        .health(HealthPolicy::default())
        .build()
        .expect("valid spec");
    let out = engine
        .submit(spec)
        .expect("admission accepts the job")
        .wait_result()
        .expect("a pool with an exact fallback must finish its job");
    assert_eq!(out.iterations_run, 6);
    let degraded = out.degraded.expect("total unit loss must degrade the job");
    assert_eq!(degraded.units_lost, 4);
    assert!(degraded.failed_over_at >= 1);
    let metrics = engine.metrics();
    assert_eq!(metrics.units_quarantined, 4);
    assert_eq!(metrics.jobs_failed_over, 1);
    engine_accepts_fresh_work(&engine);
    engine.shutdown();
}

#[test]
fn an_all_dead_pool_without_a_fallback_fails_typed() {
    let engine = Engine::with_default_config();
    let spec = InferenceJob::new(field(), BrittleKernel::with_units(2))
        .threads(2)
        .seed(11)
        .iterations(6)
        .record_energy(false)
        .fault_plan(FaultPlan::new(
            (0..2)
                .map(|unit| FaultEvent {
                    sweep: 1,
                    unit,
                    fault: UnitFault::Dead,
                })
                .collect(),
        ))
        .health(HealthPolicy::default())
        .build()
        .expect("valid spec");
    let err = engine
        .submit(spec)
        .expect("admission accepts the job")
        .wait_result()
        .expect_err("total unit loss with no fallback must fail the job");
    match err {
        EngineError::Backend { ref reason } => {
            assert!(reason.contains("no exact fallback"), "got: {reason}");
        }
        other => panic!("expected Backend collapse, got {other:?}"),
    }
    assert_eq!(engine.metrics().jobs_failed, 1);
    engine_accepts_fresh_work(&engine);
    engine.shutdown();
}

/// Counts its `sample_chunk` calls and blocks inside every one past any
/// deadline the test arms, so its job never leaves phase 0.
#[derive(Clone)]
struct CountingSleeper {
    inner: SoftmaxGibbs,
    nap: Duration,
    calls: Arc<AtomicUsize>,
}

impl LabelSampler for CountingSleeper {
    fn name(&self) -> &'static str {
        "counting-sleeper"
    }

    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        self.inner.sample_label(energies, temperature, current, rng)
    }
}

impl SweepKernel for CountingSleeper {
    fn sample_chunk<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        m: usize,
        temperature: f64,
        current: &[Label],
        out: &mut [Label],
        scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        self.calls.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.nap);
        self.inner
            .sample_chunk(energies, m, temperature, current, out, scratch, rng);
    }
}

#[test]
fn a_reaped_jobs_stragglers_never_advance_it() {
    let nap = Duration::from_millis(300);
    let engine = Engine::new(EngineConfig {
        workers: 2,
        phase_deadline: Some(Duration::from_millis(25)),
        ..EngineConfig::default()
    });
    let calls = Arc::new(AtomicUsize::new(0));
    let err = engine
        .submit(job_on(CountingSleeper {
            inner: SoftmaxGibbs::new(),
            nap,
            calls: Arc::clone(&calls),
        }))
        .expect("admission accepts the job")
        .wait_result()
        .expect_err("a wedged phase must trip the watchdog");
    assert!(
        matches!(
            err,
            EngineError::WatchdogTimeout {
                iteration: 0,
                group: 0,
                ..
            }
        ),
        "got {err:?}"
    );
    // Both chunks of phase 0 (two chunks, two workers) are asleep. Let
    // them wake and return as stragglers, with time to spare for any
    // phase they might wrongly dispatch to start.
    std::thread::sleep(nap + Duration::from_millis(200));
    let phase0_chunks = 2;
    assert_eq!(calls.load(Ordering::SeqCst), phase0_chunks);
    let metrics = engine.metrics();
    assert_eq!(metrics.sweeps_completed, 0);
    assert_eq!(metrics.jobs_completed, 0);
    assert_eq!(metrics.jobs_failed, 1);
    engine_accepts_fresh_work(&engine);
    engine.shutdown();
    assert_eq!(calls.load(Ordering::SeqCst), phase0_chunks);
}

/// A plan that sticks unit 0 on `label` before the first sweep.
fn stuck_at(label: u8) -> FaultPlan {
    FaultPlan::new(vec![FaultEvent {
        sweep: 0,
        unit: 0,
        fault: UnitFault::Stuck(Label::new(label)),
    }])
}

/// A one-unit RSU-G pool over [`field`].
fn one_unit_pool() -> BackendSampler {
    BackendSampler::try_new(Backend::RsuG { replicas: 1 }, 2.5).expect("one positive replica")
}

/// The field a refused spec or state was reported under.
fn invalid_field(err: &EngineError) -> &'static str {
    match err {
        EngineError::InvalidSpec { field, .. } => field,
        other => panic!("expected InvalidSpec, got {other:?}"),
    }
}

#[test]
fn a_stuck_label_outside_the_label_space_is_refused_at_build_and_admission() {
    for label in [M as u8, 40] {
        let err = InferenceJob::new(field(), one_unit_pool())
            .fault_plan(stuck_at(label))
            .build()
            .expect_err("a unit stuck outside the label space must not validate");
        assert_eq!(invalid_field(&err), "fault_plan");
    }
    // A job submitted without `build()` is refused the same way at
    // admission.
    let engine = Engine::with_default_config();
    let mut unbuilt = InferenceJob::new(field(), one_unit_pool());
    unbuilt.fault_plan = Some(stuck_at(M as u8));
    let err = engine
        .submit(unbuilt)
        .expect_err("admission refuses an out-of-space stuck label");
    assert_eq!(invalid_field(&err), "fault_plan");
    // The top label itself is a fault the job survives.
    let out = engine
        .submit(
            InferenceJob::new(field(), one_unit_pool())
                .iterations(3)
                .track_modes(true)
                .fault_plan(stuck_at(M as u8 - 1))
                .build()
                .expect("a unit stuck on label M - 1 is valid"),
        )
        .expect("admission accepts the job")
        .wait_result()
        .expect("the stuck unit's job completes");
    assert!(out.labels.iter().all(|l| usize::from(l.value()) == M - 1));
    engine.shutdown();
}

/// Keeps every captured state in memory.
#[derive(Default)]
struct Captured(std::sync::Mutex<Vec<JobState>>);

impl CheckpointWriter for Captured {
    fn write(&self, state: &JobState) -> Result<(), String> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(state.clone());
        Ok(())
    }
}

#[test]
fn a_checkpointed_stuck_label_outside_the_label_space_is_refused_at_resume() {
    let spec = || {
        InferenceJob::new(field(), one_unit_pool())
            .iterations(4)
            .track_modes(true)
            .fault_plan(FaultPlan::none())
    };
    let engine = Engine::with_default_config();
    let captured = Arc::new(Captured::default());
    let writer: Arc<dyn CheckpointWriter> = captured.clone();
    let checkpointed = spec()
        .checkpoint(CheckpointPolicy::every(2), writer)
        .build()
        .expect("valid spec");
    engine
        .submit(checkpointed)
        .expect("admission accepts the job")
        .wait_result()
        .expect("the healthy job completes");
    let mut state = captured
        .0
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .first()
        .cloned()
        .expect("a checkpoint at sweep 2");
    assert_eq!(state.kernel_faults, vec![None]);
    state.kernel_faults[0] = Some(UnitFault::Stuck(Label::new(M as u8)));
    let Err(err) = engine.resume(spec().build().expect("valid spec"), &state) else {
        // A job seated with a label outside the space is in an undefined
        // state; leak the engine rather than wait on it.
        std::mem::forget(engine);
        panic!("a checkpoint seated a unit stuck outside the label space");
    };
    assert_eq!(invalid_field(&err), "checkpoint");
    state.kernel_faults[0] = Some(UnitFault::Stuck(Label::new(M as u8 - 1)));
    engine
        .resume(spec().build().expect("valid spec"), &state)
        .expect("a unit stuck on label M - 1 re-seats")
        .wait_result()
        .expect("the resumed job completes");
    engine.shutdown();
}

/// The typed refusal's variant and, for `InvalidSpec`, its field.
fn refusal(err: &EngineError) -> (&'static str, Option<&'static str>) {
    let field = match err {
        EngineError::InvalidSpec { field, .. } => Some(*field),
        _ => None,
    };
    (err.variant(), field)
}

#[test]
fn every_door_refuses_the_same_malformed_job() {
    let base = || {
        InferenceJob::new(field(), one_unit_pool())
            .iterations(4)
            .track_modes(true)
    };
    let malformed = |row: usize| match row {
        0 => base().iterations(0),
        1 => base().threads(0),
        2 => base().groups(Vec::new()),
        3 => base().initial(vec![Label::new(0); 3]),
        4 => base().health(HealthPolicy {
            probe_every: 0,
            ..HealthPolicy::default()
        }),
        _ => base().fault_plan(stuck_at(M as u8)),
    };
    let expected = [
        ("invalid-spec", Some("iterations")),
        ("invalid-spec", Some("threads")),
        ("invalid-spec", Some("groups")),
        ("labeling", None),
        ("invalid-spec", Some("health.probe_every")),
        ("invalid-spec", Some("fault_plan")),
    ];
    let engine = Engine::with_default_config();
    let captured = Arc::new(Captured::default());
    let writer: Arc<dyn CheckpointWriter> = captured.clone();
    engine
        .submit(base().checkpoint(CheckpointPolicy::every(2), writer))
        .expect("admission accepts the healthy job")
        .wait_result()
        .expect("the healthy job completes");
    let state = captured
        .0
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .first()
        .cloned()
        .expect("a checkpoint at sweep 2");
    for (row, want) in expected.into_iter().enumerate() {
        let try_submit = match engine.try_submit(malformed(row)) {
            Err(TrySubmitError::Engine(err)) => err,
            Err(TrySubmitError::Full) => panic!("row {row}: queued, not refused"),
            Ok(handle) => panic!("row {row}: try_submit admitted {}", handle.id()),
        };
        let Err(shard) = ShardRunner::try_new(malformed(row), &[]) else {
            panic!("row {row}: ShardRunner::try_new admitted it");
        };
        let doors = [
            ("build", malformed(row).build().expect_err("build refuses")),
            (
                "submit",
                engine.submit(malformed(row)).expect_err("refused"),
            ),
            ("try_submit", try_submit),
            (
                "resume",
                engine.resume(malformed(row), &state).expect_err("refused"),
            ),
            ("shard", shard),
        ];
        for (door, err) in doors {
            assert_eq!(refusal(&err), want, "row {row}, door {door}: {err}");
        }
    }
    assert_eq!(
        engine.metrics().jobs_submitted,
        1,
        "no malformed job queued"
    );
    engine.shutdown();
}

/// A diagnostics sink that panics in `on_sweep` once `panic_at_sweep`
/// sweeps have completed, or in `on_finish`.
struct PanickySink {
    panic_at_sweep: Option<usize>,
}

impl DiagSink for PanickySink {
    fn on_sweep(&self, obs: &SweepObservation<'_>) -> SweepDecision {
        if Some(obs.iteration) == self.panic_at_sweep {
            panic!("sink panicked at sweep {}", obs.iteration);
        }
        SweepDecision::Continue
    }

    fn on_finish(&self, _output: &JobOutput) {
        if self.panic_at_sweep.is_none() {
            panic!("sink panicked at finish");
        }
    }
}

/// Runs a job carrying `sink` on a one-worker engine, then a healthy job.
/// The first must fail with `WorkerPanicked` carrying the sink's message,
/// the second must complete, and the counters must book one panicked,
/// failed job. The engine lives on its own thread and reports through a
/// channel, so an engine that wedges fails this by timeout instead of
/// hanging the suite (the wedged thread is then left behind).
fn sink_panic_fails_only_its_job(sink: PanickySink, message: &str) {
    let (tx, rx) = mpsc::channel();
    let owner = std::thread::spawn(move || {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let spec = InferenceJob::new(field(), SoftmaxGibbs::new())
            .threads(2)
            .seed(11)
            .iterations(6)
            .sink(Arc::new(sink))
            .build()
            .expect("valid spec");
        let first = engine.submit(spec).expect("admitted").wait_result();
        let second = engine
            .submit(job_on(SoftmaxGibbs::new()))
            .map(JobHandle::wait_result);
        let _ = tx.send((first, second, engine.metrics()));
    });
    let (first, second, metrics) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("a sink panic must fail its job, not wedge the only worker");
    owner.join().expect("the engine shut down cleanly");
    match first {
        Err(EngineError::WorkerPanicked { message: got, .. }) => {
            assert!(got.contains(message), "{got}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let second = second.expect("accepted").expect("the next job completes");
    assert_eq!(second.iterations_run, 6);
    assert_eq!(
        (
            metrics.jobs_panicked,
            metrics.jobs_failed,
            metrics.jobs_completed
        ),
        (1, 1, 1)
    );
}

#[test]
fn a_sink_panicking_at_a_sweep_boundary_fails_its_job_and_spares_the_worker() {
    let sink = PanickySink {
        panic_at_sweep: Some(2),
    };
    sink_panic_fails_only_its_job(sink, "sink panicked at sweep 2");
}

#[test]
fn a_sink_panicking_at_finish_fails_its_job_and_spares_the_worker() {
    let sink = PanickySink {
        panic_at_sweep: None,
    };
    sink_panic_fails_only_its_job(sink, "sink panicked at finish");
}

#[test]
fn a_sink_panicking_at_finish_of_a_job_cancelled_in_the_queue() {
    // One worker and one active slot: the sink's job waits in the queue
    // behind a long job, is cancelled there, and finishes the moment it
    // is admitted. The engine reports through a channel, so a wedged
    // scheduler fails this by timeout instead of hanging the suite.
    let (tx, rx) = mpsc::channel();
    let owner = std::thread::spawn(move || {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            max_active_jobs: 1,
            ..EngineConfig::default()
        });
        let ahead = engine
            .submit(job_on(SoftmaxGibbs::new()).iterations(2_000))
            .expect("admitted");
        let sink = Arc::new(PanickySink {
            panic_at_sweep: None,
        });
        let queued = engine
            .submit(job_on(SoftmaxGibbs::new()).sink(sink))
            .expect("queued");
        queued.cancel();
        let cancelled = queued.wait_result();
        let ahead = ahead.wait_result();
        let later = engine
            .submit(job_on(SoftmaxGibbs::new()))
            .map(JobHandle::wait_result);
        let _ = tx.send((cancelled, ahead, later));
    });
    let (cancelled, ahead, later) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("a sink panicking at a queued job's finish must not wedge the engine");
    owner.join().expect("the engine shut down cleanly");
    match cancelled {
        Err(EngineError::WorkerPanicked { message, .. }) => {
            assert!(message.contains("sink panicked at finish"), "{message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert_eq!(
        ahead.expect("the job ahead completes").iterations_run,
        2_000
    );
    let later = later.expect("accepted").expect("a later job completes");
    assert_eq!(later.iterations_run, 6);
}
