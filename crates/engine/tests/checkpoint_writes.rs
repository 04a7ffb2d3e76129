//! Checkpoint writes off the sweep barrier: a checkpointing boundary
//! only captures the job's state, the worker that runs the next sweep's
//! first chunk writes it while the other chunks run, and a job's output
//! is published only once its last write has landed. A wedged write
//! occupies one worker, as a wedged kernel does, and never the watchdog.

use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use mogs_engine::prelude::*;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};

const SWEEPS: usize = 6;

/// A deterministic potential.
#[derive(Debug, Clone)]
struct Stripes;

impl SingletonPotential for Stripes {
    fn energy(&self, site: usize, label: Label) -> f64 {
        ((site * 7 + usize::from(label.value()) * 3) % 11) as f64 * 0.17
    }
}

fn spec(
    policy: CheckpointPolicy,
    writer: Arc<dyn CheckpointWriter>,
    sink: Option<Arc<dyn DiagSink>>,
) -> InferenceJob<Stripes, BackendSampler> {
    let mrf = MarkovRandomField::builder(Grid2D::new(12, 9), LabelSpace::scalar(4))
        .prior(SmoothnessPrior::potts(0.8))
        .singleton(Stripes)
        .build();
    let sampler =
        BackendSampler::try_new(Backend::Softmax, mrf.temperature()).expect("softmax backend");
    let mut builder = InferenceJob::new(mrf, sampler)
        .threads(3)
        .seed(0x5107)
        .iterations(SWEEPS)
        .checkpoint(policy, writer);
    if let Some(sink) = sink {
        builder = builder.sink(sink);
    }
    builder.build().expect("valid spec")
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    })
}

/// Blocks every write until the test opens it: a writer wedged on I/O.
#[derive(Default)]
struct GatedWriter {
    open: Mutex<bool>,
    opened: Condvar,
}

impl GatedWriter {
    fn open(&self) {
        *self.open.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.opened.notify_all();
    }
}

impl CheckpointWriter for GatedWriter {
    fn write(&self, _state: &JobState) -> Result<(), String> {
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        while !*open {
            open = self
                .opened
                .wait(open)
                .unwrap_or_else(PoisonError::into_inner);
        }
        Ok(())
    }
}

/// Records the cursor of every state it is handed, each only after a
/// delay far longer than a sweep of the test field: a result published
/// before its last write landed would miss that write's cursor.
struct SlowWriter {
    delay: Duration,
    cursors: Mutex<Vec<usize>>,
}

impl SlowWriter {
    fn new(delay: Duration) -> Arc<Self> {
        Arc::new(SlowWriter {
            delay,
            cursors: Mutex::new(Vec::new()),
        })
    }

    fn cursors(&self) -> Vec<usize> {
        self.cursors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl CheckpointWriter for SlowWriter {
    fn write(&self, state: &JobState) -> Result<(), String> {
        std::thread::sleep(self.delay);
        self.cursors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(state.next_sweep);
        Ok(())
    }
}

/// Stops the job at the boundary after the given sweep.
struct StopAfter(usize);

impl DiagSink for StopAfter {
    fn on_sweep(&self, observation: &SweepObservation<'_>) -> SweepDecision {
        if observation.iteration == self.0 {
            SweepDecision::Stop
        } else {
            SweepDecision::Continue
        }
    }
}

/// Panics on every write.
struct PanickingWriter;

impl CheckpointWriter for PanickingWriter {
    fn write(&self, _state: &JobState) -> Result<(), String> {
        panic!("the checkpoint writer fails");
    }
}

#[test]
fn the_output_waits_for_the_last_write() {
    let engine = engine();
    let writer = SlowWriter::new(Duration::from_millis(15));
    let out = engine
        .submit(spec(CheckpointPolicy::every(1), writer.clone(), None))
        .expect("admitted")
        .wait_result()
        .expect("job completes");
    assert_eq!(out.iterations_run, SWEEPS);
    // Every boundary but the last wrote, in sweep order, and all of them
    // had landed when the output was published.
    assert_eq!(writer.cursors(), (1..SWEEPS).collect::<Vec<_>>());
    assert_eq!(engine.metrics().checkpoints_written, SWEEPS as u64 - 1);
    engine.shutdown();
}

#[test]
fn an_early_stop_capture_lands_before_the_output() {
    let engine = engine();
    let writer = SlowWriter::new(Duration::from_millis(15));
    let policy = CheckpointPolicy {
        every_sweeps: 0,
        on_early_stop: true,
    };
    let out = engine
        .submit(spec(policy, writer.clone(), Some(Arc::new(StopAfter(2)))))
        .expect("admitted")
        .wait_result()
        .expect("job stops early");
    assert!(out.early_stopped);
    assert_eq!(out.iterations_run, 3);
    assert_eq!(writer.cursors(), vec![3]);
    engine.shutdown();
}

#[test]
fn a_panicking_write_costs_its_phase_a_retry_not_the_job() {
    let engine = engine();
    let out = engine
        .submit(spec(
            CheckpointPolicy::every(1),
            Arc::new(PanickingWriter),
            None,
        ))
        .expect("admitted")
        .wait_result()
        .expect("a panicking write does not fail the job");
    assert_eq!(out.iterations_run, SWEEPS);
    let metrics = engine.metrics();
    assert_eq!(metrics.checkpoints_written, 0);
    assert_eq!(metrics.phase_retries, SWEEPS as u64 - 1);
    // The workers survived: the next job's writes land.
    let writer = SlowWriter::new(Duration::ZERO);
    engine
        .submit(spec(CheckpointPolicy::every(2), writer.clone(), None))
        .expect("admitted")
        .wait_result()
        .expect("job completes");
    assert_eq!(writer.cursors(), vec![2, 4]);
    engine.shutdown();
}

#[test]
fn a_wedged_write_does_not_wedge_the_watchdog() {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        phase_deadline: Some(Duration::from_millis(25)),
        ..EngineConfig::default()
    }));
    // Sweep 0's boundary hands its capture to sweep 1's first chunk,
    // whose worker then blocks in the write, so sweep 1's first phase
    // overruns the deadline.
    let writer = Arc::new(GatedWriter::default());
    let handle = engine
        .submit(spec(CheckpointPolicy::every(1), writer.clone(), None))
        .expect("admitted");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.wait_result());
    });
    let failed = rx.recv_timeout(Duration::from_secs(10));
    // The other worker still serves a second checkpointing job while the
    // first job's write is wedged.
    let (tx, rx) = mpsc::channel();
    let second = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let writer = SlowWriter::new(Duration::ZERO);
            let out = engine
                .submit(spec(CheckpointPolicy::every(2), writer.clone(), None))
                .and_then(|handle| handle.wait_result());
            let _ = tx.send((out, writer.cursors()));
        })
    };
    let served = rx.recv_timeout(Duration::from_secs(10));
    writer.open();
    let _ = second.join();
    match failed {
        Ok(Err(EngineError::WatchdogTimeout { deadline_ms, .. })) => assert_eq!(deadline_ms, 25),
        Ok(other) => panic!("expected WatchdogTimeout, got {other:?}"),
        Err(_) => panic!("the watchdog waited on the wedged write"),
    }
    let (out, cursors) = served.expect("a second job is served while a write is wedged");
    assert_eq!(out.expect("second job completes").iterations_run, SWEEPS);
    assert_eq!(cursors, vec![2, 4]);
    Arc::into_inner(engine)
        .expect("the test threads are done")
        .shutdown();
}
