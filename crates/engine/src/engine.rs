//! The persistent engine: worker pool, scheduler, queue, and lifecycle.
//!
//! One [`Engine`] owns `workers` long-lived OS threads plus a scheduler
//! thread, all started once at construction — submitting a job spawns
//! nothing. Tasks go out, finished jobs come back:
//!
//! ```text
//! submit() ──bounded──▶ scheduler ──tasks──▶ workers ⟲ next phase
//!                           ▲                   │
//!                           └──finished jobs────┘
//! ```
//!
//! The scheduler admits jobs (at most `max_active_jobs` concurrently),
//! hands each to a worker to start and runs the watchdog; it hears of a
//! job again only when the job finishes. A sweep runs as the field's
//! conditionally independent group phases, each fanned out as one task
//! per chunk. Each job carries its own phase state, and the worker whose
//! chunk drains a phase advances the job: it closes out the sweep,
//! retries or fails a panicked phase, and finishes the job or sends the
//! next phase's chunks `1..` to the pool and runs chunk 0 itself. Phases
//! stay barriers, so results stay bit-exact, with no thread in between.
//! Backpressure falls out of the bounded submission channel: once
//! `queue_capacity` jobs wait and `max_active_jobs` run,
//! [`Engine::submit`] blocks and [`Engine::try_submit`] refuses the
//! job. Dropping (or [`Engine::shutdown`]-ing) the engine closes the
//! queue, drains every admitted job, stops the workers, then joins all
//! threads.
//!
//! A checkpointing sweep boundary only captures the job's state. The
//! capture rides with the next phase's chunk 0, and the worker that runs
//! that chunk writes it first, while the pool runs the phase's other
//! chunks. The phase cannot drain before the write returns, so a job's
//! writes land in sweep order and before its output; a capture with no
//! next phase (an early stop) is written before the output is published.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use mogs_gibbs::kernel::{KernelArena, SweepKernel};
use mogs_mrf::energy::SingletonPotential;
use parking_lot::Mutex;

use crate::ckpt::{Capture, JobState};
use crate::error::EngineError;
use crate::job::{HandleShared, InferenceJob, JobHandle, JobId};
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::runner::{ErasedJob, TypedJob};
use crate::sink::SweepDecision;

/// Sizing of an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// OS threads in the worker pool. Worker count affects wall-clock
    /// speed only, never results: determinism is fixed by each job's own
    /// `threads` (chunk) parameter.
    pub workers: usize,
    /// Jobs the submission queue holds before `submit` blocks.
    pub queue_capacity: usize,
    /// Jobs swept concurrently; the rest wait in the queue.
    pub max_active_jobs: usize,
    /// Watchdog deadline for one (iteration, group) phase: a phase whose
    /// chunks have not all completed within it fails its job with
    /// [`EngineError::WatchdogTimeout`], freeing its caller. `None` (the
    /// default) disarms the watchdog — phase wall-clock depends on load,
    /// so opt in with a deadline sized to the deployment. A wedged
    /// worker thread stays occupied until its chunk returns; the
    /// watchdog frees the *caller*, not the thread.
    pub phase_deadline: Option<Duration>,
    /// Panicked phases are retried this many times (with a small
    /// doubling backoff) before the job fails with
    /// [`EngineError::WorkerPanicked`]. Zero disables retry.
    pub max_phase_retries: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        EngineConfig {
            workers: cores,
            queue_capacity: 16,
            max_active_jobs: 4,
            phase_deadline: None,
            max_phase_retries: 2,
        }
    }
}

/// Why a non-blocking submission failed.
///
/// Only the backpressure case is specific to `try_submit`: every other
/// failure is the same [`EngineError`] the blocking path reports.
#[derive(Debug)]
pub enum TrySubmitError {
    /// The queue is at capacity and the job was dropped; a later
    /// [`Engine::try_submit`] admits it afresh, on the shape's cached
    /// admission.
    Full,
    /// The request failed outright — admission rejection or engine
    /// shutdown; see the wrapped [`EngineError`].
    Engine(EngineError),
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Full => write!(f, "submission queue full"),
            TrySubmitError::Engine(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for TrySubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrySubmitError::Full => None,
            TrySubmitError::Engine(err) => Some(err),
        }
    }
}

/// One chunk of one group phase, executed by a worker; `chunk: None`
/// starts a just-admitted job instead (see [`start`]).
struct Task {
    run: Arc<Run>,
    iteration: usize,
    group: usize,
    chunk: Option<usize>,
    /// The last boundary's checkpoint, written before the chunk runs.
    write: Option<Box<Capture>>,
}

/// A job from submission on: queued, then shared by its tasks in flight.
/// The worker that drains a phase advances the job under `phase`.
struct Run {
    id: JobId,
    job: Box<dyn ErasedJob>,
    shared: Arc<HandleShared>,
    phase: Mutex<Phase>,
}

/// Where a job stands between phases.
struct Phase {
    iteration: usize,
    group: usize,
    /// Tasks of the current phase still running on workers.
    outstanding: usize,
    /// The diagnostics sink asked to stop this job at a sweep boundary.
    early_stopped: bool,
    /// First panic payload seen in the current phase; resolved (retry or
    /// fail) once the phase drains.
    panicked: Option<String>,
    /// Panicked-phase retries burned so far; reset on a clean phase.
    retries: usize,
    /// Admission time; the sweep and phase clocks restart as they go.
    started: Instant,
    iteration_started: Instant,
    phase_started: Instant,
    /// The job is finished, or the watchdog reaped it: straggler chunks
    /// that return later book nothing.
    closed: bool,
    /// The last boundary's checkpoint, until a phase or `settle` takes it.
    pending: Option<Box<Capture>>,
}

/// What the scheduler and every worker hold to dispatch and retire jobs.
#[derive(Clone)]
struct Pool {
    /// Chunk tasks; `None` stops the worker that receives it.
    tasks: Sender<Option<Task>>,
    /// Ids of finished jobs, back to the scheduler.
    finished: Sender<JobId>,
    metrics: Arc<EngineMetrics>,
    max_phase_retries: usize,
}

/// The persistent inference runtime.
pub struct Engine {
    submissions: Option<Sender<Arc<Run>>>,
    scheduler: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The task channel, to stop the workers after the drain.
    tasks: Sender<Option<Task>>,
    metrics: Arc<EngineMetrics>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Engine {
    /// Starts the worker pool and scheduler.
    ///
    /// # Panics
    ///
    /// Panics if any of the config's sizes is zero.
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(
            config.queue_capacity > 0,
            "queue must hold at least one job"
        );
        assert!(
            config.max_active_jobs > 0,
            "need at least one active job slot"
        );
        let metrics = Arc::new(EngineMetrics::new());
        let (sub_tx, sub_rx) = channel::bounded::<Arc<Run>>(config.queue_capacity);
        let (task_tx, task_rx) = channel::unbounded::<Option<Task>>();
        let (finished_tx, finished_rx) = channel::unbounded::<JobId>();
        let pool = Pool {
            tasks: task_tx.clone(),
            finished: finished_tx,
            metrics: Arc::clone(&metrics),
            max_phase_retries: config.max_phase_retries,
        };
        let workers = (0..config.workers)
            .map(|_| {
                let task_rx = task_rx.clone();
                let pool = pool.clone();
                std::thread::spawn(move || worker_loop(&task_rx, &pool))
            })
            .collect();
        drop(task_rx);
        let scheduler = {
            let (max_active, phase_deadline) = (config.max_active_jobs, config.phase_deadline);
            std::thread::spawn(move || {
                scheduler_loop(&sub_rx, &finished_rx, &pool, max_active, phase_deadline);
            })
        };
        Engine {
            submissions: Some(sub_tx),
            scheduler: Some(scheduler),
            workers,
            tasks: task_tx,
            metrics,
            next_id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Starts an engine with [`EngineConfig::default`] sizing.
    pub fn with_default_config() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// Runs admission ([`InferenceJob::validate`], then the shape's
    /// verified schedule) and builds the type-erased job — fresh, or
    /// continuing from `resume`. A rejection happens before any label
    /// plane exists.
    fn prepare<S, L>(
        &self,
        job: InferenceJob<S, L>,
        resume: Option<&JobState>,
    ) -> Result<Arc<Run>, EngineError>
    where
        S: SingletonPotential + 'static,
        L: SweepKernel + Clone + Send + Sync + 'static,
    {
        let (typed, shared) = TypedJob::try_new(job, resume)?;
        if shared {
            self.metrics
                .admissions_shared
                .fetch_add(1, Ordering::Relaxed);
        }
        let now = Instant::now();
        Ok(Arc::new(Run {
            id: JobId(self.next_id.fetch_add(1, Ordering::Relaxed)),
            phase: Mutex::new(Phase {
                // A fresh job starts at sweep 0; a resumed one at its
                // checkpoint's cursor.
                iteration: typed.start_iteration(),
                group: 0,
                outstanding: 0,
                early_stopped: false,
                panicked: None,
                retries: 0,
                started: now,
                iteration_started: now,
                phase_started: now,
                closed: false,
                pending: None,
            }),
            job: Box::new(typed),
            shared: HandleShared::new(),
        }))
    }

    /// Submits a job that continues from a checkpointed [`JobState`]
    /// instead of an initial labeling, blocking while the queue is full.
    /// The spec is admitted exactly as [`Engine::submit`] admits it — on
    /// its shape's cached, already-verified schedule, or through a fresh
    /// colour-and-verify pass — before anything in the state is trusted;
    /// the state is then validated against the rebuilt job — its binding
    /// must match the spec, its label plane must validate, and its
    /// fault/diagnostics records must be re-seatable — before the
    /// scheduler picks up at the checkpoint's sweep cursor. A resumed
    /// run is bit-identical to the uninterrupted one from that cursor
    /// on (chunk RNG streams are derived from `(seed, sweep)`, never
    /// stored).
    ///
    /// # Errors
    ///
    /// Everything [`Engine::submit`] reports, plus
    /// [`EngineError::InvalidSpec`] (field `"checkpoint"`) when the
    /// state does not belong to this spec or cannot be re-seated.
    pub fn resume<S, L>(
        &self,
        job: InferenceJob<S, L>,
        state: &JobState,
    ) -> Result<JobHandle, EngineError>
    where
        S: SingletonPotential + 'static,
        L: SweepKernel + Clone + Send + Sync + 'static,
    {
        let run = self.prepare(job, Some(state)).inspect_err(|_| {
            self.metrics.jobs_denied.fetch_add(1, Ordering::Relaxed);
        })?;
        let handle = Engine::handle_for(&run);
        let sender = self.submissions.as_ref().ok_or(EngineError::ShutDown)?;
        sender.send(run).map_err(|_| EngineError::ShutDown)?;
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .checkpoints_restored
            .fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    fn handle_for(run: &Run) -> JobHandle {
        JobHandle {
            id: run.id,
            shared: Arc::clone(&run.shared),
        }
    }

    /// Submits a job, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Everything [`InferenceJob::validate`] reports;
    /// [`EngineError::Schedule`] if the job fails the admission audit;
    /// [`EngineError::ShutDown`] if the engine has stopped.
    pub fn submit<S, L>(&self, job: InferenceJob<S, L>) -> Result<JobHandle, EngineError>
    where
        S: SingletonPotential + 'static,
        L: SweepKernel + Clone + Send + Sync + 'static,
    {
        let run = self.prepare(job, None).inspect_err(|_| {
            self.metrics.jobs_denied.fetch_add(1, Ordering::Relaxed);
        })?;
        let handle = Engine::handle_for(&run);
        let sender = self.submissions.as_ref().ok_or(EngineError::ShutDown)?;
        sender.send(run).map_err(|_| EngineError::ShutDown)?;
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::Full`] when the queue is at capacity;
    /// [`TrySubmitError::Engine`] wraps the same [`EngineError`]s as
    /// [`Engine::submit`].
    pub fn try_submit<S, L>(&self, job: InferenceJob<S, L>) -> Result<JobHandle, TrySubmitError>
    where
        S: SingletonPotential + 'static,
        L: SweepKernel + Clone + Send + Sync + 'static,
    {
        let run = self.prepare(job, None).map_err(|err| {
            self.metrics.jobs_denied.fetch_add(1, Ordering::Relaxed);
            TrySubmitError::Engine(err)
        })?;
        let handle = Engine::handle_for(&run);
        let sender = self
            .submissions
            .as_ref()
            .ok_or(TrySubmitError::Engine(EngineError::ShutDown))?;
        match sender.try_send(run) {
            Ok(()) => {
                self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                Ok(handle)
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                Err(TrySubmitError::Full)
            }
            Err(TrySendError::Disconnected(_)) => {
                Err(TrySubmitError::Engine(EngineError::ShutDown))
            }
        }
    }

    /// Live counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Closes the queue, drains every queued and running job, and joins
    /// all threads. Cancel handles first to stop faster.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        // Closing the submission channel lets the scheduler drain every
        // admitted job and exit; then the workers are stopped. Workers
        // hold task senders themselves, so the pool never closes alone.
        drop(self.submissions.take());
        if let Some(scheduler) = self.scheduler.take() {
            let _ = scheduler.join();
        }
        for _ in 0..self.workers.len() {
            let _ = self.tasks.send(None);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers.len())
            .field("running", &self.submissions.is_some())
            .finish()
    }
}

/// Renders a worker panic payload for the job's error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How often the scheduler wakes to check phase deadlines: a quarter of
/// the deadline, clamped so short deadlines stay precise and long ones
/// don't spin.
fn watchdog_tick(deadline: Duration) -> Duration {
    (deadline / 4).clamp(Duration::from_millis(5), Duration::from_millis(250))
}

/// Backoff before the `retries`-th re-dispatch of a panicked phase:
/// 1 ms doubling, capped at 8 ms. The draining worker sleeps; other jobs
/// run on the rest of the pool.
fn retry_backoff(retries: usize) -> Duration {
    Duration::from_millis(1u64 << retries.clamp(1, 4).saturating_sub(1))
}

/// What `advance` left the job doing.
enum Advanced {
    /// A phase was dispatched; its chunk 0 is the caller's to run.
    Dispatched(Task),
    /// The job reached a terminal success state (completed, cancelled,
    /// or early-stopped).
    Done,
    /// The job failed: a fatal sweep boundary or an unrecoverable panic.
    Failed(EngineError),
}

/// A worker: runs chunks and advances every job whose phase it drains,
/// running that job's next chunk 0 itself. One kernel arena per worker,
/// reused across every phase and job it ever runs: after warm-up the hot
/// path never allocates.
///
/// Everything a worker does for a job runs inside one panic-isolation
/// boundary: the job's start, the chunk (and the checkpoint write it
/// carries), and the booking that may close out the sweep (diagnostics
/// sink, checkpoint capture, fault runtime) or finish the job (the
/// sink's `on_finish`). A panicking chunk or write is booked against its
/// phase, which retries it or fails the job; a panic while booking (or
/// starting) fails the job at once. Either way the worker lives on and
/// the job's caller gets [`EngineError::WorkerPanicked`].
fn worker_loop(task_rx: &Receiver<Option<Task>>, pool: &Pool) {
    let mut arena = KernelArena::new();
    let mut next = None;
    // A chunk that panicked, still to be booked against its phase.
    let mut unbooked: Option<(Task, String)> = None;
    loop {
        let (mut task, chunk_panic) = match unbooked.take() {
            Some((task, message)) => (task, Some(message)),
            None => match next.take().or_else(|| task_rx.recv().ok().flatten()) {
                Some(task) => (task, None),
                None => return,
            },
        };
        let mut booking = chunk_panic.is_some();
        #[expect(
            clippy::disallowed_methods,
            reason = "the engine's one intentional panic-isolation boundary: \
                      a panicking kernel or sweep boundary must fail its *job*, \
                      never the worker pool"
        )]
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let Some(chunk) = task.chunk else {
                booking = true;
                return start(&task.run, pool);
            };
            if !booking {
                if let Some(capture) = task.write.take() {
                    write_checkpoint(&capture, &pool.metrics);
                }
                task.run
                    .job
                    .run_chunk(task.iteration, task.group, chunk, &mut arena);
                booking = true;
            }
            complete(&task.run, chunk_panic, pool)
        }));
        next = match result {
            Ok(next) => next,
            Err(payload) => {
                // The unwound arena may hold torn scratch state; rebuild
                // it so nothing leaks across the boundary.
                arena = KernelArena::new();
                let message = panic_message(payload.as_ref());
                if booking {
                    fail_panicked_boundary(&task.run, message, pool);
                } else {
                    unbooked = Some((task, message));
                }
                None
            }
        };
    }
}

/// Writes a boundary's capture and counts it; a failed write is dropped,
/// as the [`CheckpointWriter`](crate::CheckpointWriter) contract allows.
fn write_checkpoint(capture: &Capture, metrics: &EngineMetrics) {
    if capture.writer.write(&capture.state).is_ok() {
        metrics.checkpoints_written.fetch_add(1, Ordering::Relaxed);
        metrics
            .checkpoint_write_us
            .record(capture.started.elapsed());
    }
}

/// Fails a job whose phase-boundary work panicked on the draining worker.
/// The unwind released the phase lock; a job the watchdog already closed
/// is left as is.
fn fail_panicked_boundary(run: &Arc<Run>, message: String, pool: &Pool) {
    let mut phase = run.phase.lock();
    if phase.closed {
        return;
    }
    pool.metrics.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    let err = EngineError::WorkerPanicked {
        iteration: phase.iteration,
        group: phase.group,
        retries: phase.retries,
        message,
    };
    settle(run, &mut phase, Advanced::Failed(err), pool);
}

/// Books one finished chunk against its job's phase. The worker that
/// drains the phase advances the job: it records the phase latency,
/// resolves a panicked phase (retry or fail), closes out the sweep, and
/// finishes the job or dispatches its next phase, whose chunk 0 it gets
/// back to run.
fn complete(run: &Arc<Run>, panicked: Option<String>, pool: &Pool) -> Option<Task> {
    let mut phase = run.phase.lock();
    if phase.closed {
        return None;
    }
    if let Some(message) = panicked {
        phase.panicked.get_or_insert(message);
    }
    phase.outstanding -= 1;
    if phase.outstanding > 0 {
        return None;
    }
    pool.metrics
        .phase_latency
        .record(phase.phase_started.elapsed());
    let step = match phase.panicked.take() {
        Some(message) => resolve_panicked_phase(run, &mut phase, message, pool),
        None => {
            phase.retries = 0;
            phase.group += 1;
            advance(run, &mut phase, pool)
        }
    };
    settle(run, &mut phase, step, pool)
}

/// The scheduler: admits queued jobs while fewer than `max_active` run,
/// hears back only when one finishes, and reaps overdue phases. Returns
/// once the queue is closed and every admitted job has finished.
fn scheduler_loop(
    sub_rx: &Receiver<Arc<Run>>,
    finished_rx: &Receiver<JobId>,
    pool: &Pool,
    max_active: usize,
    phase_deadline: Option<Duration>,
) {
    let mut active: Vec<Arc<Run>> = Vec::new();
    let mut open = true;
    loop {
        while let Ok(id) = finished_rx.try_recv() {
            active.retain(|run| run.id != id);
        }
        if let Some(deadline) = phase_deadline {
            check_watchdog(&mut active, deadline, pool);
        }
        // Wake on the watchdog tick only while a phase could overrun.
        let tick = phase_deadline
            .filter(|_| !active.is_empty())
            .map(watchdog_tick);
        if open && active.len() < max_active {
            match wait(sub_rx, tick) {
                Ok(run) => {
                    // Take as many jobs as there are free slots, and write
                    // the gauge as they leave the queue, before any is
                    // admitted: a job may finish before `admit` returns.
                    let batch: Vec<Arc<Run>> = std::iter::once(run)
                        .chain(std::iter::from_fn(|| sub_rx.try_recv().ok()))
                        .take(max_active - active.len())
                        .collect();
                    let depth = sub_rx.len() as u64;
                    pool.metrics.queue_depth.store(depth, Ordering::Relaxed);
                    pool.metrics
                        .queue_depth_hwm
                        .fetch_max(depth, Ordering::Relaxed);
                    for run in batch {
                        admit(&run, pool);
                        active.push(run);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => open = false,
            }
        } else if active.is_empty() {
            return;
        } else if let Ok(id) = wait(finished_rx, tick) {
            active.retain(|run| run.id != id);
        }
    }
}

/// Blocks for the next message, for at most `tick` when one is given.
fn wait<T>(rx: &Receiver<T>, tick: Option<Duration>) -> Result<T, RecvTimeoutError> {
    match tick {
        Some(tick) => rx.recv_timeout(tick),
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    }
}

/// Fails every job whose current phase has run past the deadline and
/// drops it from `active`. It is closed under its lock, so its in-flight
/// chunks return as stragglers that book nothing; a truly wedged chunk
/// keeps its worker thread occupied (the watchdog frees the caller, not
/// the OS thread). A job whose lock is held is being advanced, not stuck.
fn check_watchdog(active: &mut Vec<Arc<Run>>, deadline: Duration, pool: &Pool) {
    active.retain(|run| {
        let Some(mut phase) = run.phase.try_lock() else {
            return true;
        };
        if phase.closed || phase.outstanding == 0 || phase.phase_started.elapsed() <= deadline {
            return true;
        }
        let err = EngineError::WatchdogTimeout {
            iteration: phase.iteration,
            group: phase.group,
            deadline_ms: u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX),
        };
        settle(run, &mut phase, Advanced::Failed(err), pool);
        false
    });
}

/// Resolves a fully drained phase that saw at least one panic: retry it
/// (bounded, with backoff) or fail the job with
/// [`EngineError::WorkerPanicked`].
///
/// A retry re-runs the whole (iteration, group) phase against the plane
/// as the first attempt left it — chunks that completed before the
/// panic have already published their labels. Recovery prioritizes
/// liveness over replaying the exact healthy-path draw sequence; the
/// bit-identity contract applies to panic-free runs.
fn resolve_panicked_phase(
    run: &Arc<Run>,
    phase: &mut Phase,
    message: String,
    pool: &Pool,
) -> Advanced {
    if run.shared.cancel.load(Ordering::Acquire) {
        // The user already asked for cancellation; honour it rather than
        // burning retries on a job nobody wants.
        return Advanced::Done;
    }
    if phase.retries < pool.max_phase_retries {
        phase.retries += 1;
        pool.metrics.phase_retries.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(retry_backoff(phase.retries));
        return dispatch_phase(run, phase, pool);
    }
    pool.metrics.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    Advanced::Failed(EngineError::WorkerPanicked {
        iteration: phase.iteration,
        group: phase.group,
        retries: phase.retries,
        message,
    })
}

/// Starts a queued job's clocks and hands the job to a worker to
/// [`start`]: the scheduler runs no job code, so a job that finishes at
/// once (cancelled while queued, or resumed at its last sweep) calls its
/// sink's `on_finish` inside a worker's panic-isolation boundary.
fn admit(run: &Arc<Run>, pool: &Pool) {
    run.shared.set_running();
    pool.metrics.active_jobs.fetch_add(1, Ordering::Relaxed);
    let mut phase = run.phase.lock();
    let now = Instant::now();
    (phase.started, phase.iteration_started) = (now, now);
    let task = Task {
        run: Arc::clone(run),
        iteration: phase.iteration,
        group: 0,
        chunk: None,
        write: None,
    };
    drop(phase);
    let _ = pool.tasks.send(Some(task));
}

/// Advances a just-admitted job to its first phase, whose chunk 0 the
/// worker gets back to run, or finishes it.
fn start(run: &Arc<Run>, pool: &Pool) -> Option<Task> {
    let mut phase = run.phase.lock();
    let step = advance(run, &mut phase, pool);
    settle(run, &mut phase, step, pool)
}

/// Fans the job's current (iteration, group) phase out: chunks `1..` to
/// the pool, chunk 0 back to the caller. Sends cannot fail while a job
/// is live: the workers hold the task channel open until shutdown stops
/// them after the drain.
fn dispatch_phase(run: &Arc<Run>, phase: &mut Phase, pool: &Pool) -> Advanced {
    let chunks = run.job.chunks_in_group(phase.group);
    phase.phase_started = Instant::now();
    phase.outstanding = chunks;
    let task = |chunk, write| Task {
        run: Arc::clone(run),
        iteration: phase.iteration,
        group: phase.group,
        chunk: Some(chunk),
        write,
    };
    for chunk in 1..chunks {
        let _ = pool.tasks.send(Some(task(chunk, None)));
    }
    Advanced::Dispatched(task(0, phase.pending.take()))
}

/// Drives a job forward from a phase boundary: closes out finished
/// iterations (running the sweep's fault/health boundary protocol),
/// honours cancellation and sink early-stops, and dispatches the next
/// non-empty phase.
fn advance(run: &Arc<Run>, phase: &mut Phase, pool: &Pool) -> Advanced {
    let (job, metrics) = (&run.job, &pool.metrics);
    loop {
        if run.shared.cancel.load(Ordering::Acquire) {
            return Advanced::Done;
        }
        if phase.group == job.group_count() {
            let report = job.end_iteration(phase.iteration);
            metrics.sweeps_completed.fetch_add(1, Ordering::Relaxed);
            metrics
                .site_updates
                .fetch_add(job.site_count() as u64, Ordering::Relaxed);
            metrics
                .sweep_latency
                .record(phase.iteration_started.elapsed());
            metrics
                .units_quarantined
                .fetch_add(report.quarantined_now, Ordering::Relaxed);
            if report.failed_over {
                metrics.jobs_failed_over.fetch_add(1, Ordering::Relaxed);
            }
            phase.pending = report.capture;
            phase.iteration += 1;
            phase.group = 0;
            phase.iteration_started = Instant::now();
            if let Some(err) = report.fatal {
                return Advanced::Failed(err);
            }
            if report.decision == SweepDecision::Stop && phase.iteration < job.iterations() {
                // The sink called convergence: stop through the existing
                // cancellation path (same flag, same phase-boundary
                // check), remembering it was a diagnostics stop.
                phase.early_stopped = true;
                run.shared.cancel.store(true, Ordering::Release);
                return Advanced::Done;
            }
        }
        if phase.iteration == job.iterations() {
            return Advanced::Done;
        }
        if job.chunks_in_group(phase.group) == 0 {
            phase.group += 1;
            continue;
        }
        return dispatch_phase(run, phase, pool);
    }
}

/// Publishes the output or error of a job that `advance` left terminal,
/// updates counters and tells the scheduler; hands back the chunk 0 of a
/// dispatched phase.
fn settle(run: &Run, phase: &mut Phase, step: Advanced, pool: &Pool) -> Option<Task> {
    let metrics = &pool.metrics;
    let outcome = match step {
        Advanced::Dispatched(first) => return Some(first),
        Advanced::Done => {
            if let Some(capture) = phase.pending.take() {
                write_checkpoint(&capture, metrics);
            }
            // An early stop travels through the cancel flag (set by
            // `advance`); report it as a convergence stop, not a user
            // cancel.
            let cancelled = run.shared.cancel.load(Ordering::Acquire) && !phase.early_stopped;
            // Finalize before counting: a sink panicking in `on_finish`
            // fails the job, and must not count it completed as well.
            let output = run
                .job
                .finalize(cancelled, phase.early_stopped, phase.iteration);
            let counter = if phase.early_stopped {
                &metrics.jobs_early_stopped
            } else if cancelled {
                &metrics.jobs_cancelled
            } else {
                &metrics.jobs_completed
            };
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(output)
        }
        // Deliberately no `finalize`: after a watchdog abandonment the
        // job's straggler chunks may still be mutating the label plane,
        // so only the typed error is surfaced.
        Advanced::Failed(err) => {
            metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
            Err(err)
        }
    };
    phase.closed = true;
    metrics.active_jobs.fetch_sub(1, Ordering::Relaxed);
    metrics.job_wall_time.record(phase.started.elapsed());
    match outcome {
        Ok(output) => run.shared.finish(output),
        Err(err) => run.shared.finish_err(err),
    }
    // The scheduler outlives every job it admitted.
    let _ = pool.finished.send(run.id);
    None
}
