//! The persistent engine: worker pool, scheduler, queue, and lifecycle.
//!
//! One [`Engine`] owns `workers` long-lived OS threads plus a scheduler
//! thread, all started once at construction — submitting a job spawns
//! nothing. Jobs flow through three channels:
//!
//! ```text
//! submit() ──bounded──▶ scheduler ──unbounded──▶ workers
//!                           ▲                       │
//!                           └──────completions──────┘
//! ```
//!
//! The scheduler owns all job bookkeeping: it admits jobs (at most
//! `max_active_jobs` concurrently), decomposes each sweep into the field's
//! conditionally independent group phases, fans every phase out as one
//! task per chunk, and advances a job only when its phase fully drains —
//! preserving the reference sweep's phase barriers and therefore its
//! bit-exact results. Backpressure falls out of the bounded submission
//! channel: once `queue_capacity` jobs wait and `max_active_jobs` run,
//! [`Engine::submit`] blocks and [`Engine::try_submit`] returns the job
//! back. Dropping (or [`Engine::shutdown`]-ing) the engine closes the
//! queue, drains every admitted job, then joins all threads.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use mogs_gibbs::kernel::{KernelArena, SweepKernel};
use mogs_mrf::energy::SingletonPotential;

use crate::ckpt::JobState;
use crate::error::EngineError;
use crate::job::{HandleShared, JobHandle, JobId, JobOutput};
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::runner::{ErasedJob, TypedJob};
use crate::sink::SweepDecision;
use crate::spec::JobSpec;

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
    /// [`EngineError::WatchdogTimeout`] so the scheduler stays
    /// responsive. `None` (the default) disarms the watchdog — phase
    /// wall-clock depends on load, so opt in with a deadline sized to
    /// the deployment. A wedged worker thread stays occupied until its
    /// chunk returns; the watchdog frees the *scheduler*, not the
    /// thread.
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

/// A job travelling from `submit` to the scheduler.
struct Pending {
    id: JobId,
    job: Arc<dyn ErasedJob>,
    shared: Arc<HandleShared>,
}

/// A job rejected by [`Engine::try_submit`], resubmittable without
/// re-preparing its neighbour tables.
pub struct PreparedJob {
    pending: Pending,
}

impl PreparedJob {
    /// The id the job will keep across resubmission.
    pub fn id(&self) -> JobId {
        self.pending.id
    }
}

impl std::fmt::Debug for PreparedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedJob")
            .field("id", &self.pending.id)
            .finish()
    }
}

/// Why a non-blocking submission failed.
///
/// Only the backpressure case is specific to `try_submit`: every other
/// failure is the same [`EngineError`] the blocking path reports.
#[derive(Debug)]
pub enum TrySubmitError {
    /// The queue is at capacity; the prepared job is handed back for a
    /// later [`Engine::try_resubmit`].
    Full(PreparedJob),
    /// The request failed outright — admission rejection or engine
    /// shutdown; see the wrapped [`EngineError`].
    Engine(EngineError),
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Full(job) => {
                write!(f, "submission queue full; job {} handed back", job.id())
            }
            TrySubmitError::Engine(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for TrySubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrySubmitError::Full(_) => None,
            TrySubmitError::Engine(err) => Some(err),
        }
    }
}

/// One chunk of one group phase, executed by a worker.
struct Task {
    id: JobId,
    job: Arc<dyn ErasedJob>,
    iteration: usize,
    group: usize,
    chunk: usize,
}

/// Worker → scheduler: one task finished (perhaps by panicking).
struct TaskDone {
    id: JobId,
    /// The panic payload when the task's kernel panicked instead of
    /// completing; the worker itself survived.
    panicked: Option<String>,
}

/// Scheduler-side state of an admitted job.
struct ActiveJob {
    id: JobId,
    job: Arc<dyn ErasedJob>,
    shared: Arc<HandleShared>,
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
    started: Instant,
    iteration_started: Instant,
    phase_started: Instant,
}

/// The persistent inference runtime.
pub struct Engine {
    submissions: Option<Sender<Pending>>,
    scheduler: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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
        let (sub_tx, sub_rx) = channel::bounded::<Pending>(config.queue_capacity);
        let (task_tx, task_rx) = channel::unbounded::<Task>();
        let (done_tx, done_rx) = channel::unbounded::<TaskDone>();
        let workers = (0..config.workers)
            .map(|_| {
                let task_rx = task_rx.clone();
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    // One kernel arena per worker, reused across every
                    // phase and job this worker ever runs: after warm-up
                    // the hot path never allocates.
                    let mut arena = KernelArena::new();
                    while let Ok(task) = task_rx.recv() {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "the engine's one intentional panic-isolation boundary: \
                                      a panicking kernel must fail its *job*, never the worker pool"
                        )]
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            task.job
                                .run_chunk(task.iteration, task.group, task.chunk, &mut arena);
                        }));
                        let panicked = result.err().map(|payload| {
                            // The unwound arena may hold torn scratch state;
                            // rebuild it so nothing leaks across the boundary.
                            arena = KernelArena::new();
                            panic_message(payload.as_ref())
                        });
                        if done_tx
                            .send(TaskDone {
                                id: task.id,
                                panicked,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                })
            })
            .collect();
        // The scheduler owns its ends; the workers' clones above keep the
        // task/done channels alive until everyone exits.
        drop(task_rx);
        drop(done_tx);
        let scheduler = {
            let metrics = Arc::clone(&metrics);
            let max_active = config.max_active_jobs;
            let phase_deadline = config.phase_deadline;
            let max_phase_retries = config.max_phase_retries;
            std::thread::spawn(move || {
                scheduler_loop(
                    sub_rx,
                    task_tx,
                    done_rx,
                    metrics,
                    max_active,
                    phase_deadline,
                    max_phase_retries,
                );
            })
        };
        Engine {
            submissions: Some(sub_tx),
            scheduler: Some(scheduler),
            workers,
            metrics,
            next_id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Starts an engine with [`EngineConfig::default`] sizing.
    pub fn with_default_config() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// Runs admission (the shape's verified schedule, label-space and
    /// labeling validation) and builds the type-erased job — fresh, or
    /// continuing from `resume`. A rejection happens before any label
    /// plane exists.
    fn prepare<S, L>(
        &self,
        spec: JobSpec<S, L>,
        resume: Option<&JobState>,
    ) -> Result<Pending, EngineError>
    where
        S: SingletonPotential + 'static,
        L: SweepKernel + Clone + Send + Sync + 'static,
    {
        let (typed, shared) = TypedJob::try_new(spec.into_job(), resume)?;
        if shared {
            self.metrics
                .admissions_shared
                .fetch_add(1, Ordering::Relaxed);
        }
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        Ok(Pending {
            id,
            job: Arc::new(typed),
            shared: HandleShared::new(),
        })
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
        job: impl Into<JobSpec<S, L>>,
        state: &JobState,
    ) -> Result<JobHandle, EngineError>
    where
        S: SingletonPotential + 'static,
        L: SweepKernel + Clone + Send + Sync + 'static,
    {
        let pending = self.prepare(job.into(), Some(state)).inspect_err(|_| {
            self.metrics.jobs_denied.fetch_add(1, Ordering::Relaxed);
        })?;
        let handle = Engine::handle_for(&pending);
        let sender = self.submissions.as_ref().ok_or(EngineError::ShutDown)?;
        sender.send(pending).map_err(|_| EngineError::ShutDown)?;
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .checkpoints_restored
            .fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    fn handle_for(pending: &Pending) -> JobHandle {
        JobHandle {
            id: pending.id,
            shared: Arc::clone(&pending.shared),
        }
    }

    /// Submits a job, blocking while the queue is full. Accepts a
    /// validated [`JobSpec`] or (via `Into`) a legacy [`InferenceJob`],
    /// which is vetted at admission exactly as before.
    ///
    /// [`InferenceJob`]: crate::InferenceJob
    ///
    /// # Errors
    ///
    /// [`EngineError::Schedule`] / [`EngineError::LabelSpace`] /
    /// [`EngineError::Labeling`] if the job fails the admission audit;
    /// [`EngineError::ShutDown`] if the engine has stopped.
    pub fn submit<S, L>(&self, job: impl Into<JobSpec<S, L>>) -> Result<JobHandle, EngineError>
    where
        S: SingletonPotential + 'static,
        L: SweepKernel + Clone + Send + Sync + 'static,
    {
        let pending = self.prepare(job.into(), None).inspect_err(|_| {
            self.metrics.jobs_denied.fetch_add(1, Ordering::Relaxed);
        })?;
        let handle = Engine::handle_for(&pending);
        let sender = self.submissions.as_ref().ok_or(EngineError::ShutDown)?;
        sender.send(pending).map_err(|_| EngineError::ShutDown)?;
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::Full`] hands the prepared job back for a later
    /// [`Engine::try_resubmit`]; [`TrySubmitError::Engine`] wraps the
    /// same [`EngineError`]s as [`Engine::submit`].
    pub fn try_submit<S, L>(
        &self,
        job: impl Into<JobSpec<S, L>>,
    ) -> Result<JobHandle, TrySubmitError>
    where
        S: SingletonPotential + 'static,
        L: SweepKernel + Clone + Send + Sync + 'static,
    {
        let pending = self.prepare(job.into(), None).map_err(|err| {
            self.metrics.jobs_denied.fetch_add(1, Ordering::Relaxed);
            TrySubmitError::Engine(err)
        })?;
        self.try_send(pending)
    }

    /// Retries a job bounced by [`Engine::try_submit`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::try_submit`].
    pub fn try_resubmit(&self, job: PreparedJob) -> Result<JobHandle, TrySubmitError> {
        self.try_send(job.pending)
    }

    fn try_send(&self, pending: Pending) -> Result<JobHandle, TrySubmitError> {
        let handle = Engine::handle_for(&pending);
        let sender = self
            .submissions
            .as_ref()
            .ok_or(TrySubmitError::Engine(EngineError::ShutDown))?;
        match sender.try_send(pending) {
            Ok(()) => {
                self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                Ok(handle)
            }
            Err(TrySendError::Full(pending)) => {
                self.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                Err(TrySubmitError::Full(PreparedJob { pending }))
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
        // Closing the submission channel lets the scheduler drain and
        // exit; dropping its task sender then stops the workers.
        drop(self.submissions.take());
        if let Some(scheduler) = self.scheduler.take() {
            let _ = scheduler.join();
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
/// 1 ms doubling, capped at 8 ms (the scheduler sleeps, so the cap keeps
/// other active jobs responsive).
fn retry_backoff(retries: usize) -> Duration {
    Duration::from_millis(1u64 << retries.clamp(1, 4).saturating_sub(1))
}

/// What `advance` left the job doing.
enum Advanced {
    /// A phase was dispatched; the job stays active.
    Dispatched,
    /// The job reached a terminal success state (completed, cancelled,
    /// or early-stopped).
    Done,
    /// The fault plane declared the job unrecoverable at a boundary.
    Failed(EngineError),
}

/// The scheduler: admits jobs, fans out phases, advances on completions,
/// retries or fails panicked phases, and abandons overdue ones.
fn scheduler_loop(
    sub_rx: Receiver<Pending>,
    task_tx: Sender<Task>,
    done_rx: Receiver<TaskDone>,
    metrics: Arc<EngineMetrics>,
    max_active: usize,
    phase_deadline: Option<Duration>,
    max_phase_retries: usize,
) {
    let mut active: HashMap<JobId, ActiveJob> = HashMap::new();
    let mut open = true;
    loop {
        // Admit while there is room, without blocking.
        while open && active.len() < max_active {
            match sub_rx.try_recv() {
                Ok(pending) => admit(pending, &mut active, &task_tx, &metrics),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let depth = sub_rx.len() as u64;
        metrics.queue_depth.store(depth, Ordering::Relaxed);
        metrics.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
        if active.is_empty() {
            if !open {
                return;
            }
            // Idle: block for the next submission.
            match sub_rx.recv() {
                Ok(pending) => admit(pending, &mut active, &task_tx, &metrics),
                Err(_) => open = false,
            }
            continue;
        }
        // Busy: block for the next task completion, waking on the
        // watchdog tick when a phase deadline is armed.
        let done = match phase_deadline {
            Some(deadline) => match done_rx.recv_timeout(watchdog_tick(deadline)) {
                Ok(done) => Some(done),
                Err(RecvTimeoutError::Timeout) => None,
                // All workers died; nothing can make progress.
                Err(RecvTimeoutError::Disconnected) => return,
            },
            None => match done_rx.recv() {
                Ok(done) => Some(done),
                Err(_) => return,
            },
        };
        let Some(done) = done else {
            check_watchdog(&mut active, &metrics, phase_deadline);
            continue;
        };
        let finished_phase = {
            // An absent entry is a job the watchdog already abandoned;
            // its straggler completions drain here, ignored.
            let Some(entry) = active.get_mut(&done.id) else {
                continue;
            };
            if let Some(message) = done.panicked {
                entry.panicked.get_or_insert(message);
            }
            entry.outstanding -= 1;
            entry.outstanding == 0
        };
        if finished_phase {
            // The entry was present two lines up; a vanished key
            // would be a scheduler bug, not a recoverable state,
            // but skipping is strictly safer than unwinding here.
            let Some(mut entry) = active.remove(&done.id) else {
                continue;
            };
            metrics.phase_latency.record(entry.phase_started.elapsed());
            if let Some(message) = entry.panicked.take() {
                let retries = max_phase_retries;
                resolve_panicked_phase(entry, message, &mut active, &task_tx, &metrics, retries);
                continue;
            }
            entry.retries = 0;
            entry.group += 1;
            match advance(&mut entry, &task_tx, &metrics) {
                Advanced::Done => finish(entry, &metrics),
                Advanced::Failed(err) => finish_failed(entry, &metrics, err),
                Advanced::Dispatched => {
                    active.insert(done.id, entry);
                }
            }
        }
    }
}

/// Fails every job whose current phase has been running past the
/// deadline. The abandoned job's in-flight chunks drain as stragglers;
/// a truly wedged chunk keeps its worker thread occupied (the watchdog
/// frees the scheduler and the caller, not the OS thread).
fn check_watchdog(
    active: &mut HashMap<JobId, ActiveJob>,
    metrics: &EngineMetrics,
    phase_deadline: Option<Duration>,
) {
    let Some(deadline) = phase_deadline else {
        return;
    };
    let overdue: Vec<JobId> = active
        .iter()
        .filter(|(_, e)| e.outstanding > 0 && e.phase_started.elapsed() > deadline)
        .map(|(&id, _)| id)
        .collect();
    for id in overdue {
        let Some(entry) = active.remove(&id) else {
            continue;
        };
        let err = EngineError::WatchdogTimeout {
            iteration: entry.iteration,
            group: entry.group,
            deadline_ms: u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX),
        };
        finish_failed(entry, metrics, err);
    }
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
    mut entry: ActiveJob,
    message: String,
    active: &mut HashMap<JobId, ActiveJob>,
    task_tx: &Sender<Task>,
    metrics: &EngineMetrics,
    max_phase_retries: usize,
) {
    let cancelled = entry.shared.cancel.load(Ordering::Acquire);
    if entry.retries < max_phase_retries && !cancelled {
        entry.retries += 1;
        metrics.phase_retries.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(retry_backoff(entry.retries));
        if dispatch_phase(&mut entry, task_tx) {
            active.insert(entry.id, entry);
        } else {
            // Worker pool is gone; the dispatch marked the job cancelled.
            finish(entry, metrics);
        }
    } else if cancelled {
        // The user already asked for cancellation; honour it rather than
        // burning retries on a job nobody wants.
        finish(entry, metrics);
    } else {
        metrics.jobs_panicked.fetch_add(1, Ordering::Relaxed);
        let err = EngineError::WorkerPanicked {
            iteration: entry.iteration,
            group: entry.group,
            retries: entry.retries,
            message,
        };
        finish_failed(entry, metrics, err);
    }
}

/// Registers a new job and dispatches its first phase.
fn admit(
    pending: Pending,
    active: &mut HashMap<JobId, ActiveJob>,
    task_tx: &Sender<Task>,
    metrics: &EngineMetrics,
) {
    let Pending { id, job, shared } = pending;
    shared.set_running();
    metrics.active_jobs.fetch_add(1, Ordering::Relaxed);
    let now = Instant::now();
    // A fresh job starts at sweep 0; a resumed one at its checkpoint's
    // cursor.
    let start_iteration = job.start_iteration();
    let mut entry = ActiveJob {
        id,
        job,
        shared,
        iteration: start_iteration,
        group: 0,
        outstanding: 0,
        early_stopped: false,
        panicked: None,
        retries: 0,
        started: now,
        iteration_started: now,
        phase_started: now,
    };
    match advance(&mut entry, task_tx, metrics) {
        Advanced::Done => finish(entry, metrics),
        Advanced::Failed(err) => finish_failed(entry, metrics, err),
        Advanced::Dispatched => {
            active.insert(id, entry);
        }
    }
}

/// Fans the job's current (iteration, group) phase out as one task per
/// chunk. Returns `false` when the worker pool is gone (the job is
/// marked cancelled so the caller can finish it).
fn dispatch_phase(entry: &mut ActiveJob, task_tx: &Sender<Task>) -> bool {
    let chunks = entry.job.chunks_in_group(entry.group);
    entry.phase_started = Instant::now();
    for chunk in 0..chunks {
        let task = Task {
            id: entry.id,
            job: Arc::clone(&entry.job),
            iteration: entry.iteration,
            group: entry.group,
            chunk,
        };
        if task_tx.send(task).is_err() {
            // Worker pool is gone; treat as cancellation.
            entry.shared.cancel.store(true, Ordering::Release);
            return false;
        }
    }
    entry.outstanding = chunks;
    true
}

/// Drives a job forward from a phase boundary: closes out finished
/// iterations (running the sweep's fault/health boundary protocol),
/// honours cancellation and sink early-stops, and dispatches the next
/// non-empty phase.
fn advance(entry: &mut ActiveJob, task_tx: &Sender<Task>, metrics: &EngineMetrics) -> Advanced {
    loop {
        if entry.shared.cancel.load(Ordering::Acquire) {
            return Advanced::Done;
        }
        if entry.group == entry.job.group_count() {
            let report = entry.job.end_iteration(entry.iteration);
            metrics.sweeps_completed.fetch_add(1, Ordering::Relaxed);
            metrics
                .site_updates
                .fetch_add(entry.job.site_count() as u64, Ordering::Relaxed);
            metrics
                .sweep_latency
                .record(entry.iteration_started.elapsed());
            metrics
                .units_quarantined
                .fetch_add(report.quarantined_now, Ordering::Relaxed);
            if report.failed_over {
                metrics.jobs_failed_over.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(wrote) = report.ckpt_write {
                metrics.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                metrics.checkpoint_write_us.record(wrote);
            }
            entry.iteration += 1;
            entry.group = 0;
            entry.iteration_started = Instant::now();
            if let Some(err) = report.fatal {
                return Advanced::Failed(err);
            }
            if report.decision == SweepDecision::Stop && entry.iteration < entry.job.iterations() {
                // The sink called convergence: stop through the existing
                // cancellation path (same flag, same phase-boundary
                // check), remembering it was a diagnostics stop.
                entry.early_stopped = true;
                entry.shared.cancel.store(true, Ordering::Release);
                return Advanced::Done;
            }
        }
        if entry.iteration == entry.job.iterations() {
            return Advanced::Done;
        }
        let chunks = entry.job.chunks_in_group(entry.group);
        if chunks == 0 {
            entry.group += 1;
            continue;
        }
        if !dispatch_phase(entry, task_tx) {
            return Advanced::Done;
        }
        return Advanced::Dispatched;
    }
}

/// Publishes a finished job's output and updates counters.
fn finish(entry: ActiveJob, metrics: &EngineMetrics) {
    // An early stop travels through the cancel flag (set by `advance`);
    // report it as a convergence stop, not a user cancel.
    let cancelled = entry.shared.cancel.load(Ordering::Acquire) && !entry.early_stopped;
    let output: JobOutput = entry
        .job
        .finalize(cancelled, entry.early_stopped, entry.iteration);
    metrics.active_jobs.fetch_sub(1, Ordering::Relaxed);
    if entry.early_stopped {
        metrics.jobs_early_stopped.fetch_add(1, Ordering::Relaxed);
    } else if cancelled {
        metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    } else {
        metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
    metrics.job_wall_time.record(entry.started.elapsed());
    entry.shared.finish(output);
}

/// Publishes a failed job's error and updates counters. Deliberately
/// never calls `finalize`: after a watchdog abandonment the job's
/// straggler chunks may still be mutating the label plane, so the
/// output side stays untouched and only the typed error is surfaced.
fn finish_failed(entry: ActiveJob, metrics: &EngineMetrics, err: EngineError) {
    metrics.active_jobs.fetch_sub(1, Ordering::Relaxed);
    metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
    metrics.job_wall_time.record(entry.started.elapsed());
    entry.shared.finish_err(err);
}
