//! Job descriptions, handles, and outputs.
//!
//! An [`InferenceJob`] bundles everything one MRF inference needs — the
//! field, a sampler backend, an annealing schedule, an iteration budget,
//! and a seed — so it can travel through the engine's bounded queue to the
//! persistent worker pool. Submission returns a [`JobHandle`] for
//! cancellation and result retrieval; completion yields a [`JobOutput`].
//! The chaining setters and the job's one validation live in `spec.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mogs_gibbs::{LabelSampler, TemperatureSchedule};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Label, MarkovRandomField};
use parking_lot::{Condvar, Mutex};

use crate::sink::DiagSink;

/// One complete inference request.
///
/// The engine runs jobs with the *colored-sweep* update order: within each
/// iteration the field's conditionally independent groups are swept one
/// after another, each group split into `threads` site chunks with their
/// own derived RNG stream. For the same `seed` and `threads`, the result
/// is bit-identical to `mogs_gibbs::colored_sweep` looped with
/// [`sweep_seed`](mogs_gibbs::sweep::sweep_seed) regardless of how many
/// worker threads the engine actually has — `threads` here names the
/// deterministic chunking, not OS-level parallelism.
#[derive(Clone)]
pub struct InferenceJob<S: SingletonPotential, L: LabelSampler> {
    /// The field to sample.
    pub mrf: MarkovRandomField<S>,
    /// The sampler backend (software softmax, RSU-G pool, …), cloned
    /// fresh for every (chunk, group) phase exactly like the reference.
    pub sampler: L,
    /// Temperature per iteration.
    pub schedule: TemperatureSchedule,
    /// Number of full sweeps to run.
    pub iterations: usize,
    /// Deterministic chunk count per group (the reference path's
    /// `threads`). Must be at least 1.
    pub threads: usize,
    /// Base RNG seed; iteration and chunk streams derive from it.
    pub seed: u64,
    /// Iterations to discard before mode tracking.
    pub burn_in: usize,
    /// Accumulate per-site label histograms for a marginal MAP estimate.
    pub track_modes: bool,
    /// Record the total energy after every iteration.
    pub record_energy: bool,
    /// Starting labeling (a warm start); `None` is the all-zero labeling.
    pub initial: Option<Vec<Label>>,
    /// Explicit sweep phase groups overriding the field's own
    /// [`independent_groups`](MarkovRandomField::independent_groups).
    /// Every schedule — derived or explicit — must pass the
    /// `mogs-audit` interference check at admission; an override that
    /// puts neighbouring sites in one phase is rejected with a typed
    /// report, never run.
    pub groups: Option<Vec<Vec<usize>>>,
    /// Streaming diagnostics observer, called at every sweep boundary
    /// (see [`DiagSink`]). `None` costs nothing; a sink's declared
    /// [`needs`](DiagSink::needs) bound what the engine computes for it.
    pub sink: Option<std::sync::Arc<dyn DiagSink>>,
    /// Deterministic device-fault schedule applied at sweep boundaries
    /// (see [`FaultPlan`](crate::FaultPlan)). `None` — and
    /// [`FaultPlan::none`](crate::FaultPlan::none) — cost nothing and
    /// are bit-identical to the fault-free engine.
    pub fault_plan: Option<crate::FaultPlan>,
    /// Online unit health monitoring between sweeps (see
    /// [`HealthPolicy`](crate::HealthPolicy)): calibration probes,
    /// quarantine, rotation rebalancing, and backend failover. `None`
    /// disables monitoring; scheduled faults then land unobserved.
    pub health: Option<crate::HealthPolicy>,
    /// Durable checkpointing: a policy saying when to capture the job's
    /// sweep-boundary state plus a writer to hand captures to (see
    /// [`CheckpointSpec`](crate::CheckpointSpec)). `None` — the default —
    /// costs nothing on the sweep path.
    pub checkpoint: Option<crate::CheckpointSpec>,
}

impl<S: SingletonPotential, L: LabelSampler> InferenceJob<S, L> {
    /// Creates a job with the defaults: the field's own
    /// temperature held constant, 100 iterations, 2 chunks, seed 0,
    /// no burn-in, no mode tracking, energy recording on.
    pub fn new(mrf: MarkovRandomField<S>, sampler: L) -> Self {
        let schedule = TemperatureSchedule::constant(mrf.temperature());
        InferenceJob {
            mrf,
            sampler,
            schedule,
            iterations: 100,
            threads: 2,
            seed: 0,
            burn_in: 0,
            track_modes: false,
            record_energy: true,
            initial: None,
            groups: None,
            sink: None,
            fault_plan: None,
            health: None,
            checkpoint: None,
        }
    }
}

impl<S: SingletonPotential, L: LabelSampler> std::fmt::Debug for InferenceJob<S, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceJob")
            .field("sites", &self.mrf.grid().len())
            .field("labels", &self.mrf.space().count())
            .field("iterations", &self.iterations)
            .field("threads", &self.threads)
            .field("seed", &self.seed)
            .field("burn_in", &self.burn_in)
            .field("track_modes", &self.track_modes)
            .field("record_energy", &self.record_energy)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

/// Result of a finished (or cancelled) job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Final labeling.
    pub labels: Vec<Label>,
    /// Marginal MAP estimate, when mode tracking ran past burn-in.
    pub map_estimate: Option<Vec<Label>>,
    /// Total energy after each completed iteration (when recorded).
    pub energy_trace: Vec<f64>,
    /// Iterations actually completed (less than the budget if cancelled).
    pub iterations_run: usize,
    /// Whether the job ended through its cancellation handle.
    pub cancelled: bool,
    /// Whether the job was stopped by its diagnostics sink's
    /// [`SweepDecision::Stop`](crate::SweepDecision) — a convergence
    /// stop, not a user cancel (`cancelled` stays `false`).
    pub early_stopped: bool,
    /// Set when the job failed over to the exact backend mid-flight
    /// because quarantined RSU units dropped the pool below the health
    /// policy's floor: the job still completed, on degraded hardware.
    pub degraded: Option<crate::Degraded>,
}

/// Identifies one submitted job for log and metric correlation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the submission queue.
    Queued,
    /// Being swept by the worker pool.
    Running,
    /// Output available (completed or cancelled).
    Finished,
}

/// State shared between a [`JobHandle`] and the engine.
#[derive(Debug)]
pub(crate) struct HandleShared {
    /// Set by [`JobHandle::cancel`]; the engine polls it at every phase
    /// boundary.
    pub(crate) cancel: AtomicBool,
    pub(crate) state: Mutex<HandleState>,
    pub(crate) done: Condvar,
}

#[derive(Debug)]
pub(crate) struct HandleState {
    pub(crate) status: JobStatus,
    pub(crate) output: Option<Result<JobOutput, crate::EngineError>>,
}

impl HandleShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(HandleShared {
            cancel: AtomicBool::new(false),
            state: Mutex::new(HandleState {
                status: JobStatus::Queued,
                output: None,
            }),
            done: Condvar::new(),
        })
    }

    /// Publishes the output and wakes waiters.
    pub(crate) fn finish(&self, output: JobOutput) {
        let mut state = self.state.lock();
        state.status = JobStatus::Finished;
        state.output = Some(Ok(output));
        drop(state);
        self.done.notify_all();
    }

    /// Publishes a terminal failure (worker panic, watchdog timeout,
    /// backend collapse) and wakes waiters.
    pub(crate) fn finish_err(&self, err: crate::EngineError) {
        let mut state = self.state.lock();
        state.status = JobStatus::Finished;
        state.output = Some(Err(err));
        drop(state);
        self.done.notify_all();
    }

    pub(crate) fn set_running(&self) {
        self.state.lock().status = JobStatus::Running;
    }
}

/// Caller-side handle to a submitted job.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) shared: Arc<HandleShared>,
}

impl JobHandle {
    /// The job's engine-assigned identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Requests cancellation. The engine honours it at the next phase
    /// boundary; the handle's `wait` then returns a `cancelled` output
    /// holding the labeling as of the last completed phase.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.shared.state.lock().status
    }

    /// True once output is available.
    pub fn is_finished(&self) -> bool {
        self.status() == JobStatus::Finished
    }

    /// Non-blocking counterpart of [`JobHandle::wait_result`]: checks
    /// for a terminal state and takes the output if one is there,
    /// returning immediately either way.
    ///
    /// Returns `None` while the job is still queued or running (check
    /// [`JobHandle::status`] for which). Once the job reaches a terminal
    /// state, the **first** call returns `Some` with the output moved
    /// out — exactly what `wait_result` would have returned — and every
    /// later call returns `None` again (the handle is drained;
    /// [`JobHandle::is_finished`] still reports `true`). Callers that
    /// poll from a loop — the `mogs-serve` job store polls on every
    /// client request so no connection worker ever parks on a job —
    /// should treat `Some` as the single ownership hand-off point.
    ///
    /// Never blocks beyond the handle's internal state lock, which is
    /// held only for the duration of a field read by any party.
    pub fn poll(&self) -> Option<Result<JobOutput, crate::EngineError>> {
        self.shared.state.lock().output.take()
    }

    /// Blocks until the job finishes and returns its output.
    ///
    /// This is the *blocking* half of the retrieval API: the calling
    /// thread parks on the job's condition variable until the engine
    /// publishes a terminal state. Services multiplexing many jobs over
    /// few threads should use the non-blocking [`JobHandle::poll`]
    /// instead.
    ///
    /// Consumes the handle: the output is moved out, not cloned.
    ///
    /// # Panics
    ///
    /// Panics when the job ended in a terminal failure (worker panic,
    /// watchdog timeout, backend collapse). Fault-injecting callers
    /// should use [`JobHandle::wait_result`] and match the error.
    pub fn wait(self) -> JobOutput {
        let id = self.id;
        match self.wait_result() {
            Ok(output) => output,
            Err(err) => panic!("{id} failed: {err}"),
        }
    }

    /// Blocks until the job finishes and returns its typed terminal
    /// state: `Ok` for completed / cancelled / early-stopped / degraded
    /// outputs, `Err` when the job itself failed (the engine stays
    /// serviceable either way).
    ///
    /// This is the *blocking* half of the retrieval API (see
    /// [`JobHandle::poll`] for the non-blocking half). Do not mix the
    /// two on one handle: a `poll` that already returned `Some` has
    /// moved the output out, and a later `wait_result` would park
    /// forever waiting for state that will never be republished.
    ///
    /// Consumes the handle: the output is moved out, not cloned.
    pub fn wait_result(self) -> Result<JobOutput, crate::EngineError> {
        let mut state = self.shared.state.lock();
        loop {
            if let Some(output) = state.output.take() {
                return output;
            }
            self.shared.done.wait(&mut state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_displays_compactly() {
        assert_eq!(JobId(7).to_string(), "job-7");
    }

    #[test]
    fn handle_wait_returns_published_output() {
        let shared = HandleShared::new();
        let handle = JobHandle {
            id: JobId(0),
            shared: Arc::clone(&shared),
        };
        assert_eq!(handle.status(), JobStatus::Queued);
        let out = JobOutput {
            labels: vec![Label::new(1)],
            map_estimate: None,
            energy_trace: vec![],
            iterations_run: 3,
            cancelled: false,
            early_stopped: false,
            degraded: None,
        };
        shared.finish(out.clone());
        assert!(handle.is_finished());
        assert_eq!(handle.wait(), out);
    }

    #[test]
    fn handle_wait_result_surfaces_failures_without_panicking() {
        let shared = HandleShared::new();
        let handle = JobHandle {
            id: JobId(2),
            shared: Arc::clone(&shared),
        };
        shared.finish_err(crate::EngineError::WatchdogTimeout {
            iteration: 1,
            group: 0,
            deadline_ms: 10,
        });
        assert!(handle.is_finished());
        let err = handle.wait_result().unwrap_err();
        assert_eq!(err.variant(), "watchdog-timeout");
    }

    #[test]
    fn poll_is_none_until_done_then_takes_output_once() {
        let shared = HandleShared::new();
        let handle = JobHandle {
            id: JobId(3),
            shared: Arc::clone(&shared),
        };
        assert!(handle.poll().is_none(), "queued job has no output");
        shared.set_running();
        assert!(handle.poll().is_none(), "running job has no output");
        let out = JobOutput {
            labels: vec![Label::new(2)],
            map_estimate: None,
            energy_trace: vec![1.0],
            iterations_run: 1,
            cancelled: false,
            early_stopped: false,
            degraded: None,
        };
        shared.finish(out.clone());
        let taken = handle.poll().expect("output available").expect("job ok");
        assert_eq!(taken, out);
        assert!(handle.poll().is_none(), "output moves out exactly once");
        assert!(handle.is_finished(), "drained handle still reads Finished");
    }

    #[test]
    fn poll_surfaces_terminal_failures() {
        let shared = HandleShared::new();
        let handle = JobHandle {
            id: JobId(4),
            shared: Arc::clone(&shared),
        };
        shared.finish_err(crate::EngineError::ShutDown);
        let err = handle.poll().expect("terminal state").unwrap_err();
        assert_eq!(err.variant(), "shut-down");
    }

    #[test]
    fn cancel_sets_the_flag() {
        let shared = HandleShared::new();
        let handle = JobHandle {
            id: JobId(1),
            shared: Arc::clone(&shared),
        };
        handle.cancel();
        assert!(shared.cancel.load(Ordering::Acquire));
    }
}
