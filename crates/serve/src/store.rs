//! The job store: in-memory registry of every job the server has
//! admitted, so clients can disconnect and poll later.
//!
//! The store is poll-driven, never blocking: it holds each job's
//! [`JobHandle`](mogs_engine::JobHandle) and advances state via the
//! handle's non-blocking [`poll`](mogs_engine::JobHandle::poll) on
//! every [`refresh`](JobStore::refresh) — a connection worker is never
//! parked on `wait()`, so a slow job cannot wedge the pool. `poll`
//! moves the output out of the handle exactly once; the store is that
//! single ownership hand-off point and keeps the output for later
//! `GET /v1/jobs/{id}/result` calls.
//!
//! Retention is bounded: terminal jobs (Done, Degraded, Failed,
//! Cancelled) are kept up to a cap and then evicted oldest-first —
//! live jobs are never evicted. A client that sleeps past the
//! retention window gets 404, the same answer as for an id that never
//! existed.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use mogs_diag::MultiChainDiag;
use mogs_engine::{EngineError, JobHandle, JobOutput, JobStatus};
use parking_lot::Mutex;

use crate::error::ServeError;
use crate::tenant::TenantRegistry;

/// Serve-level lifecycle of a stored job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the engine's submission queue.
    Queued,
    /// Being swept by the engine's worker pool.
    Running,
    /// Ran its full budget on healthy hardware.
    Done,
    /// Completed, but on the exact-backend fallback after quarantined
    /// units dropped the RSU pool below its health floor.
    Degraded,
    /// Ended in a typed engine failure.
    Failed,
    /// Ended through its cancellation handle.
    Cancelled,
}

impl JobState {
    /// Stable lowercase name for JSON bodies and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Degraded => "degraded",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can change state again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

struct StoredJob {
    tenant: String,
    workload: String,
    width: usize,
    height: usize,
    state: JobState,
    /// Present until the job reaches a terminal state.
    handle: Option<JobHandle>,
    /// Present when the spec requested diagnostics.
    diag: Option<Arc<MultiChainDiag>>,
    /// The output moved out of the handle by `poll`.
    outcome: Option<Result<JobOutput, EngineError>>,
}

/// What `GET /v1/jobs/{id}` reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatusView {
    /// The job id.
    pub id: u64,
    /// The owning tenant.
    pub tenant: String,
    /// The workload kind (`segmentation`, `motion`, `stereo`, `raw`).
    pub workload: String,
    /// Current lifecycle state.
    pub state: JobState,
}

/// What `GET /v1/jobs/{id}/result` reports for a terminal job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResultView {
    /// The job id.
    pub id: u64,
    /// Terminal state (Done, Degraded, or Cancelled).
    pub state: JobState,
    /// Field width in sites.
    pub width: usize,
    /// Field height in sites.
    pub height: usize,
    /// Final label map, row-major label values.
    pub labels: Vec<u8>,
    /// Marginal MAP estimate when the engine tracked modes past
    /// burn-in.
    pub map_estimate: Option<Vec<u8>>,
    /// Sweeps actually completed (less than the budget if cancelled).
    pub iterations_run: usize,
    /// Whether the job ended through its cancellation handle.
    pub cancelled: bool,
    /// Set when the job failed over to the exact backend mid-flight:
    /// `(first exact sweep, units lost)`.
    pub degraded: Option<(usize, usize)>,
    /// Per-site posterior-mode label *indices* from the diagnostics
    /// marginals, when the spec requested diag.
    pub marginal_map: Option<Vec<usize>>,
    /// Per-site posterior entropy in bits, when the spec requested
    /// diag.
    pub entropy: Option<Vec<f64>>,
}

/// Counters the store contributes to `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Jobs currently queued or running.
    pub live: u64,
    /// Terminal jobs still retained.
    pub terminal: u64,
    /// Terminal jobs evicted by the retention cap, lifetime total.
    pub evicted: u64,
}

struct Inner {
    jobs: HashMap<u64, StoredJob>,
    /// Terminal ids, oldest first — the eviction order.
    terminal_order: VecDeque<u64>,
    next_id: u64,
    evicted: u64,
}

/// Bounded in-memory registry of admitted jobs.
pub struct JobStore {
    inner: Mutex<Inner>,
    max_terminal: usize,
}

impl JobStore {
    /// An empty store retaining at most `max_terminal` finished jobs.
    pub fn new(max_terminal: usize) -> Self {
        JobStore {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                terminal_order: VecDeque::new(),
                next_id: 1,
                evicted: 0,
            }),
            max_terminal: max_terminal.max(1),
        }
    }

    /// Registers an admitted job and returns its serve-level id.
    pub fn insert(
        &self,
        tenant: &str,
        workload: &str,
        width: usize,
        height: usize,
        handle: JobHandle,
        diag: Option<Arc<MultiChainDiag>>,
    ) -> u64 {
        let id = self.reserve();
        self.insert_reserved(id, tenant, workload, width, height, handle, diag);
        id
    }

    /// Allocates the next serve-level id *before* the job is admitted —
    /// the checkpointing path needs the id on the submission itself (the
    /// checkpoint store key is derived from it), so the id must exist
    /// before `try_submit`. A reserved id whose submission then fails is
    /// simply never inserted; ids are not reused.
    pub fn reserve(&self) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        id
    }

    /// Registers an admitted job under an id from [`reserve`].
    ///
    /// [`reserve`]: JobStore::reserve
    #[expect(
        clippy::too_many_arguments,
        reason = "one parameter per stored-job field"
    )]
    pub fn insert_reserved(
        &self,
        id: u64,
        tenant: &str,
        workload: &str,
        width: usize,
        height: usize,
        handle: JobHandle,
        diag: Option<Arc<MultiChainDiag>>,
    ) {
        let mut inner = self.inner.lock();
        // Recovery inserts ids minted by a previous process; keep the
        // counter ahead of them so fresh submissions never collide.
        inner.next_id = inner.next_id.max(id + 1);
        inner.jobs.insert(
            id,
            StoredJob {
                tenant: tenant.to_string(),
                workload: workload.to_string(),
                width,
                height,
                state: JobState::Queued,
                handle: Some(handle),
                diag,
                outcome: None,
            },
        );
    }

    /// Registers a job re-admitted from a checkpoint under its original
    /// serve id, bumping the id counter past it.
    #[expect(
        clippy::too_many_arguments,
        reason = "one parameter per stored-job field"
    )]
    pub fn insert_recovered(
        &self,
        id: u64,
        tenant: &str,
        workload: &str,
        width: usize,
        height: usize,
        handle: JobHandle,
        diag: Option<Arc<MultiChainDiag>>,
    ) {
        self.insert_reserved(id, tenant, workload, width, height, handle, diag);
    }

    /// Polls every live job's handle and advances its state, releasing
    /// the tenant's in-flight slot and applying the retention cap on
    /// each terminal transition. Called from request handlers (and the
    /// metrics endpoint) rather than a dedicated thread — cheap enough
    /// that the extra thread would buy nothing.
    ///
    /// Returns the ids that reached a terminal state on *this* call, so
    /// the router can delete their now-obsolete checkpoints.
    pub fn refresh(&self, tenants: &TenantRegistry) -> Vec<u64> {
        let mut inner = self.inner.lock();
        let ids: Vec<u64> = inner
            .jobs
            .iter()
            .filter(|(_, job)| !job.state.is_terminal())
            .map(|(&id, _)| id)
            .collect();
        let mut newly_terminal = Vec::new();
        for id in ids {
            let Some(job) = inner.jobs.get_mut(&id) else {
                continue;
            };
            let Some(handle) = job.handle.as_ref() else {
                continue;
            };
            match handle.poll() {
                None => {
                    job.state = match handle.status() {
                        JobStatus::Queued => JobState::Queued,
                        // Finished-with-no-output cannot happen here:
                        // the store is the only poller, so a Finished
                        // handle yields its output on this same call.
                        JobStatus::Running | JobStatus::Finished => JobState::Running,
                    };
                }
                Some(outcome) => {
                    job.state = match &outcome {
                        Ok(output) if output.cancelled => JobState::Cancelled,
                        Ok(output) if output.degraded.is_some() => JobState::Degraded,
                        Ok(_) => JobState::Done,
                        Err(_) => JobState::Failed,
                    };
                    job.outcome = Some(outcome);
                    job.handle = None;
                    tenants.release(&job.tenant);
                    newly_terminal.push(id);
                }
            }
        }
        inner.terminal_order.extend(newly_terminal.iter().copied());
        while inner.terminal_order.len() > self.max_terminal {
            if let Some(oldest) = inner.terminal_order.pop_front() {
                inner.jobs.remove(&oldest);
                inner.evicted += 1;
            }
        }
        newly_terminal
    }

    /// The job's current status, if it is still known.
    pub fn status(&self, id: u64) -> Option<JobStatusView> {
        let inner = self.inner.lock();
        inner.jobs.get(&id).map(|job| JobStatusView {
            id,
            tenant: job.tenant.clone(),
            workload: job.workload.clone(),
            state: job.state,
        })
    }

    /// The terminal result of a job.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotFound`] for unknown (or evicted) ids,
    /// [`ServeError::Conflict`] while the job is still queued or
    /// running, [`ServeError::JobFailed`] when the job ended in a typed
    /// engine failure.
    pub fn result(&self, id: u64) -> Result<JobResultView, ServeError> {
        let inner = self.inner.lock();
        let Some(job) = inner.jobs.get(&id) else {
            return Err(ServeError::NotFound {
                what: format!("job {id}"),
            });
        };
        if !job.state.is_terminal() {
            return Err(ServeError::Conflict {
                reason: format!(
                    "job {id} is still {}; poll GET /v1/jobs/{id} until terminal",
                    job.state.name()
                ),
            });
        }
        let output = match &job.outcome {
            Some(Ok(output)) => output,
            Some(Err(err)) => {
                return Err(ServeError::JobFailed {
                    variant: err.variant().to_string(),
                    message: err.to_string(),
                });
            }
            // Terminal implies an outcome was stored; defensive only.
            None => {
                return Err(ServeError::NotFound {
                    what: format!("output of job {id}"),
                });
            }
        };
        let marginals = job.diag.as_ref().and_then(|d| d.merged_marginals());
        Ok(JobResultView {
            id,
            state: job.state,
            width: job.width,
            height: job.height,
            labels: output.labels.iter().map(|l| l.value()).collect(),
            map_estimate: output
                .map_estimate
                .as_ref()
                .map(|m| m.iter().map(|l| l.value()).collect()),
            iterations_run: output.iterations_run,
            cancelled: output.cancelled,
            degraded: output
                .degraded
                .as_ref()
                .map(|d| (d.failed_over_at, d.units_lost)),
            marginal_map: marginals.as_ref().map(|m| m.map_label_indices()),
            entropy: marginals.as_ref().map(|m| m.entropy_map()),
        })
    }

    /// Requests cancellation of a live job.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotFound`] for unknown ids,
    /// [`ServeError::Conflict`] when the job is already terminal.
    pub fn cancel(&self, id: u64) -> Result<(), ServeError> {
        let inner = self.inner.lock();
        let Some(job) = inner.jobs.get(&id) else {
            return Err(ServeError::NotFound {
                what: format!("job {id}"),
            });
        };
        match &job.handle {
            Some(handle) if !job.state.is_terminal() => {
                handle.cancel();
                Ok(())
            }
            _ => Err(ServeError::Conflict {
                reason: format!("job {id} is already {}", job.state.name()),
            }),
        }
    }

    /// Store counters for `/metrics`.
    pub fn snapshot(&self) -> StoreSnapshot {
        let inner = self.inner.lock();
        let terminal = inner.terminal_order.len() as u64;
        StoreSnapshot {
            live: inner.jobs.len() as u64 - terminal,
            terminal,
            evicted: inner.evicted,
        }
    }
}
