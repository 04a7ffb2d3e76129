//! Restart durability: the serve layer's use of `mogs-ckpt`.
//!
//! When a [`ServeConfig`](crate::ServeConfig) carries a
//! [`CheckpointSetup`], every submitted job gets a durable
//! sweep-boundary checkpoint writer keyed by its serve id, with the
//! *raw request body* stored as the checkpoint's `meta`. That meta is
//! the whole recovery story: a job request is a pure description (the
//! synthetic scene, the unary table, the seed all derive from it), so
//! re-parsing the body rebuilds the exact spec the checkpointed state
//! was captured under — and the engine's
//! [`StateBinding`](mogs_engine::StateBinding) check refuses the seat
//! if anything (dimensions, seed, budget, chunking, kernel) drifted.
//!
//! On startup, [`Server::bind`](crate::Server::bind) calls [`recover`]:
//! scan the checkpoint directory, and for every resumable entry
//! re-admit the job through the *same* gates a fresh submission passes
//! (tenant registered, tenant quota charged) before seating it with
//! [`Engine::resume`]. A checkpoint that fails any gate — unparseable
//! key or meta, vanished tenant, binding mismatch — is reported, never
//! resumed, and left on disk for the operator (or for the startup GC,
//! when [`CheckpointSetup::gc_max_age`] is set); recovery must not turn
//! a corrupt file into a crash or a silently different job. The GC
//! never touches the keys recovery resumed.
//!
//! Deletion is the router's job: when
//! [`Router::refresh_store`](crate::Router) observes a job reach a
//! terminal state, the job's checkpoints are removed — a finished job
//! must not be resurrected by the next restart.

use std::path::PathBuf;

use mogs_ckpt::CheckpointStore;
use mogs_engine::{CheckpointPolicy, Engine, JobState as CheckpointState};

use crate::jobspec::JobRequest;
use crate::store::JobStore;
use crate::tenant::TenantRegistry;

/// Checkpoint configuration carried by
/// [`ServeConfig`](crate::ServeConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSetup {
    /// Directory the checkpoint files live in (created if absent).
    pub dir: PathBuf,
    /// Capture cadence: a checkpoint every this many completed sweeps.
    pub every_sweeps: usize,
    /// Checkpoints retained per job (older ones are pruned).
    pub retain: usize,
    /// When set, startup recovery is followed by
    /// [`CheckpointStore::gc`] with this age bound: orphaned temp
    /// files, corrupt envelopes, and never-resumed checkpoints older
    /// than the bound are deleted (and counted per reason on the
    /// `/metrics` endpoint) instead of accumulating silently across
    /// restarts. `None` leaves every file on disk for the operator.
    pub gc_max_age: Option<std::time::Duration>,
}

impl CheckpointSetup {
    /// The engine-side capture policy this setup describes.
    pub(crate) fn policy(&self) -> CheckpointPolicy {
        CheckpointPolicy::every(self.every_sweeps)
    }
}

/// The store key for a serve job id. Stable across restarts: recovery
/// parses the id back out with [`parse_job_key`].
#[must_use]
pub fn job_key(id: u64) -> String {
    format!("job-{id}")
}

/// Inverse of [`job_key`].
fn parse_job_key(key: &str) -> Option<u64> {
    key.strip_prefix("job-")?.parse().ok()
}

/// What [`recover`] did, kept on the [`Server`](crate::Server) for
/// operators and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Serve ids re-admitted from disk, now queued or running again.
    pub resumed: Vec<u64>,
    /// `(store key, reason)` for every checkpoint that could not be
    /// resumed. Recovery leaves the files on disk; with
    /// [`CheckpointSetup::gc_max_age`] set, the startup GC that follows
    /// deletes those that are corrupt or older than the bound.
    pub discarded: Vec<(String, String)>,
}

/// Scans `store` and re-admits every resumable job.
///
/// Each candidate passes the same admission gates as a fresh
/// submission — tenant registered, tenant quota charged — then seats
/// its checkpointed state via [`Engine::resume`] with a fresh writer
/// under the same key, so the resumed job keeps checkpointing where the
/// dead process left off.
pub(crate) fn recover(
    ckpt_store: &CheckpointStore,
    policy: CheckpointPolicy,
    engine: &Engine,
    tenants: &TenantRegistry,
    jobs: &JobStore,
    retry_after_s: u64,
) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    let scan = match ckpt_store.scan() {
        Ok(scan) => scan,
        Err(err) => {
            report
                .discarded
                .push(("<scan>".to_string(), err.to_string()));
            return report;
        }
    };
    for (path, err) in &scan.rejected {
        report
            .discarded
            .push((path.display().to_string(), err.to_string()));
    }
    for entry in &scan.resumable {
        match resume_entry(
            ckpt_store,
            policy,
            engine,
            tenants,
            jobs,
            retry_after_s,
            &entry.key,
            &entry.checkpoint.meta,
            &entry.checkpoint.state,
        ) {
            Ok(id) => report.resumed.push(id),
            Err(reason) => report.discarded.push((entry.key.clone(), reason)),
        }
    }
    report.resumed.sort_unstable();
    report
}

#[expect(
    clippy::too_many_arguments,
    reason = "recovery threads the router's shared state through one entry"
)]
fn resume_entry(
    ckpt_store: &CheckpointStore,
    policy: CheckpointPolicy,
    engine: &Engine,
    tenants: &TenantRegistry,
    jobs: &JobStore,
    retry_after_s: u64,
    key: &str,
    meta: &str,
    state: &CheckpointState,
) -> Result<u64, String> {
    let id = parse_job_key(key).ok_or_else(|| format!("key `{key}` is not a serve job key"))?;
    let request =
        JobRequest::parse(meta).map_err(|err| format!("stored request no longer parses: {err}"))?;
    tenants
        .admit(&request.tenant, request.sites(), retry_after_s)
        .map_err(|err| format!("tenant gate refused the resume: {err}"))?;
    // The resumed job keeps checkpointing under its old key and meta.
    let writer = ckpt_store.writer(key, meta.to_string());
    match request.resume(engine, retry_after_s, state, Some((policy, writer))) {
        Ok((handle, diag)) => {
            jobs.insert_recovered(
                id,
                &request.tenant,
                request.workload.name(),
                request.width,
                request.height,
                handle,
                diag,
            );
            Ok(id)
        }
        Err(err) => {
            tenants.release(&request.tenant);
            Err(format!("engine refused the resume: {err}"))
        }
    }
}
