//! mogs-engine: a persistent, tile-sharded MRF inference runtime.
//!
//! The free functions in `mogs_gibbs::sweep` are the exact reference: one
//! thread, one chunk after another, every neighbour looked up by div/mod
//! per (site, label). That is the right shape for a reference; a system
//! serving many inference requests (the paper's accelerator serves whole
//! *batches* of MRF problems across its RSU-G array) wants parallel
//! machinery that persists. This crate is that machinery, and every chain
//! in the workspace runs on it:
//!
//! - [`Engine`] owns a worker pool and scheduler, started once. Jobs are
//!   decomposed into (iteration, group, chunk) phase tasks and executed by
//!   the long-lived workers, and the worker that drains a phase advances
//!   the job; phase barriers preserve the reference sweeps's
//!   blocked-Gibbs semantics exactly.
//! - [`InferenceJob`] describes one inference — field, sampler kernel,
//!   annealing schedule, iteration budget, seed — and [`JobOutput`] is
//!   what it returns. Chaining setters build it from
//!   [`InferenceJob::new`]; [`InferenceJob::validate`] is its one
//!   structural check, run by [`build()`](InferenceJob::build) and by
//!   admission alike. Submission is a bounded queue with backpressure
//!   ([`Engine::submit`] blocks, [`Engine::try_submit`] refuses the
//!   job); [`JobHandle`] supports cancellation at phase boundaries and
//!   blocking retrieval.
//! - [`Backend`]/[`BackendSampler`] select between exact software Gibbs
//!   and an emulated RSU-G pool ([`RsuPool`]) that round-robins draws
//!   over replicated unit models. Both implement the chunk-batched
//!   [`SweepKernel`](mogs_gibbs::SweepKernel) hot path.
//! - [`EngineMetrics`] counts jobs, sweeps, and site updates and
//!   histograms latencies; [`MetricsSnapshot`] serializes to JSON.
//! - Every failure — spec validation, admission, backend construction,
//!   worker panics, watchdog timeouts, shutdown — is one [`EngineError`]
//!   with stable variant names.
//! - The [`fault`] module makes the runtime *fault-tolerant*: a seeded
//!   [`FaultPlan`] injects deterministic unit faults at sweep
//!   boundaries, a [`HealthPolicy`] probes units between sweeps and
//!   quarantines drifted ones, and when the pool collapses under the
//!   live-unit floor the job fails over to the exact backend mid-flight
//!   and completes [`Degraded`]. Workers isolate kernel and sweep
//!   boundary panics (`catch_unwind`), panicked phases retry with
//!   backoff, a panicking sink fails only its own job, and an
//!   optional per-phase watchdog frees the callers of stuck jobs.
//!
//! Downstream crates should import from [`prelude`].
//!
//! # Admission audit
//!
//! Every job is admitted through a `mogs-audit` *schedule certificate*
//! before any label plane is allocated. The field's sparse interference
//! topology is colored (greedily, or by an explicit
//! [`InferenceJob::groups`] override turned into a claimed
//! certificate), and the independent `verify_certificate` checker
//! re-proves the coloring against the raw adjacency: no two neighbours
//! share a phase, chunks partition each class exactly, and every site
//! is covered exactly once. On grids the greedy coloring degenerates to
//! the checkerboard/block schedule, so admitted grid jobs remain
//! bit-identical to the reference sweep. A certificate that fails
//! verification yields [`EngineError::Schedule`] naming the offending
//! sites. The `shadow-audit` feature adds a dynamic happens-before
//! (vector-clock) recorder that cross-checks the static verdict in
//! tests.
//!
//! # Streaming diagnostics
//!
//! A job may carry a [`DiagSink`] observer, called once per completed
//! sweep at the job's quiescent point with whatever the sink's
//! declared [`SinkNeeds`] ask for (post-sweep energy, stride-sampled
//! label snapshots served from a preallocated buffer). The sink's
//! [`SweepDecision`] feeds the existing cancellation path, so a
//! convergence policy (see the `mogs-diag` crate) can end a job the
//! moment more sweeps stop buying quality; such outputs are flagged
//! [`JobOutput::early_stopped`] and counted separately from cancels.
//! Jobs without a sink pay nothing; [`NullSink`] exists to benchmark
//! the plumbing itself.
//!
//! # Determinism contract
//!
//! For a fixed job `seed` and `threads` (chunk count), the engine's
//! labeling is **bit-identical** to `mogs_gibbs::colored_sweep` driven
//! with [`sweep_seed`](mogs_gibbs::sweep::sweep_seed) — no matter how
//! many OS workers the engine runs or how many jobs share them. The
//! speedup comes from running a phase's chunks on many workers at once
//! and from *not redoing invariant work*: neighbour tables are built once
//! per grid shape instead of div/mod per (site, label) visit, workers
//! update one shared label plane in place (provably race-free within a
//! phase; see `plane`), energies accumulate
//! into a per-worker [`KernelArena`](mogs_gibbs::KernelArena) in
//! `site_energy`'s exact f64 operation order, and whole chunks are drawn
//! at once through the [`SweepKernel`](mogs_gibbs::SweepKernel) batched
//! kernels.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

mod backend;
pub mod ckpt;
mod engine;
mod error;
pub mod fault;
mod health;
mod job;
mod memo;
pub mod metrics;
mod multichain;
mod plane;
mod runner;
pub mod shard;
pub mod sink;
mod spec;

pub use backend::{Backend, BackendSampler, RsuPool, MAX_REPLICAS};
pub use ckpt::{
    CheckpointPolicy, CheckpointSpec, CheckpointWriter, FaultState, JobState, StateBinding,
};
pub use engine::{Engine, EngineConfig, TrySubmitError};
pub use error::EngineError;
pub use fault::{Degraded, FaultEvent, FaultPlan, HealthPolicy};
pub use job::{InferenceJob, JobHandle, JobId, JobOutput, JobStatus};
pub use memo::Memo;
pub use metrics::{EngineMetrics, HistogramSnapshot, LatencyHistogram, MetricsSnapshot};
pub use multichain::{run_chains_on_engine, run_replicas, MultiChainResult};
pub use shard::ShardRunner;
pub use sink::{
    DiagSink, JobStartInfo, NullSink, SinkNeeds, SinkState, SweepDecision, SweepObservation,
};
pub use spec::JobSpec;

/// The engine's public surface in one import.
///
/// Downstream crates (`mogs-diag`, `mogs-vision`, the bench harness)
/// pull their engine types from here, so the supported API is defined in
/// exactly one place:
///
/// ```
/// use mogs_engine::prelude::*;
/// ```
pub mod prelude {
    pub use crate::backend::{Backend, BackendSampler, RsuPool};
    pub use crate::ckpt::{
        CheckpointPolicy, CheckpointSpec, CheckpointWriter, FaultState, JobState, StateBinding,
    };
    pub use crate::engine::{Engine, EngineConfig, TrySubmitError};
    pub use crate::error::EngineError;
    pub use crate::fault::{Degraded, FaultEvent, FaultPlan, HealthPolicy};
    pub use crate::job::{InferenceJob, JobHandle, JobId, JobOutput, JobStatus};
    pub use crate::metrics::{EngineMetrics, MetricsSnapshot};
    pub use crate::multichain::{run_chains_on_engine, run_replicas, MultiChainResult};
    pub use crate::shard::ShardRunner;
    pub use crate::sink::{
        DiagSink, JobStartInfo, NullSink, SinkNeeds, SinkState, SweepDecision, SweepObservation,
    };
    pub use crate::spec::JobSpec;
    pub use mogs_gibbs::kernel::{KernelArena, KernelScratch, SweepKernel, UnitFault};
}
