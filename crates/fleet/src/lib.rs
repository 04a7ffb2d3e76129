//! `mogs-fleet`: an elastic multi-process shard coordinator for MOGS
//! Gibbs-sampling jobs that survives worker death via shard
//! migration.
//!
//! The engine (`mogs-engine`) runs one job inside one process. This
//! crate runs the same job across *processes*: a coordinator
//! partitions the plane into chunk-aligned shards (audited by
//! `mogs-audit`), drives N spawned workers over length-prefixed
//! loopback-TCP framing, and — the point of the crate — keeps the
//! job's output **bit-identical** to a single-process engine run no
//! matter how many workers die along the way.
//!
//! # Layers
//!
//! - [`spec`]: the fleet's side of the workspace's one job description
//!   ([`mogs_vision::job::JobDescription`]) — everything a worker needs
//!   to admit the job, handed over at launch within
//!   [`LAUNCH_SPEC_LIMIT`](spec::LAUNCH_SPEC_LIMIT) bytes (an `Assign`
//!   names it by digest).
//! - [`exec`]: shard construction ([`build_shard`]) on top of
//!   `mogs_engine::ShardRunner`, plus the in-process reference path
//!   ([`run_in_process`]) the kill-ladder tests compare against, and
//!   the coordinator's [`bring_up`], which reuses a built scene and
//!   verified partition across the jobs of one process.
//! - [`partition`]: chunk-aligned greedy partitioning with halo sets,
//!   independently re-proved by `mogs_audit::verify_sharding`.
//! - [`wire`]: the framed message protocol (a one-line JSON head, then
//!   label columns and planes as raw little-endian sections).
//! - [`worker`] / [`coordinator`]: the two protocol ends. Workers are
//!   deliberately stateless-on-failure; all recovery decisions live in
//!   the coordinator ([`run_fleet`]).
//! - [`error`]: the typed [`FleetError`] taxonomy; nothing on the wire
//!   path unwraps.
//!
//! # Quick start
//!
//! ```
//! use mogs_engine::Backend;
//! use mogs_fleet::{run_fleet, FleetConfig};
//! use mogs_vision::job::{JobDescription, Workload};
//!
//! let spec = JobDescription {
//!     workload: Workload::Demo { width: 6, height: 4, labels: 3 },
//!     backend: Backend::Softmax,
//!     iterations: 4,
//!     threads: 2,
//!     seed: 0xF1EE7,
//!     burn_in: 1,
//! };
//! let output = run_fleet(&spec, &FleetConfig::new(2)).unwrap();
//! let reference = mogs_fleet::run_in_process(&spec).unwrap();
//! assert!(output.bit_identical_to(&reference));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

pub mod coordinator;
pub mod error;
pub mod exec;
pub mod partition;
pub mod spec;
pub mod wire;
pub mod worker;

pub use coordinator::{
    run_fleet, ChaosPlan, FleetCheckpoint, FleetConfig, FleetOutput, KillAt, Launcher,
    TransportKind, COORD_KEY,
};
pub use error::{FleetError, FleetResult};
pub use exec::{bring_up, build_shard, run_in_process, stereo_scene, FleetStructure};
pub use partition::{partition, Partition, ShardAssignment};
// The names the frozen benchmark spells; new code names the job
// `mogs_vision::job::JobDescription` and its backend `mogs_engine::Backend`.
pub use mogs_engine::Backend as BackendKind;
pub use mogs_vision::job::{JobDescription as FleetSpec, Workload};
pub use worker::{maybe_run_worker, worker_main, SPEC_ENV, WORKER_ENV};
