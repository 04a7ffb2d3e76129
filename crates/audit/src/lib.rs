//! `mogs-audit` — static analysis for the MOGS inference runtime.
//!
//! One purpose: turn the prose arguments that justify the engine's
//! `unsafe` label-plane path into machine-checked facts.
//!
//! * [`schedule`] — the **schedule interference checker**. From a sparse
//!   interference graph ([`Topology`](mogs_mrf::Topology); a grid is
//!   [`Topology::from_grid`](mogs_mrf::Topology::from_grid)) and a sweep
//!   schedule it verifies the three invariants the in-place plane update
//!   requires (no neighbouring sites in one phase, chunks partition each
//!   group exactly, every site covered once per sweep), returning a typed
//!   [`AuditReport`]. `mogs-engine` runs it at job admission;
//!   `repro audit` runs it over the seed vision workloads.
//! * [`certificate`] — the **general-graph schedule prover**. A greedy
//!   graph-coloring scheduler ([`color_schedule`]) emits a serializable,
//!   versioned [`ScheduleCertificate`]; an independent
//!   [`verify_certificate`] pass re-proves every obligation against the
//!   raw adjacency without trusting the colorer. Grid schedules are the
//!   degenerate 2-color (first order) / 4-color (second order) case.
//! * [`sharding`] — the **fleet partition verifier**. For a plane split
//!   across worker processes (`mogs-fleet`) it proves the partition is
//!   exact, aligned to the certificate's deterministic RNG cells, and
//!   haloed with precisely the cross-shard adjacency — the three facts
//!   the fleet's bit-identity argument stands on.
//!
//! The optional `shadow` feature adds [`shadow::ShadowPlane`], a dynamic
//! happens-before checker tests use to cross-check the static verdict
//! against the access pattern a sweep actually performs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

pub mod certificate;
pub mod report;
pub mod schedule;
#[cfg(feature = "shadow")]
pub mod shadow;
pub mod sharding;

pub use certificate::{
    color_schedule, verify_certificate, Obligation, ScheduleCertificate, CERTIFICATE_VERSION,
};
pub use report::{AuditError, AuditReport, AuditStats, SiteCoord, Violation};
pub use schedule::{check_graph_schedule, Chunking, SweepSchedule};
pub use sharding::{verify_sharding, ShardingReport, ShardingStats, ShardingViolation};
