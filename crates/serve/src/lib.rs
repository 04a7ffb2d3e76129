//! `mogs-serve`: a multi-tenant HTTP serving front-end over the
//! persistent inference engine.
//!
//! The paper's pitch is MRF inference fast enough to sit behind real
//! vision workloads; the follow-up UQ work frames the deliverable as
//! posterior maps served to a consumer. [`mogs_engine`] already has
//! everything a network service needs except the network — a bounded
//! job queue with typed backpressure, cancellation, degraded
//! completion, streaming diagnostics. This crate is the network: a
//! std-only HTTP/1.1 server (hand-rolled over `std::net`; the vendored
//! registry has no async stack, and the engine API is blocking anyway)
//! exposing jobs as resources.
//!
//! # Endpoints
//!
//! | Method & path            | Purpose                                  |
//! |--------------------------|------------------------------------------|
//! | `POST /v1/jobs`          | Submit a JSON job spec; returns the id   |
//! | `GET /v1/jobs/{id}`      | Poll lifecycle state                     |
//! | `GET /v1/jobs/{id}/result` | Label map (+ marginal/entropy maps)    |
//! | `DELETE /v1/jobs/{id}`   | Request cancellation                     |
//! | `GET /metrics`           | Prometheus text: engine + serve series   |
//!
//! # The two admission gates
//!
//! A submission passes *per-tenant* quota checks
//! ([`TenantRegistry`], 429 `Retry-After` on rejection) and then the
//! *global* engine queue ([`ServeError::Backpressure`], 503). Keeping
//! the two distinguishable by status code is the crate's central design
//! decision — a client can tell "I am over my limit" from "the service
//! is saturated" without parsing bodies. Both are ordinary values
//! routed through [`mogs_engine::TrySubmitError`]; admission never
//! panics.
//!
//! # Job persistence
//!
//! The [`JobStore`] keeps every admitted job's state
//! (Queued/Running/Done/Degraded/Failed/Cancelled) with bounded
//! retention, advancing it via the handle's non-blocking
//! [`poll`](mogs_engine::JobHandle::poll) — submit, drop the
//! connection, come back and poll later.
//!
//! With a [`CheckpointSetup`] in the config, jobs also survive the
//! *process*: every submission writes durable sweep-boundary
//! checkpoints (`mogs-ckpt`) keyed by its serve id, with the raw
//! request body as recovery metadata, and [`Server::bind`] re-admits
//! every resumable job it finds on disk — same id, same tenant
//! accounting, bit-identical continuation — before serving the first
//! request. See the [`ckpt`] module docs for the recovery gates.
//!
//! Served results are **bit-identical** to the direct engine path for
//! the same spec: a request body is a tenant plus one
//! [`JobDescription`](mogs_vision::job::JobDescription), built through
//! the same `build` the fleet's workers run (same seed, same
//! deterministic chunk count), and the engine's determinism contract
//! does the rest. The `serve_lifecycle` integration test pins this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

pub mod ckpt;
pub mod client;
pub mod error;
pub mod http;
pub mod jobspec;
pub mod metrics;
pub mod prometheus;
pub mod router;
pub mod server;
pub mod store;
pub mod tenant;

pub use ckpt::{job_key, CheckpointSetup, RecoveryReport};
pub use client::{http_request, ClientResponse, HttpClient};
pub use error::ServeError;
pub use http::{Limits, Request, Response};
pub use jobspec::JobRequest;
pub use metrics::{ServeMetrics, ServeMetricsSnapshot};
pub use prometheus::{encode_metrics, validate_exposition};
pub use router::Router;
pub use server::{ServeConfig, Server};
pub use store::{JobResultView, JobState, JobStatusView, JobStore, StoreSnapshot};
pub use tenant::{Priority, TenantQuota, TenantRegistry, TenantSnapshot};
