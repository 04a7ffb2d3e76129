//! mogs-ckpt: durable sweep-boundary checkpoints with bit-identical
//! resume.
//!
//! The engine can capture a job's complete resumable state at quiescent
//! sweep boundaries (see `mogs_engine::ckpt`); this crate makes those
//! captures *durable* and *trustworthy*:
//!
//! - [`encode`]/[`decode`] define the on-disk format (v4): a one-line
//!   header carrying the version, the payload length and a word-wise
//!   [`checksum`] over the raw payload bytes, then a small JSON head of
//!   scalars and the bulk state as raw little-endian sections — label
//!   plane one byte per site, every `f64` as its exact IEEE-754 bit
//!   pattern, the caller's meta and the diagnostics sink's
//!   [`SinkState`](mogs_engine::SinkState) as sections too — so a
//!   capture costs a plane copy and one hash pass, and nothing is
//!   allowed to round, because the contract is that a job interrupted
//!   at sweep *k* and resumed produces **bit-identical** output to one
//!   that never stopped. Reads verify version → length → checksum →
//!   head length ([`HEAD_LIMIT`], derived from
//!   [`MAX_REPLICAS`](mogs_engine::MAX_REPLICAS)) → state; there is one
//!   format and one reader, so a file from the retired v1, v2 or v3
//!   format is a typed [`CkptError::VersionMismatch`].
//! - [`split_head`] and [`Sections`] are the workspace's one reader for
//!   "a JSON head of scalars, then raw sections", shared with the fleet
//!   wire's frames; each caller maps its [`SectionError`] to its own
//!   error type. [`parse_hex_u64`] reads the head's 64-bit values.
//! - [`CheckpointStore`] files checkpoints in a directory with atomic
//!   temp-file-then-rename writes, per-key retention bounds, and a
//!   [`scan`](CheckpointStore::scan) that a restarting service uses to
//!   find every resumable job (and every corrupt file, with a typed
//!   reason).
//! - [`CkptError`] keeps the failure modes distinct: torn file vs bit
//!   rot vs future format vs wrong problem vs invalid state. Loading
//!   never panics and never partially restores.
//!
//! The trust model is deliberately narrow: the checksum detects
//! *accidental* corruption, not tampering — a checkpoint directory is
//! operator-trusted input, same as the binary itself. What the format
//! *does* guarantee is that nothing short of a matching
//! [`StateBinding`](mogs_engine::StateBinding) (dimensions, seed,
//! budget, chunking, topology fingerprint, kernel) will seat, so a
//! stale or foreign checkpoint is refused instead of silently
//! diverging.
//!
//! ```no_run
//! use std::sync::Arc;
//! use mogs_ckpt::CheckpointStore;
//! use mogs_engine::CheckpointPolicy;
//!
//! let store = CheckpointStore::open("/var/lib/mogs/ckpt", 3)?;
//! let writer = store.writer("job-42", "request context".to_string());
//! // … attach to a spec:
//! //   InferenceJob::new(field, kernel)
//! //       .checkpoint(CheckpointPolicy::every(50), writer)
//! // … and after a restart:
//! let report = store.scan()?;
//! for entry in &report.resumable {
//!     // rebuild the spec from entry.checkpoint.meta, then
//!     // engine.resume(spec, &entry.checkpoint.state)
//! }
//! # Ok::<(), mogs_ckpt::CkptError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

mod envelope;
mod error;
mod format;
mod store;

#[doc(hidden)]
pub mod harness;

pub use envelope::{parse_hex_u64, split_head, SectionError, Sections};
pub use error::CkptError;
pub use format::{
    checksum, decode, encode, open_envelope, seal, verify_binding, Checkpoint, FORMAT_VERSION,
    HEAD_LIMIT,
};
pub use store::{sanitize_key, CheckpointStore, GcReason, GcReport, ScanEntry, ScanReport};
