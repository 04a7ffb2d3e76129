//! The fleet's typed failure taxonomy.
//!
//! Every wire, RPC, and coordinator path returns [`FleetResult`]; nothing
//! on the control plane unwraps. The variants keep the operationally
//! distinct failures distinct: a torn frame is not a missed deadline, a
//! dead worker is not a bad partition, and a job that exhausted its
//! migration budget fails with [`FleetError::FleetCollapse`] — the one
//! variant that means "the robustness machinery itself gave up", which
//! callers (and the kill-ladder tests) match on by name.

use std::fmt;

use mogs_ckpt::{CkptError, SectionError};
use mogs_engine::EngineError;

/// Alias every fallible fleet function returns.
pub type FleetResult<T> = Result<T, FleetError>;

/// Everything that can go wrong between a coordinator and its workers.
#[derive(Debug)]
pub enum FleetError {
    /// An OS-level socket or process operation failed.
    Io {
        /// What the fleet was doing when the OS said no.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A frame violated the length-prefixed envelope (bad hex prefix,
    /// oversized payload, non-UTF-8 body, truncated stream).
    Frame {
        /// Why the frame was rejected.
        reason: String,
    },
    /// A well-formed frame carried a message the receiver cannot accept
    /// in its current state (unknown tag, missing field, wrong reply).
    Protocol {
        /// What was expected or what was malformed.
        reason: String,
    },
    /// An RPC missed its deadline.
    Deadline {
        /// The RPC that timed out.
        rpc: &'static str,
        /// The deadline that was missed, in milliseconds.
        after_ms: u64,
    },
    /// A worker process could not be launched or never connected.
    Spawn {
        /// Why the launch failed.
        reason: String,
    },
    /// A worker died (socket EOF, reaped child, failed send) and its
    /// shard needs migration.
    WorkerLost {
        /// Coordinator-side slot index of the lost worker.
        slot: usize,
        /// What the coordinator observed.
        reason: String,
    },
    /// The shard partitioner produced (or was asked for) an invalid
    /// partition, or the independent sharding audit rejected it.
    Partition {
        /// The audit summary or constraint violated.
        reason: String,
    },
    /// The fleet spec itself is invalid, or the engine rejected the job
    /// it describes at shard admission.
    Spec {
        /// Admission failure, verbatim.
        reason: String,
    },
    /// A checkpoint could not be cut or loaded, or was cut for another
    /// spec.
    Checkpoint {
        /// The store, spec or binding failure, verbatim.
        reason: String,
    },
    /// The migration budget is exhausted: workers died faster than the
    /// fleet may re-admit them. The job is abandoned, not retried.
    FleetCollapse {
        /// Migrations performed before giving up.
        migrations: usize,
        /// Budget that was exceeded.
        max_migrations: usize,
        /// The final failure that tipped the job over.
        reason: String,
    },
    /// The requested configuration is structurally unsupported (for
    /// example chaos kills under the in-process launcher, which has no
    /// process to kill).
    Unsupported {
        /// What cannot be done.
        reason: String,
    },
}

impl FleetError {
    /// Stable machine-readable variant name (metrics labels, test
    /// assertions).
    #[must_use]
    pub fn variant(&self) -> &'static str {
        match self {
            FleetError::Io { .. } => "io",
            FleetError::Frame { .. } => "frame",
            FleetError::Protocol { .. } => "protocol",
            FleetError::Deadline { .. } => "deadline",
            FleetError::Spawn { .. } => "spawn",
            FleetError::WorkerLost { .. } => "worker-lost",
            FleetError::Partition { .. } => "partition",
            FleetError::Spec { .. } => "spec",
            FleetError::Checkpoint { .. } => "checkpoint",
            FleetError::FleetCollapse { .. } => "fleet-collapse",
            FleetError::Unsupported { .. } => "unsupported",
        }
    }

    /// Whether the coordinator may respond by migrating the affected
    /// shard (as opposed to failing the whole job).
    #[must_use]
    pub fn is_migratable(&self) -> bool {
        matches!(
            self,
            FleetError::Io { .. }
                | FleetError::Frame { .. }
                | FleetError::Deadline { .. }
                | FleetError::WorkerLost { .. }
        )
    }

    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        FleetError::Io {
            context: context.into(),
            source,
        }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io { context, source } => {
                write!(f, "i/o failure while {context}: {source}")
            }
            FleetError::Frame { reason } => write!(f, "bad frame: {reason}"),
            FleetError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            FleetError::Deadline { rpc, after_ms } => {
                write!(f, "{rpc} missed its {after_ms} ms deadline")
            }
            FleetError::Spawn { reason } => write!(f, "worker spawn failed: {reason}"),
            FleetError::WorkerLost { slot, reason } => {
                write!(f, "worker in slot {slot} lost: {reason}")
            }
            FleetError::Partition { reason } => write!(f, "invalid shard partition: {reason}"),
            FleetError::Spec { reason } => write!(f, "invalid fleet spec: {reason}"),
            FleetError::Checkpoint { reason } => write!(f, "checkpoint failure: {reason}"),
            FleetError::FleetCollapse {
                migrations,
                max_migrations,
                reason,
            } => write!(
                f,
                "fleet collapsed after {migrations} migrations (budget {max_migrations}): {reason}"
            ),
            FleetError::Unsupported { reason } => write!(f, "unsupported configuration: {reason}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<EngineError> for FleetError {
    fn from(err: EngineError) -> Self {
        FleetError::Spec {
            reason: err.to_string(),
        }
    }
}

impl From<CkptError> for FleetError {
    fn from(err: CkptError) -> Self {
        FleetError::Checkpoint {
            reason: err.to_string(),
        }
    }
}

/// A frame payload whose head line or sections cannot be read is a
/// protocol violation.
impl From<SectionError> for FleetError {
    fn from(err: SectionError) -> Self {
        FleetError::Protocol { reason: err.reason }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_distinct_and_stable() {
        let all = [
            FleetError::io("connecting", std::io::Error::other("x")).variant(),
            FleetError::Frame {
                reason: String::new(),
            }
            .variant(),
            FleetError::Protocol {
                reason: String::new(),
            }
            .variant(),
            FleetError::Deadline {
                rpc: "phase",
                after_ms: 5,
            }
            .variant(),
            FleetError::Spawn {
                reason: String::new(),
            }
            .variant(),
            FleetError::WorkerLost {
                slot: 0,
                reason: String::new(),
            }
            .variant(),
            FleetError::Partition {
                reason: String::new(),
            }
            .variant(),
            FleetError::Spec {
                reason: String::new(),
            }
            .variant(),
            FleetError::Checkpoint {
                reason: String::new(),
            }
            .variant(),
            FleetError::FleetCollapse {
                migrations: 3,
                max_migrations: 2,
                reason: String::new(),
            }
            .variant(),
            FleetError::Unsupported {
                reason: String::new(),
            }
            .variant(),
        ];
        let mut dedup = all.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "variant names must be unique");
    }

    #[test]
    fn migratable_classification() {
        assert!(FleetError::Deadline {
            rpc: "phase",
            after_ms: 1
        }
        .is_migratable());
        assert!(FleetError::WorkerLost {
            slot: 1,
            reason: String::new()
        }
        .is_migratable());
        assert!(!FleetError::Partition {
            reason: String::new()
        }
        .is_migratable());
        assert!(!FleetError::FleetCollapse {
            migrations: 1,
            max_migrations: 1,
            reason: String::new()
        }
        .is_migratable());
    }
}
