//! The engine's unified error surface.
//!
//! Every way an inference request can fail — a spec that doesn't
//! validate, a sweep schedule the `mogs-audit` interference checker
//! rejects, an oversized label space, a bad initial labeling, a backend
//! that can't be constructed, or an engine that has already shut down —
//! is one variant of [`EngineError`]. Callers match on one enum, `repro`
//! subcommands report one `Display` shape, and the variant names are
//! stable identifiers ([`EngineError::variant`]) that tooling can key on.

use mogs_audit::AuditError;
use mogs_mrf::MrfError;

/// Why an engine request failed.
///
/// Replaces the pre-kernel-API split across `SubmitError`,
/// `AdmissionError`, and ad-hoc backend panics. Variant names are part of
/// the API: they are reported verbatim by [`EngineError::variant`] and in
/// the `Display` form `engine error [<variant>]: <detail>`.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The sweep schedule broke an invariant the in-place label plane
    /// requires (neighbouring sites sharing a phase, chunks that do not
    /// honour the requested count, uncovered or repeated sites, …).
    Schedule(AuditError),
    /// The label space is empty or exceeds the engine's fixed
    /// energy-buffer budget ([`MAX_LABELS`](mogs_mrf::label::MAX_LABELS)).
    LabelSpace {
        /// Labels in the job's space.
        count: usize,
        /// The engine's cap.
        max: usize,
    },
    /// The explicit initial labeling does not fit the field.
    Labeling(MrfError),
    /// An [`InferenceJob`](crate::InferenceJob) field, or a request
    /// built around one, failed validation.
    InvalidSpec {
        /// The field that failed.
        field: &'static str,
        /// What was wrong with it.
        reason: String,
    },
    /// A sampler backend could not be constructed from its description,
    /// or collapsed mid-job with no exact fallback to fail over to.
    Backend {
        /// What was wrong with the backend description.
        reason: String,
    },
    /// A worker panicked while running this job's kernel and the phase
    /// exhausted its retry budget. The engine itself stays serviceable;
    /// only the offending job fails.
    WorkerPanicked {
        /// Sweep the panicking phase belonged to.
        iteration: usize,
        /// Schedule group (phase) within the sweep.
        group: usize,
        /// Retries attempted before giving up.
        retries: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A phase exceeded the engine's watchdog deadline
    /// ([`EngineConfig::phase_deadline`](crate::EngineConfig)); the job
    /// was abandoned to free its caller.
    WatchdogTimeout {
        /// Sweep the overdue phase belonged to.
        iteration: usize,
        /// Schedule group (phase) within the sweep.
        group: usize,
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// The engine has shut down; no further jobs are accepted.
    ShutDown,
}

impl EngineError {
    /// The stable variant name, as it appears in `Display` output.
    #[must_use]
    pub fn variant(&self) -> &'static str {
        match self {
            EngineError::Schedule(_) => "schedule",
            EngineError::LabelSpace { .. } => "label-space",
            EngineError::Labeling(_) => "labeling",
            EngineError::InvalidSpec { .. } => "invalid-spec",
            EngineError::Backend { .. } => "backend",
            EngineError::WorkerPanicked { .. } => "worker-panicked",
            EngineError::WatchdogTimeout { .. } => "watchdog-timeout",
            EngineError::ShutDown => "shut-down",
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine error [{}]: ", self.variant())?;
        match self {
            EngineError::Schedule(err) => write!(f, "{err}"),
            EngineError::LabelSpace { count, max } => {
                write!(f, "label space of {count} outside 1..={max}")
            }
            EngineError::Labeling(err) => write!(f, "initial labeling rejected: {err}"),
            EngineError::InvalidSpec { field, reason } => {
                write!(f, "job spec field `{field}`: {reason}")
            }
            EngineError::Backend { reason } => write!(f, "backend construction: {reason}"),
            EngineError::WorkerPanicked {
                iteration,
                group,
                retries,
                message,
            } => write!(
                f,
                "kernel panicked in sweep {iteration} group {group} \
                 after {retries} retries: {message}"
            ),
            EngineError::WatchdogTimeout {
                iteration,
                group,
                deadline_ms,
            } => write!(
                f,
                "sweep {iteration} group {group} exceeded the {deadline_ms} ms phase deadline"
            ),
            EngineError::ShutDown => write!(f, "engine has shut down"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Schedule(err) => Some(err),
            EngineError::Labeling(err) => Some(err),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_leads_with_the_stable_variant_name() {
        let err = EngineError::LabelSpace { count: 65, max: 64 };
        assert_eq!(err.variant(), "label-space");
        assert_eq!(
            err.to_string(),
            "engine error [label-space]: label space of 65 outside 1..=64"
        );
        let err = EngineError::InvalidSpec {
            field: "iterations",
            reason: "must be at least 1".to_string(),
        };
        assert!(err.to_string().starts_with("engine error [invalid-spec]:"));
        assert_eq!(EngineError::ShutDown.variant(), "shut-down");
        let err = EngineError::WorkerPanicked {
            iteration: 3,
            group: 1,
            retries: 2,
            message: "boom".to_string(),
        };
        assert_eq!(err.variant(), "worker-panicked");
        assert!(err.to_string().contains("sweep 3 group 1"));
        let err = EngineError::WatchdogTimeout {
            iteration: 0,
            group: 0,
            deadline_ms: 50,
        };
        assert_eq!(err.variant(), "watchdog-timeout");
        assert!(err.to_string().contains("50 ms"));
    }

    #[test]
    fn sources_chain_for_wrapped_errors() {
        use std::error::Error;
        let err = EngineError::Labeling(MrfError::LabelTooLarge { value: 99 });
        assert!(err.source().is_some());
        assert!(EngineError::ShutDown.source().is_none());
    }
}
