//! The crate's one error type.
//!
//! Every way a checkpoint can fail to load is a distinct variant, so
//! callers (the serve recovery scan, tests, operators reading logs) can tell "the disk bit-rotted" from "someone pointed a resume at
//! the wrong problem" without string matching. Loading never panics and
//! never partially restores: a decode either yields a complete
//! [`Checkpoint`](crate::Checkpoint) or one of these.

/// Why a checkpoint could not be written, read, or trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// A filesystem operation failed.
    Io {
        /// Which operation (`"create-dir"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The OS error, stringified.
        message: String,
    },
    /// The file ends before the header, or before the payload length the
    /// header declares, is complete — the classic torn-write signature.
    /// (The store's temp-file-then-rename protocol makes this
    /// unreachable for its own files; it shows up when a checkpoint is
    /// copied or truncated out-of-band.)
    Truncated,
    /// The header deviates from the canonical layout at this byte
    /// offset (or bytes follow the declared payload, starting here).
    Malformed {
        /// Byte offset of the first unexpected character.
        offset: usize,
    },
    /// The header's format version is not the one this build reads
    /// (a future format, or the retired v1 envelope).
    VersionMismatch {
        /// Version stamped in the file.
        found: u32,
        /// The only version this build supports.
        supported: u32,
    },
    /// The payload does not hash to the header's checksum: the file
    /// was corrupted after it was sealed.
    ChecksumMismatch {
        /// Checksum stored in the header (16 hex digits).
        stored: String,
        /// Checksum recomputed over the payload.
        computed: String,
    },
    /// The state decoded cleanly but belongs to a different problem than
    /// the spec it is being seated under.
    BindingMismatch {
        /// The first binding field that disagrees, checkpoint value
        /// first.
        reason: String,
    },
    /// The payload passed its checksum but does not decode as a
    /// checkpoint (wrong shape, missing field, out-of-range value).
    State {
        /// What the payload decoder rejected.
        reason: String,
    },
}

impl CkptError {
    /// Stable machine-readable variant name, for logs and metrics.
    #[must_use]
    pub fn variant(&self) -> &'static str {
        match self {
            CkptError::Io { .. } => "io",
            CkptError::Truncated => "truncated",
            CkptError::Malformed { .. } => "malformed",
            CkptError::VersionMismatch { .. } => "version-mismatch",
            CkptError::ChecksumMismatch { .. } => "checksum-mismatch",
            CkptError::BindingMismatch { .. } => "binding-mismatch",
            CkptError::State { .. } => "state",
        }
    }
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io { op, message } => {
                write!(f, "checkpoint {op} failed: {message}")
            }
            CkptError::Truncated => {
                write!(f, "checkpoint file is truncated")
            }
            CkptError::Malformed { offset } => {
                write!(f, "checkpoint header is malformed at byte {offset}")
            }
            CkptError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "checkpoint format version {found} is not the supported version {supported}"
                )
            }
            CkptError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checkpoint checksum {stored} does not match payload checksum {computed}"
                )
            }
            CkptError::BindingMismatch { reason } => {
                write!(f, "checkpoint does not bind to this spec: {reason}")
            }
            CkptError::State { reason } => {
                write!(f, "checkpoint state is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_stable_and_display() {
        let cases: Vec<(CkptError, &str)> = vec![
            (
                CkptError::Io {
                    op: "write",
                    message: "denied".to_string(),
                },
                "io",
            ),
            (CkptError::Truncated, "truncated"),
            (CkptError::Malformed { offset: 7 }, "malformed"),
            (
                CkptError::VersionMismatch {
                    found: 2,
                    supported: 1,
                },
                "version-mismatch",
            ),
            (
                CkptError::ChecksumMismatch {
                    stored: "0".repeat(16),
                    computed: "f".repeat(16),
                },
                "checksum-mismatch",
            ),
            (
                CkptError::BindingMismatch {
                    reason: "seed".to_string(),
                },
                "binding-mismatch",
            ),
            (
                CkptError::State {
                    reason: "missing".to_string(),
                },
                "state",
            ),
        ];
        for (err, name) in cases {
            assert_eq!(err.variant(), name);
            assert!(!err.to_string().is_empty());
        }
    }
}
