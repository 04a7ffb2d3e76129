//! Typed audit verdicts: violations with site coordinates, and the report
//! that aggregates them.
//!
//! A schedule audit never panics and never touches a label plane — it
//! returns an [`AuditReport`] whose [`Violation`]s name the exact sites
//! (with grid coordinates) that would race, go unvisited, or be visited
//! twice if the engine ran the schedule through its in-place
//! [`LabelPlane`](../../engine/src/plane.rs) path.

use std::fmt;

/// A site named by both its flat index and its `(x, y)` grid coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteCoord {
    /// Flat row-major index.
    pub site: usize,
    /// Column.
    pub x: usize,
    /// Row.
    pub y: usize,
}

impl fmt::Display for SiteCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site {} at ({}, {})", self.site, self.x, self.y)
    }
}

/// One invariant the unsafe label-plane path requires, broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two neighbouring sites are updated in the same phase group — the
    /// exact condition under which the in-place plane update is a data
    /// race (one worker reads a neighbour another worker is writing).
    NeighborsSharePhase {
        /// The offending phase group.
        group: usize,
        /// The lower-indexed site of the neighbour pair.
        a: SiteCoord,
        /// The higher-indexed site of the neighbour pair.
        b: SiteCoord,
    },
    /// A grid site appears in no group: the sweep would not be a full
    /// Gibbs iteration.
    SiteUncovered {
        /// The site no group visits.
        site: SiteCoord,
    },
    /// A grid site appears in more than one group (or twice in one): it
    /// would be written twice per sweep, the second write racing reads of
    /// the first.
    SiteRepeated {
        /// The repeated site.
        site: SiteCoord,
        /// The group that visits it first.
        first_group: usize,
        /// The group that visits it again.
        second_group: usize,
    },
    /// A group names a site outside the grid: an out-of-bounds plane
    /// access.
    SiteOutOfRange {
        /// The group naming the site.
        group: usize,
        /// The out-of-range flat index.
        site: usize,
        /// Number of sites in the grid.
        grid_len: usize,
    },
    /// Uniform chunking was asked for more chunks than the group has
    /// sites, so fewer chunks than requested would actually run — the
    /// "silent degrade" the engine used to accept.
    ChunkUnderflow {
        /// The undersized group.
        group: usize,
        /// Chunks requested (the job's `threads`).
        requested: usize,
        /// Chunks that would actually be dispatched.
        actual: usize,
        /// Sites in the group.
        group_len: usize,
    },
    /// A schedule with zero chunks per group can dispatch nothing.
    ZeroChunks,
    /// Explicit chunk lists must pair one list with each group.
    ChunkListMismatch {
        /// Number of groups.
        groups: usize,
        /// Number of chunk lists supplied.
        chunk_lists: usize,
    },
    /// An explicit chunk begins before the previous one ends: two workers
    /// would own (and write) the overlapping sites concurrently.
    ChunkOverlap {
        /// The group being chunked.
        group: usize,
        /// Index of the offending chunk.
        chunk: usize,
        /// Start offset of the offending chunk.
        start: usize,
        /// End offset of the previous chunk.
        prev_end: usize,
    },
    /// An explicit chunk begins after the previous one ends: the sites in
    /// between are never updated this phase.
    ChunkGap {
        /// The group being chunked.
        group: usize,
        /// Index of the offending chunk (`chunks` for a gap at the end).
        chunk: usize,
        /// Start offset of the offending chunk (group length for a gap at
        /// the end).
        start: usize,
        /// End offset of the previous chunk.
        prev_end: usize,
    },
    /// An explicit chunk is empty (`start == end`): the reference sweep
    /// never produces one, so accepting it would silently change the
    /// chunk↔RNG-stream correspondence.
    EmptyChunk {
        /// The group being chunked.
        group: usize,
        /// Index of the empty chunk.
        chunk: usize,
    },
    /// An explicit chunk runs past the end of its group.
    ChunkOutOfBounds {
        /// The group being chunked.
        group: usize,
        /// Index of the offending chunk.
        chunk: usize,
        /// End offset of the offending chunk.
        end: usize,
        /// Sites in the group.
        group_len: usize,
    },
    /// A schedule certificate was produced under a format version this
    /// verifier does not understand; nothing in it can be trusted.
    CertificateVersionMismatch {
        /// The version recorded in the certificate.
        found: u32,
        /// The version this verifier checks.
        supported: u32,
    },
    /// A schedule certificate was proved against a different interference
    /// graph than the one it is being admitted for.
    CertificateTopologyMismatch {
        /// Sites recorded in the certificate.
        cert_sites: usize,
        /// Sites in the topology being admitted.
        topo_sites: usize,
        /// Adjacency fingerprint recorded in the certificate.
        cert_fingerprint: u64,
        /// Adjacency fingerprint of the topology being admitted.
        topo_fingerprint: u64,
    },
    /// A schedule certificate does not claim one of the proof obligations
    /// the unsafe plane path requires, so a clean verdict would not cover
    /// that invariant.
    CertificateObligationMissing {
        /// The missing obligation, by name.
        obligation: &'static str,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NeighborsSharePhase { group, a, b } => write!(
                f,
                "{a} and {b} are neighbours but both update in phase group {group}"
            ),
            Violation::SiteUncovered { site } => {
                write!(f, "{site} is not covered by any phase group")
            }
            Violation::SiteRepeated {
                site,
                first_group,
                second_group,
            } => write!(
                f,
                "{site} is scheduled twice (groups {first_group} and {second_group})"
            ),
            Violation::SiteOutOfRange {
                group,
                site,
                grid_len,
            } => write!(
                f,
                "group {group} names site {site}, outside the {grid_len}-site grid"
            ),
            Violation::ChunkUnderflow {
                group,
                requested,
                actual,
                group_len,
            } => write!(
                f,
                "group {group} ({group_len} sites) cannot honour {requested} chunks; \
                 only {actual} would run"
            ),
            Violation::ZeroChunks => write!(f, "schedule requests zero chunks per group"),
            Violation::ChunkListMismatch {
                groups,
                chunk_lists,
            } => write!(
                f,
                "{chunk_lists} explicit chunk lists supplied for {groups} groups"
            ),
            Violation::ChunkOverlap {
                group,
                chunk,
                start,
                prev_end,
            } => write!(
                f,
                "group {group} chunk {chunk} starts at {start}, before the previous \
                 chunk ends at {prev_end}"
            ),
            Violation::ChunkGap {
                group,
                chunk,
                start,
                prev_end,
            } => write!(
                f,
                "group {group} chunk {chunk} starts at {start}, leaving sites \
                 {prev_end}..{start} unvisited"
            ),
            Violation::EmptyChunk { group, chunk } => {
                write!(f, "group {group} chunk {chunk} is empty")
            }
            Violation::ChunkOutOfBounds {
                group,
                chunk,
                end,
                group_len,
            } => write!(
                f,
                "group {group} chunk {chunk} ends at {end}, past the group's \
                 {group_len} sites"
            ),
            Violation::CertificateVersionMismatch { found, supported } => write!(
                f,
                "certificate version {found} is not the supported version {supported}"
            ),
            Violation::CertificateTopologyMismatch {
                cert_sites,
                topo_sites,
                cert_fingerprint,
                topo_fingerprint,
            } => write!(
                f,
                "certificate was proved for a {cert_sites}-site graph \
                 (fingerprint {cert_fingerprint:016x}), not this {topo_sites}-site \
                 graph (fingerprint {topo_fingerprint:016x})"
            ),
            Violation::CertificateObligationMissing { obligation } => write!(
                f,
                "certificate does not claim the {obligation} proof obligation"
            ),
        }
    }
}

/// What the checker actually examined, for report rendering and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditStats {
    /// Sites in the grid.
    pub sites: usize,
    /// Phase groups in the schedule.
    pub groups: usize,
    /// Total chunks across all groups.
    pub chunks: usize,
    /// Interference-graph edges examined (each neighbour pair once).
    pub edges_checked: usize,
}

/// The outcome of a schedule audit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Every broken invariant, with site coordinates.
    pub violations: Vec<Violation>,
    /// Work the checker performed.
    pub stats: AuditStats,
}

impl AuditReport {
    /// True when the schedule upholds every invariant the unsafe plane
    /// path requires.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line verdict.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!(
                "clean: {} sites, {} groups, {} chunks, {} interference edges checked",
                self.stats.sites, self.stats.groups, self.stats.chunks, self.stats.edges_checked
            )
        } else {
            format!(
                "{} violation(s) over {} sites / {} groups",
                self.violations.len(),
                self.stats.sites,
                self.stats.groups
            )
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// An [`AuditReport`] with at least one violation, usable as an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// The failing report.
    pub report: AuditReport,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule audit failed: {}", self.report.summary())?;
        if let Some(first) = self.report.violations.first() {
            write!(f, "; first: {first}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditError {}

impl From<AuditReport> for Result<(), AuditError> {
    fn from(report: AuditReport) -> Self {
        if report.is_clean() {
            Ok(())
        } else {
            Err(AuditError { report })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_summary_and_conversion() {
        let report = AuditReport {
            violations: vec![],
            stats: AuditStats {
                sites: 4,
                groups: 2,
                chunks: 4,
                edges_checked: 4,
            },
        };
        assert!(report.is_clean());
        assert!(report.summary().starts_with("clean"));
        assert_eq!(Result::from(report), Ok(()));
    }

    #[test]
    fn dirty_report_becomes_error_with_first_violation() {
        let report = AuditReport {
            violations: vec![Violation::SiteUncovered {
                site: SiteCoord {
                    site: 3,
                    x: 1,
                    y: 1,
                },
            }],
            stats: AuditStats::default(),
        };
        assert!(!report.is_clean());
        let err = Result::from(report).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("site 3 at (1, 1)"), "{text}");
    }
}
