//! The schedule interference checker.
//!
//! The engine's in-place [`LabelPlane`] update is sound only under three
//! invariants (see `crates/engine/src/plane.rs`):
//!
//! 1. no two sites updated in the same phase group are neighbours in the
//!    field's interference graph (conditional independence — the chromatic
//!    Gibbs property);
//! 2. the chunks of each group partition the group exactly (no overlap,
//!    no gap, none empty, and as many chunks as the job asked for);
//! 3. every grid site is covered exactly once per sweep.
//!
//! [`check_graph_schedule`] verifies all three from the interference
//! graph (a grid's is [`Topology::from_grid`]) and the sweep schedule
//! alone — before any plane is allocated, let alone written — and
//! returns a typed [`AuditReport`] naming the offending sites instead of
//! leaving the invariants as prose.

use mogs_mrf::Topology;

use crate::report::{AuditReport, AuditStats, SiteCoord, Violation};

/// How each phase group is split into worker chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Chunking {
    /// The reference split: `threads` chunks of width
    /// `len.div_ceil(threads).max(1)` each, in site order.
    Uniform {
        /// Requested chunk count per group (the job's `threads`).
        threads: usize,
    },
    /// Explicit half-open `(start, end)` offset ranges into each group's
    /// site list, one list per group.
    Explicit {
        /// `ranges[group]` lists that group's chunks in dispatch order.
        ranges: Vec<Vec<(usize, usize)>>,
    },
}

/// A sweep schedule: the phase groups (in sweep order, each a list of
/// flat site indices in update order) plus the chunk split workers use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSchedule {
    groups: Vec<Vec<usize>>,
    chunking: Chunking,
}

impl SweepSchedule {
    /// A schedule over explicit groups with the reference uniform chunk
    /// split — the shape `mogs-engine` derives from every job.
    #[must_use]
    pub fn uniform(groups: Vec<Vec<usize>>, threads: usize) -> Self {
        SweepSchedule {
            groups,
            chunking: Chunking::Uniform { threads },
        }
    }

    /// A schedule with hand-built chunk ranges (for audit tooling and
    /// adversarial tests).
    #[must_use]
    pub fn explicit(groups: Vec<Vec<usize>>, ranges: Vec<Vec<(usize, usize)>>) -> Self {
        SweepSchedule {
            groups,
            chunking: Chunking::Explicit { ranges },
        }
    }

    /// A schedule over explicit groups with an already-built [`Chunking`]
    /// — the shape the certificate verifier reconstructs from a
    /// [`ScheduleCertificate`](crate::ScheduleCertificate).
    #[must_use]
    pub fn with_chunking(groups: Vec<Vec<usize>>, chunking: Chunking) -> Self {
        SweepSchedule { groups, chunking }
    }

    /// The phase groups, in sweep order.
    #[must_use]
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The chunk split.
    #[must_use]
    pub fn chunking(&self) -> &Chunking {
        &self.chunking
    }

    /// Consumes the schedule, returning the phase groups (for callers
    /// that audited a schedule and now want to run it without cloning).
    #[must_use]
    pub fn into_groups(self) -> Vec<Vec<usize>> {
        self.groups
    }

    /// The chunk offset ranges of one group, in dispatch order. For
    /// uniform chunking this reproduces the reference split
    /// `sites.chunks(len.div_ceil(threads).max(1))` exactly.
    #[must_use]
    pub fn chunk_ranges(&self, group: usize) -> Vec<(usize, usize)> {
        let len = self.groups[group].len();
        match &self.chunking {
            Chunking::Uniform { threads } => {
                if len == 0 || *threads == 0 {
                    return Vec::new();
                }
                let size = len.div_ceil(*threads).max(1);
                (0..len.div_ceil(size))
                    .map(|c| (c * size, ((c + 1) * size).min(len)))
                    .collect()
            }
            Chunking::Explicit { ranges } => ranges.get(group).cloned().unwrap_or_default(),
        }
    }
}

/// Verifies the three unsafe-plane invariants of `schedule` against an
/// arbitrary sparse interference graph, returning every violation found
/// (never panicking).
///
/// The invariants: no two sites adjacent in `topology` may update in
/// the same phase group; the chunks of each group must partition it
/// exactly; and every site must be covered exactly once per sweep.
#[must_use]
pub fn check_graph_schedule(topology: &Topology, schedule: &SweepSchedule) -> AuditReport {
    let n = topology.len();
    let coord = |site: usize| {
        let (x, y) = topology.coords(site);
        SiteCoord { site, x, y }
    };
    let mut violations = Vec::new();
    let mut edges_checked = 0usize;
    // Coverage: which group first claimed each site. Doubles as the
    // phase-membership map for the interference pass below, which is why
    // repeats must be recorded as violations rather than overwriting.
    let mut owner: Vec<Option<usize>> = vec![None; n];
    for (g, sites) in schedule.groups().iter().enumerate() {
        for &site in sites {
            if site >= n {
                violations.push(Violation::SiteOutOfRange {
                    group: g,
                    site,
                    grid_len: n,
                });
                continue;
            }
            match owner[site] {
                None => owner[site] = Some(g),
                Some(first) => violations.push(Violation::SiteRepeated {
                    site: coord(site),
                    first_group: first,
                    second_group: g,
                }),
            }
        }
    }
    for (site, claimed) in owner.iter().enumerate() {
        if claimed.is_none() {
            violations.push(Violation::SiteUncovered { site: coord(site) });
        }
    }
    // Interference: every neighbour pair must straddle two phase groups.
    // Each undirected edge is examined once (from its lower endpoint).
    for site in 0..n {
        let Some(g) = owner[site] else { continue };
        for &neighbor in topology.neighbors(site) {
            if neighbor <= site {
                continue;
            }
            edges_checked += 1;
            if owner[neighbor] == Some(g) {
                violations.push(Violation::NeighborsSharePhase {
                    group: g,
                    a: coord(site),
                    b: coord(neighbor),
                });
            }
        }
    }
    // Chunking: the per-group splits must partition each group exactly.
    let mut chunks = 0usize;
    match schedule.chunking() {
        Chunking::Uniform { threads } => {
            if *threads == 0 {
                violations.push(Violation::ZeroChunks);
            } else {
                for (g, sites) in schedule.groups().iter().enumerate() {
                    let actual = schedule.chunk_ranges(g).len();
                    chunks += actual;
                    if !sites.is_empty() && actual < *threads {
                        violations.push(Violation::ChunkUnderflow {
                            group: g,
                            requested: *threads,
                            actual,
                            group_len: sites.len(),
                        });
                    }
                }
            }
        }
        Chunking::Explicit { ranges } => {
            if ranges.len() != schedule.groups().len() {
                violations.push(Violation::ChunkListMismatch {
                    groups: schedule.groups().len(),
                    chunk_lists: ranges.len(),
                });
            }
            for (g, sites) in schedule.groups().iter().enumerate() {
                let group_ranges = schedule.chunk_ranges(g);
                chunks += group_ranges.len();
                let mut prev_end = 0usize;
                for (c, &(start, end)) in group_ranges.iter().enumerate() {
                    if start < prev_end {
                        violations.push(Violation::ChunkOverlap {
                            group: g,
                            chunk: c,
                            start,
                            prev_end,
                        });
                    } else if start > prev_end {
                        violations.push(Violation::ChunkGap {
                            group: g,
                            chunk: c,
                            start,
                            prev_end,
                        });
                    }
                    if start == end {
                        violations.push(Violation::EmptyChunk { group: g, chunk: c });
                    }
                    if end > sites.len() {
                        violations.push(Violation::ChunkOutOfBounds {
                            group: g,
                            chunk: c,
                            end,
                            group_len: sites.len(),
                        });
                    }
                    prev_end = prev_end.max(end);
                }
                if prev_end < sites.len() {
                    violations.push(Violation::ChunkGap {
                        group: g,
                        chunk: group_ranges.len(),
                        start: sites.len(),
                        prev_end,
                    });
                }
            }
        }
    }
    AuditReport {
        violations,
        stats: AuditStats {
            sites: n,
            groups: schedule.groups().len(),
            chunks,
            edges_checked,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::color_schedule;
    use mogs_mrf::{Grid2D, Neighborhood};

    fn first_order(w: usize, h: usize) -> Topology {
        Topology::from_grid(Grid2D::new(w, h), Neighborhood::FirstOrder)
    }

    fn second_order(w: usize, h: usize) -> Topology {
        Topology::from_grid(Grid2D::new(w, h), Neighborhood::SecondOrder)
    }

    /// The greedy colouring of `topology` (the checkerboard on a
    /// first-order grid, the 2×2 block colours on a second-order one)
    /// with the uniform `threads`-way split.
    fn colored(topology: &Topology, threads: usize) -> SweepSchedule {
        SweepSchedule::uniform(color_schedule(topology, threads).into_classes(), threads)
    }

    fn checkerboard(w: usize, h: usize, threads: usize) -> (Topology, SweepSchedule) {
        let topology = first_order(w, h);
        let schedule = colored(&topology, threads);
        (topology, schedule)
    }

    #[test]
    fn checkerboard_schedules_are_clean() {
        for (w, h, t) in [(1, 1, 1), (2, 2, 1), (8, 8, 3), (7, 5, 4), (50, 67, 12)] {
            let (topology, schedule) = checkerboard(w, h, t);
            let report = check_graph_schedule(&topology, &schedule);
            assert!(report.is_clean(), "{w}x{h} t={t}: {report}");
            assert_eq!(report.stats.sites, w * h);
        }
    }

    #[test]
    fn block_color_schedules_are_clean_for_second_order() {
        let topology = second_order(9, 6);
        let schedule = colored(&topology, 2);
        let report = check_graph_schedule(&topology, &schedule);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.groups, 4);
        // 8-neighbour interference graph of a 9x6 grid:
        // horizontal 8·6 + vertical 9·5 + 2·(8·5) diagonals.
        assert_eq!(report.stats.edges_checked, 48 + 45 + 80);
    }

    #[test]
    fn checkerboard_under_second_order_topology_races_on_diagonals() {
        // The parity schedule is only valid for first-order fields: under
        // an 8-neighbourhood, same-parity sites touch diagonally.
        let topology = second_order(4, 4);
        let schedule = colored(&first_order(4, 4), 2);
        let report = check_graph_schedule(&topology, &schedule);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NeighborsSharePhase { .. })));
    }

    #[test]
    fn adjacent_pair_in_one_group_is_caught_with_coordinates() {
        let topology = first_order(3, 1);
        // Sites 0 and 1 are horizontal neighbours.
        let schedule = SweepSchedule::uniform(vec![vec![0, 1], vec![2]], 1);
        let report = check_graph_schedule(&topology, &schedule);
        assert_eq!(
            report.violations,
            vec![Violation::NeighborsSharePhase {
                group: 0,
                a: SiteCoord {
                    site: 0,
                    x: 0,
                    y: 0
                },
                b: SiteCoord {
                    site: 1,
                    x: 1,
                    y: 0
                },
            }]
        );
    }

    #[test]
    fn uncovered_and_repeated_sites_are_caught() {
        let topology = first_order(2, 2);
        // Site 3 missing; site 0 listed in both groups.
        let schedule = SweepSchedule::uniform(vec![vec![0], vec![1, 2, 0]], 1);
        let report = check_graph_schedule(&topology, &schedule);
        assert!(report.violations.contains(&Violation::SiteUncovered {
            site: SiteCoord {
                site: 3,
                x: 1,
                y: 1
            },
        }));
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::SiteRepeated {
                first_group: 0,
                second_group: 1,
                ..
            }
        )));
    }

    #[test]
    fn out_of_range_site_is_caught_not_panicked_on() {
        let topology = first_order(2, 1);
        let schedule = SweepSchedule::uniform(vec![vec![0, 99], vec![1]], 1);
        let report = check_graph_schedule(&topology, &schedule);
        assert!(report.violations.contains(&Violation::SiteOutOfRange {
            group: 0,
            site: 99,
            grid_len: 2,
        }));
    }

    #[test]
    fn chunk_underflow_is_flagged() {
        // 2x1 grid: each parity group has one site; 3 chunks cannot run.
        let (topology, schedule) = checkerboard(2, 1, 3);
        let report = check_graph_schedule(&topology, &schedule);
        assert!(report.violations.iter().all(|v| matches!(
            v,
            Violation::ChunkUnderflow {
                requested: 3,
                actual: 1,
                group_len: 1,
                ..
            }
        )));
        assert_eq!(report.violations.len(), 2);
    }

    #[test]
    fn zero_threads_is_flagged() {
        let (topology, schedule) = checkerboard(2, 2, 0);
        let report = check_graph_schedule(&topology, &schedule);
        assert!(report.violations.contains(&Violation::ZeroChunks));
    }

    #[test]
    fn uniform_chunk_ranges_match_reference_split() {
        // 13 sites over 4 chunks: ceil(13/4) = 4 → 4,4,4,1.
        let schedule = SweepSchedule::uniform(vec![(0..13).collect()], 4);
        assert_eq!(
            schedule.chunk_ranges(0),
            vec![(0, 4), (4, 8), (8, 12), (12, 13)]
        );
        // 4 sites over 8 chunks: width 1, only 4 chunks actually run.
        let schedule = SweepSchedule::uniform(vec![(0..4).collect()], 8);
        assert_eq!(schedule.chunk_ranges(0).len(), 4);
    }

    #[test]
    fn explicit_chunks_partitioning_exactly_are_clean() {
        let topology = first_order(4, 1);
        let groups = vec![vec![0, 2], vec![1, 3]];
        let ranges = vec![vec![(0, 1), (1, 2)], vec![(0, 2)]];
        let report = check_graph_schedule(&topology, &SweepSchedule::explicit(groups, ranges));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn overlapping_and_gapped_chunks_are_caught() {
        let topology = first_order(4, 1);
        let groups = vec![vec![0, 2], vec![1, 3]];
        // Group 0: overlap at offset 0..1; group 1: gap, ends early.
        let ranges = vec![vec![(0, 1), (0, 2)], vec![(0, 1)]];
        let report = check_graph_schedule(&topology, &SweepSchedule::explicit(groups, ranges));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ChunkOverlap { group: 0, .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ChunkGap { group: 1, .. })));
    }

    #[test]
    fn empty_and_out_of_bounds_chunks_are_caught() {
        let topology = first_order(2, 1);
        let groups = vec![vec![0], vec![1]];
        let ranges = vec![vec![(0, 0), (0, 1)], vec![(0, 5)]];
        let report = check_graph_schedule(&topology, &SweepSchedule::explicit(groups, ranges));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::EmptyChunk { group: 0, chunk: 0 })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ChunkOutOfBounds { group: 1, .. })));
    }

    #[test]
    fn chunk_list_count_mismatch_is_caught() {
        let topology = first_order(2, 1);
        let schedule = SweepSchedule::explicit(vec![vec![0], vec![1]], vec![vec![(0, 1)]]);
        let report = check_graph_schedule(&topology, &schedule);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::ChunkListMismatch {
                groups: 2,
                chunk_lists: 1,
            }
        )));
    }
}
