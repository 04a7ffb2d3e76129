//! Dynamic cross-check of the static schedule verdict (feature `shadow`).
//!
//! A [`ShadowPlane`] is a label plane that stores no labels: it tracks,
//! per site, a clock of the last write and the last read, and checks the
//! happens-before relation the engine's barrier-ordered execution is
//! supposed to guarantee. Under barrier-separated phases every access
//! carries a [`TaskClock`] — the global phase *epoch* (strictly
//! increasing across phase barriers, so accesses in different epochs are
//! ordered) and the *task* performing it (accesses by different tasks in
//! the same epoch are concurrent). The checker's rules fall out of that
//! relation directly:
//!
//! * a site written and neighbour-read in the **same epoch** is a
//!   conflict, *whatever tasks did it* — even within one task the
//!   schedule has put two interfering sites in one phase, which is the
//!   race [`Violation::NeighborsSharePhase`](crate::Violation) predicts
//!   (on the real plane another interleaving puts them in different
//!   workers);
//! * a site written twice in the same epoch is a double write;
//! * a site whose own-label read and write land in the same epoch on
//!   **different tasks** is a conflict (two chunks claim the site);
//! * over a sweep, every site must be written exactly once.
//!
//! Unlike the PR-2 recorder this needs no per-phase bracketing calls
//! (`begin_phase`/`end_phase` are gone): the epoch travels with each
//! access, so the checker works for *any* coloring — 2 phases or 200 —
//! and detects a seeded interference violation on general graphs.
//!
//! The hot path is lock-free (`record_*` are atomic ops on `&self`; the
//! findings mutex is only taken when an anomaly is actually observed) so
//! the engine can drive it from parallel chunk workers under the
//! `shadow-audit` feature, while [`replay_schedule`] drives it serially
//! for the audit crate's own property tests without depending on the
//! engine.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use mogs_mrf::Topology;

use crate::schedule::SweepSchedule;

/// The logical time of one plane access: which barrier-ordered phase it
/// happened in, and which concurrent task performed it.
///
/// Epochs must increase across phase barriers and be shared by all tasks
/// within a phase — the engine uses `iteration × groups + group`. Task
/// ids distinguish concurrent workers within an epoch — the engine uses
/// the chunk index. (Epochs are tracked mod 2³²−1 and tasks mod 2³¹; a
/// collision would need four billion phases in one sweep.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskClock {
    /// Barrier-ordered phase counter, strictly increasing per sweep.
    pub epoch: u64,
    /// The concurrent task (worker chunk) performing the access.
    pub task: u64,
}

// Per-site access state, packed into one AtomicU64:
//   bits 63..32 : epoch + 1 (0 = never accessed)
//   bit  31     : neighbour-read flag (read state only)
//   bits 30..0  : task id
// The neighbour flag sits above the task bits so `fetch_max` makes a
// neighbour read sticky within an epoch: no own-read by any task can
// displace it, while any access from a later epoch displaces both.
const EPOCH_SHIFT: u32 = 32;
const NEIGHBOR_BIT: u64 = 1 << 31;
const TASK_MASK: u64 = NEIGHBOR_BIT - 1;

fn pack(clock: TaskClock, neighbor: bool) -> u64 {
    let epoch = (clock.epoch + 1) & 0xFFFF_FFFF;
    let flag = if neighbor { NEIGHBOR_BIT } else { 0 };
    (epoch << EPOCH_SHIFT) | flag | (clock.task & TASK_MASK)
}

fn packed_epoch(state: u64) -> u64 {
    state >> EPOCH_SHIFT
}

fn packed_task(state: u64) -> u64 {
    state & TASK_MASK
}

fn same_epoch(state: u64, clock: TaskClock) -> bool {
    packed_epoch(state) == ((clock.epoch + 1) & 0xFFFF_FFFF)
}

/// One happens-before anomaly the checker observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowFinding {
    /// A site was written and read (as a neighbour, or by a foreign
    /// task as its own label) in the same epoch — the data race the
    /// unsafe plane path must exclude.
    PhaseConflict {
        /// The site both written and read.
        site: usize,
        /// The epoch in which the unordered accesses met.
        epoch: u64,
        /// Task that wrote the site.
        writer_task: u64,
        /// Task that read it.
        reader_task: u64,
    },
    /// A site was written more than once within a single epoch.
    DoubleWrite {
        /// The site written repeatedly.
        site: usize,
        /// The epoch of both writes.
        epoch: u64,
        /// Task of the earlier write.
        first_task: u64,
        /// Task of the later write.
        second_task: u64,
    },
    /// A site was never written over the whole sweep.
    NeverWritten {
        /// The unwritten site.
        site: usize,
    },
    /// A site was written more than once over the sweep (across epochs;
    /// same-epoch repeats also show up as [`ShadowFinding::DoubleWrite`]).
    ExtraWrites {
        /// The over-written site.
        site: usize,
        /// Total writes observed across the sweep.
        writes: u32,
    },
}

/// Everything the checker observed over one sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShadowReport {
    /// Anomalies, in observation order, exact duplicates collapsed.
    pub findings: Vec<ShadowFinding>,
}

impl ShadowReport {
    /// True when the observed access pattern upholds the plane's
    /// invariants: every write/read pair ordered by a phase barrier and
    /// every site written exactly once.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A happens-before checker standing in for a label plane.
#[derive(Debug)]
pub struct ShadowPlane {
    write_state: Vec<AtomicU64>,
    read_state: Vec<AtomicU64>,
    sweep_writes: Vec<AtomicU32>,
    findings: Mutex<Vec<ShadowFinding>>,
}

impl ShadowPlane {
    /// A checker for a plane of `sites` sites, no accesses recorded.
    #[must_use]
    pub fn new(sites: usize) -> Self {
        ShadowPlane {
            write_state: (0..sites).map(|_| AtomicU64::new(0)).collect(),
            read_state: (0..sites).map(|_| AtomicU64::new(0)).collect(),
            sweep_writes: (0..sites).map(|_| AtomicU32::new(0)).collect(),
            findings: Mutex::new(Vec::new()),
        }
    }

    /// Number of sites tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sweep_writes.len()
    }

    /// Whether the checker tracks zero sites.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sweep_writes.is_empty()
    }

    fn push_finding(&self, finding: ShadowFinding) {
        let mut held = self.findings.lock().unwrap_or_else(|e| e.into_inner());
        // The same race is typically observed from both sides (the read
        // and the write); one report per distinct finding is enough.
        if !held.contains(&finding) {
            held.push(finding);
        }
    }

    /// Records a label write to `site` at `clock`. Out-of-range sites
    /// are ignored — the checker observes, it does not crash the run
    /// under test.
    ///
    /// The write is published to the site's clock *before* the read
    /// state is checked (both `SeqCst`), so of two genuinely concurrent
    /// conflicting accesses at least one is guaranteed to see the other.
    pub fn record_write(&self, site: usize, clock: TaskClock) {
        let Some(w) = self.write_state.get(site) else {
            return;
        };
        let prev = w.swap(pack(clock, false), Ordering::SeqCst);
        self.sweep_writes[site].fetch_add(1, Ordering::Relaxed);
        if same_epoch(prev, clock) {
            self.push_finding(ShadowFinding::DoubleWrite {
                site,
                epoch: clock.epoch,
                first_task: packed_task(prev),
                second_task: clock.task,
            });
        }
        let read = self.read_state[site].load(Ordering::SeqCst);
        if same_epoch(read, clock) && read & NEIGHBOR_BIT != 0 {
            self.push_finding(ShadowFinding::PhaseConflict {
                site,
                epoch: clock.epoch,
                writer_task: clock.task,
                reader_task: packed_task(read),
            });
        }
    }

    /// Records a read of `site` performed as a *neighbour* of some other
    /// site's update, at `clock`.
    pub fn record_neighbor_read(&self, site: usize, clock: TaskClock) {
        let Some(r) = self.read_state.get(site) else {
            return;
        };
        r.fetch_max(pack(clock, true), Ordering::SeqCst);
        let write = self.write_state[site].load(Ordering::SeqCst);
        if same_epoch(write, clock) {
            self.push_finding(ShadowFinding::PhaseConflict {
                site,
                epoch: clock.epoch,
                writer_task: packed_task(write),
                reader_task: clock.task,
            });
        }
    }

    /// Records `site` reading its own label before resampling, at
    /// `clock`. Ordered within the owning task, so it only conflicts
    /// with a same-epoch write by a *different* task (two chunks
    /// claiming the site).
    pub fn record_own_read(&self, site: usize, clock: TaskClock) {
        let Some(r) = self.read_state.get(site) else {
            return;
        };
        r.fetch_max(pack(clock, false), Ordering::SeqCst);
        let write = self.write_state[site].load(Ordering::SeqCst);
        if same_epoch(write, clock) && packed_task(write) != (clock.task & TASK_MASK) {
            self.push_finding(ShadowFinding::PhaseConflict {
                site,
                epoch: clock.epoch,
                writer_task: packed_task(write),
                reader_task: clock.task,
            });
        }
    }

    /// Closes the sweep: coverage anomalies join the ordering findings
    /// and the full report is returned. The checker is left reset for
    /// another sweep.
    pub fn finish(&self) -> ShadowReport {
        let mut findings = {
            let mut held = self.findings.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *held)
        };
        for site in 0..self.len() {
            let writes = self.sweep_writes[site].swap(0, Ordering::Relaxed);
            match writes {
                0 => findings.push(ShadowFinding::NeverWritten { site }),
                1 => {}
                _ => findings.push(ShadowFinding::ExtraWrites { site, writes }),
            }
            self.write_state[site].store(0, Ordering::Relaxed);
            self.read_state[site].store(0, Ordering::Relaxed);
        }
        ShadowReport { findings }
    }
}

/// Replays one sweep of `schedule` serially against a [`ShadowPlane`],
/// recording exactly the plane accesses the engine's chunk workers would
/// perform: for each scheduled site, an own-label read, one neighbour
/// read per interference neighbour, then the write — each stamped with
/// the phase as its epoch and the chunk as its task. Chunk ranges are
/// clamped to their group and out-of-range sites skipped — the replay
/// observes a schedule, it does not crash on one.
///
/// Returns the report of one full sweep.
#[must_use]
pub fn replay_schedule(topology: &Topology, schedule: &SweepSchedule) -> ShadowReport {
    let shadow = ShadowPlane::new(topology.len());
    for (g, sites) in schedule.groups().iter().enumerate() {
        for (task, (start, end)) in schedule.chunk_ranges(g).into_iter().enumerate() {
            let clock = TaskClock {
                epoch: g as u64,
                task: task as u64,
            };
            let end = end.min(sites.len());
            for &site in sites.get(start..end).unwrap_or(&[]) {
                if site >= topology.len() {
                    continue;
                }
                shadow.record_own_read(site, clock);
                for &neighbor in topology.neighbors(site) {
                    shadow.record_neighbor_read(neighbor, clock);
                }
                shadow.record_write(site, clock);
            }
        }
    }
    shadow.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::color_schedule;
    use mogs_mrf::{Grid2D, Neighborhood};

    fn first_order(w: usize, h: usize) -> Topology {
        Topology::from_grid(Grid2D::new(w, h), Neighborhood::FirstOrder)
    }

    #[test]
    fn valid_checkerboard_replay_is_clean() {
        let topology = first_order(6, 5);
        let schedule = SweepSchedule::uniform(color_schedule(&topology, 3).into_classes(), 3);
        let report = replay_schedule(&topology, &schedule);
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn valid_general_graph_replay_is_clean() {
        // A 6-cycle 2-colored, replayed over 2 chunks per phase.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)];
        let topology = Topology::from_edges(6, &edges).expect("cycle");
        let schedule = SweepSchedule::uniform(vec![vec![0, 2, 4], vec![1, 3, 5]], 2);
        let report = replay_schedule(&topology, &schedule);
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn adjacent_pair_in_one_phase_is_observed_as_conflict() {
        let topology = first_order(3, 1);
        let schedule = SweepSchedule::uniform(vec![vec![0, 1], vec![2]], 1);
        let report = replay_schedule(&topology, &schedule);
        assert!(report.findings.iter().any(|f| matches!(
            f,
            ShadowFinding::PhaseConflict { site, epoch: 0, .. } if *site == 0 || *site == 1
        )));
    }

    #[test]
    fn same_chunk_adjacency_is_still_a_conflict() {
        // Both endpoints of an edge in one phase AND one chunk: a
        // per-task recorder would see a perfectly ordered read-then-
        // write, but the schedule is unsound — the happens-before rule
        // keys on the epoch, not the task.
        let topology = Topology::from_edges(2, &[(0, 1)]).expect("edge");
        let schedule = SweepSchedule::uniform(vec![vec![0, 1]], 1);
        let report = replay_schedule(&topology, &schedule);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, ShadowFinding::PhaseConflict { epoch: 0, .. })));
    }

    #[test]
    fn conflicts_in_any_phase_of_a_many_color_schedule_are_attributed() {
        // 3-colorable path scheduled in 3 phases with the violation
        // seeded in the *last* phase — the epoch in the finding names it.
        let topology = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).expect("path");
        let schedule = SweepSchedule::uniform(vec![vec![0], vec![1], vec![2, 3]], 1);
        let report = replay_schedule(&topology, &schedule);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, ShadowFinding::PhaseConflict { epoch: 2, .. })));
    }

    #[test]
    fn gap_and_overlap_show_up_as_coverage_anomalies() {
        let topology = first_order(4, 1);
        let groups = vec![vec![0, 2], vec![1, 3]];
        // Group 0 chunked with an overlap (site 0 twice), group 1 with a
        // gap (site 3 never visited).
        let ranges = vec![vec![(0, 1), (0, 2)], vec![(0, 1)]];
        let schedule = SweepSchedule::explicit(groups, ranges);
        let report = replay_schedule(&topology, &schedule);
        assert!(report.findings.contains(&ShadowFinding::DoubleWrite {
            site: 0,
            epoch: 0,
            first_task: 0,
            second_task: 1,
        }));
        assert!(report
            .findings
            .contains(&ShadowFinding::NeverWritten { site: 3 }));
    }

    #[test]
    fn foreign_task_own_read_is_a_conflict_but_owner_is_not() {
        let shadow = ShadowPlane::new(2);
        let writer = TaskClock { epoch: 0, task: 0 };
        let foreign = TaskClock { epoch: 0, task: 1 };
        shadow.record_own_read(0, writer);
        shadow.record_write(0, writer);
        // The owner's ordered read-then-write is fine.
        shadow.record_write(1, writer);
        shadow.record_own_read(1, foreign);
        let report = shadow.finish();
        assert_eq!(
            report.findings,
            vec![ShadowFinding::PhaseConflict {
                site: 1,
                epoch: 0,
                writer_task: 0,
                reader_task: 1,
            }]
        );
    }

    #[test]
    fn checker_resets_between_sweeps() {
        let topology = first_order(2, 2);
        let schedule = SweepSchedule::uniform(vec![vec![0, 3], vec![1, 2]], 1);
        let shadow = ShadowPlane::new(topology.len());
        shadow.record_write(0, TaskClock { epoch: 0, task: 0 });
        let first = shadow.finish();
        assert!(!first.is_clean());
        // After finish() the clocks are zeroed: a fresh, complete sweep
        // on the same checker is clean even though it reuses epochs.
        for (g, sites) in schedule.groups().iter().enumerate() {
            let clock = TaskClock {
                epoch: g as u64,
                task: 0,
            };
            for &site in sites {
                shadow.record_own_read(site, clock);
                for &neighbor in topology.neighbors(site) {
                    shadow.record_neighbor_read(neighbor, clock);
                }
                shadow.record_write(site, clock);
            }
        }
        assert!(shadow.finish().is_clean());
    }
}
