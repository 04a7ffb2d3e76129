//! Chunk-aligned shard partitioning with audited halos.
//!
//! The partitioner assigns whole `(group, chunk)` cells — never split
//! sites — to shards, greedy least-loaded in deterministic cell order,
//! so every worker reproduces exactly the chunk RNG streams the full
//! engine would consume (see `mogs_engine::shard` for why splitting a
//! chunk would silently reseed every draw).
//!
//! The output is never trusted: every partition is handed to
//! [`mogs_audit::verify_sharding`], which independently re-proves
//! exact coverage, chunk alignment, and halo completeness against the
//! raw topology before the coordinator may admit a single worker. A
//! partitioner bug is a typed [`FleetError::Partition`], not a silent
//! divergence three sweeps later.

use mogs_audit::verify_sharding;

use crate::error::{FleetError, FleetResult};
use crate::exec::FleetStructure;

/// One shard's assignment: its cells, the sites it owns, and the halo
/// it must import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Owned `(group, chunk)` cells, in deterministic lexicographic
    /// order.
    pub cells: Vec<(usize, usize)>,
    /// Owned sites, ascending.
    pub owned: Vec<usize>,
    /// Sites this shard reads but does not own — exactly the cross-shard
    /// adjacency of `owned`, ascending.
    pub halo_in: Vec<usize>,
}

/// A complete, audited partition of one job's plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Per-shard assignments.
    pub shards: Vec<ShardAssignment>,
    /// Owner shard per site.
    pub owner: Vec<usize>,
}

impl Partition {
    /// Shards in the partition.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the partition is empty (it never is after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The halo exchange sets of a worker holding `shards`: per color
    /// group, ascending, the sites of that color its shards read
    /// (`halo_in`) and none of them owns. After phase `g` the worker
    /// needs the new labels of `result[g]` and of nothing else.
    #[must_use]
    pub fn halo_by_group(&self, structure: &FleetStructure, shards: &[usize]) -> Vec<Vec<usize>> {
        let mut wanted = vec![false; self.owner.len()];
        for &shard in shards {
            for &site in &self.shards[shard].halo_in {
                wanted[site] = !shards.contains(&self.owner[site]);
            }
        }
        structure
            .cells
            .iter()
            .map(|chunks| {
                let mut sites: Vec<usize> = chunks
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|&site| wanted[site])
                    .collect();
                sites.sort_unstable();
                sites
            })
            .collect()
    }
}

/// Splits the structure's cells into `shards` shards: greedy
/// least-loaded by owned-site count over cells in `(group, chunk)`
/// lexicographic order, ties to the lowest shard index. Deterministic
/// by construction — every coordinator (and every restart) derives the
/// same partition from the same spec.
///
/// The result is verified by [`mogs_audit::verify_sharding`] before it
/// is returned.
///
/// # Errors
///
/// [`FleetError::Partition`] when `shards` is zero or exceeds the cell
/// count (a shard may not be empty), or when the independent audit
/// rejects the partition.
pub fn partition(structure: &FleetStructure, shards: usize) -> FleetResult<Partition> {
    let total_cells = structure.total_cells();
    if shards == 0 {
        return Err(FleetError::Partition {
            reason: "a fleet needs at least one shard".to_string(),
        });
    }
    if shards > total_cells {
        return Err(FleetError::Partition {
            reason: format!(
                "{shards} shards over {total_cells} cells would leave a shard empty; \
                 lower the worker count or raise the thread count"
            ),
        });
    }
    let mut assignments = vec![
        ShardAssignment {
            cells: Vec::new(),
            owned: Vec::new(),
            halo_in: Vec::new(),
        };
        shards
    ];
    let mut load = vec![0usize; shards];
    for (group, chunks) in structure.cells.iter().enumerate() {
        for (chunk, sites) in chunks.iter().enumerate() {
            let target = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .unwrap_or_default();
            load[target] += sites.len();
            assignments[target].cells.push((group, chunk));
            assignments[target].owned.extend_from_slice(sites);
        }
    }
    let mut owner = vec![usize::MAX; structure.sites];
    for (shard, assignment) in assignments.iter_mut().enumerate() {
        assignment.owned.sort_unstable();
        for &site in &assignment.owned {
            owner[site] = shard;
        }
    }
    for (shard, assignment) in assignments.iter_mut().enumerate() {
        let mut halo: Vec<usize> = assignment
            .owned
            .iter()
            .flat_map(|&site| structure.topology.neighbors(site).iter().copied())
            .filter(|&n| owner[n] != shard)
            .collect();
        halo.sort_unstable();
        halo.dedup();
        assignment.halo_in = halo;
    }
    let shard_sites: Vec<Vec<usize>> = assignments.iter().map(|a| a.owned.clone()).collect();
    let halos: Vec<Vec<usize>> = assignments.iter().map(|a| a.halo_in.clone()).collect();
    let report = verify_sharding(
        &structure.topology,
        &structure.certificate,
        &shard_sites,
        &halos,
    );
    if !report.is_clean() {
        return Err(FleetError::Partition {
            reason: format!(
                "sharding audit rejected the partition: {}",
                report.summary()
            ),
        });
    }
    Ok(Partition {
        shards: assignments,
        owner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BackendKind, FleetSpec, Workload};

    fn structure() -> FleetStructure {
        FleetStructure::of(&FleetSpec {
            workload: Workload::Demo {
                width: 8,
                height: 6,
                labels: 3,
            },
            backend: BackendKind::Softmax,
            iterations: 4,
            threads: 3,
            seed: 1,
            burn_in: 1,
        })
        .expect("structure derives")
    }

    #[test]
    fn partitions_are_exact_for_every_width() {
        let s = structure();
        for n in 1..=s.total_cells() {
            let p = partition(&s, n).expect("audited partition");
            assert_eq!(p.len(), n);
            let mut all: Vec<usize> = p.shards.iter().flat_map(|a| a.owned.clone()).collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..s.sites).collect::<Vec<_>>(),
                "exact coverage at n={n}"
            );
            assert!(p.owner.iter().all(|&o| o < n));
        }
    }

    #[test]
    fn single_shard_has_no_halo() {
        let s = structure();
        let p = partition(&s, 1).expect("partition");
        assert!(p.shards[0].halo_in.is_empty());
        assert_eq!(p.shards[0].owned.len(), s.sites);
    }

    #[test]
    fn halos_are_cross_shard_adjacency() {
        let s = structure();
        let p = partition(&s, 3).expect("partition");
        for (i, a) in p.shards.iter().enumerate() {
            for &h in &a.halo_in {
                assert_ne!(p.owner[h], i, "halo site owned by the shard itself");
                assert!(
                    s.topology.neighbors(h).iter().any(|&n| p.owner[n] == i),
                    "halo site {h} borders no owned site of shard {i}"
                );
            }
        }
    }

    #[test]
    fn over_partitioning_is_refused() {
        let s = structure();
        let err = partition(&s, s.total_cells() + 1).expect_err("too many shards");
        assert_eq!(err.variant(), "partition");
        let err = partition(&s, 0).expect_err("zero shards");
        assert_eq!(err.variant(), "partition");
    }

    #[test]
    fn partition_is_deterministic_and_balanced() {
        let s = structure();
        let a = partition(&s, 3).expect("first");
        let b = partition(&s, 3).expect("second");
        assert_eq!(a, b, "same structure must partition identically");
        let loads: Vec<usize> = a.shards.iter().map(|x| x.owned.len()).collect();
        let max = loads.iter().max().expect("nonempty");
        let min = loads.iter().min().expect("nonempty");
        // Greedy least-loaded over near-equal cells: spread stays within
        // one cell's worth of sites.
        let cell_max = s
            .cells
            .iter()
            .flat_map(|g| g.iter().map(Vec::len))
            .max()
            .expect("cells exist");
        assert!(
            max - min <= cell_max,
            "loads {loads:?} spread past one cell"
        );
    }
}
