//! Partition/halo proof obligations for fleet sharding.
//!
//! `mogs-fleet` splits one job's label plane across N worker processes.
//! The split inherits the engine's safety argument only if three facts
//! hold, and this module proves each of them against the same CSR
//! [`Topology`] and [`ScheduleCertificate`] that admitted the job:
//!
//! 1. **Exact partition** — every site is owned by exactly one shard, so
//!    every site is sampled exactly once per sweep across the fleet.
//! 2. **Chunk alignment** — shards are unions of whole `(group, chunk)`
//!    cells under the certificate's chunking. The engine's RNG streams
//!    are keyed per cell and consumed in the cell's site order, so a
//!    cell split between shards would silently reseed every draw in it;
//!    alignment is what makes fleet output bit-identical to the
//!    in-process engine.
//! 3. **Exact halos** — each shard's halo-in set is *precisely* the
//!    cross-shard adjacency: every neighbour (in the interference graph)
//!    of an owned site that some other shard owns, and nothing else. A
//!    missing halo site means a gather reads a stale label (divergence);
//!    an excess site means the coordinator ships updates the shard never
//!    needs (masked protocol bugs).
//!
//! Like the schedule certificates, a partition is only as good as the
//! [`verify_sharding`] verdict on it: the fleet coordinator re-proves
//! the partition it computed before the first worker is spawned, and a
//! worker could re-prove its own assignment on arrival.

use mogs_mrf::Topology;

use crate::certificate::ScheduleCertificate;
use crate::schedule::Chunking;

/// One broken sharding invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardingViolation {
    /// The certificate was proved against a different graph than the
    /// one the partition is being verified against.
    ForeignCertificate {
        /// Sites in the verifying topology.
        topology_sites: usize,
        /// Sites the certificate claims.
        certificate_sites: usize,
        /// Adjacency fingerprint of the verifying topology.
        topology_fingerprint: u64,
        /// Adjacency fingerprint the certificate claims.
        certificate_fingerprint: u64,
    },
    /// `halo_in` does not have one entry per shard.
    HaloArity {
        /// Shards in the partition.
        shards: usize,
        /// Halo lists supplied.
        halos: usize,
    },
    /// A shard lists a site outside the graph.
    SiteOutOfRange {
        /// The owning shard.
        shard: usize,
        /// The impossible site index.
        site: usize,
    },
    /// A site appears in two shards — it would be sampled twice per
    /// sweep, with both draws racing on the wire.
    SiteMultiplyOwned {
        /// The site.
        site: usize,
        /// The first shard claiming it.
        a: usize,
        /// The second shard claiming it.
        b: usize,
    },
    /// A site appears in no shard — it would never be sampled, freezing
    /// its label at the initial value.
    SiteUnowned {
        /// The orphaned site.
        site: usize,
    },
    /// One deterministic `(group, chunk)` RNG cell is split between two
    /// shards, so neither can reproduce the engine's draw stream for it.
    ChunkSplit {
        /// The color class (phase group).
        group: usize,
        /// The chunk index within the class.
        chunk: usize,
        /// One owner found inside the cell.
        a: usize,
        /// A different owner found inside the same cell.
        b: usize,
    },
    /// A cross-shard neighbour of an owned site is missing from the
    /// shard's halo-in set: its gathers would read a stale label.
    HaloMissing {
        /// The under-provisioned shard.
        shard: usize,
        /// The neighbour site that must be imported but is not.
        site: usize,
    },
    /// A halo-in entry that is not a cross-shard neighbour of any owned
    /// site (it is owned by the shard itself, or touches no owned site).
    HaloExcess {
        /// The over-provisioned shard.
        shard: usize,
        /// The spurious entry.
        site: usize,
    },
}

/// Work the sharding verifier performed, for audit logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardingStats {
    /// Sites in the graph.
    pub sites: usize,
    /// Shards in the partition.
    pub shards: usize,
    /// Deterministic `(group, chunk)` cells checked for alignment.
    pub cells_checked: usize,
    /// Interference edges examined for the halo check (each direction).
    pub edges_checked: usize,
}

/// The outcome of a sharding audit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardingReport {
    /// Every broken invariant.
    pub violations: Vec<ShardingViolation>,
    /// Work performed.
    pub stats: ShardingStats,
}

impl ShardingReport {
    /// True when the partition upholds every invariant the fleet's
    /// bit-identity argument requires.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line verdict.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!(
                "clean: {} sites over {} shards, {} cells aligned, {} edges haloed",
                self.stats.sites,
                self.stats.shards,
                self.stats.cells_checked,
                self.stats.edges_checked
            )
        } else {
            format!(
                "{} violation(s) over {} sites / {} shards",
                self.violations.len(),
                self.stats.sites,
                self.stats.shards
            )
        }
    }
}

/// Proves (or refutes) that `shards` exactly partition `topology`'s
/// sites into whole chunk cells of `certificate`, and that `halo_in`
/// lists exactly the cross-shard adjacency of each shard.
///
/// `shards[s]` is shard `s`'s owned-site list; `halo_in[s]` the sites it
/// imports at phase boundaries. Duplicate entries within one shard's own
/// list are reported as [`ShardingViolation::SiteMultiplyOwned`] with
/// `a == b`.
#[must_use]
pub fn verify_sharding(
    topology: &Topology,
    certificate: &ScheduleCertificate,
    shards: &[Vec<usize>],
    halo_in: &[Vec<usize>],
) -> ShardingReport {
    let sites = topology.len();
    let mut report = ShardingReport {
        violations: Vec::new(),
        stats: ShardingStats {
            sites,
            shards: shards.len(),
            cells_checked: 0,
            edges_checked: 0,
        },
    };
    if certificate.sites() != sites || certificate.fingerprint() != topology.fingerprint() {
        report
            .violations
            .push(ShardingViolation::ForeignCertificate {
                topology_sites: sites,
                certificate_sites: certificate.sites(),
                topology_fingerprint: topology.fingerprint(),
                certificate_fingerprint: certificate.fingerprint(),
            });
        // Everything below keys off the certificate's classes; a foreign
        // certificate would only produce noise on top of this verdict.
        return report;
    }
    if halo_in.len() != shards.len() {
        report.violations.push(ShardingViolation::HaloArity {
            shards: shards.len(),
            halos: halo_in.len(),
        });
    }

    // 1. Exact partition.
    let mut owner: Vec<Option<usize>> = vec![None; sites];
    for (shard, owned) in shards.iter().enumerate() {
        for &site in owned {
            if site >= sites {
                report
                    .violations
                    .push(ShardingViolation::SiteOutOfRange { shard, site });
                continue;
            }
            match owner[site] {
                None => owner[site] = Some(shard),
                Some(first) => report
                    .violations
                    .push(ShardingViolation::SiteMultiplyOwned {
                        site,
                        a: first,
                        b: shard,
                    }),
            }
        }
    }
    for (site, owned_by) in owner.iter().enumerate() {
        if owned_by.is_none() {
            report
                .violations
                .push(ShardingViolation::SiteUnowned { site });
        }
    }

    // 2. Chunk alignment against the certificate's deterministic cells.
    for (group, class) in certificate.classes().iter().enumerate() {
        let ranges: Vec<(usize, usize)> = match certificate.chunking() {
            Chunking::Uniform { threads } => {
                let size = class.len().div_ceil(*threads).max(1);
                (0..class.len().div_ceil(size))
                    .map(|c| (c * size, ((c + 1) * size).min(class.len())))
                    .collect()
            }
            Chunking::Explicit { ranges } => ranges.get(group).cloned().unwrap_or_default(),
        };
        for (chunk, &(start, end)) in ranges.iter().enumerate() {
            report.stats.cells_checked += 1;
            let mut cell_owner: Option<usize> = None;
            for &site in class.get(start..end).into_iter().flatten() {
                let Some(this) = owner.get(site).copied().flatten() else {
                    continue; // already reported above
                };
                match cell_owner {
                    None => cell_owner = Some(this),
                    Some(first) if first != this => {
                        report.violations.push(ShardingViolation::ChunkSplit {
                            group,
                            chunk,
                            a: first,
                            b: this,
                        });
                        break;
                    }
                    Some(_) => {}
                }
            }
        }
    }

    // 3. Exact halos, both directions: required ⊆ provided and
    //    provided ⊆ required.
    for (shard, owned) in shards.iter().enumerate() {
        let provided = halo_in.get(shard).map(Vec::as_slice).unwrap_or_default();
        let mut required = vec![false; sites];
        for &site in owned {
            if site >= sites {
                continue;
            }
            for &neighbor in topology.neighbors(site) {
                report.stats.edges_checked += 1;
                if owner[neighbor].is_some_and(|o| o != shard) {
                    required[neighbor] = true;
                }
            }
        }
        let mut seen = vec![false; sites];
        for &site in provided {
            if site >= sites || !required[site] {
                report
                    .violations
                    .push(ShardingViolation::HaloExcess { shard, site });
            } else {
                seen[site] = true;
            }
        }
        for site in 0..sites {
            if required[site] && !seen[site] {
                report
                    .violations
                    .push(ShardingViolation::HaloMissing { shard, site });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::color_schedule;
    use mogs_mrf::{Grid2D, Neighborhood};

    const THREADS: usize = 3;

    fn fixture() -> (Topology, ScheduleCertificate) {
        let topology = Topology::from_grid(Grid2D::new(6, 4), Neighborhood::FirstOrder);
        let certificate = color_schedule(&topology, THREADS);
        (topology, certificate)
    }

    /// Splits every class's chunk cells round-robin over `n` shards and
    /// derives the exact halos — the reference partitioner in miniature.
    fn partition(
        topology: &Topology,
        certificate: &ScheduleCertificate,
        n: usize,
    ) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let mut shards = vec![Vec::new(); n];
        let mut which = vec![0usize; topology.len()];
        let mut cell = 0usize;
        for class in certificate.classes() {
            let size = class.len().div_ceil(THREADS).max(1);
            for chunk_sites in class.chunks(size) {
                let shard = cell % n;
                cell += 1;
                for &site in chunk_sites {
                    shards[shard].push(site);
                    which[site] = shard;
                }
            }
        }
        let mut halos = vec![Vec::new(); n];
        for (shard, owned) in shards.iter().enumerate() {
            let mut needed: Vec<usize> = owned
                .iter()
                .flat_map(|&site| topology.neighbors(site).iter().copied())
                .filter(|&neighbor| which[neighbor] != shard)
                .collect();
            needed.sort_unstable();
            needed.dedup();
            halos[shard] = needed;
        }
        (shards, halos)
    }

    #[test]
    fn reference_partition_is_clean() {
        let (topology, certificate) = fixture();
        for n in 1..=4 {
            let (shards, halos) = partition(&topology, &certificate, n);
            let report = verify_sharding(&topology, &certificate, &shards, &halos);
            assert!(report.is_clean(), "n={n}: {:?}", report.violations);
            assert!(report.summary().starts_with("clean"));
            if n == 1 {
                assert!(halos[0].is_empty(), "single shard imports nothing");
            }
        }
    }

    #[test]
    fn every_perturbation_is_caught() {
        let (topology, certificate) = fixture();
        let (shards, halos) = partition(&topology, &certificate, 2);

        // Drop a site: unowned.
        let mut broken = shards.clone();
        let dropped = broken[0].pop().expect("non-empty");
        let report = verify_sharding(&topology, &certificate, &broken, &halos);
        assert!(report
            .violations
            .contains(&ShardingViolation::SiteUnowned { site: dropped }));

        // Duplicate it into the other shard: multiply owned.
        let mut broken = shards.clone();
        let doubled = broken[0][0];
        broken[1].push(doubled);
        let report = verify_sharding(&topology, &certificate, &broken, &halos);
        assert!(report.violations.iter().any(
            |v| matches!(v, ShardingViolation::SiteMultiplyOwned { site, .. } if *site == doubled)
        ));

        // Move one site (not a whole cell) across shards: chunk split.
        let mut broken = shards.clone();
        let moved = broken[0].pop().expect("non-empty");
        broken[1].push(moved);
        let report = verify_sharding(&topology, &certificate, &broken, &halos);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, ShardingViolation::ChunkSplit { .. })));

        // Starve a halo: missing.
        let mut starved = halos.clone();
        let lost = starved[0].pop().expect("non-empty halo");
        let report = verify_sharding(&topology, &certificate, &shards, &starved);
        assert_eq!(
            report.violations,
            vec![ShardingViolation::HaloMissing {
                shard: 0,
                site: lost
            }]
        );

        // Pad a halo with an owned site: excess.
        let mut padded = halos.clone();
        let own = shards[1][0];
        padded[1].push(own);
        let report = verify_sharding(&topology, &certificate, &shards, &padded);
        assert_eq!(
            report.violations,
            vec![ShardingViolation::HaloExcess {
                shard: 1,
                site: own
            }]
        );

        // Wrong halo arity.
        let report = verify_sharding(&topology, &certificate, &shards, &halos[..1]);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            ShardingViolation::HaloArity {
                shards: 2,
                halos: 1
            }
        )));

        // Foreign certificate short-circuits.
        let other = Topology::from_grid(Grid2D::new(5, 5), Neighborhood::FirstOrder);
        let foreign = color_schedule(&other, THREADS);
        let report = verify_sharding(&topology, &foreign, &shards, &halos);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            ShardingViolation::ForeignCertificate { .. }
        ));
        assert!(!report.summary().starts_with("clean"));
    }
}
