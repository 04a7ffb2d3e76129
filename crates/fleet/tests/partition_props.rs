//! Property tests for the shard partitioner.
//!
//! The claims under test, over randomized grids, thread counts, and
//! shard widths:
//!
//! - **Exactness**: every site lands in exactly one shard's owned set —
//!   no gaps, no double ownership — and the `owner` array agrees.
//! - **Halo completeness (both directions)**: shard `i`'s halo is
//!   *exactly* the cross-shard adjacency of its owned set. Forward:
//!   every halo site is unowned by `i` and borders an owned site of
//!   `i`. Backward: every cross-shard neighbour of an owned site
//!   appears in the halo. A halo that is a strict subset would silently
//!   corrupt gathers three sweeps later; a superset wastes wire traffic
//!   and flags a partitioner bug just the same.
//! - **Determinism**: the same structure and width always produce the
//!   same partition (the coordinator re-derives it on restart).
//! - **Bit-identity anchor**: a single-shard fleet — the degenerate
//!   partition — reproduces the in-process engine bit for bit, so the
//!   multi-shard runs have a trusted base case to compose from.

use std::collections::BTreeSet;

use mogs_engine::Backend;
use mogs_fleet::{partition, run_fleet, run_in_process, FleetConfig, FleetStructure};
use mogs_vision::job::{JobDescription, Workload};
use proptest::prelude::*;

/// Whether every checkerboard colour group of a `width × height` grid
/// can be split into exactly `threads` chunks by the engine's chunk
/// arithmetic (`chunk_size = ceil(len / threads)`); the engine's
/// schedule audit rejects thread counts that collapse to fewer chunks.
fn threads_feasible(width: usize, height: usize, threads: usize) -> bool {
    let sites = width * height;
    [sites.div_ceil(2), sites / 2].iter().all(|&len| {
        let chunk = len.div_ceil(threads).max(1);
        len.div_ceil(chunk) == threads
    })
}

fn arb_spec() -> impl Strategy<Value = JobDescription> {
    (
        ((2usize..14), (2usize..10), (2u16..6)),
        (0usize..16),
        0u64..=u64::MAX,
    )
        .prop_map(|((width, height, labels), thread_pick, seed)| {
            let feasible: Vec<usize> = (1..=4)
                .filter(|&t| threads_feasible(width, height, t))
                .collect();
            let threads = feasible[thread_pick % feasible.len()];
            JobDescription {
                workload: Workload::Demo {
                    width,
                    height,
                    labels,
                },
                backend: Backend::Softmax,
                iterations: 3,
                threads,
                seed,
                burn_in: 1,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_site_in_exactly_one_shard((spec, pick) in (arb_spec(), 0usize..1000)) {
        let structure = FleetStructure::of(&spec).expect("structure derives");
        let shards = 1 + pick % structure.total_cells();
        let p = partition(&structure, shards).expect("audited partition");

        let mut seen = vec![0usize; structure.sites];
        for (i, shard) in p.shards.iter().enumerate() {
            prop_assert!(!shard.owned.is_empty(), "shard {i} owns nothing");
            for &site in &shard.owned {
                seen[site] += 1;
                prop_assert_eq!(p.owner[site], i, "owner array disagrees at site {}", site);
            }
        }
        prop_assert!(
            seen.iter().all(|&n| n == 1),
            "ownership counts {:?} are not exactly-once", seen
        );
    }

    #[test]
    fn halos_equal_cross_shard_adjacency_both_directions(
        (spec, pick) in (arb_spec(), 0usize..1000)
    ) {
        let structure = FleetStructure::of(&spec).expect("structure derives");
        let shards = 1 + pick % structure.total_cells();
        let p = partition(&structure, shards).expect("audited partition");

        for (i, shard) in p.shards.iter().enumerate() {
            let halo: BTreeSet<usize> = shard.halo_in.iter().copied().collect();
            prop_assert_eq!(
                halo.len(), shard.halo_in.len(),
                "halo of shard {} has duplicates", i
            );
            // Forward: each halo site is foreign and borders the shard.
            for &h in &halo {
                prop_assert!(p.owner[h] != i, "halo site {} owned by shard {} itself", h, i);
                prop_assert!(
                    structure.topology.neighbors(h).iter().any(|&n| p.owner[n] == i),
                    "halo site {} borders no owned site of shard {}", h, i
                );
            }
            // Backward: each cross-shard neighbour is in the halo.
            for &site in &shard.owned {
                for &n in structure.topology.neighbors(site) {
                    if p.owner[n] != i {
                        prop_assert!(
                            halo.contains(&n),
                            "cross-shard neighbour {} of owned site {} missing from \
                             shard {}'s halo", n, site, i
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partition_is_deterministic((spec, pick) in (arb_spec(), 0usize..1000)) {
        let structure = FleetStructure::of(&spec).expect("structure derives");
        let shards = 1 + pick % structure.total_cells();
        let a = partition(&structure, shards).expect("first");
        let b = partition(&structure, shards).expect("second");
        prop_assert_eq!(a, b, "partition must be a pure function of (structure, shards)");
    }
}

proptest! {
    // Each case runs two full jobs (fleet + engine); keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn single_shard_fleet_is_bit_identical_to_engine(spec in arb_spec()) {
        let output = run_fleet(&spec, &FleetConfig::new(1)).expect("fleet runs");
        let reference = run_in_process(&spec).expect("engine runs");
        prop_assert!(
            output.bit_identical_to(&reference),
            "single-shard fleet diverged from the engine on {:?}", spec
        );
    }
}
