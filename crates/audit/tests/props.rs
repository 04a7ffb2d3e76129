//! Property-based invariants of the schedule interference checker.
//!
//! Three families: every well-formed colored schedule passes, every
//! adversarial mutation of one is rejected with the right violation, and
//! (under the `shadow` feature) the dynamic recorder agrees with the
//! static verdict on both directions the design promises.

use mogs_audit::{check_graph_schedule, color_schedule, SweepSchedule, Violation};
use mogs_mrf::{Grid2D, Neighborhood, Parity, Topology};
use proptest::prelude::*;

fn topology(w: usize, h: usize, second_order: bool) -> Topology {
    let order = if second_order {
        Neighborhood::SecondOrder
    } else {
        Neighborhood::FirstOrder
    };
    Topology::from_grid(Grid2D::new(w, h), order)
}

/// The greedy colouring with the uniform `threads`-way split — on a
/// ≥2×2 grid, the checkerboard (first order) or 2×2 block colours
/// (second order).
fn colored(topology: &Topology, threads: usize) -> SweepSchedule {
    SweepSchedule::uniform(color_schedule(topology, threads).into_classes(), threads)
}

/// The engine's historical grid schedule, built from the grid itself:
/// parity classes for first order, block colours for second order.
fn grid_groups(w: usize, h: usize, second_order: bool) -> Vec<Vec<usize>> {
    let grid = Grid2D::new(w, h);
    if second_order {
        (0..4)
            .map(|c| grid.sites_of_block_color(c).collect())
            .collect()
    } else {
        Parity::BOTH
            .into_iter()
            .map(|p| grid.sites_of_parity(p).collect())
            .collect()
    }
}

/// The colored groups with one site moved from its own phase into another
/// phase (where at least one of its neighbours lives). Returns the groups
/// and the moved site.
fn move_one_site(topology: &Topology, site_pick: usize) -> (Vec<Vec<usize>>, usize) {
    let mut groups = colored(topology, 1).into_groups();
    let site = site_pick % topology.len();
    let from = groups
        .iter()
        .position(|g| g.contains(&site))
        .expect("colored schedules cover every site");
    groups[from].retain(|&s| s != site);
    let to = (from + 1) % groups.len();
    groups[to].push(site);
    (groups, site)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A colored schedule never violates interference or coverage; the
    /// only thing that can be wrong with one is chunk underflow, when the
    /// reference `div_ceil` split yields fewer chunks than the job asked
    /// for (e.g. a 9-site group at 4 threads splits into 3 chunks).
    #[test]
    fn colored_schedules_fail_only_on_chunk_underflow(
        w in 4usize..24,
        h in 4usize..24,
        threads in 1usize..=4,
        second_order in proptest::bool::ANY,
    ) {
        let topology = topology(w, h, second_order);
        let schedule = colored(&topology, threads);
        let underflow = schedule
            .groups()
            .iter()
            .enumerate()
            .any(|(g, sites)| !sites.is_empty() && schedule.chunk_ranges(g).len() < threads);
        let report = check_graph_schedule(&topology, &schedule);
        if underflow {
            prop_assert!(!report.is_clean());
            prop_assert!(
                report
                    .violations
                    .iter()
                    .all(|v| matches!(v, Violation::ChunkUnderflow { .. })),
                "{w}x{h} t={threads}: {report}"
            );
        } else {
            prop_assert!(report.is_clean(), "{w}x{h} t={threads}: {report}");
        }
        prop_assert_eq!(report.stats.sites, w * h);
        prop_assert_eq!(report.stats.groups, if second_order { 4 } else { 2 });
    }

    /// Moving any single site into another phase puts it next to one of
    /// its neighbours (every site in a ≥2×2 grid has a neighbour of every
    /// other colour), so the checker must flag interference.
    #[test]
    fn moving_a_site_across_phases_is_rejected(
        w in 2usize..16,
        h in 2usize..16,
        site_pick in 0usize..1024,
        second_order in proptest::bool::ANY,
    ) {
        let topology = topology(w, h, second_order);
        let (groups, site) = move_one_site(&topology, site_pick);
        let report = check_graph_schedule(&topology, &SweepSchedule::uniform(groups, 1));
        prop_assert!(!report.is_clean());
        prop_assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::NeighborsSharePhase { a, b, .. }
                    if a.site == site || b.site == site
            )),
            "moved site {site} not flagged: {report}"
        );
    }

    /// Dropping a site from its phase leaves it uncovered.
    #[test]
    fn dropping_a_site_is_rejected(
        w in 2usize..16,
        h in 2usize..16,
        site_pick in 0usize..1024,
        second_order in proptest::bool::ANY,
    ) {
        let topology = topology(w, h, second_order);
        let mut groups = colored(&topology, 1).into_groups();
        let site = site_pick % topology.len();
        for g in &mut groups {
            g.retain(|&s| s != site);
        }
        let report = check_graph_schedule(&topology, &SweepSchedule::uniform(groups, 1));
        prop_assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SiteUncovered { site: c } if c.site == site)));
    }

    /// Listing a site in a second phase (keeping the original) is caught
    /// as a repeat.
    #[test]
    fn duplicating_a_site_is_rejected(
        w in 2usize..16,
        h in 2usize..16,
        site_pick in 0usize..1024,
        second_order in proptest::bool::ANY,
    ) {
        let topology = topology(w, h, second_order);
        let mut groups = colored(&topology, 1).into_groups();
        let site = site_pick % topology.len();
        let from = groups
            .iter()
            .position(|g| g.contains(&site))
            .expect("colored schedules cover every site");
        let to = (from + 1) % groups.len();
        groups[to].push(site);
        let report = check_graph_schedule(&topology, &SweepSchedule::uniform(groups, 1));
        prop_assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SiteRepeated { site: c, .. } if c.site == site)));
    }

    /// Corrupting one group's chunk list — a trailing gap, an overlap, or
    /// an empty chunk — is always rejected with the matching violation.
    #[test]
    fn corrupted_explicit_chunks_are_rejected(
        // ≥3×3 keeps every colour class at two or more sites, so group 0
        // is large enough for each mutation below.
        w in 3usize..16,
        h in 3usize..16,
        mode in 0usize..3,
        second_order in proptest::bool::ANY,
    ) {
        let topology = topology(w, h, second_order);
        let clean = colored(&topology, 1);
        let groups = clean.groups().to_vec();
        let mut ranges: Vec<Vec<(usize, usize)>> =
            (0..groups.len()).map(|g| clean.chunk_ranges(g)).collect();
        let len = groups[0].len();
        prop_assert!(len >= 2);
        ranges[0] = match mode {
            0 => vec![(0, len - 1)],          // gap: last site unscheduled
            1 => vec![(0, 1), (0, len)],      // overlap: site 0 twice
            _ => vec![(0, 0), (0, len)],      // empty leading chunk
        };
        let report = check_graph_schedule(&topology, &SweepSchedule::explicit(groups, ranges));
        prop_assert!(!report.is_clean());
        let expected = match mode {
            0 => report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::ChunkGap { group: 0, .. })),
            1 => report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::ChunkOverlap { group: 0, .. })),
            _ => report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::EmptyChunk { group: 0, chunk: 0 })),
        };
        prop_assert!(expected, "mode {mode}: {report}");
    }
}

mod certificate_props {
    use super::*;
    use mogs_audit::{
        color_schedule, verify_certificate, Chunking, Obligation, ScheduleCertificate,
    };
    use mogs_mrf::Topology;

    /// A random self-loop-free sparse graph (possibly disconnected): raw
    /// endpoint picks are folded into `0..sites`, and would-be loops are
    /// bent to the next site.
    fn sparse_graph(sites: usize, raw_edges: &[(usize, usize)]) -> Topology {
        let edges: Vec<(usize, usize)> = raw_edges
            .iter()
            .filter(|_| sites >= 2)
            .map(|&(a, b)| {
                let a = a % sites;
                let b = b % sites;
                if a == b {
                    (a, (b + 1) % sites)
                } else {
                    (a, b)
                }
            })
            .collect();
        Topology::from_edges(sites, &edges).expect("folded edges are valid")
    }

    /// The greedy classes with one endpoint of `edge` moved into the
    /// other endpoint's class.
    fn classes_with_moved_endpoint(
        cert: &ScheduleCertificate,
        a: usize,
        b: usize,
    ) -> Vec<Vec<usize>> {
        let mut classes = cert.classes().to_vec();
        let from = classes
            .iter()
            .position(|c| c.contains(&a))
            .expect("certificates cover every site");
        let to = classes
            .iter()
            .position(|c| c.contains(&b))
            .expect("certificates cover every site");
        classes[from].retain(|&s| s != a);
        classes[to].push(a);
        classes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Greedy coloring of any sparse graph — disconnected pieces,
        /// isolated sites, whatever the edge fold produces — always
        /// yields a certificate the independent verifier accepts, using
        /// at most max-degree + 1 colors. At higher thread counts the
        /// only admissible complaint is chunk underflow on small classes.
        #[test]
        fn greedy_certificates_always_verify(
            sites in 1usize..48,
            raw_edges in proptest::collection::vec((0usize..1000, 0usize..1000), 0..160),
            threads in 1usize..4,
        ) {
            let topology = sparse_graph(sites, &raw_edges);
            let cert = color_schedule(&topology, threads);
            prop_assert!(cert.color_count() <= topology.max_degree() + 1);
            let report = verify_certificate(&topology, &cert);
            prop_assert!(
                report
                    .violations
                    .iter()
                    .all(|v| matches!(v, Violation::ChunkUnderflow { .. })),
                "{report}"
            );
            if threads == 1 {
                prop_assert!(report.is_clean(), "{report}");
            }
        }

        /// Star and clique corners at every size: the star's hub sits
        /// alone in one class, the clique needs one class per site, and
        /// both verify clean.
        #[test]
        fn star_and_clique_corners_verify(n in 2usize..24) {
            let star_edges: Vec<(usize, usize)> = (1..n).map(|leaf| (0, leaf)).collect();
            let star = Topology::from_edges(n, &star_edges).expect("star");
            let cert = color_schedule(&star, 1);
            prop_assert_eq!(cert.color_count(), 2);
            prop_assert_eq!(&cert.classes()[0], &vec![0]);
            prop_assert!(verify_certificate(&star, &cert).is_clean());

            let mut clique_edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    clique_edges.push((a, b));
                }
            }
            let clique = Topology::from_edges(n, &clique_edges).expect("clique");
            let cert = color_schedule(&clique, 1);
            prop_assert_eq!(cert.color_count(), n);
            prop_assert!(verify_certificate(&clique, &cert).is_clean());
        }

        /// Moving one endpoint of any edge into the other endpoint's
        /// class is rejected as interference naming one of the endpoints.
        #[test]
        fn moved_site_certificate_is_rejected(
            sites in 2usize..40,
            raw_edges in proptest::collection::vec((0usize..1000, 0usize..1000), 1..120),
            edge_pick in 0usize..1024,
        ) {
            let topology = sparse_graph(sites, &raw_edges);
            let a = (0..topology.len())
                .find(|&s| topology.degree(s) > 0)
                .expect("at least one folded edge survives");
            let b = topology.neighbors(a)[edge_pick % topology.degree(a)];
            let cert = color_schedule(&topology, 1);
            let mutated = ScheduleCertificate::from_classes(
                &topology,
                classes_with_moved_endpoint(&cert, a, b),
                Chunking::Uniform { threads: 1 },
            );
            let report = verify_certificate(&topology, &mutated);
            prop_assert!(report.violations.iter().any(|v| matches!(
                v,
                Violation::NeighborsSharePhase { a: x, b: y, .. }
                    if x.site == a || y.site == a
            )), "moved {a} next to {b}: {report}");
        }

        /// Dropping a site from its class leaves it uncovered; listing it
        /// in a second class is a repeat. Both are always rejected.
        #[test]
        fn dropped_and_duplicated_site_certificates_are_rejected(
            sites in 1usize..40,
            raw_edges in proptest::collection::vec((0usize..1000, 0usize..1000), 0..120),
            site_pick in 0usize..1024,
        ) {
            let topology = sparse_graph(sites, &raw_edges);
            let cert = color_schedule(&topology, 1);
            let site = site_pick % topology.len();

            let mut dropped = cert.classes().to_vec();
            for class in &mut dropped {
                class.retain(|&s| s != site);
            }
            let report = verify_certificate(
                &topology,
                &ScheduleCertificate::from_classes(
                    &topology,
                    dropped,
                    Chunking::Uniform { threads: 1 },
                ),
            );
            prop_assert!(report.violations.iter().any(
                |v| matches!(v, Violation::SiteUncovered { site: c } if c.site == site)
            ));

            let mut duplicated = cert.classes().to_vec();
            duplicated.push(vec![site]);
            let report = verify_certificate(
                &topology,
                &ScheduleCertificate::from_classes(
                    &topology,
                    duplicated,
                    Chunking::Uniform { threads: 1 },
                ),
            );
            prop_assert!(report.violations.iter().any(
                |v| matches!(v, Violation::SiteRepeated { site: c, .. } if c.site == site)
            ));
        }

        /// Merging the first two color classes always creates
        /// interference: every site greedy put in class 1 is there
        /// precisely because it neighbours something in class 0.
        #[test]
        fn merged_color_certificates_are_rejected(
            sites in 2usize..40,
            raw_edges in proptest::collection::vec((0usize..1000, 0usize..1000), 1..120),
        ) {
            let topology = sparse_graph(sites, &raw_edges);
            let cert = color_schedule(&topology, 1);
            // sites ≥ 2 and ≥ 1 raw edge mean the fold always keeps an
            // edge, so greedy always needs a second class.
            prop_assert!(cert.color_count() >= 2);
            let mut classes = cert.classes().to_vec();
            let second = classes.remove(1);
            classes[0].extend(second);
            let report = verify_certificate(
                &topology,
                &ScheduleCertificate::from_classes(
                    &topology,
                    classes,
                    Chunking::Uniform { threads: 1 },
                ),
            );
            prop_assert!(report.violations.iter().any(
                |v| matches!(v, Violation::NeighborsSharePhase { group: 0, .. })
            ), "{report}");
        }

        /// Certificates survive the JSON round trip exactly, and a
        /// certificate stripped of an obligation is rejected by name.
        #[test]
        fn json_round_trip_and_obligation_stripping(
            sites in 1usize..32,
            raw_edges in proptest::collection::vec((0usize..1000, 0usize..1000), 0..80),
            keep in 0usize..3,
        ) {
            let topology = sparse_graph(sites, &raw_edges);
            let cert = color_schedule(&topology, 1);
            let back = ScheduleCertificate::from_json(&cert.to_json()).expect("round trip");
            prop_assert_eq!(&back, &cert);

            let stripped = cert.with_obligations(vec![Obligation::ALL[keep]]);
            let report = verify_certificate(&topology, &stripped);
            prop_assert_eq!(
                report
                    .violations
                    .iter()
                    .filter(|v| matches!(v, Violation::CertificateObligationMissing { .. }))
                    .count(),
                2
            );
        }

        /// The grid degeneracy argument, as a property: on any ≥2×2
        /// grid, greedy coloring of the sparse topology reproduces the
        /// engine's historical parity / block-color schedule exactly —
        /// same classes, same order, same sites in the same order. The
        /// range covers every grid the schedule properties above draw,
        /// so their greedy `colored` schedules are the grid schedules.
        #[test]
        fn greedy_coloring_degenerates_to_grid_schedule(
            w in 2usize..24,
            h in 2usize..24,
            second_order in proptest::bool::ANY,
        ) {
            let cert = color_schedule(&topology(w, h, second_order), 1);
            prop_assert_eq!(cert.classes(), &grid_groups(w, h, second_order)[..]);
        }
    }
}

#[cfg(feature = "shadow")]
mod shadow_agreement {
    use super::*;
    use mogs_audit::shadow::{replay_schedule, ShadowFinding};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A statically clean schedule replays without a single dynamic
        /// finding — the static checker never under-approximates what
        /// actually happens on the plane. Thread counts of 1 and 2 keep
        /// the reference split exact for every group size, so the static
        /// verdict here is always clean.
        #[test]
        fn static_clean_implies_replay_clean(
            w in 4usize..20,
            h in 4usize..20,
            threads in 1usize..=2,
            second_order in proptest::bool::ANY,
        ) {
            let topology = topology(w, h, second_order);
            let schedule = colored(&topology, threads);
            prop_assert!(check_graph_schedule(&topology, &schedule).is_clean());
            let replay = replay_schedule(&topology, &schedule);
            prop_assert!(replay.is_clean(), "{:?}", replay.findings);
        }

        /// For the cross-phase-move mutation class the two verdicts agree
        /// on dirtiness too: the race the static checker predicts is
        /// observed as a same-phase write/neighbour-read conflict.
        #[test]
        fn cross_phase_move_is_observed_dynamically(
            w in 2usize..16,
            h in 2usize..16,
            site_pick in 0usize..1024,
            second_order in proptest::bool::ANY,
        ) {
            let topology = topology(w, h, second_order);
            let (groups, _site) = move_one_site(&topology, site_pick);
            let schedule = SweepSchedule::uniform(groups, 1);
            let static_report = check_graph_schedule(&topology, &schedule);
            let replay = replay_schedule(&topology, &schedule);
            prop_assert!(!static_report.is_clean());
            prop_assert!(replay
                .findings
                .iter()
                .any(|f| matches!(f, ShadowFinding::PhaseConflict { .. })));
        }

        /// Coverage mutations are observed as coverage anomalies: the
        /// dropped site is never written on replay.
        #[test]
        fn dropped_site_is_never_written_on_replay(
            w in 2usize..16,
            h in 2usize..16,
            site_pick in 0usize..1024,
            second_order in proptest::bool::ANY,
        ) {
            let topology = topology(w, h, second_order);
            let mut groups = colored(&topology, 1).into_groups();
            let site = site_pick % topology.len();
            for g in &mut groups {
                g.retain(|&s| s != site);
            }
            let schedule = SweepSchedule::uniform(groups, 1);
            prop_assert!(!check_graph_schedule(&topology, &schedule).is_clean());
            let replay = replay_schedule(&topology, &schedule);
            prop_assert!(replay
                .findings
                .contains(&ShadowFinding::NeverWritten { site }));
        }
    }
}
