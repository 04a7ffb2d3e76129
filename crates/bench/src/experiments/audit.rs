//! Schedule-interference audit over the paper's vision workloads.
//!
//! Builds the three application MRFs on the same synthetic scenes the
//! quality experiment uses, derives the sweep schedule the engine would
//! run for each (the field's conditionally independent groups, uniformly
//! chunked), and verifies it with the `mogs-audit` static interference
//! checker: no two neighbouring sites may share a phase, chunks must
//! partition each group exactly, and every site must update once per
//! sweep. These are the invariants the engine's in-place `LabelPlane`
//! rests on; `repro audit` proves them for every shipped workload at the
//! chunk counts the experiments actually use.

use crate::report::render_table;
use mogs_audit::{
    check_graph_schedule, color_schedule, verify_certificate, AuditReport, ScheduleCertificate,
    SweepSchedule,
};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, MarkovRandomField, Neighborhood, Topology};
use mogs_vision::motion::{MotionConfig, MotionEstimation};
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::stereo::{StereoConfig, StereoMatching};
use mogs_vision::synthetic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chunk counts audited per workload: the sequential reference, the
/// engine's floor of two, and the pool sizes the benchmarks use.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Verdict for one (workload, chunk-count) schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRow {
    /// Workload name.
    pub workload: &'static str,
    /// Grid neighbourhood order.
    pub neighborhood: Neighborhood,
    /// Deterministic chunk count the schedule was built for.
    pub threads: usize,
    /// The checker's full report (violations plus coverage stats).
    pub report: AuditReport,
}

impl AuditRow {
    /// True when the schedule upholds every plane invariant.
    pub fn clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// Audits one field's derived schedule at every chunk count.
fn audit_field<S: SingletonPotential>(
    workload: &'static str,
    mrf: &MarkovRandomField<S>,
    rows: &mut Vec<AuditRow>,
) {
    let topology = Topology::from_grid(*mrf.grid(), mrf.neighborhood());
    for threads in THREAD_COUNTS {
        let schedule = SweepSchedule::uniform(mrf.independent_groups(), threads);
        rows.push(AuditRow {
            workload,
            neighborhood: mrf.neighborhood(),
            threads,
            report: check_graph_schedule(&topology, &schedule),
        });
    }
}

/// Builds the three vision workloads and audits their sweep schedules.
pub fn run(seed: u64) -> Vec<AuditRow> {
    let mut rows = Vec::new();

    let seg_scene = synthetic::region_scene(28, 28, 5, 6.0, seed);
    let seg = Segmentation::new(seg_scene.image, SegmentationConfig::default());
    audit_field("segmentation", seg.mrf(), &mut rows);

    let motion_scene = synthetic::translated_pair(24, 24, 2, -1, 2.0, seed ^ 1);
    let motion = MotionEstimation::new(
        &motion_scene.frame1,
        &motion_scene.frame2,
        MotionConfig::default(),
    );
    audit_field("motion", motion.mrf(), &mut rows);

    let stereo_scene = synthetic::stereo_pair(28, 28, 3, 2.0, seed ^ 2);
    let stereo = StereoMatching::new(
        &stereo_scene.left,
        &stereo_scene.right,
        StereoConfig::default(),
    );
    audit_field("stereo", stereo.mrf(), &mut rows);

    rows
}

/// Verdict for one general-graph certificate: greedy-color the
/// topology, verify the certificate independently, and round-trip it
/// through its JSON wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphAuditRow {
    /// Graph family name.
    pub graph: String,
    /// Number of sites.
    pub sites: usize,
    /// Number of undirected interference edges.
    pub edges: usize,
    /// Color classes the greedy scheduler produced.
    pub colors: usize,
    /// Chunk count the certificate was issued for.
    pub threads: usize,
    /// True when `from_json(to_json(cert)) == cert`.
    pub round_trip: bool,
    /// The independent verifier's full report.
    pub report: AuditReport,
}

impl GraphAuditRow {
    /// True when the certificate verifies and survives the wire format.
    pub fn clean(&self) -> bool {
        self.report.is_clean() && self.round_trip
    }
}

/// The largest chunk count `<= want` that chunks every color class
/// exactly; irregular graphs with tiny classes (a star's hub) fall back
/// to 1 rather than tripping the chunk-underflow check.
fn exact_chunks(classes: &[Vec<usize>], want: usize) -> usize {
    (1..=want)
        .rev()
        .find(|&c| {
            classes.iter().all(|g| {
                let size = g.len().div_ceil(c);
                size > 0 && g.len().div_ceil(size) == c
            })
        })
        .unwrap_or(1)
}

/// Colors `topology`, verifies the certificate, and records the row.
fn audit_graph(graph: String, topology: &Topology, rows: &mut Vec<GraphAuditRow>) {
    let classes = color_schedule(topology, 1);
    let threads = exact_chunks(classes.classes(), 4);
    let certificate = color_schedule(topology, threads);
    let round_trip = ScheduleCertificate::from_json(&certificate.to_json())
        .is_ok_and(|parsed| parsed == certificate);
    rows.push(GraphAuditRow {
        graph,
        sites: topology.len(),
        edges: topology.edge_count(),
        colors: certificate.color_count(),
        threads,
        round_trip,
        report: verify_certificate(topology, &certificate),
    });
}

/// A random sparse symmetric graph: `sites` vertices, about
/// `edge_budget` undirected edges, no self-loops, possibly
/// disconnected.
///
/// # Panics
///
/// Never in practice: endpoints are drawn in `0..sites` and self-loops
/// are filtered before `from_edges`.
fn random_sparse(sites: usize, edge_budget: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(edge_budget);
    for _ in 0..edge_budget {
        let a = rng.gen_range(0..sites);
        let b = rng.gen_range(0..sites);
        if a != b {
            edges.push((a, b));
        }
    }
    Topology::from_edges(sites, &edges).expect("random sparse graph is well-formed")
}

/// Builds the general-graph corpus — random sparse, deliberately
/// disconnected, star, clique, and the paper's grids as the degenerate
/// 2-/4-coloring — and proves every greedy certificate.
///
/// # Panics
///
/// Never in practice: every corpus edge list is in-range and
/// self-loop-free by construction.
pub fn run_graph(seed: u64) -> Vec<GraphAuditRow> {
    let mut rows = Vec::new();

    audit_graph(
        "random-sparse-64".to_owned(),
        &random_sparse(64, 96, seed),
        &mut rows,
    );

    // Two 16-cycles sharing no edge: coloring must stay local to each
    // component and still cover the whole site range.
    let ring = |offset: usize| (0..16).map(move |i| (offset + i, offset + (i + 1) % 16));
    let disconnected: Vec<(usize, usize)> = ring(0).chain(ring(16)).collect();
    audit_graph(
        "two-16-cycles".to_owned(),
        &Topology::from_edges(32, &disconnected).expect("cycles are well-formed"),
        &mut rows,
    );

    let star: Vec<(usize, usize)> = (1..20).map(|leaf| (0, leaf)).collect();
    audit_graph(
        "star-20".to_owned(),
        &Topology::from_edges(20, &star).expect("star is well-formed"),
        &mut rows,
    );

    let clique: Vec<(usize, usize)> = (0..8)
        .flat_map(|a| (a + 1..8).map(move |b| (a, b)))
        .collect();
    audit_graph(
        "clique-8".to_owned(),
        &Topology::from_edges(8, &clique).expect("clique is well-formed"),
        &mut rows,
    );

    for (name, order) in [
        ("grid-28x28-first", Neighborhood::FirstOrder),
        ("grid-28x28-second", Neighborhood::SecondOrder),
    ] {
        audit_graph(
            name.to_owned(),
            &Topology::from_grid(Grid2D::new(28, 28), order),
            &mut rows,
        );
    }

    rows
}

/// Renders the general-graph certificate table; violations, if any,
/// are listed in full below it.
pub fn render_graph(rows: &[GraphAuditRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.graph.clone(),
                r.sites.to_string(),
                r.edges.to_string(),
                r.colors.to_string(),
                r.threads.to_string(),
                if r.round_trip { "ok" } else { "FAILED" }.to_owned(),
                if r.clean() {
                    "clean".to_owned()
                } else {
                    format!("{} violation(s)", r.report.violations.len())
                },
            ]
        })
        .collect();
    let mut s = String::from(
        "General-graph schedule certificates: greedy-colored, independently \
         re-verified against the raw\nadjacency (no shared-phase neighbours, \
         exact chunk partition, exactly-once coverage), and\nround-tripped \
         through the JSON wire format. Grids appear as the degenerate \
         checkerboard coloring.\n\n",
    );
    s.push_str(&render_table(
        &[
            "graph",
            "sites",
            "edges",
            "colors",
            "chunks/grp",
            "json",
            "verdict",
        ],
        &table,
    ));
    for row in rows.iter().filter(|r| !r.report.is_clean()) {
        s.push_str(&format!("\n{}: {}", row.graph, row.report));
    }
    s
}

/// Renders the audit grid; violations, if any, are listed in full below
/// the table.
pub fn render(rows: &[AuditRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let order = match r.neighborhood {
                Neighborhood::FirstOrder => "first-order",
                Neighborhood::SecondOrder => "second-order",
            };
            vec![
                r.workload.to_owned(),
                order.to_owned(),
                r.report.stats.sites.to_string(),
                r.report.stats.groups.to_string(),
                r.threads.to_string(),
                r.report.stats.chunks.to_string(),
                r.report.stats.edges_checked.to_string(),
                if r.clean() {
                    "clean".to_owned()
                } else {
                    format!("{} violation(s)", r.report.violations.len())
                },
            ]
        })
        .collect();
    let mut s = String::from(
        "Schedule-interference audit: the engine's chromatic sweep schedule \
         for each vision workload,\nchecked against the unsafe label plane's \
         invariants (independent phases, exact chunking,\nexactly-once \
         coverage)\n\n",
    );
    s.push_str(&render_table(
        &[
            "workload",
            "order",
            "sites",
            "phases",
            "chunks/grp",
            "chunks",
            "edges checked",
            "verdict",
        ],
        &table,
    ));
    for row in rows.iter().filter(|r| !r.clean()) {
        s.push_str(&format!(
            "\n{} (threads={}): {}",
            row.workload, row.threads, row.report
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_vision_workload_schedule_is_clean() {
        let rows = run(7);
        assert_eq!(rows.len(), 3 * THREAD_COUNTS.len());
        for row in &rows {
            assert!(
                row.clean(),
                "{} at threads={} failed: {}",
                row.workload,
                row.threads,
                row.report
            );
        }
    }

    #[test]
    fn every_graph_certificate_is_clean() {
        let rows = run_graph(7);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.clean(), "{} failed: {}", row.graph, row.report);
            assert!(row.round_trip, "{} JSON round-trip failed", row.graph);
        }
        // The grids degenerate to the reference chromatic schedule.
        let colors = |name: &str| rows.iter().find(|r| r.graph == name).expect(name).colors;
        assert_eq!(colors("grid-28x28-first"), 2);
        assert_eq!(colors("grid-28x28-second"), 4);
        // A clique needs one color per vertex; a star needs two.
        assert_eq!(colors("clique-8"), 8);
        assert_eq!(colors("star-20"), 2);
    }

    #[test]
    fn render_graph_reports_clean_verdicts() {
        let rows = run_graph(7);
        let text = render_graph(&rows);
        assert!(text.contains("random-sparse-64"));
        assert!(text.contains("clean"));
        assert!(!text.contains("violation"));
    }

    #[test]
    fn render_reports_clean_verdicts() {
        let rows = run(7);
        let text = render(&rows);
        assert!(text.contains("segmentation"));
        assert!(text.contains("clean"));
        assert!(!text.contains("violation"));
    }
}
