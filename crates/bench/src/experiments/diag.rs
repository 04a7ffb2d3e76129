//! A11: streaming diagnostics and early stopping on the vision workloads.
//!
//! For segmentation, motion, and stereo this experiment runs the same
//! multi-chain inference twice through the persistent engine: once
//! observe-only at the full iteration budget, once with the
//! `mogs-diag` early-stop policy live. The comparison shows what the
//! paper's fixed sweep budgets leave on the table — the easy fields
//! converge long before the budget — while the pooled marginals put an
//! uncertainty number (and, with an output directory, a PGM entropy map)
//! next to every labeling.
//!
//! Stop *sweeps* are scheduler-dependent (replicas interleave however
//! the engine likes), so the rendered numbers vary slightly run to run;
//! the invariants — segmentation stops early with its equilibrium energy
//! within tolerance — are what the tests and CI pin. The harder
//! workloads are allowed to *not* converge: a "NO" row is the
//! diagnostics doing their job (stereo's chains genuinely sit in
//! different modes at this budget — a fixed-budget run would have
//! returned the same labeling with no warning attached).

use std::path::Path;
use std::time::Instant;

use crate::report::render_table;
use mogs_diag::{run_chains_diagnosed, DiagConfig, DiagnosedRun, EarlyStopPolicy};
use mogs_engine::prelude::*;
use mogs_gibbs::SoftmaxGibbs;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::MarkovRandomField;
use mogs_vision::motion::{MotionConfig, MotionEstimation};
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::stereo::{StereoConfig, StereoMatching};
use mogs_vision::synthetic;
use serde::Serialize;

/// Chains per workload.
const REPLICAS: usize = 3;
/// Deterministic chunks per job.
const THREADS: usize = 4;

/// One workload's fixed-budget vs early-stop comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DiagRow {
    /// Workload name.
    pub workload: String,
    /// Iteration budget per chain.
    pub budget: usize,
    /// Chains run.
    pub replicas: usize,
    /// Total sweeps of the fixed-budget run (always `budget × replicas`).
    pub fixed_sweeps: usize,
    /// Total sweeps the early-stopped run actually paid for.
    pub stopped_sweeps: usize,
    /// Whether the stop rule fired.
    pub converged: bool,
    /// Split-R̂ at the stopped run's last check.
    pub r_hat: f64,
    /// Relative gap between the runs' post-burn-in mean energies, in %.
    pub energy_gap_pct: f64,
    /// Mean normalized per-site entropy of the pooled marginals.
    pub mean_entropy: f64,
    /// Fraction of sites with normalized entropy above 0.5.
    pub uncertain_site_fraction: f64,
}

fn mean_energy(run: &DiagnosedRun) -> f64 {
    let chains = &run.report.chains;
    chains.iter().map(|c| c.energy_mean).sum::<f64>() / chains.len() as f64
}

/// The experiment's stop policy: deliberately conservative thresholds —
/// the point is to stop *safely* earlier, not as early as possible.
fn policy() -> DiagConfig {
    DiagConfig::default()
        .with_window(128)
        .with_policy(EarlyStopPolicy {
            min_sweeps: 48,
            check_stride: 4,
            r_hat_threshold: 1.1,
            plateau_window: 16,
            plateau_rel_tol: 5e-3,
        })
}

/// A workload's replica template: the field's own temperature held
/// constant, burn-in 16, [`THREADS`] chunks, no mode tracking.
fn template<S: SingletonPotential + Clone>(
    mrf: &MarkovRandomField<S>,
    budget: usize,
    seed: u64,
) -> InferenceJob<S, SoftmaxGibbs> {
    InferenceJob::new(mrf.clone(), SoftmaxGibbs::new())
        .iterations(budget)
        .burn_in(16)
        .threads(THREADS)
        .seed(seed)
}

/// Runs `job`'s replicas twice on one engine: observe-only at the full
/// budget, then under the early-stop policy.
///
/// # Panics
///
/// Panics if the engine refuses or fails a replica.
fn compare<S, L>(
    workload: &str,
    job: InferenceJob<S, L>,
    out_dir: Option<&Path>,
) -> std::io::Result<DiagRow>
where
    S: SingletonPotential + Clone + 'static,
    L: SweepKernel + Clone + Send + Sync + 'static,
{
    let budget = job.iterations;
    let engine = Engine::new(EngineConfig {
        max_active_jobs: REPLICAS.max(4),
        ..EngineConfig::default()
    });
    let diagnosed = |config| {
        run_chains_diagnosed(&engine, job.clone(), REPLICAS, config)
            .expect("the engine runs a well-formed workload's replicas")
    };
    let fixed = diagnosed(policy().observe_only());
    let stopped = diagnosed(policy());
    engine.shutdown();
    let gap = (mean_energy(&stopped) - mean_energy(&fixed)).abs()
        / mean_energy(&fixed).abs().max(1.0)
        * 100.0;
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
        stopped.diag.write_uncertainty_maps(dir, workload)?;
    }
    Ok(DiagRow {
        workload: workload.to_owned(),
        budget,
        replicas: REPLICAS,
        fixed_sweeps: fixed.total_sweeps(),
        stopped_sweeps: stopped.total_sweeps(),
        converged: stopped.report.converged,
        r_hat: stopped.report.r_hat,
        energy_gap_pct: gap,
        mean_entropy: stopped.report.mean_entropy,
        uncertain_site_fraction: stopped.report.uncertain_site_fraction,
    })
}

/// Runs all three workloads; with `out_dir`, writes `diag.json` plus
/// per-workload `*_labels.pgm` / `*_entropy.pgm` maps there.
///
/// # Errors
///
/// Returns I/O errors from writing artifacts.
///
/// # Panics
///
/// Panics if the engine rejects a well-formed workload job.
pub fn run(out_dir: Option<&Path>, seed: u64) -> std::io::Result<Vec<DiagRow>> {
    let mut rows = Vec::with_capacity(3);

    // Segmentation: the paper's flagship workload (§8.1), smoke-sized.
    let scene = synthetic::region_scene(64, 64, 5, 6.0, seed);
    let seg = Segmentation::new(
        scene.image,
        SegmentationConfig {
            threads: THREADS,
            ..SegmentationConfig::default()
        },
    );
    rows.push(compare(
        "segmentation",
        template(seg.mrf(), 240, seed),
        out_dir,
    )?);

    // Motion: window label space — exercises the dense label indexing.
    let pair = synthetic::translated_pair(24, 24, 1, -1, 2.0, seed);
    let motion = MotionEstimation::new(
        &pair.frame1,
        &pair.frame2,
        MotionConfig {
            threads: THREADS,
            ..MotionConfig::default()
        },
    );
    rows.push(compare(
        "motion",
        template(motion.mrf(), 200, seed + 1),
        out_dir,
    )?);

    // Stereo: disparity labels.
    let stereo_scene = synthetic::stereo_pair(32, 32, 2, 2.0, seed);
    let stereo = StereoMatching::new(
        &stereo_scene.left,
        &stereo_scene.right,
        StereoConfig {
            threads: THREADS,
            ..StereoConfig::default()
        },
    );
    rows.push(compare(
        "stereo",
        template(stereo.mrf(), 200, seed + 2),
        out_dir,
    )?);

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("diag.json"), serde::json::to_string(&rows))?;
    }
    Ok(rows)
}

/// Renders the comparison as the `repro diag` report.
pub fn render(rows: &[DiagRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                format!("{}x{}", r.budget, r.replicas),
                format!("{}", r.fixed_sweeps),
                format!("{}", r.stopped_sweeps),
                format!(
                    "{:.0}%",
                    (1.0 - r.stopped_sweeps as f64 / r.fixed_sweeps as f64) * 100.0
                ),
                format!("{:.3}", r.r_hat),
                format!("{:.3}%", r.energy_gap_pct),
                format!("{:.3}", r.mean_entropy),
                if r.converged { "yes" } else { "NO" }.to_owned(),
            ]
        })
        .collect();
    format!(
        "Streaming diagnostics: fixed budget vs early stop ({REPLICAS} chains, split-R-hat + plateau policy)\n\n{}",
        render_table(
            &[
                "workload",
                "budget",
                "sweeps (fixed)",
                "sweeps (stopped)",
                "saved",
                "R-hat",
                "energy gap",
                "mean entropy",
                "converged",
            ],
            &table
        )
    )
}

/// Sink overhead: the same engine job bare, with a [`NullSink`], and
/// with the full diagnostics sink attached.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverheadResult {
    /// Grid side.
    pub side: usize,
    /// Sweeps per job.
    pub iterations: usize,
    /// Best-of-N seconds without any sink.
    pub bare_secs: f64,
    /// Best-of-N seconds with a [`NullSink`] attached.
    pub null_sink_secs: f64,
    /// Best-of-N seconds with the full diagnostics sink attached.
    pub diag_sink_secs: f64,
    /// `NullSink` overhead over bare, in % (the plumbing's cost).
    pub null_overhead_pct: f64,
    /// Full-sink overhead over bare, in % (energy + marginals per sweep).
    pub diag_overhead_pct: f64,
}

/// The three sink attachments the overhead run times.
enum NullableSink {
    None,
    Null(std::sync::Arc<NullSink>),
    Diag(std::sync::Arc<mogs_diag::ChainDiagSink>),
}

/// Measures sink overhead on a `side`×`side` segmentation job.
///
/// # Panics
///
/// Panics if the engine rejects a well-formed benchmark job.
pub fn overhead(side: usize, iterations: usize, seed: u64) -> OverheadResult {
    let scene = synthetic::region_scene(side, side, 5, 6.0, seed);
    let app = Segmentation::new(
        scene.image,
        SegmentationConfig {
            threads: THREADS,
            ..SegmentationConfig::default()
        },
    );
    let engine = Engine::new(EngineConfig::default());
    const REPEATS: usize = 5;
    let time_with = |sink: NullableSink| -> f64 {
        let mut best = f64::MAX;
        for _ in 0..REPEATS {
            let mut job = app.engine_job(SoftmaxGibbs::new(), iterations, seed);
            job.track_modes = false;
            job.record_energy = false;
            job.threads = THREADS;
            job.sink = match &sink {
                NullableSink::None => None,
                NullableSink::Null(s) => Some(s.clone() as _),
                NullableSink::Diag(s) => Some(s.clone() as _),
            };
            let start = Instant::now();
            let _ = engine.submit(job).expect("engine running").wait();
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let bare_secs = time_with(NullableSink::None);
    let null_sink_secs = time_with(NullableSink::Null(std::sync::Arc::new(NullSink)));
    let diag = mogs_diag::MultiChainDiag::for_field(app.mrf(), 1, policy().observe_only());
    let diag_sink_secs = time_with(NullableSink::Diag(diag.sink(0)));
    engine.shutdown();
    OverheadResult {
        side,
        iterations,
        bare_secs,
        null_sink_secs,
        diag_sink_secs,
        null_overhead_pct: (null_sink_secs / bare_secs - 1.0) * 100.0,
        diag_overhead_pct: (diag_sink_secs / bare_secs - 1.0) * 100.0,
    }
}

/// Renders the overhead measurement as the `repro diag-overhead` report.
pub fn render_overhead(result: &OverheadResult) -> String {
    let rows = vec![
        vec![
            "bare (no sink)".to_owned(),
            format!("{:.4}", result.bare_secs),
            "—".to_owned(),
        ],
        vec![
            "NullSink".to_owned(),
            format!("{:.4}", result.null_sink_secs),
            format!("{:+.2}%", result.null_overhead_pct),
        ],
        vec![
            "diag sink (energy + marginals)".to_owned(),
            format!("{:.4}", result.diag_sink_secs),
            format!("{:+.2}%", result.diag_overhead_pct),
        ],
    ];
    format!(
        "Sink overhead: {0}x{0} segmentation, {1} sweeps, best of 5\n\n{2}",
        result.side,
        result.iterations,
        render_table(&["path", "seconds (best)", "overhead"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_pins_the_segmentation_acceptance_criteria() {
        let rows = run(None, 11).expect("no artifacts requested");
        assert_eq!(rows.len(), 3);
        // The hard gate: segmentation converges early and lands on the
        // fixed-budget equilibrium.
        let seg = &rows[0];
        assert_eq!(seg.workload, "segmentation");
        assert!(seg.converged, "segmentation did not converge");
        assert!(
            seg.stopped_sweeps < seg.fixed_sweeps,
            "segmentation must save sweeps: {} vs {}",
            seg.stopped_sweeps,
            seg.fixed_sweeps
        );
        assert!(
            seg.energy_gap_pct < 0.5,
            "segmentation energy gap {}%",
            seg.energy_gap_pct
        );
        // The others may or may not converge (that verdict is the
        // product, not a pass/fail), but their accounting must be sane.
        for row in &rows {
            assert!(row.stopped_sweeps <= row.fixed_sweeps, "{}", row.workload);
            assert!(
                !row.converged || row.stopped_sweeps < row.fixed_sweeps,
                "{}: converged runs must stop early",
                row.workload
            );
            assert!((0.0..=1.0).contains(&row.mean_entropy));
            assert!((0.0..=1.0).contains(&row.uncertain_site_fraction));
        }
        let text = render(&rows);
        assert!(text.contains("segmentation"));
        assert!(text.contains("stereo"));
    }

    #[test]
    fn overhead_measurement_produces_sane_timings() {
        // No wall-clock bound here: `cargo test` runs this alongside the
        // whole workspace suite, so timing ratios are contention noise.
        // The quantitative gate lives in `repro diag-overhead` (CI, quiet
        // runner, 10%).
        let result = overhead(48, 6, 3);
        assert!(result.bare_secs > 0.0);
        assert!(result.null_sink_secs > 0.0);
        assert!(result.diag_sink_secs > 0.0);
        assert!(result.null_overhead_pct.is_finite());
        assert!(result.diag_overhead_pct.is_finite());
        let text = render_overhead(&result);
        assert!(text.contains("NullSink"));
        assert!(text.contains("bare"));
    }
}
