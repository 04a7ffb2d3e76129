//! Engine throughput: the persistent runtime vs the one-shot sweep path.
//!
//! Runs the paper's segmentation design point (§8.1 sizing: a 320×320
//! grid, `M = 5` classes) for a fixed sweep budget twice — once with
//! repeated [`checkerboard_sweep`] calls (scoped threads spawned and a
//! labeling snapshot taken every phase) and once as one job on a
//! [`mogs_engine::Engine`] — and reports site-updates/second for both,
//! the speedup, and whether the final labelings are bit-identical (they
//! must be: same seed, same chunk count). A third row runs the engine
//! with the RSU-G pool backend; its draws are hardware-model, so it is
//! not compared against the softmax sampler — instead it is held
//! bit-identical to the one-shot sweep path driven by the *same*
//! [`BackendSampler`], which pins the batched pool kernel (round-robin
//! unit rotation and all) to the per-site reference.

use std::time::Instant;

use crate::report::render_table;
use mogs_engine::prelude::*;
use mogs_gibbs::sweep::{checkerboard_sweep_with_scratch, SweepScratch};
use mogs_gibbs::SoftmaxGibbs;
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::synthetic;

/// The chain's per-iteration sweep-seed derivation (shared with the
/// engine so both paths draw identical streams).
fn sweep_seed(seed: u64, iteration: usize) -> u64 {
    seed.wrapping_add((iteration as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Outcome of one engine-vs-reference comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBenchResult {
    /// Grid side (sites = side²).
    pub side: usize,
    /// Sweeps per path.
    pub iterations: usize,
    /// Deterministic chunk count (the reference path's `threads`).
    pub threads: usize,
    /// Reference path site-updates/second.
    pub reference_updates_per_sec: f64,
    /// Engine path site-updates/second (software softmax backend).
    pub engine_updates_per_sec: f64,
    /// Engine path site-updates/second on the RSU-G pool backend.
    pub rsu_pool_updates_per_sec: f64,
    /// Engine ÷ reference.
    pub speedup: f64,
    /// Softmax engine labeling equals the reference labeling exactly.
    pub bit_identical: bool,
    /// RSU-pool engine labeling equals the one-shot sweep path driven by
    /// the same pool sampler, exactly.
    pub rsu_pool_bit_identical: bool,
    /// Engine metrics snapshot after the runs (jobs, denials, queue
    /// high-water mark, latency histograms).
    pub metrics: MetricsSnapshot,
}

/// Runs the comparison at `side`×`side`, `M = 5`, 8 chunks.
///
/// # Panics
///
/// Panics if the freshly started engine rejects a well-formed benchmark
/// job (it is shut down only after both paths complete).
pub fn run(side: usize, iterations: usize, seed: u64) -> EngineBenchResult {
    let threads = 8;
    let scene = synthetic::region_scene(side, side, 5, 6.0, seed);
    let app = Segmentation::new(
        scene.image.clone(),
        SegmentationConfig {
            threads,
            ..SegmentationConfig::default()
        },
    );
    let mrf = app.mrf();
    let sites = side * side;

    // Each path runs `REPEATS` times and keeps its best wall time: the
    // box this runs on is shared, and one descheduling blip would
    // otherwise decide the comparison.
    const REPEATS: usize = 3;

    // Reference: the one-shot sweep entry point, called per iteration
    // with the chain's seed derivation (scratch reuse already included —
    // this is the strongest fair baseline the free functions offer).
    let sampler = SoftmaxGibbs::new();
    let mut labels = mrf.uniform_labeling();
    let mut reference_secs = f64::MAX;
    for _ in 0..REPEATS {
        labels = mrf.uniform_labeling();
        let mut scratch = SweepScratch::new();
        let start = Instant::now();
        for iteration in 0..iterations {
            checkerboard_sweep_with_scratch(
                mrf,
                &mut labels,
                &sampler,
                mrf.temperature(),
                threads,
                sweep_seed(seed, iteration),
                &mut scratch,
            );
        }
        reference_secs = reference_secs.min(start.elapsed().as_secs_f64());
    }

    // Engine: same problem, one persistent job per repeat, no energy
    // bookkeeping (the reference loop does none either).
    let engine = Engine::new(EngineConfig::default());
    fn bench_job<L: mogs_gibbs::LabelSampler>(
        app: &Segmentation,
        sampler: L,
        iterations: usize,
        seed: u64,
        threads: usize,
    ) -> InferenceJob<mogs_vision::segmentation::ClassMeanSingleton, L> {
        let mut job = app.engine_job(sampler, iterations, seed);
        job.track_modes = false;
        job.record_energy = false;
        job.threads = threads;
        job
    }
    let mut engine_secs = f64::MAX;
    let mut out = None;
    for _ in 0..REPEATS {
        let job = bench_job(&app, SoftmaxGibbs::new(), iterations, seed, threads);
        let start = Instant::now();
        out = Some(
            engine
                .submit(job)
                .unwrap_or_else(|e| panic!("engine rejected bench job: {e}"))
                .wait(),
        );
        engine_secs = engine_secs.min(start.elapsed().as_secs_f64());
    }
    let out = out.expect("at least one engine repeat");

    // Backend selection: the same job shape on the emulated RSU-G pool.
    // Its reference is the one-shot sweep path driven by the *same*
    // sampler, so the batched pool kernel's bit-identity (including the
    // round-robin unit rotation) is asserted on every bench run.
    let pool_sampler = BackendSampler::try_new(Backend::RsuG { replicas: 4 }, 4.0)
        .expect("RsuG backend with positive replicas always constructs");
    let mut pool_reference = mrf.uniform_labeling();
    {
        let mut scratch = SweepScratch::new();
        for iteration in 0..iterations {
            checkerboard_sweep_with_scratch(
                mrf,
                &mut pool_reference,
                &pool_sampler,
                mrf.temperature(),
                threads,
                sweep_seed(seed, iteration),
                &mut scratch,
            );
        }
    }
    let pool_job = bench_job(&app, pool_sampler, iterations, seed, threads);
    let start = Instant::now();
    let pool_out = engine
        .submit(pool_job)
        .unwrap_or_else(|e| panic!("engine rejected bench job: {e}"))
        .wait();
    let pool_secs = start.elapsed().as_secs_f64();

    let metrics = engine.metrics();
    engine.shutdown();

    let updates = (sites * iterations) as f64;
    let reference_updates_per_sec = updates / reference_secs;
    let engine_updates_per_sec = updates / engine_secs;
    EngineBenchResult {
        side,
        iterations,
        threads,
        reference_updates_per_sec,
        engine_updates_per_sec,
        rsu_pool_updates_per_sec: updates / pool_secs,
        speedup: engine_updates_per_sec / reference_updates_per_sec,
        bit_identical: out.labels == labels,
        rsu_pool_bit_identical: pool_out.labels == pool_reference,
        metrics,
    }
}

/// Renders the result as the `repro engine-bench` report.
pub fn render(result: &EngineBenchResult) -> String {
    let rows = vec![
        vec![
            "checkerboard_sweep (reference)".to_owned(),
            format!("{:.0}", result.reference_updates_per_sec),
            "1.00".to_owned(),
            "—".to_owned(),
        ],
        vec![
            "engine (softmax backend)".to_owned(),
            format!("{:.0}", result.engine_updates_per_sec),
            format!("{:.2}", result.speedup),
            if result.bit_identical { "yes" } else { "NO" }.to_owned(),
        ],
        vec![
            "engine (rsu-pool backend)".to_owned(),
            format!("{:.0}", result.rsu_pool_updates_per_sec),
            format!(
                "{:.2}",
                result.rsu_pool_updates_per_sec / result.reference_updates_per_sec
            ),
            if result.rsu_pool_bit_identical {
                "yes"
            } else {
                "NO"
            }
            .to_owned(),
        ],
    ];
    format!(
        "Engine throughput: {}x{} segmentation, M=5, {} chunks, {} sweeps\n\n{}\n\nengine metrics: {}",
        result.side,
        result.side,
        result.threads,
        result.iterations,
        render_table(&["path", "site-updates/s", "speedup", "bit-identical"], &rows),
        result.metrics.to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_bit_identical_and_reports() {
        let result = run(48, 3, 5);
        assert!(
            result.bit_identical,
            "engine diverged from the reference sweep"
        );
        assert!(
            result.rsu_pool_bit_identical,
            "pool backend diverged from its per-site reference"
        );
        assert!(result.engine_updates_per_sec > 0.0);
        assert_eq!(result.metrics.jobs_completed, 4);
        let text = render(&result);
        assert!(text.contains("engine (softmax backend)"));
        assert!(text.contains("engine metrics"));
        // The report carries the denial/backpressure counters.
        assert!(text.contains("\"jobs_denied\""));
        assert!(text.contains("\"queue_depth_hwm\""));
    }
}
