//! Criterion bench: sink overhead on the engine's sweep path.
//!
//! Three configurations of the same 128×128 `M = 5` segmentation job:
//! no sink, a [`NullSink`] (measures the observation plumbing alone —
//! the acceptance target is within noise, ≤2% of the `bare` run; engine
//! speed itself is the benchmark's `seg-large` row),
//! and the full `mogs-diag` sink in observe-only mode (per-sweep energy
//! plus stride-1 label marginals — the honest price of live
//! diagnostics).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mogs_diag::{DiagConfig, MultiChainDiag};
use mogs_engine::prelude::*;
use mogs_gibbs::SoftmaxGibbs;
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::synthetic;
use std::hint::black_box;

const SIDE: usize = 128;
const SWEEPS: usize = 4;
const THREADS: usize = 8;
const SEED: u64 = 2016;

fn run_job(app: &Segmentation, engine: &Engine, sink: Option<Arc<dyn DiagSink>>) -> usize {
    let mut job = app.engine_job(SoftmaxGibbs::new(), SWEEPS, SEED);
    job.track_modes = false;
    job.record_energy = false;
    job.threads = THREADS;
    job.sink = sink;
    engine
        .submit(job)
        .expect("engine running")
        .wait()
        .iterations_run
}

fn bench_diag_sink(c: &mut Criterion) {
    let scene = synthetic::region_scene(SIDE, SIDE, 5, 6.0, SEED);
    let app = Segmentation::new(
        scene.image,
        SegmentationConfig {
            threads: THREADS,
            ..SegmentationConfig::default()
        },
    );
    let engine = Engine::new(EngineConfig::default());
    let diag = MultiChainDiag::for_field(app.mrf(), 1, DiagConfig::default().observe_only());

    let mut group = c.benchmark_group("diag_sink_128x128_m5");
    group.sample_size(10);
    group.throughput(Throughput::Elements((SIDE * SIDE * SWEEPS) as u64));
    group.bench_function("bare", |b| {
        b.iter(|| black_box(run_job(&app, &engine, None)));
    });
    group.bench_function("null_sink", |b| {
        b.iter(|| black_box(run_job(&app, &engine, Some(Arc::new(NullSink)))));
    });
    group.bench_function("diag_sink", |b| {
        b.iter(|| {
            let sink = diag.sink(0);
            black_box(run_job(&app, &engine, Some(sink)))
        });
    });
    group.finish();
    engine.shutdown();
}

criterion_group!(benches, bench_diag_sink);
criterion_main!(benches);
