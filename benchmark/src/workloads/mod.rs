//! The five workloads, behind one interface the harness drives:
//! set up (timed, repeated), prepare output checks (untimed), then one
//! or two closed-loop measured passes, then layer probes.

pub mod engine;
pub mod fleet;
pub mod serve;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mogs_engine::prelude::*;
use mogs_vision::motion::{flow_to_label, MotionConfig, MotionEstimation};
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::synthetic;

use crate::spec::{Host, Sizes, FLEET2, MOTION_RSU, SEG_CKPT, SEG_LARGE, SERVE_SMALL};
use crate::trace::Tracer;

/// What one closed-loop measured pass saw.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// First operation issued → last operation finished.
    pub wall_s: f64,
    /// One sample per job whose output was fetched and verified.
    pub jobs: Vec<JobSample>,
    /// Operations issued: jobs, plus resume cycles on `seg-ckpt`.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed their output
    /// check.
    pub failed: u64,
    /// Why, for the first few failures.
    pub failures: Vec<String>,
    /// Counts and samples taken at layer boundaries during the pass.
    pub layer: Vec<(&'static str, f64)>,
}

/// A verified job: when it finished, counted from the start of the
/// pass, and how long it took from submission to result in hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSample {
    pub done_s: f64,
    pub latency_ms: f64,
}

impl JobSample {
    /// A job that took `latency` and has just finished, in a pass that
    /// began at `pass_started`.
    pub fn finished_now(pass_started: Instant, latency: Duration) -> Self {
        JobSample {
            done_s: pass_started.elapsed().as_secs_f64(),
            latency_ms: latency.as_secs_f64() * 1e3,
        }
    }
}

impl Pass {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// The shape of a workload's jobs, for rates and the result record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    pub sites: usize,
    pub labels: usize,
    pub sweeps: usize,
    pub chunks: usize,
    /// Closed-loop submitters driving the system at once.
    pub clients: usize,
    pub backend: &'static str,
}

impl Shape {
    pub fn updates_per_job(&self) -> f64 {
        (self.sites * self.sweeps) as f64
    }
}

pub trait Workload {
    fn shape(&self) -> Shape;

    /// Builds everything the first measured operation needs — scene,
    /// model, engine, server, one warm-up job — replacing whatever an
    /// earlier call built. The harness times it.
    fn setup(&mut self) -> Result<(), String>;

    /// Computes the references the output checks compare against.
    /// Untimed, after the last `setup`. Returns values for the layer
    /// table it measured along the way.
    fn prepare_checks(&mut self) -> Result<Vec<(&'static str, f64)>, String>;

    /// Runs the closed loop until `window` has passed and the
    /// operations in flight have finished.
    fn measure(&mut self, window: Duration, tracer: &Tracer) -> Pass;

    /// Times calls into each layer's public functions in isolation.
    fn probes(&mut self, tracer: &Tracer) -> Vec<(&'static str, f64)>;

    /// Stops every thread and process the workload started and removes
    /// its scratch files.
    fn teardown(&mut self);
}

/// Where a run may write: `benchmark/out/` under the current directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

/// Seed of the `i`-th job of a run (splitmix-style, so neighbouring
/// `--seed` values do not share job seeds).
pub fn job_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn build(name: &str, seed: u64, sizes: Sizes, host: Host) -> Option<Box<dyn Workload>> {
    let segmentation = move || {
        let side = sizes.seg_side;
        let scene = synthetic::region_scene(side, side, 5, 6.0, seed);
        let config = SegmentationConfig {
            threads: sizes.engine_chunks,
            ..SegmentationConfig::default()
        };
        let app = Segmentation::new(scene.image, config);
        engine::Model {
            initial: app.mrf().uniform_labeling(),
            mrf: app.mrf().clone(),
        }
    };
    let seg = |name: &'static str, checkpointed: bool| {
        Box::new(engine::EngineWorkload::new(
            engine::Config {
                name,
                backend: Backend::Softmax,
                backend_name: "softmax",
                chunks: sizes.engine_chunks,
                sweeps: sizes.seg_sweeps,
                workers: host.workers,
                checkpointed,
                seed,
            },
            Box::new(segmentation),
        )) as Box<dyn Workload>
    };
    match name {
        SEG_LARGE => Some(seg(SEG_LARGE, false)),
        SEG_CKPT => Some(seg(SEG_CKPT, true)),
        MOTION_RSU => Some(Box::new(engine::EngineWorkload::new(
            engine::Config {
                name: MOTION_RSU,
                backend: Backend::RsuG { replicas: 4 },
                backend_name: "rsu-g x4",
                chunks: sizes.engine_chunks,
                sweeps: sizes.motion_sweeps,
                workers: host.workers,
                checkpointed: false,
                seed,
            },
            Box::new(move || {
                let side = sizes.motion_side;
                let scene = synthetic::translated_pair(side, side, 2, -1, 4.0, seed);
                let config = MotionConfig {
                    threads: sizes.engine_chunks,
                    ..MotionConfig::default()
                };
                let app = MotionEstimation::new(&scene.frame1, &scene.frame2, config);
                engine::Model {
                    initial: vec![flow_to_label(0, 0); side * side],
                    mrf: app.mrf().clone(),
                }
            }),
        ))),
        SERVE_SMALL => Some(Box::new(serve::ServeWorkload::new(seed, sizes, host))),
        FLEET2 => Some(Box::new(fleet::FleetWorkload::new(seed, sizes, host))),
        _ => None,
    }
}
