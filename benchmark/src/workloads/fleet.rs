//! `fleet2`: repeated `run_fleet` jobs on the stereo workload, worker
//! processes re-executed from this binary over loopback TCP, no
//! checkpointing. The 1-sweep run that is this workload's set-up is the
//! fleet's fixed cost (spawn + connect + assign + teardown); the
//! measured jobs add the per-sweep cost on top of it.

use std::time::{Duration, Instant};

use mogs_engine::prelude::*;
use mogs_engine::JobOutput;
use mogs_fleet::wire::{
    encode_to_coordinator, encode_to_worker, parse_to_coordinator, parse_to_worker, ToCoordinator,
    ToWorker,
};
use mogs_fleet::{
    build_shard, partition, run_fleet, run_in_process, BackendKind, FleetConfig, FleetOutput,
    FleetSpec, FleetStructure, Launcher, TransportKind,
};
use mogs_mrf::Label;
use mogs_vision::stereo::{StereoConfig, StereoMatching};
use mogs_vision::synthetic;

use super::engine::{median_ms, model_probes, Model};
use super::{job_seed, JobSample, Pass, Shape, Workload};
use crate::spec::{Host, Sizes};
use crate::trace::Tracer;

const DISPARITY: u8 = 3;
const NOISE_SIGMA: f64 = 4.0;
/// Bytes of the length prefix in front of every frame.
const FRAME_PREFIX: usize = 8;

const STREAM_JOBS: u64 = 1;
const STREAM_WARMUP: u64 = 2;

pub struct FleetWorkload {
    seed: u64,
    width: usize,
    height: usize,
    sweeps: usize,
    chunks: usize,
    workers: usize,
    /// The in-process engine's output for the first measured job.
    reference: Option<JobOutput>,
}

impl FleetWorkload {
    pub fn new(seed: u64, sizes: Sizes, host: Host) -> Self {
        FleetWorkload {
            seed,
            width: sizes.fleet_width,
            height: sizes.fleet_height,
            sweeps: sizes.fleet_sweeps,
            chunks: sizes.fleet_chunks,
            workers: host.workers,
            reference: None,
        }
    }

    fn spec(&self, sweeps: usize, seed: u64) -> FleetSpec {
        FleetSpec {
            workload: mogs_fleet::Workload::Stereo {
                width: self.width,
                height: self.height,
                disparity: DISPARITY,
                noise_sigma: NOISE_SIGMA,
                scene_seed: self.seed,
            },
            backend: BackendKind::Softmax,
            iterations: sweeps,
            threads: self.chunks,
            seed,
            burn_in: sweeps / 4,
        }
    }

    fn config(&self) -> FleetConfig {
        let mut config = FleetConfig::new(self.workers);
        config.launcher = Launcher::SelfExec;
        config.transport = TransportKind::Tcp;
        config
    }

    /// A fleet run finished cleanly when it ran its whole budget on the
    /// workers it started with.
    fn well_formed(&self, out: &FleetOutput, sweeps: usize) -> Result<(), String> {
        if !out.finished || out.iterations_run != sweeps {
            return Err(format!(
                "fleet stopped after {} of {sweeps} sweeps",
                out.iterations_run
            ));
        }
        if out.migrations != 0 || out.degraded.is_some() || out.workers_spawned != self.workers {
            return Err(format!(
                "fleet churned: {} migrations, {} workers spawned",
                out.migrations, out.workers_spawned
            ));
        }
        if out.labels.len() != self.width * self.height {
            return Err("label plane has the wrong size".to_string());
        }
        Ok(())
    }
}

impl Workload for FleetWorkload {
    fn shape(&self) -> Shape {
        Shape {
            sites: self.width * self.height,
            labels: 5,
            sweeps: self.sweeps,
            chunks: self.chunks,
            clients: 1,
            backend: "softmax",
        }
    }

    fn setup(&mut self) -> Result<(), String> {
        let spec = self.spec(1, job_seed(self.seed, STREAM_WARMUP, 0));
        let out = run_fleet(&spec, &self.config()).map_err(|e| e.to_string())?;
        self.well_formed(&out, 1)
    }

    fn prepare_checks(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        let spec = self.spec(self.sweeps, job_seed(self.seed, STREAM_JOBS, 0));
        let started = Instant::now();
        let reference = run_in_process(&spec).map_err(|e| e.to_string())?;
        let rate = self.shape().updates_per_job() / started.elapsed().as_secs_f64();
        self.reference = Some(reference);
        Ok(vec![("fleet.in_process_updates_per_s", rate)])
    }

    fn measure(&mut self, window: Duration, tracer: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let config = self.config();
        let started = Instant::now();
        let mut i = 0u64;
        while started.elapsed() < window {
            let spec = self.spec(self.sweeps, job_seed(self.seed, STREAM_JOBS, i));
            pass.attempted += 1;
            let job_started = Instant::now();
            let outcome = tracer.span("fleet.run_fleet", || run_fleet(&spec, &config));
            let latency = job_started.elapsed();
            let checked = outcome.map_err(|e| e.to_string()).and_then(|out| {
                self.well_formed(&out, self.sweeps)?;
                let matches = self
                    .reference
                    .as_ref()
                    .is_some_and(|reference| out.bit_identical_to(reference));
                if i == 0 && !matches {
                    return Err("fleet output is not bit-identical to run_in_process".to_string());
                }
                Ok(())
            });
            match checked {
                Ok(()) => pass.jobs.push(JobSample::finished_now(started, latency)),
                Err(why) => pass.fail(format!("job {i}: {why}")),
            }
            i += 1;
        }
        pass.wall_s = started.elapsed().as_secs_f64();
        pass
    }

    fn probes(&mut self, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let spec = self.spec(self.sweeps, job_seed(self.seed, STREAM_JOBS, 0));
        let mut out = Vec::new();

        let plan = |spec: &FleetSpec| {
            let structure = FleetStructure::of(spec)?;
            let parts = partition(&structure, self.workers)?;
            Ok::<_, mogs_fleet::FleetError>((structure, parts))
        };
        out.push((
            "fleet.partition_us",
            1e3 * median_ms(3, || {
                std::hint::black_box(tracer.span("fleet.partition", || plan(&spec).is_ok()));
            }),
        ));
        let Ok((structure, parts)) = plan(&spec) else {
            return out;
        };

        // Every frame of one color phase on the coordinator star, for
        // the real shard sizes: `Phase` out to each worker, `PhaseDone`
        // with its owned sites back, `Halo` with everyone else's
        // updates out again. Bytes are computed from the encoded
        // frames, not observed on a socket.
        let plane: Vec<u8> = self
            .reference
            .as_ref()
            .map(|r| r.labels.iter().map(|l| l.value()).collect())
            .unwrap_or_else(|| vec![0; structure.sites]);
        let groups = structure.group_count();
        let frames: Vec<(Vec<ToWorker>, Vec<ToCoordinator>)> = (0..groups)
            .map(|group| {
                let updates: Vec<(usize, u8)> = structure.cells[group]
                    .iter()
                    .flatten()
                    .map(|&site| (site, plane[site]))
                    .collect();
                let mut down = Vec::new();
                let mut up = Vec::new();
                for shard in 0..parts.len() {
                    let (own, others): (Vec<_>, Vec<_>) = updates
                        .iter()
                        .partition(|&&(site, _)| parts.owner[site] == shard);
                    down.push(ToWorker::Phase { sweep: 1, group });
                    down.push(ToWorker::Halo { updates: others });
                    up.push(ToCoordinator::PhaseDone {
                        sweep: 1,
                        group,
                        updates: own,
                    });
                }
                (down, up)
            })
            .collect();
        let mut bytes = 0usize;
        let started = Instant::now();
        for (down, up) in &frames {
            tracer.span("fleet.wire_codec", || {
                for msg in down {
                    let text = encode_to_worker(msg);
                    bytes += text.len() + FRAME_PREFIX;
                    std::hint::black_box(parse_to_worker(&text).is_ok());
                }
                for msg in up {
                    let text = encode_to_coordinator(msg);
                    bytes += text.len() + FRAME_PREFIX;
                    std::hint::black_box(parse_to_coordinator(&text).is_ok());
                }
            });
        }
        let codec_us = started.elapsed().as_secs_f64() * 1e6;
        out.push(("fleet.wire_bytes_per_phase", (bytes / groups) as f64));
        out.push(("fleet.wire_codec_us_per_phase", codec_us / groups as f64));

        // Compute alone: the largest shard's phases, in this process.
        let largest = parts
            .shards
            .iter()
            .max_by_key(|s| s.owned.len())
            .map(|s| s.cells.clone())
            .unwrap_or_default();
        if let Ok(mut shard) = build_shard(&spec, &largest) {
            let sweeps = self.sweeps.max(1);
            let started = Instant::now();
            for sweep in 0..sweeps {
                for group in 0..groups {
                    tracer.span("fleet.shard_phase", || shard.run_phase(sweep, group));
                }
            }
            out.push((
                "fleet.compute_ms_per_sweep",
                started.elapsed().as_secs_f64() * 1e3 / sweeps as f64,
            ));
        }

        // The field the workers sample, through the same gibbs, engine
        // and audit probes as the other workloads.
        let build = || {
            let scene =
                synthetic::stereo_pair(self.width, self.height, DISPARITY, NOISE_SIGMA, self.seed);
            StereoMatching::new(&scene.left, &scene.right, StereoConfig::default())
        };
        out.push((
            "vision.model_build_ms",
            median_ms(3, || {
                std::hint::black_box(tracer.span("vision.model_build", build));
            }),
        ));
        let app = build();
        let model = Model {
            initial: app.mrf().uniform_labeling(),
            mrf: app.mrf().clone(),
        };
        let equilibrated: Vec<Label> = plane.iter().map(|&l| Label::new(l)).collect();
        let sampler = || {
            BackendSampler::try_new(Backend::Softmax, model.mrf.temperature())
                .map_err(|e| e.to_string())
        };
        out.extend(model_probes(
            tracer,
            &model,
            &equilibrated,
            self.chunks,
            sampler,
            || {
                let mut job = app.engine_job(sampler()?, self.sweeps, spec.seed);
                job.threads = self.chunks;
                Ok(JobSpec::from(job))
            },
        ));
        out
    }

    fn teardown(&mut self) {}
}
