//! `seg-large`, `motion-rsu` and `seg-ckpt`: one submitter, closed
//! loop, repeated jobs on one persistent [`Engine`].
//!
//! `seg-ckpt` is `seg-large` with a `CheckpointPolicy::every(1)` writer
//! on every job and, after each job, one load-and-resume cycle from a
//! mid-job checkpoint; its throughput against `seg-large`'s is the
//! checkpoint tax.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mogs_audit::{color_schedule, verify_certificate};
use mogs_ckpt::{encode, Checkpoint, CheckpointStore};
use mogs_engine::prelude::*;
use mogs_gibbs::sweep::{checkerboard_sweep_with_scratch, SweepScratch};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Label, MarkovRandomField, Neighborhood, Parity, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{job_seed, out_dir, JobSample, Pass, Shape, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// Store key of the checkpoint every resume cycle loads.
const MID_KEY: &str = "mid";
/// Store key the measured jobs checkpoint under.
const JOB_KEY: &str = "job";
/// Store key of the full-fidelity resume check.
const VERIFY_KEY: &str = "verify";

/// Seed streams, so warm-up, measured and check jobs never collide.
const STREAM_JOBS: u64 = 1;
const STREAM_WARMUP: u64 = 2;
const STREAM_MID: u64 = 3;
const STREAM_VERIFY: u64 = 4;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub name: &'static str,
    pub backend: Backend,
    pub backend_name: &'static str,
    pub chunks: usize,
    pub sweeps: usize,
    pub workers: usize,
    pub checkpointed: bool,
    pub seed: u64,
}

/// A built model: the field and the labeling every job starts from.
pub struct Model<S: SingletonPotential> {
    pub mrf: MarkovRandomField<S>,
    pub initial: Vec<Label>,
}

struct CkptLive {
    store: CheckpointStore,
    dir: PathBuf,
    /// Final labels of the uninterrupted run every resume must match.
    mid_expected: Vec<Label>,
}

struct Live<S: SingletonPotential> {
    model: Model<S>,
    engine: Engine,
    ckpt: Option<CkptLive>,
}

pub struct EngineWorkload<S: SingletonPotential> {
    cfg: Config,
    build_model: Box<dyn Fn() -> Model<S>>,
    live: Option<Live<S>>,
    /// Labels the first measured job must produce.
    reference: Vec<Label>,
}

/// The chain's per-iteration sweep-seed derivation, shared with the
/// engine so the reference path draws identical streams.
fn sweep_seed(seed: u64, iteration: usize) -> u64 {
    seed.wrapping_add((iteration as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl<S> EngineWorkload<S>
where
    S: SingletonPotential + Clone + Send + Sync + 'static,
{
    pub fn new(cfg: Config, build_model: Box<dyn Fn() -> Model<S>>) -> Self {
        EngineWorkload {
            cfg,
            build_model,
            live: None,
            reference: Vec::new(),
        }
    }

    fn sampler(&self, mrf: &MarkovRandomField<S>) -> Result<BackendSampler, String> {
        BackendSampler::try_new(self.cfg.backend, mrf.temperature()).map_err(|e| e.to_string())
    }

    /// One job of this workload. `full_fidelity` turns on mode tracking
    /// and the energy trace (the resume check compares both); measured
    /// jobs run with them off.
    fn spec(
        &self,
        model: &Model<S>,
        seed: u64,
        full_fidelity: bool,
        checkpoint: Option<(CheckpointPolicy, Arc<dyn CheckpointWriter>)>,
    ) -> Result<JobSpec<S, BackendSampler>, String> {
        let mut builder = JobSpec::builder(model.mrf.clone(), self.sampler(&model.mrf)?)
            .iterations(self.cfg.sweeps)
            .threads(self.cfg.chunks)
            .seed(seed)
            .burn_in(if full_fidelity {
                self.cfg.sweeps / 4
            } else {
                0
            })
            .track_modes(full_fidelity)
            .record_energy(full_fidelity)
            .initial(model.initial.clone());
        if let Some((policy, writer)) = checkpoint {
            builder = builder.checkpoint(policy, writer);
        }
        builder.build().map_err(|e| e.to_string())
    }

    fn run_job(
        &self,
        live: &Live<S>,
        seed: u64,
        full_fidelity: bool,
        checkpoint: Option<(CheckpointPolicy, Arc<dyn CheckpointWriter>)>,
    ) -> Result<JobOutput, String> {
        let spec = self.spec(&live.model, seed, full_fidelity, checkpoint)?;
        live.engine
            .submit(spec)
            .map_err(|e| e.to_string())?
            .wait_result()
            .map_err(|e| e.to_string())
    }

    /// A finished job is well-formed when it ran its whole budget on a
    /// healthy backend and labelled every site.
    fn well_formed(&self, out: &JobOutput, sites: usize) -> Result<(), String> {
        if out.iterations_run != self.cfg.sweeps || out.cancelled || out.early_stopped {
            return Err(format!(
                "job stopped after {} of {} sweeps",
                out.iterations_run, self.cfg.sweeps
            ));
        }
        if out.degraded.is_some() {
            return Err("job completed degraded".to_string());
        }
        if out.labels.len() != sites {
            return Err(format!("{} labels for {sites} sites", out.labels.len()));
        }
        Ok(())
    }

    fn mid_sweep(&self) -> usize {
        (self.cfg.sweeps / 2).max(1)
    }
}

fn bits(trace: &[f64]) -> Vec<u64> {
    trace.iter().map(|e| e.to_bits()).collect()
}

impl<S> Workload for EngineWorkload<S>
where
    S: SingletonPotential + Clone + Send + Sync + 'static,
{
    fn shape(&self) -> Shape {
        let model = self.live.as_ref().map(|l| &l.model);
        Shape {
            sites: model.map_or(0, |m| m.mrf.grid().len()),
            labels: model.map_or(0, |m| m.mrf.space().count()),
            sweeps: self.cfg.sweeps,
            chunks: self.cfg.chunks,
            clients: 1,
            backend: self.cfg.backend_name,
        }
    }

    fn setup(&mut self) -> Result<(), String> {
        self.teardown();
        let model = (self.build_model)();
        let engine = Engine::new(EngineConfig {
            workers: self.cfg.workers,
            ..EngineConfig::default()
        });
        let ckpt = if self.cfg.checkpointed {
            let dir = out_dir().join(format!("ckpt-{}-{}", self.cfg.name, std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = CheckpointStore::open(&dir, 2).map_err(|e| e.to_string())?;
            Some(CkptLive {
                store,
                dir,
                mid_expected: Vec::new(),
            })
        } else {
            None
        };
        let live = Live {
            model,
            engine,
            ckpt,
        };
        let warm_ckpt = live.ckpt.as_ref().map(|c| {
            (
                CheckpointPolicy::every(1),
                c.store.writer(JOB_KEY, String::new()),
            )
        });
        let out = self.run_job(
            &live,
            job_seed(self.cfg.seed, STREAM_WARMUP, 0),
            false,
            warm_ckpt,
        )?;
        self.well_formed(&out, live.model.mrf.grid().len())?;
        self.live = Some(live);
        Ok(())
    }

    fn prepare_checks(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        let live = self.live.as_ref().ok_or("prepare_checks before setup")?;
        let mrf = &live.model.mrf;

        // The first measured job must match the one-shot sweep path
        // driven by the same sampler and the chain's seed formula.
        let sampler = self.sampler(mrf)?;
        let seed = job_seed(self.cfg.seed, STREAM_JOBS, 0);
        let mut labels = live.model.initial.clone();
        let mut scratch = SweepScratch::new();
        let started = Instant::now();
        for iteration in 0..self.cfg.sweeps {
            checkerboard_sweep_with_scratch(
                mrf,
                &mut labels,
                &sampler,
                mrf.temperature(),
                self.cfg.chunks,
                sweep_seed(seed, iteration),
                &mut scratch,
            );
        }
        let reference_rate =
            (mrf.grid().len() * self.cfg.sweeps) as f64 / started.elapsed().as_secs_f64();

        let mut mid_expected = Vec::new();
        if let Some(ckpt) = &live.ckpt {
            let cut = CheckpointPolicy::every(self.mid_sweep());
            // The checkpoint every measured resume cycle loads, and the
            // uninterrupted output each resumed run must reproduce.
            let mid_seed = job_seed(self.cfg.seed, STREAM_MID, 0);
            let writer = ckpt.store.writer(MID_KEY, String::new());
            mid_expected = self
                .run_job(live, mid_seed, false, Some((cut, writer)))?
                .labels;

            // Once, with mode tracking and the energy trace on: resumed
            // equals uninterrupted in labels, MAP and energy bits.
            let verify_seed = job_seed(self.cfg.seed, STREAM_VERIFY, 0);
            let writer = ckpt.store.writer(VERIFY_KEY, String::new());
            let whole = self.run_job(live, verify_seed, true, Some((cut, writer)))?;
            let (_, checkpoint) = ckpt
                .store
                .latest(VERIFY_KEY)
                .map_err(|e| e.to_string())?
                .ok_or("the check job wrote no checkpoint")?;
            let resumed = live
                .engine
                .resume(
                    self.spec(&live.model, verify_seed, true, None)?,
                    &checkpoint.state,
                )
                .map_err(|e| e.to_string())?
                .wait_result()
                .map_err(|e| e.to_string())?;
            if resumed.labels != whole.labels
                || resumed.map_estimate != whole.map_estimate
                || bits(&resumed.energy_trace) != bits(&whole.energy_trace)
                || resumed.iterations_run != whole.iterations_run
            {
                return Err(format!(
                    "resumed from sweep {} diverged from the uninterrupted run",
                    checkpoint.state.next_sweep
                ));
            }
        }
        self.reference = labels;
        if let Some(ckpt) = self.live.as_mut().and_then(|l| l.ckpt.as_mut()) {
            ckpt.mid_expected = mid_expected;
        }
        Ok(vec![("gibbs.reference_updates_per_s", reference_rate)])
    }

    fn measure(&mut self, window: Duration, tracer: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let Some(live) = self.live.as_ref() else {
            pass.attempted = 1;
            pass.fail("measure before setup".to_string());
            return pass;
        };
        let sites = live.model.mrf.grid().len();
        let before = live.engine.metrics();
        let mut resume_ms = Vec::new();
        let started = Instant::now();
        let mut i = 0u64;
        while started.elapsed() < window {
            let seed = job_seed(self.cfg.seed, STREAM_JOBS, i);
            let checkpoint = live.ckpt.as_ref().map(|c| {
                (
                    CheckpointPolicy::every(1),
                    c.store.writer(JOB_KEY, String::new()),
                )
            });
            pass.attempted += 1;
            let job_started = Instant::now();
            let outcome = tracer
                .span("engine.spec", || {
                    self.spec(&live.model, seed, false, checkpoint)
                })
                .and_then(|spec| {
                    tracer
                        .span("engine.submit", || live.engine.submit(spec))
                        .map_err(|e| e.to_string())
                })
                .and_then(|handle| {
                    tracer
                        .span("engine.wait", || handle.wait_result())
                        .map_err(|e| e.to_string())
                });
            let latency = job_started.elapsed();
            let checked = outcome.and_then(|out| {
                self.well_formed(&out, sites)?;
                if i == 0 && out.labels != self.reference {
                    return Err("first job diverged from checkerboard_sweep".to_string());
                }
                Ok(())
            });
            match checked {
                Ok(()) => pass.jobs.push(JobSample::finished_now(started, latency)),
                Err(why) => pass.fail(format!("job {i}: {why}")),
            }

            if let Some(ckpt) = &live.ckpt {
                pass.attempted += 1;
                let resume_started = Instant::now();
                let handle = tracer
                    .span("ckpt.latest", || ckpt.store.latest(MID_KEY))
                    .map_err(|e| e.to_string())
                    .and_then(|found| found.ok_or_else(|| "mid checkpoint is gone".to_string()))
                    .and_then(|(_, checkpoint)| {
                        let mid_seed = job_seed(self.cfg.seed, STREAM_MID, 0);
                        let spec = tracer.span("engine.spec", || {
                            self.spec(&live.model, mid_seed, false, None)
                        })?;
                        tracer
                            .span("engine.resume", || {
                                live.engine.resume(spec, &checkpoint.state)
                            })
                            .map_err(|e| e.to_string())
                    });
                let resumed_in = resume_started.elapsed();
                let checked = handle.and_then(|handle| {
                    let out = tracer
                        .span("engine.wait", || handle.wait_result())
                        .map_err(|e| e.to_string())?;
                    if out.labels != ckpt.mid_expected {
                        return Err("resumed run diverged from the uninterrupted one".to_string());
                    }
                    Ok(())
                });
                match checked {
                    Ok(()) => resume_ms.push(ms(resumed_in)),
                    Err(why) => pass.fail(format!("resume {i}: {why}")),
                }
            }
            i += 1;
        }
        pass.wall_s = started.elapsed().as_secs_f64();

        // `site_updates` must equal sites x sweeps x jobs exactly; a
        // resumed run adds the sweeps after its cut.
        let after = live.engine.metrics();
        let resumed_sweeps = self.cfg.sweeps - self.mid_sweep();
        let expected = sites as u64
            * (pass.jobs.len() * self.cfg.sweeps + resume_ms.len() * resumed_sweeps) as u64;
        let site_updates = after.site_updates - before.site_updates;
        if pass.failed == 0 && site_updates != expected {
            pass.attempted += 1;
            pass.fail(format!(
                "engine counted {site_updates} site updates, jobs account for {expected}"
            ));
        }
        pass.layer = engine_counts(&before, &after);
        if !resume_ms.is_empty() {
            pass.layer.push(("ckpt.resume_ms", median(&resume_ms)));
        }
        pass
    }

    fn probes(&mut self, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let Some(live) = self.live.as_ref() else {
            return Vec::new();
        };
        let mut out = model_probes(
            tracer,
            &live.model,
            &self.reference,
            self.cfg.chunks,
            || self.sampler(&live.model.mrf),
            || self.spec(&live.model, self.cfg.seed, false, None),
        );
        let build = &self.build_model;
        out.push((
            "vision.model_build_ms",
            median_ms(3, || {
                tracer.span("vision.model_build", build);
            }),
        ));
        if let Some(ckpt) = &live.ckpt {
            out.extend(ckpt_probes(tracer, &ckpt.store));
        }
        out
    }

    fn teardown(&mut self) {
        if let Some(live) = self.live.take() {
            live.engine.shutdown();
            if let Some(ckpt) = live.ckpt {
                let _ = std::fs::remove_dir_all(&ckpt.dir);
            }
        }
    }
}

/// What `Engine::metrics()` counted between two snapshots of one pass.
pub fn engine_counts(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) -> Vec<(&'static str, f64)> {
    vec![
        (
            "engine.site_updates",
            (after.site_updates - before.site_updates) as f64,
        ),
        (
            "engine.jobs_failed",
            (after.jobs_failed - before.jobs_failed) as f64,
        ),
        (
            "engine.phase_retries",
            (after.phase_retries - before.phase_retries) as f64,
        ),
        ("engine.queue_depth_hwm", after.queue_depth_hwm as f64),
        (
            "engine.checkpoints_written",
            (after.checkpoints_written - before.checkpoints_written) as f64,
        ),
    ]
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            ms(started.elapsed())
        })
        .collect();
    median(&samples)
}

/// How long a repeated probe may run.
const PROBE_BUDGET: Duration = Duration::from_millis(300);

/// The gibbs, engine and audit probes every workload with a field can
/// run: kernel draw on a pre-gathered buffer, the single-thread hot
/// loop, job preparation, and the schedule certificate.
pub fn model_probes<S>(
    tracer: &Tracer,
    model: &Model<S>,
    equilibrated: &[Label],
    chunks: usize,
    sampler: impl Fn() -> Result<BackendSampler, String>,
    spec: impl Fn() -> Result<JobSpec<S, BackendSampler>, String>,
) -> Vec<(&'static str, f64)>
where
    S: SingletonPotential + Clone + Send + Sync + 'static,
{
    let mrf = &model.mrf;
    let sites = mrf.grid().len();
    let m = mrf.space().count();
    let mut out = Vec::new();

    // Kernel draw: one chunk's worth of even-parity sites, energies
    // gathered once from an equilibrated labeling, then drawn repeatedly.
    let labels = if equilibrated.len() == sites {
        equilibrated
    } else {
        &model.initial
    };
    let chunk: Vec<usize> = mrf
        .grid()
        .sites_of_parity(Parity::Even)
        .take((sites / 2).div_ceil(chunks).max(1))
        .collect();
    let mut energies = vec![0.0; chunk.len() * m];
    for (row, &site) in energies.chunks_mut(m).zip(&chunk) {
        mrf.conditional_energies_into(labels, site, row);
    }
    let current: Vec<Label> = chunk.iter().map(|&site| labels[site]).collect();
    if let Ok(mut kernel) = sampler() {
        let mut drawn = vec![Label::new(0); chunk.len()];
        let mut scratch = KernelScratch::new();
        let mut rng = StdRng::seed_from_u64(0xD2A3);
        let started = Instant::now();
        let mut calls = 0u64;
        while started.elapsed() < PROBE_BUDGET {
            tracer.span("gibbs.sample_chunk", || {
                kernel.sample_chunk(
                    std::hint::black_box(&energies),
                    m,
                    mrf.temperature(),
                    &current,
                    &mut drawn,
                    &mut scratch,
                    &mut rng,
                );
            });
            std::hint::black_box(&drawn);
            calls += 1;
        }
        out.push((
            "gibbs.kernel_draw_ns_per_update",
            started.elapsed().as_secs_f64() * 1e9 / (calls * chunk.len() as u64) as f64,
        ));
    }

    // Job preparation, and the hot loop on one thread owning every
    // cell: gather + draw + publish with no scheduler.
    let mut prepare = Vec::new();
    let mut runner = None;
    for _ in 0..3 {
        let Ok(spec) = spec() else { break };
        let started = Instant::now();
        let built = tracer.span("engine.try_new", || ShardRunner::try_new(spec, &[(0, 0)]));
        prepare.push(ms(started.elapsed()));
        runner = built.ok();
    }
    if let Some(probe) = runner {
        out.push(("engine.prepare_ms", median(&prepare)));
        let cells: Vec<(usize, usize)> = (0..probe.group_count())
            .flat_map(|g| (0..probe.chunks_in_group(g)).map(move |c| (g, c)))
            .collect();
        if let Some(mut whole) = spec()
            .ok()
            .and_then(|spec| ShardRunner::try_new(spec, &cells).ok())
        {
            let started = Instant::now();
            let mut sweeps = 0usize;
            while started.elapsed() < PROBE_BUDGET {
                for group in 0..whole.group_count() {
                    tracer.span("engine.run_phase", || whole.run_phase(sweeps, group));
                }
                sweeps += 1;
            }
            out.push((
                "engine.hot_loop_ns_per_update",
                started.elapsed().as_secs_f64() * 1e9 / (sweeps * sites) as f64,
            ));
        }
    }

    let topology = Topology::from_grid(*mrf.grid(), Neighborhood::FirstOrder);
    out.push((
        "audit.certificate_us",
        1e3 * median_ms(3, || {
            tracer.span("audit.certificate", || {
                let certificate = color_schedule(&topology, chunks);
                std::hint::black_box(verify_certificate(&topology, &certificate));
            });
        }),
    ));
    out
}

/// `mogs-ckpt` in isolation, on the checkpoint the resume cycles load.
fn ckpt_probes(tracer: &Tracer, store: &CheckpointStore) -> Vec<(&'static str, f64)> {
    let Ok(Some((_, checkpoint))) = store.latest(MID_KEY) else {
        return Vec::new();
    };
    let probe = Checkpoint {
        meta: checkpoint.meta.clone(),
        state: checkpoint.state.clone(),
    };
    let bytes = encode(&probe).len();
    vec![
        ("ckpt.bytes_per_checkpoint", bytes as f64),
        (
            "ckpt.encode_us",
            1e3 * median_ms(20, || {
                tracer.span("ckpt.encode", || std::hint::black_box(encode(&probe)));
            }),
        ),
        (
            "ckpt.save_us",
            1e3 * median_ms(20, || {
                let _ = tracer.span("ckpt.save", || store.save("probe", &probe));
            }),
        ),
        (
            "ckpt.load_decode_us",
            1e3 * median_ms(20, || {
                let _ = tracer.span("ckpt.latest", || store.latest("probe"));
            }),
        ),
    ]
}
