//! Shared demo job for the crate's crash-recovery tests.
//!
//! The crashee binary (`src/bin/crashee.rs`) and the in-process side of
//! the kill/restore integration test (`tests/crash_recovery.rs`) both
//! need to build *exactly the same* job — bit-identity across processes
//! only means something when the spec is provably shared. This module is
//! that single definition: a deterministic Potts field with a synthetic
//! singleton term, sized so a run takes a few dozen sweeps on either
//! backend, plus a [`SlowSink`] that stretches sweeps out far enough for
//! a parent process to SIGKILL the job mid-flight.
//!
//! Hidden from docs: this is test scaffolding with a stable API, not
//! part of the crate's contract.

use std::sync::Arc;
use std::time::Duration;

use mogs_engine::prelude::*;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};

/// Grid width of the demo field.
pub const DEMO_WIDTH: usize = 12;
/// Grid height of the demo field.
pub const DEMO_HEIGHT: usize = 9;
/// Labels in the demo label space.
pub const DEMO_LABELS: u16 = 5;
/// Sweep budget.
pub const DEMO_SWEEPS: usize = 36;
/// Deterministic chunk count.
pub const DEMO_THREADS: usize = 3;
/// Burn-in prefix before mode tracking.
pub const DEMO_BURN_IN: usize = 6;
/// Base RNG seed.
pub const DEMO_SEED: u64 = 0x5EED_0C0A;
/// RSU pool replica count.
pub const DEMO_REPLICAS: usize = 4;
/// Energy bound handed to the RSU backend's intensity coding.
pub const DEMO_MAX_ENERGY: f64 = 8.0;
/// The store key the crashee files its checkpoints under.
pub const DEMO_KEY: &str = "crash-demo";

/// Maps a CLI argument to a backend: `"softmax"` or `"rsu"`.
///
/// # Panics
///
/// Panics on any other name — the harness is test scaffolding and wants
/// loud failures.
#[must_use]
pub fn backend_from_arg(name: &str) -> Backend {
    match name {
        "softmax" => Backend::Softmax,
        "rsu" => Backend::RsuG {
            replicas: DEMO_REPLICAS,
        },
        other => panic!("unknown backend {other:?}; expected 'softmax' or 'rsu'"),
    }
}

/// The deterministic fault schedule the `fault` variants run under:
/// three distinct fault kinds landing well inside the sweep budget, so
/// checkpoints are cut both before and after injections.
#[must_use]
pub fn demo_fault_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            sweep: 3,
            unit: 0,
            fault: UnitFault::Stuck(Label::new(1)),
        },
        FaultEvent {
            sweep: 5,
            unit: 2,
            fault: UnitFault::Dead,
        },
        FaultEvent {
            sweep: 9,
            unit: 1,
            fault: UnitFault::DarkCount { rate_per_ns: 0.35 },
        },
    ])
}

/// The demo field at any size: a Potts prior over a synthetic
/// singleton term. The harness runs it at the `DEMO_*` size; the fleet's
/// `Demo` workload at the size its spec names.
pub fn demo_field(
    width: usize,
    height: usize,
    labels: u16,
) -> MarkovRandomField<impl SingletonPotential> {
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(labels))
        .prior(SmoothnessPrior::potts(0.6))
        .singleton(|site: usize, label: Label| {
            // Synthetic "data" term: a fixed pseudo-random preference per
            // (site, label), identical in every process that builds it.
            let mix = site
                .wrapping_mul(7)
                .wrapping_add(usize::from(label.value()).wrapping_mul(13));
            (mix % 11) as f64 * 0.17
        })
        .build()
}

/// Builds the demo job spec. `checkpoint` attaches a capture policy and
/// writer; `sweep_delay` attaches a [`SlowSink`] so a parent process has
/// time to kill the job between sweeps. Neither option changes the
/// sampled results — that is the point.
///
/// # Panics
///
/// Panics if the demo constants in this module stop describing a valid
/// spec — a bug in the harness, never a caller error.
#[must_use]
pub fn demo_spec(
    backend: Backend,
    faulted: bool,
    checkpoint: Option<(CheckpointPolicy, Arc<dyn CheckpointWriter>)>,
    sweep_delay: Option<Duration>,
) -> InferenceJob<impl SingletonPotential, BackendSampler> {
    let kernel = BackendSampler::try_new(backend, DEMO_MAX_ENERGY).expect("demo backend is valid");
    let mut builder = InferenceJob::new(demo_field(DEMO_WIDTH, DEMO_HEIGHT, DEMO_LABELS), kernel)
        .iterations(DEMO_SWEEPS)
        .threads(DEMO_THREADS)
        .seed(DEMO_SEED)
        .burn_in(DEMO_BURN_IN)
        .track_modes(true)
        .record_energy(true);
    if faulted {
        builder = builder.fault_plan(demo_fault_plan());
    }
    if let Some((policy, writer)) = checkpoint {
        builder = builder.checkpoint(policy, writer);
    }
    if let Some(delay) = sweep_delay {
        builder = builder.sink(Arc::new(SlowSink { delay }));
    }
    builder.build().expect("demo spec is well-formed")
}

/// A sink that sleeps through every sweep boundary. Results are
/// unaffected (the sink observes, never samples); wall-clock stretches
/// so the crash test can land a SIGKILL mid-job.
pub struct SlowSink {
    /// Sleep inserted at each sweep boundary.
    pub delay: Duration,
}

impl DiagSink for SlowSink {
    fn on_sweep(&self, _observation: &SweepObservation<'_>) -> SweepDecision {
        std::thread::sleep(self.delay);
        SweepDecision::Continue
    }
}

fn demo_engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 4,
        max_active_jobs: 2,
        ..EngineConfig::default()
    })
}

/// Runs one spec on a fresh two-worker engine to completion.
///
/// # Panics
///
/// Panics if the job fails to admit or errors mid-run.
pub fn run_one<S, L>(spec: InferenceJob<S, L>) -> JobOutput
where
    S: mogs_mrf::energy::SingletonPotential + 'static,
    L: SweepKernel + Clone + Send + Sync + 'static,
{
    let engine = demo_engine();
    let output = engine.submit(spec).expect("demo job admits").wait();
    engine.shutdown();
    output
}

/// Seats `state` under `spec` on a fresh engine and runs the remainder.
///
/// # Panics
///
/// Panics if the resume is rejected or the job errors mid-run.
pub fn resume_one<S, L>(spec: InferenceJob<S, L>, state: &JobState) -> JobOutput
where
    S: mogs_mrf::energy::SingletonPotential + 'static,
    L: SweepKernel + Clone + Send + Sync + 'static,
{
    let engine = demo_engine();
    let output = engine
        .resume(spec, state)
        .expect("checkpoint seats under its own spec")
        .wait();
    engine.shutdown();
    output
}
