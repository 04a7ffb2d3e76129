//! Dropping an engine joins every thread it started — the workers and
//! the scheduler — also after a checkpointing job, so the process's
//! thread count returns to where it was before the engine was built. The
//! test is alone in its binary: other tests' threads would move the
//! count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mogs_engine::prelude::*;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};

/// A deterministic potential.
#[derive(Debug, Clone)]
struct Stripes;

impl SingletonPotential for Stripes {
    fn energy(&self, site: usize, label: Label) -> f64 {
        ((site * 7 + usize::from(label.value()) * 3) % 11) as f64 * 0.17
    }
}

/// Takes 2 ms over each state and keeps none.
struct Discard;

impl CheckpointWriter for Discard {
    fn write(&self, _state: &JobState) -> Result<(), String> {
        std::thread::sleep(Duration::from_millis(2));
        Ok(())
    }
}

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn dropping_an_engine_joins_its_threads() {
    let before = threads();
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let mrf = MarkovRandomField::builder(Grid2D::new(12, 9), LabelSpace::scalar(4))
        .prior(SmoothnessPrior::potts(0.8))
        .singleton(Stripes)
        .build();
    let sampler =
        BackendSampler::try_new(Backend::Softmax, mrf.temperature()).expect("softmax backend");
    let spec = InferenceJob::new(mrf, sampler)
        .iterations(6)
        .checkpoint(CheckpointPolicy::every(1), Arc::new(Discard))
        .build()
        .expect("valid spec");
    engine
        .submit(spec)
        .expect("admitted")
        .wait_result()
        .expect("job completes");
    assert_eq!(engine.metrics().checkpoints_written, 5);
    // Two workers and the scheduler.
    assert_eq!(
        threads(),
        before + 3,
        "the engine runs on threads of its own"
    );
    drop(engine);
    // A joined thread has exited; the kernel drops its task entry at
    // once or very shortly after.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), before, "the engine left a thread behind");
}
