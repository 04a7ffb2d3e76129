//! Shared admission: jobs on one grid shape reuse one verified schedule
//! and one set of neighbour tables, and clones of one field reuse its
//! singleton table, without moving a bit of any job's output.
//!
//! The admission cache is process-wide, so every test holds `SERIAL`
//! and admits grid shapes no other test in this file uses: the hit
//! counts a test reads cannot be moved by another test's admissions.

use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

use mogs_audit::{color_schedule, Violation};
use mogs_engine::prelude::*;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{
    Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior, Topology,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const LABELS: u16 = 5;

/// A deterministic potential with a short `Debug` form.
#[derive(Debug, Clone)]
struct Stripes;

impl SingletonPotential for Stripes {
    fn energy(&self, site: usize, label: Label) -> f64 {
        ((site * 7 + usize::from(label.value()) * 3) % 11) as f64 * 0.17
    }
}

fn field(width: usize, height: usize, order: Neighborhood) -> MarkovRandomField<Stripes> {
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(LABELS))
        .prior(SmoothnessPrior::potts(0.8))
        .neighborhood(order)
        .temperature(1.5)
        .singleton(Stripes)
        .build()
}

fn builder(mrf: MarkovRandomField<Stripes>, seed: u64) -> InferenceJob<Stripes, BackendSampler> {
    let sampler =
        BackendSampler::try_new(Backend::Softmax, mrf.temperature()).expect("softmax backend");
    InferenceJob::new(mrf, sampler)
        .threads(3)
        .seed(seed)
        .iterations(6)
        .record_energy(true)
}

fn spec(mrf: MarkovRandomField<Stripes>, seed: u64) -> InferenceJob<Stripes, BackendSampler> {
    builder(mrf, seed).build().expect("valid spec")
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    })
}

fn run(engine: &Engine, spec: InferenceJob<Stripes, BackendSampler>) -> JobOutput {
    engine
        .submit(spec)
        .expect("admitted")
        .wait_result()
        .expect("job completes")
}

fn shared(engine: &Engine) -> u64 {
    engine.metrics().admissions_shared
}

/// What admission must not move: the labels and the energy trace bits.
fn bits(out: &JobOutput) -> (Vec<Label>, Vec<u64>) {
    let trace = out.energy_trace.iter().map(|e| e.to_bits()).collect();
    (out.labels.clone(), trace)
}

#[test]
fn a_cache_hit_is_a_cold_admission_bit_for_bit() {
    let _serial = serial();
    for (order, width, height) in [
        (Neighborhood::FirstOrder, 23, 17),
        (Neighborhood::SecondOrder, 19, 13),
    ] {
        let topology = Topology::from_grid(Grid2D::new(width, height), order);
        let cold = color_schedule(&topology, 3);
        let first =
            ShardRunner::try_new(spec(field(width, height, order), 1), &[]).expect("admits");
        let hit = ShardRunner::try_new(spec(field(width, height, order), 2), &[]).expect("admits");
        assert!(
            std::ptr::eq(first.certificate(), hit.certificate()),
            "{order:?}: a shape's second admission must be the cached one"
        );
        assert_eq!(hit.certificate(), &cold, "{order:?}");
        assert_eq!(hit.certificate().classes(), cold.classes(), "{order:?}");
        assert_eq!(hit.topology(), &topology, "{order:?}");

        // One job through the cache, and again through a `groups`
        // override, which is never cached: the same bits.
        let engine = engine();
        let cached = run(&engine, spec(field(width, height, order), 7));
        assert_eq!(shared(&engine), 1, "{order:?}");
        let overridden = builder(field(width, height, order), 7)
            .groups(cold.classes().to_vec())
            .build()
            .expect("valid spec");
        let uncached = run(&engine, overridden);
        assert_eq!(shared(&engine), 1, "{order:?}: an override is never a hit");
        engine.shutdown();
        assert_eq!(bits(&cached), bits(&uncached), "{order:?}");
    }
}

#[test]
fn clones_of_one_field_share_one_singleton_table() {
    let _serial = serial();
    let original = field(16, 12, Neighborhood::FirstOrder);
    let clone = original.clone();
    // Filled through the clone, read through the original: one table.
    let table = clone
        .singleton_table()
        .expect("16×12×5 entries fit the cap");
    let again = original.singleton_table().expect("fits");
    assert!(
        std::ptr::eq(table, again),
        "a clone must share its field's table"
    );
    let separate = field(16, 12, Neighborhood::FirstOrder);
    let other = separate.singleton_table().expect("fits");
    assert!(
        !std::ptr::eq(table, other),
        "separately built fields must not share a table"
    );
    for (site, row) in table.chunks_exact(usize::from(LABELS)).enumerate() {
        for (label, &energy) in original.space().labels().zip(row) {
            assert_eq!(energy.to_bits(), Stripes.energy(site, label).to_bits());
        }
    }
    let debug = format!("{original:?}");
    assert!(debug.len() < 400, "Debug must not print the table: {debug}");

    // A job on a clone reads the shared table; a job on a field with a
    // table of its own runs the same bits.
    let engine = engine();
    let on_clone = run(&engine, spec(original.clone(), 4));
    let on_separate = run(&engine, spec(separate, 4));
    engine.shutdown();
    assert_eq!(bits(&on_clone), bits(&on_separate));
}

#[test]
fn an_override_is_still_coloured_and_verified_after_its_shape_is_cached() {
    let _serial = serial();
    let order = Neighborhood::FirstOrder;
    let engine = engine();
    let first = run(&engine, spec(field(14, 9, order), 3));
    let valid = builder(field(14, 9, order), 3)
        .groups(field(14, 9, order).independent_groups())
        .build()
        .expect("valid spec");
    let overridden = run(&engine, valid);
    assert_eq!(shared(&engine), 0, "an override takes the full path");

    // Site 1 moved into site 0's phase: horizontal neighbours share it.
    let mut corrupted = field(14, 9, order).independent_groups();
    let from = corrupted
        .iter()
        .position(|g| g.contains(&1))
        .expect("site 1 is scheduled");
    corrupted[from].retain(|&s| s != 1);
    let to = corrupted
        .iter()
        .position(|g| g.contains(&0))
        .expect("site 0 is scheduled");
    corrupted[to].push(1);
    let bad = builder(field(14, 9, order), 3)
        .groups(corrupted)
        .build()
        .expect("spec validation does not audit the schedule");
    let err = engine
        .submit(bad)
        .expect_err("a corrupted override must be rejected");
    let EngineError::Schedule(err) = err else {
        panic!("wrong rejection: {err}");
    };
    assert!(
        err.report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NeighborsSharePhase { .. })),
        "{:?}",
        err.report
    );

    // The rejection neither used nor disturbed the cached entry.
    let after = run(&engine, spec(field(14, 9, order), 3));
    assert_eq!(shared(&engine), 1);
    engine.shutdown();
    assert_eq!(bits(&first), bits(&overridden));
    assert_eq!(bits(&first), bits(&after));
}

/// Keeps every captured state in memory.
#[derive(Default)]
struct Captured(Mutex<Vec<JobState>>);

impl CheckpointWriter for Captured {
    fn write(&self, state: &JobState) -> Result<(), String> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(state.clone());
        Ok(())
    }
}

#[test]
fn a_resume_that_hits_the_cache_is_bit_identical_to_the_uninterrupted_run() {
    let _serial = serial();
    let full = || {
        builder(field(15, 11, Neighborhood::SecondOrder), 11)
            .iterations(8)
            .burn_in(2)
            .track_modes(true)
    };
    let engine = engine();
    let captured = Arc::new(Captured::default());
    let writer: Arc<dyn CheckpointWriter> = captured.clone();
    let checkpointed = full()
        .checkpoint(CheckpointPolicy::every(4), writer)
        .build()
        .expect("valid spec");
    let whole = run(&engine, checkpointed);
    let state = captured
        .0
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .first()
        .cloned()
        .expect("a checkpoint at sweep 4");
    assert_eq!(state.next_sweep, 4);
    assert_eq!(shared(&engine), 0);
    let resumed = engine
        .resume(full().build().expect("valid spec"), &state)
        .expect("the state belongs to the spec")
        .wait_result()
        .expect("the resumed job completes");
    assert_eq!(shared(&engine), 1, "the resume must hit the cached entry");
    engine.shutdown();
    assert_eq!(bits(&resumed), bits(&whole));
    assert_eq!(resumed.map_estimate, whole.map_estimate);
}

#[test]
fn four_concurrent_submitters_on_one_new_shape_agree() {
    let _serial = serial();
    let engine = engine();
    let start = Barrier::new(4);
    let outputs: Vec<_> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    bits(&run(
                        &engine,
                        spec(field(21, 18, Neighborhood::FirstOrder), 5),
                    ))
                })
            })
            .collect();
        submitters
            .into_iter()
            .map(|s| s.join().expect("submitter thread"))
            .collect()
    });
    engine.shutdown();
    assert!(
        outputs.windows(2).all(|pair| pair[0] == pair[1]),
        "concurrent admissions of one shape must run the same bits"
    );
}

/// Holds its job at the first sweep boundary until the test releases it.
struct Gate {
    reached: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl DiagSink for Gate {
    fn on_sweep(&self, observation: &SweepObservation<'_>) -> SweepDecision {
        if observation.iteration == 0 {
            let reached = self.reached.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = reached.send(());
            let release = self.release.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = release.recv();
        }
        SweepDecision::Continue
    }
}

#[test]
fn eviction_never_invalidates_a_running_job() {
    let _serial = serial();
    let order = Neighborhood::SecondOrder;
    let engine = engine();
    let (reached_tx, reached) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let gate = Gate {
        reached: Mutex::new(reached_tx),
        release: Mutex::new(release_rx),
    };
    let gated = builder(field(24, 20, order), 9)
        .sink(Arc::new(gate))
        .build()
        .expect("valid spec");
    let handle = engine.submit(gated).expect("admitted");
    reached
        .recv()
        .expect("the job reaches its first sweep boundary");
    // More new shapes than any small cache holds, admitted while the job
    // is mid-run: its own shape is evicted under it.
    for width in 30..46 {
        ShardRunner::try_new(spec(field(width, 4, order), 1), &[]).expect("admits");
    }
    release.send(()).expect("the job waits at its gate");
    let running = handle.wait_result().expect("the running job completes");
    let evicted = run(&engine, spec(field(24, 20, order), 9));
    assert_eq!(shared(&engine), 0, "the evicted shape is admitted afresh");
    engine.shutdown();
    assert_eq!(bits(&running), bits(&evicted));
}
