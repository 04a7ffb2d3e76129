//! The headline gate: kill a checkpointing job with SIGKILL mid-flight,
//! restore from whatever survived on disk, and prove the resumed run is
//! **bit-identical** to one that was never interrupted — on both
//! backends, including under an active fault plan.
//!
//! The victim runs in a separate process (`src/bin/crashee.rs`, built by
//! cargo for this test via `CARGO_BIN_EXE_*`), so the kill is a real
//! process death — no `Drop` handlers, no flushing, exactly the failure
//! a power cut or OOM kill produces. Both processes build the job from
//! the shared `mogs_ckpt::harness` definition, so "same spec" is by
//! construction.
//!
//! A kill can land with a write in flight: before its file is complete,
//! between the write and the rename, or during the pruning after it. The
//! many-instants test kills a fast-sweeping job across its whole run to
//! land there, and the newest renamed file must resume bit for bit every
//! time.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mogs_ckpt::harness::{backend_from_arg, demo_spec, resume_one, run_one, DEMO_KEY, DEMO_SWEEPS};
use mogs_ckpt::CheckpointStore;
use mogs_engine::{CheckpointPolicy, Engine, EngineConfig, JobOutput};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mogs-ckpt-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bit-exact output comparison: labels, marginal MAP, energy trace (as
/// raw IEEE-754 bits — `==` on floats would excuse a lucky rounding),
/// and the bookkeeping flags.
fn assert_bit_identical(resumed: &JobOutput, reference: &JobOutput) {
    assert_eq!(resumed.labels, reference.labels, "final labeling differs");
    assert_eq!(
        resumed.map_estimate, reference.map_estimate,
        "marginal MAP estimate differs"
    );
    let resumed_bits: Vec<u64> = resumed.energy_trace.iter().map(|e| e.to_bits()).collect();
    let reference_bits: Vec<u64> = reference.energy_trace.iter().map(|e| e.to_bits()).collect();
    assert_eq!(resumed_bits, reference_bits, "energy trace differs");
    assert_eq!(resumed.iterations_run, reference.iterations_run);
    assert_eq!(
        resumed.degraded, reference.degraded,
        "failover record differs"
    );
    assert!(!resumed.cancelled && !resumed.early_stopped);
}

fn crash_then_resume(backend_arg: &str, fault_arg: &str) {
    let dir = temp_dir(&format!("{backend_arg}-{fault_arg}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ckpt-crashee"))
        .arg(&dir)
        .arg(backend_arg)
        .arg(fault_arg)
        .spawn()
        .expect("crashee spawns");

    // Wait until at least two sweeps are durably checkpointed, so the
    // kill lands mid-job with real history behind it (and, in the fault
    // variants, after the first injection at sweep 3 once cursor >= 4).
    let store = CheckpointStore::open(&dir, 4).expect("store opens");
    let want_cursor = if fault_arg == "fault" { 4 } else { 2 };
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let cursor = store
            .latest(DEMO_KEY)
            .ok()
            .flatten()
            .map_or(0, |(_, c)| c.state.next_sweep);
        if cursor >= want_cursor {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("crashee exited before it could be killed: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint with cursor >= {want_cursor} within the deadline"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL lands");
    let _ = child.wait();

    // Recover from disk exactly as a restarted service would: scan, take
    // the newest loadable checkpoint.
    let report = store.scan().expect("scan after crash");
    assert!(
        report.rejected.is_empty(),
        "rename-based writes must never leave a torn checkpoint: {:?}",
        report.rejected
    );
    let entry = report
        .resumable
        .iter()
        .find(|e| e.key == DEMO_KEY)
        .expect("the killed job left a resumable checkpoint");
    let state = &entry.checkpoint.state;
    assert!(
        state.next_sweep >= want_cursor && state.next_sweep < DEMO_SWEEPS,
        "cursor {} out of the interrupted range",
        state.next_sweep
    );
    assert_eq!(
        entry.checkpoint.meta,
        format!("crashee:{backend_arg}:{fault_arg}"),
        "caller meta survives verbatim"
    );

    let faulted = fault_arg == "fault";
    let resumed = resume_one(
        demo_spec(backend_from_arg(backend_arg), faulted, None, None),
        state,
    );
    let reference = run_one(demo_spec(
        backend_from_arg(backend_arg),
        faulted,
        None,
        None,
    ));
    assert_bit_identical(&resumed, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn softmax_killed_mid_job_resumes_bit_identically() {
    crash_then_resume("softmax", "nofault");
}

#[test]
fn softmax_under_fault_plan_killed_mid_job_resumes_bit_identically() {
    crash_then_resume("softmax", "fault");
}

#[test]
fn rsu_pool_killed_mid_job_resumes_bit_identically() {
    crash_then_resume("rsu", "nofault");
}

#[test]
fn rsu_pool_under_fault_plan_killed_mid_job_resumes_bit_identically() {
    crash_then_resume("rsu", "fault");
}

/// SIGKILLs an every-sweep job at `kills` instants spread across its
/// run, each in a fresh process and directory. Sweeps take ~300 µs and
/// every boundary writes, so some kills land with a write in flight: a
/// `.tmp` not yet renamed, or a renamed file whose older siblings are
/// not yet pruned. Whatever each kill leaves must scan clean and, when
/// a checkpoint survived, resume bit for bit.
#[test]
fn killed_at_many_instants_of_an_every_sweep_job_resumes_bit_identically() {
    let kills = 16;
    let reference = run_one(demo_spec(backend_from_arg("softmax"), false, None, None));
    let mut resumed_mid_job = 0;
    for kill in 0..kills {
        let dir = temp_dir(&format!("instant-{kill}"));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ckpt-crashee"))
            .arg(&dir)
            .args(["softmax", "nofault", "300"])
            .spawn()
            .expect("crashee spawns");
        // Start the clock at the first file of the job (a temp file or a
        // renamed checkpoint), then kill `kill` × 0.7 ms later.
        let deadline = Instant::now() + Duration::from_secs(60);
        while std::fs::read_dir(&dir).map_or(0, Iterator::count) == 0 {
            assert!(Instant::now() < deadline, "the crashee wrote nothing");
            if child.try_wait().ok().flatten().is_some() {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        std::thread::sleep(Duration::from_micros(700 * kill));
        let _ = child.kill();
        let _ = child.wait();

        let store = CheckpointStore::open(&dir, 4).expect("store opens");
        let report = store.scan().expect("scan after the kill");
        assert!(
            report.rejected.is_empty(),
            "kill {kill} left a torn checkpoint: {:?}",
            report.rejected
        );
        if let Some(entry) = report.resumable.iter().find(|e| e.key == DEMO_KEY) {
            let state = &entry.checkpoint.state;
            assert!(state.next_sweep >= 1 && state.next_sweep < DEMO_SWEEPS);
            let resumed = resume_one(
                demo_spec(backend_from_arg("softmax"), false, None, None),
                state,
            );
            assert_bit_identical(&resumed, &reference);
            resumed_mid_job += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        resumed_mid_job >= kills / 2,
        "only {resumed_mid_job} of {kills} kills left a checkpoint to resume"
    );
}

/// The moment a job's output is published, its last checkpoint is on
/// disk: `latest` reads cursor `iterations - 1`, for every one of
/// several jobs checkpointing every sweep side by side on one engine.
#[test]
fn the_newest_checkpoint_is_on_disk_when_the_output_is() {
    let dir = temp_dir("landed");
    let store = CheckpointStore::open(&dir, 2).expect("store opens");
    let engine = Engine::new(EngineConfig {
        workers: 2,
        max_active_jobs: 3,
        ..EngineConfig::default()
    });
    for round in 0..4 {
        let handles: Vec<_> = (0..3)
            .map(|job| {
                let writer = store.writer(&format!("landed-{job}"), format!("round {round}"));
                let spec = demo_spec(
                    backend_from_arg("softmax"),
                    false,
                    Some((CheckpointPolicy::every(1), writer)),
                    None,
                );
                engine.submit(spec).expect("admitted")
            })
            .collect();
        for (job, handle) in handles.into_iter().enumerate() {
            handle.wait_result().expect("job completes");
            let (_, newest) = store
                .latest(&format!("landed-{job}"))
                .expect("listable")
                .expect("the job checkpointed");
            assert_eq!(newest.state.next_sweep, DEMO_SWEEPS - 1);
            assert_eq!(newest.meta, format!("round {round}"));
        }
    }
    assert_eq!(
        engine.metrics().checkpoints_written,
        4 * 3 * (DEMO_SWEEPS as u64 - 1)
    );
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
