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

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mogs_ckpt::harness::{backend_from_arg, demo_spec, resume_one, run_one, DEMO_KEY, DEMO_SWEEPS};
use mogs_ckpt::CheckpointStore;
use mogs_engine::JobOutput;

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
