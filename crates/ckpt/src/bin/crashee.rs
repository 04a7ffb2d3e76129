//! Crash-test subject: runs the shared demo job with per-sweep
//! checkpoints and deliberately slow sweeps, expecting to be SIGKILLed
//! by the parent test somewhere mid-flight.
//!
//! Usage: `ckpt-crashee <checkpoint-dir> <softmax|rsu> <fault|nofault>
//! [sweep-delay-µs]` (the delay defaults to 150 ms).
//!
//! The process prints nothing and exits 0 if (against the test's plan)
//! it survives to completion — the parent only cares about the
//! checkpoint files left behind.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

use std::time::Duration;

use mogs_ckpt::harness::{backend_from_arg, demo_spec, run_one, DEMO_KEY};
use mogs_ckpt::CheckpointStore;
use mogs_engine::CheckpointPolicy;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    assert!(
        matches!(args.len(), 4 | 5),
        "usage: ckpt-crashee <checkpoint-dir> <softmax|rsu> <fault|nofault> [sweep-delay-us]"
    );
    let sweep_delay = args.get(4).map_or(Duration::from_millis(150), |us| {
        Duration::from_micros(us.parse().expect("sweep delay in microseconds"))
    });
    let store = CheckpointStore::open(&args[1], 4).expect("checkpoint dir opens");
    let faulted = match args[3].as_str() {
        "fault" => true,
        "nofault" => false,
        other => panic!("unknown fault mode {other:?}"),
    };
    let writer = store.writer(DEMO_KEY, format!("crashee:{}:{}", args[2], args[3]));
    let spec = demo_spec(
        backend_from_arg(&args[2]),
        faulted,
        Some((CheckpointPolicy::every(1), writer)),
        Some(sweep_delay),
    );
    let _ = run_one(spec);
}
