//! The checkpoint head's nesting bound, against a real decode.
//!
//! The claims under test:
//!
//! - a sealed payload whose head nests 100,000 arrays under an unknown
//!   key decodes to a typed `CkptError::State`, on a thread with a
//!   256 KiB stack, instead of overflowing it (`CheckpointStore::scan`
//!   decodes every file it finds, and serve's startup recovery scans);
//! - the parser's nesting bound sits well above the deepest head this
//!   crate writes, so no valid checkpoint comes near it.

use mogs_ckpt::{decode, encode, seal, Checkpoint, CkptError};
use mogs_engine::prelude::UnitFault;
use mogs_engine::{Degraded, FaultState, JobState, StateBinding};
use mogs_mrf::Label;

/// The deepest nesting of objects and arrays in `json`, strings skipped.
fn nesting(json: &str) -> usize {
    let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
    for c in json.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            '}' | ']' => depth -= 1,
            _ => {}
        }
    }
    deepest
}

/// A state with every optional head field present.
fn populated_state() -> JobState {
    JobState {
        binding: StateBinding {
            sites: 4,
            width: 2,
            height: 2,
            labels: 3,
            iterations: 8,
            burn_in: 2,
            threads: 2,
            seed: u64::MAX,
            kernel: "rsu-pool".to_string(),
            track_modes: true,
            record_energy: true,
            fingerprint: 7,
        },
        next_sweep: 3,
        labels: vec![0, 1, 2, 1],
        energy_trace: vec![1.5, -2.0, 0.25],
        histograms: Some(vec![1; 12]),
        kernel_faults: vec![
            None,
            Some(UnitFault::Dead),
            Some(UnitFault::Stuck(Label::new(2))),
            Some(UnitFault::DarkCount { rate_per_ns: 0.5 }),
        ],
        fault: Some(FaultState {
            cursor: 2,
            quarantined: vec![false, true, false, false],
            degraded: Some(Degraded {
                failed_over_at: 2,
                units_lost: 1,
            }),
            poisoned: false,
        }),
        sink_state: Some("v=1;ring=3ff0000000000000".to_string()),
    }
}

#[test]
fn a_head_nested_100000_deep_is_a_typed_state_error() {
    let mut payload = b"{\"x\":".to_vec();
    payload.extend(std::iter::repeat_n(b'[', 100_000));
    payload.extend(std::iter::repeat_n(b']', 100_000));
    payload.extend_from_slice(b"}\n");
    let file = seal(&payload);
    let outcome = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || decode(&file))
        .expect("spawn the decoding thread")
        .join()
        .expect("the decode returns instead of overflowing its stack");
    let Err(CkptError::State { reason }) = outcome else {
        panic!("expected a typed State error, got {outcome:?}");
    };
    assert!(reason.contains("nested deeper than"), "{reason}");
}

#[test]
fn the_nesting_bound_sits_well_above_the_deepest_head_written() {
    let file = encode(&Checkpoint {
        meta: "{\"nested\":[[\"meta is a string, not a level\"]]}".to_string(),
        state: populated_state(),
    });
    let header = file.iter().position(|&b| b == b'\n').expect("header line") + 1;
    let head_len = file[header..]
        .iter()
        .position(|&b| b == b'\n')
        .expect("head line");
    let head = std::str::from_utf8(&file[header..header + head_len]).expect("UTF-8 head");
    let deepest = nesting(head);
    assert_eq!(deepest, 3, "{head}");
    assert!(
        8 * deepest <= serde::de::MAX_DEPTH,
        "a head {deepest} levels deep is within 8x of the bound"
    );
    decode(&file).expect("the populated checkpoint decodes");
}
