//! The checkpoint head's two bounds — its length cap and the parser's
//! nesting bound — against a real decode.
//!
//! The claims under test:
//!
//! - a sealed payload whose head nests 100,000 arrays under an unknown
//!   key decodes to a typed `CkptError::State`, on a thread with a
//!   256 KiB stack, refused by the head cap before it is parsed
//!   (`CheckpointStore::scan` decodes every file it finds, and serve's
//!   startup recovery scans);
//! - a head nested 2,000 deep, under the cap, is refused by the
//!   parser's nesting bound, on the same stack;
//! - the nesting bound sits well above the deepest head this crate
//!   writes, so no valid checkpoint comes near it;
//! - the largest head a legitimate state can have — `MAX_REPLICAS`
//!   dark-count faults and quarantine flags, a degraded record, every
//!   number at its widest — fits under `HEAD_LIMIT` and round-trips,
//!   and a head line one byte past the cap is refused unparsed.

use mogs_ckpt::{decode, encode, open_envelope, seal, Checkpoint, CkptError, HEAD_LIMIT};
use mogs_engine::prelude::UnitFault;
use mogs_engine::{Degraded, FaultState, JobState, SinkState, StateBinding, MAX_REPLICAS};
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
        sink_state: Some(SinkState {
            words: vec![2, 0x3ff0_0000_0000_0000],
            samples: vec![1.0],
            counts: vec![3],
        }),
    }
}

/// Decodes a sealed head `{"x":[[…]]}` nested `depth` deep on a
/// 256 KiB stack and returns the `State` error's reason.
fn nested_head_reason(depth: usize) -> String {
    let mut payload = b"{\"x\":".to_vec();
    payload.extend(std::iter::repeat_n(b'[', depth));
    payload.extend(std::iter::repeat_n(b']', depth));
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
    reason
}

#[test]
fn a_head_nested_100000_deep_is_a_typed_state_error() {
    let reason = nested_head_reason(100_000);
    assert!(
        reason.contains(&format!("runs past {HEAD_LIMIT} bytes")),
        "{reason}"
    );
}

#[test]
fn a_head_nested_2000_deep_under_the_cap_is_refused_by_the_nesting_bound() {
    const { assert!(2 * 2_000 + 8 < HEAD_LIMIT) };
    let reason = nested_head_reason(2_000);
    assert!(reason.contains("nested deeper than"), "{reason}");
}

/// The head line of an encoded checkpoint, without its newline.
fn head_of(file: &[u8]) -> &[u8] {
    let payload = open_envelope(file).expect("opens");
    let end = payload.iter().position(|&b| b == b'\n').expect("head line");
    &payload[..end]
}

#[test]
fn the_largest_legitimate_head_fits_under_the_cap() {
    let checkpoint = Checkpoint {
        meta: "m".repeat(1 << 20),
        state: JobState {
            binding: StateBinding {
                sites: 1,
                width: usize::MAX,
                height: usize::MAX,
                labels: 1,
                iterations: usize::MAX,
                burn_in: usize::MAX,
                threads: usize::MAX,
                seed: u64::MAX,
                fingerprint: u64::MAX,
                kernel: "rsu-g2-prototype".to_string(),
                track_modes: true,
                record_energy: true,
            },
            next_sweep: usize::MAX,
            labels: vec![0],
            energy_trace: Vec::new(),
            histograms: Some(vec![u32::MAX]),
            kernel_faults: vec![Some(UnitFault::DarkCount { rate_per_ns: 0.5 }); MAX_REPLICAS],
            fault: Some(FaultState {
                cursor: usize::MAX,
                quarantined: vec![false; MAX_REPLICAS],
                degraded: Some(Degraded {
                    failed_over_at: usize::MAX,
                    units_lost: usize::MAX,
                }),
                poisoned: true,
            }),
            sink_state: Some(SinkState {
                words: vec![u64::MAX; 1 << 12],
                samples: vec![f64::MAX; 1 << 12],
                counts: vec![u32::MAX; 1 << 12],
            }),
        },
    };
    let file = encode(&checkpoint);
    let head = head_of(&file).len() + 1;
    assert!(head <= HEAD_LIMIT, "a {head}-byte head line");
    assert!(
        head > HEAD_LIMIT - (4 << 10),
        "the cap leaves at most the fixed 4 KiB over the largest head ({head} bytes)"
    );
    assert_eq!(decode(&file).as_ref(), Ok(&checkpoint));
}

#[test]
fn a_head_one_byte_past_the_cap_is_refused_unparsed() {
    // Non-UTF-8 garbage: parsed, it would fail as "not UTF-8".
    let line = |len: usize| {
        let mut payload = vec![0xff; len - 1];
        payload.push(b'\n');
        decode(&seal(&payload)).expect_err("garbage never decodes")
    };
    let at_cap = line(HEAD_LIMIT);
    assert!(at_cap.to_string().contains("not UTF-8"), "{at_cap}");
    let past = line(HEAD_LIMIT + 1);
    let CkptError::State { reason } = past else {
        panic!("expected a state error, got {past}");
    };
    assert!(
        reason.contains(&format!("runs past {HEAD_LIMIT} bytes")),
        "{reason}"
    );
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
