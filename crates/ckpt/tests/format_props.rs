//! Property tests for the checkpoint wire format (v4).
//!
//! The claims under test, over randomized job states:
//!
//! - encode → decode is the identity (bit-exact for every `f64`, hex-safe
//!   for every `u64`), and the encoding of a fully populated state is
//!   pinned byte for byte;
//! - arbitrary bytes in — bare or sealed under a valid header — come
//!   back as a typed error or a valid value, never a panic;
//! - any proper prefix of a valid file is `Truncated` — never a partial
//!   checkpoint;
//! - any single bit flipped after the header line is `ChecksumMismatch`,
//!   any single bit flipped anywhere is an error, and any single-byte
//!   corruption anywhere is caught by a *typed* error (or is provably
//!   harmless: the decode must then still equal the original);
//! - section counts that disagree with the binding or with the bytes
//!   present are a `State` error, whatever size they claim;
//! - version bumps, retired v1 envelopes and v2 files, and binding
//!   mismatches each surface as their own variant, distinct from
//!   corruption, and a retired shard-granular fleet state is a `State`
//!   error;
//! - the checksum is pinned on inputs shorter than, equal to and
//!   longer than its 32-byte stride, and v4 writes the label,
//!   energy-trace and histogram sections v3 wrote, byte for byte.
//!
//! "Never partially restore" holds by construction — [`decode`] returns
//! a complete [`Checkpoint`] or an error and mutates nothing — so these
//! properties focus on the never-panic and right-variant halves.

use mogs_ckpt::{
    checksum, decode, encode, open_envelope, seal, verify_binding, Checkpoint, CkptError,
};
use mogs_engine::prelude::UnitFault;
use mogs_engine::{FaultState, JobState, SinkState, StateBinding};
use mogs_mrf::{fnv1a, Label};
use proptest::prelude::*;

fn arb_binding() -> impl Strategy<Value = StateBinding> {
    (
        ((1usize..200), (1usize..16), (1usize..16), (1usize..65)),
        ((1usize..500), (0usize..32), (1usize..9)),
        (0u64..=u64::MAX, 0u64..=u64::MAX),
        (0usize..3),
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(
            |(
                (sites, width, height, labels),
                (iterations, burn_in, threads),
                (seed, fingerprint),
                kernel_pick,
                track_modes,
                record_energy,
            )| {
                let kernel = ["softmax-gibbs", "rsu-pool", "odd \"name\"\twith\nescapes"]
                    [kernel_pick]
                    .to_string();
                StateBinding {
                    sites,
                    width,
                    height,
                    labels,
                    iterations,
                    burn_in,
                    threads,
                    seed,
                    fingerprint,
                    kernel,
                    track_modes,
                    record_energy,
                }
            },
        )
}

fn arb_fault() -> impl Strategy<Value = Option<UnitFault>> {
    ((0usize..4), (0u8..64), (0.0f64..2.0)).prop_map(|(kind, label, rate)| match kind {
        0 => None,
        1 => Some(UnitFault::Dead),
        2 => Some(UnitFault::Stuck(Label::new(label))),
        _ => Some(UnitFault::DarkCount { rate_per_ns: rate }),
    })
}

fn arb_fault_state() -> impl Strategy<Value = Option<FaultState>> {
    (
        prop::bool::ANY,
        (0usize..20),
        prop::collection::vec(prop::bool::ANY, 0..8),
        prop::bool::ANY,
        ((0usize..2), (0usize..100), (0usize..8)),
    )
        .prop_map(
            |(present, cursor, quarantined, poisoned, (degraded, failed_over_at, units_lost))| {
                present.then(|| FaultState {
                    cursor,
                    quarantined,
                    degraded: (degraded == 1).then_some(mogs_engine::Degraded {
                        failed_over_at,
                        units_lost,
                    }),
                    poisoned,
                })
            },
        )
}

/// Finite-energy states, safe to compare with `PartialEq` whole, whose
/// bulk sections have the lengths their binding implies (the only kind
/// the engine captures, and the only kind the decoder seats).
fn arb_state() -> impl Strategy<Value = JobState> {
    (
        (arb_binding(), 0usize..500, 0u64..=u64::MAX),
        prop::collection::vec(-1e300f64..1e300, 0..16),
        prop::bool::ANY,
        prop::collection::vec(arb_fault(), 0..6),
        arb_fault_state(),
        (
            prop::bool::ANY,
            prop::collection::vec(0u64..=u64::MAX, 0..16),
            prop::collection::vec(-1e300f64..1e300, 0..8),
            prop::collection::vec(0u32..=u32::MAX, 0..24),
        ),
    )
        .prop_map(
            |(
                (binding, next_sweep, fill),
                energy_trace,
                hist_present,
                kernel_faults,
                fault,
                (sink_present, words, samples, counts),
            )| {
                let sink_state = sink_present.then_some(SinkState {
                    words,
                    samples,
                    counts,
                });
                // Cheap deterministic filler: the bulk bytes only need to
                // vary, including through every byte value (0x0a too).
                let mut word = fill | 1;
                let mut next = move || {
                    word ^= word << 13;
                    word ^= word >> 7;
                    word ^= word << 17;
                    word
                };
                let labels = (0..binding.sites).map(|_| (next() % 64) as u8).collect();
                let histograms = hist_present.then(|| {
                    (0..binding.sites * binding.labels)
                        .map(|_| next() as u32)
                        .collect()
                });
                JobState {
                    binding,
                    next_sweep,
                    labels,
                    energy_trace,
                    histograms,
                    kernel_faults,
                    fault,
                    sink_state,
                }
            },
        )
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (arb_state(), (0usize..3)).prop_map(|(state, meta_pick)| Checkpoint {
        meta: [
            "",
            "{\"tenant\":\"acme\",\"body\":\"{\\\"w\\\":4}\"}",
            "plain note",
        ][meta_pick]
            .to_string(),
        state,
    })
}

const TYPED: [&str; 5] = [
    "truncated",
    "malformed",
    "version-mismatch",
    "checksum-mismatch",
    "state",
];

/// Offset of the first payload byte (one past the header's newline).
fn header_len(encoded: &[u8]) -> usize {
    encoded
        .iter()
        .position(|&b| b == b'\n')
        .expect("header line")
        + 1
}

proptest! {
    #[test]
    fn round_trip_is_the_identity(checkpoint in arb_checkpoint()) {
        let decoded = decode(&encode(&checkpoint));
        prop_assert_eq!(decoded.as_ref(), Ok(&checkpoint));
    }

    /// Energies drawn as raw bit patterns — including NaNs, infinities,
    /// subnormals, negative zero — survive exactly.
    #[test]
    fn energy_round_trips_bitwise(
        checkpoint in arb_checkpoint(),
        bits in prop::collection::vec(0u64..=u64::MAX, 0..16),
    ) {
        let mut checkpoint = checkpoint;
        checkpoint.state.energy_trace = bits.iter().copied().map(f64::from_bits).collect();
        let encoded = encode(&checkpoint);
        let decoded = decode(&encoded).map_err(|e| format!("decode failed: {e}"))?;
        let got: Vec<u64> = decoded.state.energy_trace.iter().map(|e| e.to_bits()).collect();
        prop_assert_eq!(got, bits);
        prop_assert_eq!(encode(&decoded), encoded);
    }

    /// The trust boundary itself: whatever bytes sit in a `.ckpt` file,
    /// bare or under a genuine header, decoding returns — a typed error
    /// or a value — and never panics.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..600)) {
        for input in [bytes.clone(), seal(&bytes)] {
            if let Err(err) = decode(&input) {
                prop_assert!(TYPED.contains(&err.variant()), "untyped: {err}");
            }
        }
        // Sealed bytes always pass the header layer.
        let sealed = seal(&bytes);
        prop_assert_eq!(open_envelope(&sealed), Ok(bytes.as_slice()));
    }

    #[test]
    fn every_truncation_is_typed_truncated(
        checkpoint in arb_checkpoint(),
        cut in 0.0f64..1.0,
    ) {
        let encoded = encode(&checkpoint);
        // `cut < 1.0`, so `end < len`: always a proper prefix.
        let end = ((encoded.len() as f64) * cut) as usize;
        prop_assert_eq!(decode(&encoded[..end]), Err(CkptError::Truncated));
    }

    #[test]
    fn any_bit_flip_after_the_header_is_a_checksum_mismatch(
        checkpoint in arb_checkpoint(),
        position in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut corrupted = encode(&checkpoint);
        let header = header_len(&corrupted);
        let at = header + (((corrupted.len() - header) as f64) * position) as usize;
        corrupted[at] ^= 1 << bit;
        let err = decode(&corrupted).expect_err("bit rot must not decode");
        prop_assert_eq!(err.variant(), "checksum-mismatch");
    }

    /// Single-byte corruption anywhere in the file, header included,
    /// either fails with one of the typed read errors or — when the
    /// change is semantically neutral, e.g. checksum hex case — decodes
    /// to exactly the original. Nothing panics; nothing comes back
    /// altered.
    #[test]
    fn single_byte_corruption_never_panics_or_corrupts(
        checkpoint in arb_checkpoint(),
        position in 0.0f64..1.0,
        replacement in 0u8..=255,
    ) {
        let encoded = encode(&checkpoint);
        let at = ((encoded.len() as f64) * position) as usize;
        if encoded[at] != replacement {
            let mut corrupted = encoded.clone();
            corrupted[at] = replacement;
            match decode(&corrupted) {
                Err(err) => prop_assert!(
                    TYPED.contains(&err.variant()),
                    "unexpected variant {} for {err}",
                    err.variant()
                ),
                Ok(decoded) => prop_assert_eq!(decoded, checkpoint),
            }
        }
    }

    /// A head whose section counts lie — about the binding or about the
    /// bytes that follow — is refused as `State` however large the
    /// claim: nothing is sized by a count before it is checked.
    #[test]
    fn lying_section_counts_are_a_state_error(
        checkpoint in arb_checkpoint(),
        which in 0usize..3,
        claim in 0u64..(1 << 53),
    ) {
        let encoded = encode(&checkpoint);
        let payload = open_envelope(&encoded).expect("opens");
        let split = header_len(payload) - 1;
        let head = std::str::from_utf8(&payload[..split]).expect("head is UTF-8");
        let state = &checkpoint.state;
        let (name, truth) = [
            ("\"sections\":{\"labels\":", state.labels.len()),
            ("\"energy_trace\":", state.energy_trace.len()),
            ("\"histograms\":", state.histograms.as_ref().map_or(0, Vec::len)),
        ][which];
        let honest = format!("{name}{truth}");
        // A null histogram count has no number to replace.
        if claim != truth as u64 && head.contains(&honest) {
            let at = head.rfind(&honest).expect("checked above");
            let mut lying = head.as_bytes()[..at].to_vec();
            lying.extend_from_slice(format!("{name}{claim}").as_bytes());
            lying.extend_from_slice(&head.as_bytes()[at + honest.len()..]);
            lying.extend_from_slice(&payload[split..]);
            let err = decode(&seal(&lying)).expect_err("lying counts must not seat");
            prop_assert_eq!(err.variant(), "state");
        }
    }

    #[test]
    fn version_bump_is_always_version_mismatch(
        checkpoint in arb_checkpoint(),
        version in 5u32..1000,
    ) {
        let encoded = encode(&checkpoint);
        let mut bumped = format!("{{\"version\":{version}").into_bytes();
        bumped.extend_from_slice(&encoded[b"{\"version\":4".len()..]);
        prop_assert_eq!(
            decode(&bumped),
            Err(CkptError::VersionMismatch { found: version, supported: 4 })
        );
    }

    /// A v2 file — the same header fields and payload, checksummed by
    /// byte-serial FNV-1a — is refused by version, never checked
    /// against the current checksum or misparsed.
    #[test]
    fn a_v2_file_is_always_version_mismatch(checkpoint in arb_checkpoint()) {
        prop_assert_eq!(
            decode(&as_v2(&encode(&checkpoint))),
            Err(CkptError::VersionMismatch { found: 2, supported: 4 })
        );
    }

    /// Whatever a v1 build left behind — its envelope opened with the
    /// same `{"version":` bytes — is refused by version, not misparsed.
    #[test]
    fn a_v1_envelope_is_always_version_mismatch(
        payload in prop::collection::vec(0x20u8..0x7f, 0..200),
        checksum in 0u64..=u64::MAX,
    ) {
        let payload = String::from_utf8(payload).expect("printable ASCII");
        let v1 = format!(
            "{{\"version\":1,\"payload\":\"{payload}\",\"checksum\":\"{checksum:016x}\"}}"
        );
        prop_assert_eq!(
            decode(v1.as_bytes()),
            Err(CkptError::VersionMismatch { found: 1, supported: 4 })
        );
    }

    /// Any one differing binding field is a `binding-mismatch`, found
    /// before a resume is even attempted.
    #[test]
    fn binding_drift_is_typed(state in arb_state(), field in 0usize..6) {
        let mut expected = state.binding.clone();
        match field {
            0 => expected.sites += 1,
            1 => expected.labels += 1,
            2 => expected.seed ^= 1,
            3 => expected.fingerprint ^= 1 << 63,
            4 => expected.kernel.push('x'),
            _ => expected.iterations += 1,
        }
        let err = verify_binding(&state, &expected).expect_err("bindings differ");
        prop_assert_eq!(err.variant(), "binding-mismatch");
        prop_assert!(verify_binding(&state, &state.binding).is_ok());
    }
}

// ---------------------------------------------------------------------
// Deterministic byte-boundary cases, exhaustive over one fully populated
// file: what the properties above sample, these pin.
// ---------------------------------------------------------------------

/// A whole-plane state with every optional record present.
fn demo_state() -> JobState {
    JobState {
        binding: StateBinding {
            sites: 12,
            width: 4,
            height: 3,
            labels: 3,
            iterations: 10,
            burn_in: 2,
            threads: 2,
            seed: 0xDEAD_BEEF_CAFE_F00D,
            fingerprint: u64::MAX - 5,
            kernel: "rsu-pool".to_string(),
            track_modes: true,
            record_energy: true,
        },
        next_sweep: 4,
        labels: vec![0, 1, 2, 1, 0, 2, 2, 1, 0, 0, 1, 2],
        energy_trace: vec![f64::NAN, -0.0, 3.5e-300, f64::NEG_INFINITY],
        histograms: Some((0..36).map(|i| i * 0x0101_0101).collect()),
        kernel_faults: vec![
            None,
            Some(UnitFault::Dead),
            Some(UnitFault::Stuck(Label::new(2))),
            Some(UnitFault::DarkCount { rate_per_ns: 0.125 }),
        ],
        fault: Some(FaultState {
            cursor: 3,
            quarantined: vec![false, true, false, false],
            degraded: Some(mogs_engine::Degraded {
                failed_over_at: 3,
                units_lost: 2,
            }),
            poisoned: false,
        }),
        sink_state: Some(SinkState {
            words: vec![2, 0x3ff0_0000_0000_0000],
            samples: vec![1.0],
            counts: vec![0x0a0a_0a0a],
        }),
    }
}

fn demo_bytes() -> Vec<u8> {
    encode(&Checkpoint {
        meta: "m\n\"eta\"".to_string(),
        state: demo_state(),
    })
}

/// The v2 file of `encoded`'s payload: the v4 header's fields, with
/// version 2 and the byte-serial FNV-1a checksum v2 sealed with.
fn as_v2(encoded: &[u8]) -> Vec<u8> {
    let payload = &encoded[header_len(encoded)..];
    let mut v2 = format!(
        "{{\"version\":2,\"length\":{},\"checksum\":\"{:016x}\"}}\n",
        payload.len(),
        fnv1a(payload)
    )
    .into_bytes();
    v2.extend_from_slice(payload);
    v2
}

/// Re-seals `encoded`'s payload after a textual edit of its head.
fn reseal_with(encoded: &[u8], from: &str, to: &str) -> Vec<u8> {
    let payload = open_envelope(encoded).expect("donor opens");
    let split = header_len(payload) - 1;
    let head = std::str::from_utf8(&payload[..split]).expect("head is UTF-8");
    assert!(head.contains(from), "head has no {from}: {head}");
    let mut edited = head.replacen(from, to, 1).into_bytes();
    edited.extend_from_slice(&payload[split..]);
    seal(&edited)
}

#[test]
fn fully_populated_state_round_trips_bit_exactly() {
    // NaN defeats `PartialEq`; byte-identical re-encoding does not.
    let encoded = demo_bytes();
    let decoded = decode(&encoded).expect("decodes");
    assert_eq!(encode(&decoded), encoded);
    let bits =
        |state: &JobState| -> Vec<u64> { state.energy_trace.iter().map(|e| e.to_bits()).collect() };
    assert_eq!(bits(&decoded.state), bits(&demo_state()));
    assert_eq!(decoded.state.histograms, demo_state().histograms);
}

/// The bytes of a fully populated whole-plane v4 file. Its label,
/// energy-trace and histogram sections are v3's:
/// `v4_keeps_the_v3_bulk_section_bytes` pins them.
#[test]
fn whole_plane_bytes_are_pinned() {
    assert_eq!(fnv1a(&demo_bytes()), 0x5fa3_08a5_0b44_64ed);
}

/// The 188 bytes after the head line — 12 labels, 4 energies, 36
/// histogram counts — hash to the bulk sections the v3 build wrote for
/// the same state (everything after its head line), so v4 moved none of
/// them; meta and sink state follow them.
#[test]
fn v4_keeps_the_v3_bulk_section_bytes() {
    let encoded = demo_bytes();
    let payload = &encoded[header_len(&encoded)..];
    let bulk = &payload[header_len(payload)..][..12 + 4 * 8 + 36 * 4];
    assert_eq!(fnv1a(bulk), 0x57e7_9684_a48e_7310);
}

/// A v3 file — the retired format whose head carried meta and sink
/// state as JSON strings — is refused by version, before its length or
/// checksum is read.
#[test]
fn a_v3_file_is_a_version_mismatch() {
    let encoded = demo_bytes();
    let mut v3 = b"{\"version\":3".to_vec();
    v3.extend_from_slice(&encoded[b"{\"version\":4".len()..]);
    assert_eq!(
        decode(&v3),
        Err(CkptError::VersionMismatch {
            found: 3,
            supported: 4
        })
    );
}

/// The checksum on the empty input, on a tail alone (shorter than the
/// 32-byte stride), on exactly one chunk, and on several chunks plus a
/// tail.
#[test]
fn the_checksum_is_pinned() {
    let bytes: Vec<u8> = (0..=255u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
    let cases: [(&[u8], u64); 4] = [
        (b"", 0xfb9d_47a3_0a87_e643),
        (&bytes[..31], 0xd54a_198f_6876_91d0),
        (&bytes[..32], 0x9b7e_22d9_25c7_2fc1),
        (&bytes[..103], 0xc856_7255_a669_fc5a),
    ];
    for (input, pinned) in cases {
        assert_eq!(checksum(input), pinned, "{} bytes", input.len());
    }
}

/// Every single-bit flip of a whole file, header included, is refused:
/// `ChecksumMismatch` after the header line, a header error (version,
/// length, shape) within it. None decodes.
#[test]
fn every_single_bit_flip_of_a_small_file_is_refused() {
    let encoded = demo_bytes();
    assert!(decode(&encoded).is_ok());
    let header = header_len(&encoded);
    for at in 0..encoded.len() {
        for bit in 0..8 {
            let mut flipped = encoded.clone();
            flipped[at] ^= 1 << bit;
            let err = decode(&flipped).expect_err("a flipped bit never decodes");
            let expected: &[&str] = if at < header {
                &[
                    "truncated",
                    "malformed",
                    "version-mismatch",
                    "checksum-mismatch",
                ]
            } else {
                &["checksum-mismatch"]
            };
            assert!(
                expected.contains(&err.variant()),
                "byte {at} bit {bit}: {err}"
            );
        }
    }
}

/// A file an earlier fleet coordinator cut for one shard: the binding
/// carries a `shard` object (skipped whole by the reader, so its fields
/// are abridged here) and the label section holds only the shard's
/// owned sites. It is refused as `State`, never seated.
#[test]
fn retired_shard_states_are_refused() {
    let mut state = demo_state();
    state.labels = vec![2, 0, 1, 1];
    state.histograms = None;
    state.energy_trace = vec![1.5];
    let shard_file = reseal_with(
        &encode(&Checkpoint {
            meta: String::new(),
            state,
        }),
        "\"record_energy\":true}",
        "\"record_energy\":true,\"shard\":{\"shard\":1,\"of\":3,\"owned\":4}}",
    );
    let err = decode(&shard_file).expect_err("a shard state is not a whole plane");
    let CkptError::State { reason } = err else {
        panic!("expected a state error, got {err}");
    };
    assert!(reason.contains("label section holds 4"), "{reason}");
}

#[test]
fn every_bit_after_the_header_is_checksummed() {
    let encoded = demo_bytes();
    for at in header_len(&encoded)..encoded.len() {
        for bit in 0..8 {
            let mut corrupted = encoded.clone();
            corrupted[at] ^= 1 << bit;
            let err = decode(&corrupted).expect_err("bit rot rejected");
            assert_eq!(err.variant(), "checksum-mismatch", "byte {at} bit {bit}");
        }
    }
}

#[test]
fn a_declared_length_beyond_the_file_is_truncated() {
    let encoded = demo_bytes();
    let payload = open_envelope(&encoded).expect("opens");
    let header = std::str::from_utf8(&encoded[..header_len(&encoded)]).expect("ASCII header");
    let mut lying = header
        .replacen(
            &format!("\"length\":{}", payload.len()),
            "\"length\":18446744073709551615",
            1,
        )
        .into_bytes();
    lying.extend_from_slice(payload);
    assert_eq!(decode(&lying), Err(CkptError::Truncated));
}

#[test]
fn section_counts_must_agree_with_the_binding_and_the_bytes() {
    let encoded = demo_bytes();
    // Each lie is sealed under a valid header, so the header passes and
    // the state layer must refuse — before sizing any buffer by the lie
    // (the huge counts would abort the test if it did).
    for (from, to, names) in [
        ("{\"labels\":12,", "{\"labels\":13,", "label section"),
        (
            "{\"labels\":12,",
            "{\"labels\":9007199254740992,",
            "label section",
        ),
        (
            "\"energy_trace\":4,",
            "\"energy_trace\":5,",
            "sections declare",
        ),
        (
            "\"energy_trace\":4,",
            "\"energy_trace\":4611686018427387904,",
            "sections declare",
        ),
        (
            "\"histograms\":36}",
            "\"histograms\":35}",
            "histogram section",
        ),
        (
            "\"histograms\":36}",
            "\"histograms\":null}",
            "sections declare",
        ),
        ("{\"sites\":12,", "{\"sites\":13,", "label section"),
    ] {
        let err = decode(&reseal_with(&encoded, from, to)).expect_err("lie refused");
        let CkptError::State { reason } = err else {
            panic!("{from} -> {to}: expected a state error, got {err}");
        };
        assert!(reason.contains(names), "{from} -> {to}: {reason}");
    }
}

#[test]
fn stuck_fault_label_out_of_range_is_rejected_not_panicked() {
    let lying = reseal_with(
        &demo_bytes(),
        "{\"kind\":\"stuck\",\"label\":2}",
        "{\"kind\":\"stuck\",\"label\":200}",
    );
    let err = decode(&lying).expect_err("label 200 does not fit in 6 bits");
    assert_eq!(err.variant(), "state");
}
