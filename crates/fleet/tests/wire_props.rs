//! Byte-boundary tests for the fleet frame format (v2).
//!
//! The claims under test:
//!
//! - every message round-trips through `encode_to_*` / `parse_to_*`,
//!   including empty update lists, lists past 2¹⁶ entries, `plane: None`
//!   and `u64::MAX` digests;
//! - every `FleetSpec` that passes `validate` survives `encode` →
//!   `parse` with its digest — the `Assign` check depends on it — and
//!   every other is refused as `Spec`;
//! - arbitrary bytes in — bare, or behind a genuine head — come back as
//!   `FleetError::Frame`/`Protocol` or a valid message, never a panic;
//! - every proper prefix of a valid payload is a typed error, never a
//!   partial message;
//! - section counts that disagree with the bytes present are refused
//!   whatever size they claim (nothing is allocated from a count before
//!   it is checked), as are trailing bytes, a non-UTF-8 head, an
//!   over-long or deeply nested head, and a retired v1 hex/JSON frame;
//! - against a live loopback socket, an oversized or non-hex length
//!   prefix and a torn stream are `Frame`, a peer that stalls mid-frame
//!   is `Deadline`, and the traffic counters count what moved;
//! - a `Halo` naming a site outside the plane or a label outside the
//!   space still fails the worker with the engine's typed error.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use mogs_fleet::wire::{
    encode_to_coordinator, encode_to_worker, parse_to_coordinator, parse_to_worker, recv_frame,
    recv_to_coordinator, send_frame, send_to_worker, Conn, ToCoordinator, ToWorker, FRAME_LIMIT,
    HEAD_LIMIT,
};
use mogs_fleet::{worker_main, BackendKind, FleetError, FleetSpec, FleetStructure, Workload};
use proptest::prelude::*;

/// The variants a byte-level violation may surface as.
const TYPED: [&str; 2] = ["frame", "protocol"];

/// Specs on both sides of `validate`: zero counts, label spaces and
/// disparities out of range, and `noise_sigma` either a plain value or
/// arbitrary IEEE-754 bits (NaN, infinities, −0.0, subnormals).
fn arb_spec() -> impl Strategy<Value = FleetSpec> {
    (
        prop::bool::ANY,
        ((0usize..300), (1usize..300), (0u16..72)),
        (
            (0u8..6),
            (prop::bool::ANY, (0.0f64..9.0), 0u64..=u64::MAX),
            0u64..=u64::MAX,
        ),
        ((0usize..100), (0usize..9), (0usize..9), (0usize..5)),
        0u64..=u64::MAX,
    )
        .prop_map(
            |(
                stereo,
                (width, height, labels),
                (disparity, (raw, sigma, bits), scene_seed),
                (iterations, threads, burn_in, replicas),
                seed,
            )| FleetSpec {
                workload: if stereo {
                    Workload::Stereo {
                        width,
                        height,
                        disparity,
                        noise_sigma: if raw { f64::from_bits(bits) } else { sigma },
                        scene_seed,
                    }
                } else {
                    Workload::Demo {
                        width,
                        height,
                        labels,
                    }
                },
                backend: if replicas == 1 {
                    BackendKind::Softmax
                } else {
                    BackendKind::Rsu { replicas }
                },
                iterations,
                threads,
                seed,
                burn_in,
            },
        )
}

fn arb_updates(max: usize) -> impl Strategy<Value = Vec<(usize, u8)>> {
    // Sites span the whole `u32` column, labels the whole byte: the
    // codec carries values, range checks belong to whoever applies them.
    prop::collection::vec(((0usize..=u32::MAX as usize), (0u8..=255)), 0..max)
}

fn arb_to_worker() -> impl Strategy<Value = ToWorker> {
    (
        0usize..4,
        arb_spec(),
        prop::collection::vec(((0usize..40), (0usize..40)), 0..12),
        (prop::bool::ANY, prop::collection::vec(0u8..=255, 0..400)),
        prop::collection::vec(arb_updates(60), 0..4),
        ((0usize..1_000_000), (0usize..9), arb_updates(200)),
    )
        .prop_map(
            |(kind, spec, cells, (seat, plane), replay, (sweep, group, updates))| match kind {
                0 => ToWorker::Assign {
                    digest: spec.digest(),
                    cells,
                    plane: seat.then_some(plane),
                    resume_sweep: sweep,
                    replay,
                },
                1 => ToWorker::Phase { sweep, group },
                2 => ToWorker::Halo { updates },
                _ => ToWorker::Finish,
            },
        )
}

fn arb_to_coordinator() -> impl Strategy<Value = ToCoordinator> {
    (
        0usize..4,
        ((0usize..1_000_000), (0usize..9), arb_updates(200)),
        prop::collection::vec(0u8..=127, 0..80),
    )
        .prop_map(|(kind, (sweep, group, updates), text)| match kind {
            0 => ToCoordinator::AssignOk { owned: sweep },
            1 => ToCoordinator::PhaseDone {
                sweep,
                group,
                updates,
            },
            2 => ToCoordinator::Fault {
                reason: String::from_utf8_lossy(&text).into_owned(),
            },
            _ => ToCoordinator::Bye,
        })
}

fn typed(result: Result<impl std::fmt::Debug, FleetError>) -> Result<(), String> {
    match result {
        Err(err) if TYPED.contains(&err.variant()) => Ok(()),
        other => Err(format!("expected a frame/protocol error, got {other:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_worker_message_round_trips(msg in arb_to_worker()) {
        let payload = encode_to_worker(&msg);
        prop_assert_eq!(parse_to_worker(&payload).map_err(|e| e.to_string()), Ok(msg));
    }

    #[test]
    fn every_coordinator_message_round_trips(msg in arb_to_coordinator()) {
        let payload = encode_to_coordinator(&msg);
        prop_assert_eq!(parse_to_coordinator(&payload).map_err(|e| e.to_string()), Ok(msg));
    }

    /// The codec every launch and checkpoint `meta` rides: a spec that
    /// passes `validate` comes back from `parse(encode())` equal and with
    /// the same digest (a `noise_sigma` bit that drifted, `-0.0` say,
    /// would fail every `Assign`); any other is refused as `Spec`.
    #[test]
    fn every_spec_round_trips_with_its_digest(spec in arb_spec()) {
        let parsed = FleetSpec::parse(&spec.encode());
        if spec.validate().is_ok() {
            let parsed = parsed.map_err(|e| e.to_string())?;
            prop_assert_eq!(parsed.digest(), spec.digest());
            prop_assert_eq!(parsed, spec);
        } else {
            prop_assert_eq!(parsed.err().map(|e| e.variant()), Some("spec"));
        }
    }

    /// The trust boundary itself: whatever bytes arrive in a frame, bare
    /// or behind a genuine head, parsing returns — a typed error or a
    /// message — and never panics.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(0u8..=255, 0..600),
        updates in 0usize..200,
    ) {
        let mut headed = format!("{{\"t\":\"halo\",\"updates\":{updates}}}\n").into_bytes();
        headed.extend_from_slice(&bytes);
        for input in [bytes, headed] {
            if let Err(err) = parse_to_worker(&input) {
                prop_assert!(TYPED.contains(&err.variant()), "untyped: {err}");
            }
            if let Err(err) = parse_to_coordinator(&input) {
                prop_assert!(TYPED.contains(&err.variant()), "untyped: {err}");
            }
        }
    }

    /// A payload cut anywhere short of its end is an error, never a
    /// message with fewer updates.
    #[test]
    fn every_proper_prefix_is_a_typed_error(
        down in arb_to_worker(),
        up in arb_to_coordinator(),
        cut in 0.0f64..1.0,
    ) {
        let payload = encode_to_worker(&down);
        let end = ((payload.len() as f64) * cut) as usize;
        typed(parse_to_worker(&payload[..end]))?;
        let payload = encode_to_coordinator(&up);
        let end = ((payload.len() as f64) * cut) as usize;
        typed(parse_to_coordinator(&payload[..end]))?;
    }

    /// A head that lies about its sections — more than the bytes
    /// present, by one element or by 2⁶² — is refused before anything is
    /// sized by the claim; so are bytes left over after the last section.
    #[test]
    fn lying_counts_and_trailing_bytes_are_refused(
        updates in arb_updates(50),
        excess in 1usize..1000,
        junk in prop::collection::vec(0u8..=255, 1..40),
    ) {
        let honest = encode_to_coordinator(&ToCoordinator::PhaseDone {
            sweep: 3,
            group: 1,
            updates: updates.clone(),
        });
        let sections = &honest[honest.iter().position(|&b| b == b'\n').expect("head line") + 1..];
        for claim in [updates.len() + excess, 1 << 62, usize::MAX >> 11] {
            let mut lying = format!(
                "{{\"t\":\"phase_done\",\"sweep\":3,\"group\":1,\"updates\":{claim}}}\n"
            )
            .into_bytes();
            lying.extend_from_slice(sections);
            typed(parse_to_coordinator(&lying))?;
        }
        let mut trailing = honest;
        trailing.extend_from_slice(&junk);
        typed(parse_to_coordinator(&trailing))?;
    }
}

fn sample_spec() -> FleetSpec {
    FleetSpec {
        workload: Workload::Stereo {
            width: 12,
            height: 9,
            disparity: 2,
            noise_sigma: 0.1 + 0.2,
            scene_seed: u64::MAX,
        },
        backend: BackendKind::Rsu { replicas: 3 },
        iterations: 8,
        threads: 3,
        seed: u64::MAX,
        burn_in: 2,
    }
}

#[test]
fn edge_shapes_round_trip() {
    let long: Vec<(usize, u8)> = (0..70_000).map(|i| (i * 3, (i % 251) as u8)).collect();
    let down = [
        ToWorker::Assign {
            digest: u64::MAX,
            cells: vec![],
            plane: None,
            resume_sweep: 0,
            replay: vec![],
        },
        ToWorker::Assign {
            digest: sample_spec().digest(),
            cells: vec![(0, 0), (1, 2)],
            plane: Some(vec![]),
            resume_sweep: 3,
            replay: vec![vec![], long.clone(), vec![(9, 4)]],
        },
        ToWorker::Halo { updates: vec![] },
        ToWorker::Halo {
            updates: long.clone(),
        },
    ];
    for msg in down {
        assert_eq!(
            parse_to_worker(&encode_to_worker(&msg)).expect("parses"),
            msg
        );
    }
    let up = [
        ToCoordinator::PhaseDone {
            sweep: 0,
            group: 0,
            updates: vec![],
        },
        ToCoordinator::PhaseDone {
            sweep: usize::MAX >> 12,
            group: 7,
            updates: long,
        },
        ToCoordinator::Fault {
            reason: "unit \"q\" died\n\ton line two — naïvely".to_string(),
        },
        ToCoordinator::Fault {
            reason: String::new(),
        },
    ];
    for msg in up {
        let payload = encode_to_coordinator(&msg);
        assert_eq!(parse_to_coordinator(&payload).expect("parses"), msg);
    }
}

#[test]
fn update_lists_cost_five_bytes_a_site() {
    let updates: Vec<(usize, u8)> = (0..10_000).map(|i| (i, 1)).collect();
    let payload = encode_to_worker(&ToWorker::Halo { updates });
    assert!(payload.len() <= 5 * 10_000 + 64, "{} bytes", payload.len());
}

#[test]
fn malformed_heads_are_typed() {
    // A retired v1 frame: all JSON, updates as an array of pairs.
    let v1 = br#"{"t":"phase_done","sweep":2,"group":0,"updates":[[0,0],[2,3]]}"#;
    typed(parse_to_coordinator(v1)).expect("v1 frame, no head line");
    let mut v1_line = v1.to_vec();
    v1_line.push(b'\n');
    typed(parse_to_coordinator(&v1_line)).expect("v1 frame behind a newline");
    typed(parse_to_worker(br#"{"t":"halo","updates":[[3,2]]}"#)).expect("v1 halo");

    typed(parse_to_worker(b"{\"t\":\"ha\xfflo\",\"updates\":0}\n")).expect("non-UTF-8 head");
    typed(parse_to_worker(b"{\"t\":\"warp\"}\n")).expect("unknown tag");
    typed(parse_to_worker(b"{\"sweep\":1,\"group\":0}\n")).expect("no tag");
    typed(parse_to_worker(b"{\"t\":\"phase\",\"sweep\":1}\n")).expect("missing field");
    typed(parse_to_worker(b"{\"t\":\"assign\",\"digest\":\"ff\"}\n")).expect("short hex digest");
    typed(parse_to_worker(b"{\"t\":\"finish\"} trailing\n")).expect("junk after the head");
    typed(parse_to_worker(b"")).expect("empty payload");

    // Unknown keys are skipped, but only inside the head bound: the
    // parser's recursion can never be driven by the frame size.
    let nested = format!(
        "{{\"t\":\"finish\",\"x\":{}{}}}\n",
        "[".repeat(1000),
        "]".repeat(1000)
    );
    assert_eq!(
        parse_to_worker(nested.as_bytes()).expect("shallow enough"),
        ToWorker::Finish
    );
    let deep = format!("{{\"t\":\"finish\",\"x\":{}", "[".repeat(4 * HEAD_LIMIT));
    typed(parse_to_worker(deep.as_bytes())).expect("no head line within the bound");
    let long = format!(
        "{{\"t\":\"finish\",\"x\":\"{}\"}}\n",
        "a".repeat(HEAD_LIMIT)
    );
    typed(parse_to_worker(long.as_bytes())).expect("head line past the bound");
}

fn pair() -> (TcpStream, Conn) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    (client, Conn::tcp(server))
}

const PATIENT: Option<Duration> = Some(Duration::from_secs(5));

#[test]
fn frames_round_trip_and_are_counted() {
    let (client, mut b) = pair();
    let mut a = Conn::tcp(client);
    send_frame(&mut a, b"hello \xff fleet").expect("send");
    send_frame(&mut a, b"").expect("send empty");
    assert_eq!(
        recv_frame(&mut b, PATIENT, "test").expect("recv"),
        b"hello \xff fleet"
    );
    assert_eq!(recv_frame(&mut b, PATIENT, "test").expect("recv"), b"");
    let (sent, got) = (a.traffic(), b.traffic());
    assert_eq!(
        (sent.frames, sent.bytes_out, sent.bytes_in),
        (2, 8 + 13 + 8, 0)
    );
    assert_eq!(
        (got.frames, got.bytes_out, got.bytes_in),
        (2, 0, 8 + 13 + 8)
    );
    let oversized = vec![0u8; FRAME_LIMIT + 1];
    assert_eq!(
        send_frame(&mut a, &oversized)
            .expect_err("past the limit")
            .variant(),
        "frame"
    );
    assert_eq!(a.traffic(), sent, "a refused frame moves nothing");
}

#[test]
fn bad_length_prefixes_are_frame_errors() {
    for prefix in [
        &b"ffffffff"[..],
        b"04000001",
        b"0000zz10",
        b"+0000010",
        b"\xff\xfe\x00\x01abcd",
    ] {
        let (mut client, mut server) = pair();
        client.write_all(prefix).expect("raw write");
        let err = recv_frame(&mut server, PATIENT, "probe").expect_err("bad prefix");
        assert_eq!(err.variant(), "frame", "{prefix:?}: {err}");
    }
}

#[test]
fn silent_stalled_and_closed_peers_are_typed() {
    let brief = Some(Duration::from_millis(60));
    // Nothing sent at all.
    let (_client, mut server) = pair();
    let err = recv_frame(&mut server, brief, "probe").expect_err("silence");
    assert_eq!(err.variant(), "deadline");
    assert!(err.is_migratable());
    // A peer that stalls mid-prefix, then one that stalls mid-payload.
    for partial in [&b"0000"[..], b"00000010abcd"] {
        let (mut client, mut server) = pair();
        client.write_all(partial).expect("raw write");
        let err = recv_frame(&mut server, brief, "probe").expect_err("stalled");
        assert_eq!(err.variant(), "deadline", "{partial:?}: {err}");
    }
    // A peer that closes mid-frame tears the stream.
    let (mut client, mut server) = pair();
    client.write_all(b"00000010abcd").expect("raw write");
    drop(client);
    let err = recv_frame(&mut server, PATIENT, "probe").expect_err("closed");
    assert_eq!(err.variant(), "frame");
}

/// The codec carries any `u32` site and any byte label; the worker is
/// where an out-of-plane `Halo` dies, with the engine's typed error.
#[test]
fn out_of_range_halo_fails_the_worker_typed() {
    let spec = FleetSpec {
        workload: Workload::Demo {
            width: 6,
            height: 4,
            labels: 3,
        },
        backend: BackendKind::Softmax,
        iterations: 4,
        threads: 2,
        seed: 0xBEE,
        burn_in: 1,
    };
    let structure = FleetStructure::of(&spec).expect("structure");
    let cells: Vec<(usize, usize)> = (0..structure.group_count())
        .flat_map(|g| (0..structure.cells[g].len()).map(move |c| (g, c)))
        .collect();
    for bad in [(24usize, 0u8), (u32::MAX as usize, 0), (3, 3), (0, 255)] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = format!("tcp:{}", listener.local_addr().expect("addr"));
        let text = spec.encode();
        let worker = std::thread::spawn(move || worker_main(&addr, &text));
        let mut conn = Conn::tcp(listener.accept().expect("accept").0);
        let assign = ToWorker::Assign {
            digest: spec.digest(),
            cells: cells.clone(),
            plane: None,
            resume_sweep: 0,
            replay: vec![],
        };
        send_to_worker(&mut conn, &assign).expect("assign");
        let reply = recv_to_coordinator(&mut conn, PATIENT, "assign").expect("assign ok");
        assert_eq!(reply, ToCoordinator::AssignOk { owned: 24 });
        let halo = ToWorker::Halo {
            updates: vec![(1, 2), bad],
        };
        send_to_worker(&mut conn, &halo).expect("halo");
        let reply = recv_to_coordinator(&mut conn, PATIENT, "fault").expect("fault");
        let ToCoordinator::Fault { reason } = reply else {
            panic!("expected a fault for {bad:?}, got {reply:?}");
        };
        assert!(reason.contains("outside the plane"), "{reason}");
        let err = worker.join().expect("join").expect_err("worker must fail");
        assert_eq!(err.variant(), "spec", "{bad:?}: {err}");
    }
}
