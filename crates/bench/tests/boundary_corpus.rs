//! The boundary corpus: every decoder that reads bytes from outside the
//! process, fed hostile input under a stack, time and memory budget.
//!
//! The decoders are the HTTP request reader (`read_request`, head and
//! body), the job request (`JobRequest::parse`), fleet frames both ways
//! (`parse_to_worker`, `parse_to_coordinator`), the fleet launch spec
//! (`FleetSpec::parse`), checkpoint envelopes (`mogs_ckpt::decode`) and
//! schedule certificates (`ScheduleCertificate::from_json`). Each gets
//! deep nesting, huge declared counts and lengths, long numbers,
//! invalid UTF-8 and every truncation of one valid input; checkpoints
//! also get lying meta and sink-state counts and a non-UTF-8 meta.
//!
//! Every decode runs on a thread with a 256 KiB stack, under a global
//! allocator that counts the bytes the decoding thread holds. It must
//! return — a typed error for every hostile input — within 1 s, and its
//! peak allocation must stay within its decoder's bound: 4× the input
//! plus 64 KiB, or the bound stated (and derived) at the decoder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use mogs_audit::{color_schedule, ScheduleCertificate};
use mogs_ckpt::{decode, encode, open_envelope, seal, Checkpoint, HEAD_LIMIT};
use mogs_engine::prelude::UnitFault;
use mogs_engine::{Degraded, FaultState, JobState, SinkState, StateBinding};
use mogs_fleet::wire::{
    encode_to_coordinator, encode_to_worker, parse_to_coordinator, parse_to_worker, ToCoordinator,
    ToWorker,
};
use mogs_fleet::{BackendKind, FleetSpec, Workload};
use mogs_mrf::{Grid2D, Label, Neighborhood, Topology};
use mogs_serve::http::read_request;
use mogs_serve::{JobRequest, Limits};

// ---------------------------------------------------------------------
// A per-thread counting allocator.
// ---------------------------------------------------------------------

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Counts, on threads that opted in, the bytes they hold and the most
/// they held at once. A reallocation is charged its old and new blocks
/// together, as a copying reallocation holds both.
struct Counting;

fn charge(add: usize, release: usize) {
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            LIVE.with(|live| {
                let held = live.get() + add;
                PEAK.with(|peak| peak.set(peak.get().max(held)));
                live.set(held.saturating_sub(release));
            });
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain thread-local cells with no destructor, so touching them
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size(), 0);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size(), 0);
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge(0, layout.size());
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size, layout.size());
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// ---------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------

/// What one decode did: `Ok` for a decoded value, else the error's
/// typed name.
type Verdict = Result<(), String>;

/// One decoder under test.
struct Decoder {
    name: &'static str,
    decode: fn(&[u8]) -> Verdict,
    /// Peak bytes allowed for an input of the given length.
    bound: fn(usize) -> usize,
}

const FIXED: usize = 64 << 10;

/// The default bound: 4× the input plus 64 KiB.
fn default_bound(input: usize) -> usize {
    4 * input + FIXED
}

/// Decoders that materialize JSON arrays as `Vec`s (the job request's
/// `unaries`, a certificate's `classes` and `ranges`): an array of
/// arrays costs a 24-byte `Vec` per row for at least 3 input bytes
/// (`[],`), a number 8 bytes for at least 2 (`0,`), so the value holds
/// at most 8 bytes per input byte; a growing `Vec` holds up to twice its
/// length and, while reallocating, its old buffer too: 3 × 8 = 24×.
fn json_array_bound(input: usize) -> usize {
    24 * input + FIXED
}

/// The HTTP reader holds the body once, and the header block — capped
/// at `max_header_bytes` — as `(name, value)` string pairs: 48 bytes a
/// pair plus its two strings for at least 4 input bytes (`a:\r\n`), at
/// most 13 bytes per header byte, 3× for `Vec` growth as above.
fn http_bound(input: usize) -> usize {
    default_bound(input) + 39 * Limits::default().max_header_bytes
}

/// Runs `decode` on `input` on the current thread, counting; returns
/// the verdict, peak bytes and elapsed time.
fn counted(decode: fn(&[u8]) -> Verdict, input: &[u8]) -> (Verdict, usize, Duration) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    COUNTING.with(|counting| counting.set(true));
    let started = Instant::now();
    let verdict = decode(input);
    let elapsed = started.elapsed();
    COUNTING.with(|counting| counting.set(false));
    (verdict, PEAK.with(Cell::get), elapsed)
}

/// How an input must come back.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// Decodes.
    Value,
    /// Refused with a typed error.
    Refused,
    /// Refused with this typed error.
    Typed(&'static str),
}

/// Feeds every `(label, input, expect)` case to `decoder` on one
/// 256 KiB-stack thread and returns each failure as a line.
fn run(decoder: &'static Decoder, cases: Vec<(String, Vec<u8>, Expect)>) -> Vec<String> {
    std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || {
            let mut failures = Vec::new();
            for (label, input, expect) in &cases {
                let (verdict, peak, elapsed) = counted(decoder.decode, input);
                let bound = (decoder.bound)(input.len());
                let as_expected = match (expect, &verdict) {
                    (Expect::Value, Ok(())) | (Expect::Refused, Err(_)) => true,
                    (Expect::Typed(want), Err(got)) => want == got,
                    _ => false,
                };
                if !as_expected {
                    failures.push(format!(
                        "{} / {label}: expected {expect:?}, got {verdict:?}",
                        decoder.name
                    ));
                }
                if elapsed > Duration::from_secs(1) {
                    failures.push(format!("{} / {label}: took {elapsed:?}", decoder.name));
                }
                if peak > bound {
                    failures.push(format!(
                        "{} / {label}: peak {peak} bytes over its bound {bound} ({} input bytes)",
                        decoder.name,
                        input.len()
                    ));
                }
            }
            failures
        })
        .expect("spawn the decoding thread")
        .join()
        .unwrap_or_else(|_| vec![format!("{}: a decode panicked", decoder.name)])
}

/// Every proper prefix of `valid`, each refused, then `valid` itself.
fn truncations(valid: &[u8]) -> Vec<(String, Vec<u8>, Expect)> {
    let mut cases: Vec<_> = (0..valid.len())
        .map(|end| {
            (
                format!("prefix {end}"),
                valid[..end].to_vec(),
                Expect::Refused,
            )
        })
        .collect();
    cases.push(("valid".to_string(), valid.to_vec(), Expect::Value));
    cases
}

fn refused(label: &str, input: impl Into<Vec<u8>>) -> (String, Vec<u8>, Expect) {
    (label.to_string(), input.into(), Expect::Refused)
}

const DEEP: usize = 100_000;

fn deep(open: &str) -> String {
    open.repeat(DEEP)
}

fn long_number() -> String {
    format!("1{}", "0".repeat(DEEP))
}

fn assert_clean(failures: &[String]) {
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn text(input: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(input).map_err(|_| "not-utf8".to_string())
}

// ---------------------------------------------------------------------
// HTTP and the job request.
// ---------------------------------------------------------------------

static HTTP: Decoder = Decoder {
    name: "read_request",
    decode: |input| {
        let mut stream = input;
        match read_request(&mut stream, Limits::default()) {
            Ok(Some(_)) => Ok(()),
            Ok(None) => Err("closed".to_string()),
            Err(err) => Err(format!("{}", err.status())),
        }
    },
    bound: http_bound,
};

fn post(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: mogs\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const JOB: &str = r#"{"tenant":"acme","workload":"raw","width":2,"height":1,"labels":2,"unaries":[[0.0,1.5],[2.25,0.0]],"seed":7}"#;

#[test]
fn the_http_reader_refuses_hostile_requests_within_budget() {
    let mut cases = truncations(&post(JOB));
    cases.extend([
        refused(
            "huge Content-Length",
            "POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n{}",
        ),
        refused(
            "a declared body that never arrives",
            "POST / HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n{}",
        ),
        refused(
            "a long Content-Length",
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                "9".repeat(8000)
            ),
        ),
        refused(
            "a long number past the header cap",
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                long_number()
            ),
        ),
        (
            "4,000 tiny headers under the cap".to_string(),
            format!("GET / HTTP/1.1\r\n{}\r\n", "a:\r\n".repeat(4000)).into_bytes(),
            Expect::Value,
        ),
        refused(
            "a header block of tiny headers",
            format!("GET / HTTP/1.1\r\n{}", "a:\r\n".repeat(DEEP)),
        ),
        refused(
            "invalid UTF-8 in the head",
            b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec(),
        ),
        refused(
            "deep nesting in the request line",
            format!("GET /{} HTTP/1.1\r\n\r\n", deep("[")),
        ),
        refused("no line end", "GET / HTTP/1.1".repeat(DEEP)),
    ]);
    assert_clean(&run(&HTTP, cases));
}

static JOB_REQUEST: Decoder = Decoder {
    name: "JobRequest::parse",
    decode: |input| {
        JobRequest::parse(text(input)?)
            .map(drop)
            .map_err(|err| format!("{}", err.status()))
    },
    bound: json_array_bound,
};

#[test]
fn the_job_request_refuses_hostile_bodies_within_budget() {
    let head = r#"{"tenant":"acme","workload":"raw","width":2,"height":1,"labels":2,"#;
    let mut cases = truncations(JOB.as_bytes());
    cases.extend([
        refused("deep nesting", format!("{head}\"unaries\":{}", deep("["))),
        refused(
            "deep unknown key",
            format!("{head}\"x\":{}", deep("{\"a\":")),
        ),
        refused(
            "a long number",
            format!("{head}\"seed\":{}}}", long_number()),
        ),
        refused(
            "a huge width",
            format!("{head}\"width\":1e308}}").replace("\"width\":2,", ""),
        ),
        refused(
            "many empty unary rows",
            format!("{head}\"unaries\":[{}[]]}}", "[],".repeat(DEEP)),
        ),
        refused(
            "many unary numbers",
            format!("{head}\"unaries\":[[{}0]]}}", "0,".repeat(DEEP)),
        ),
        refused("invalid UTF-8", b"{\"tenant\":\"a\xff\xfe\"}".to_vec()),
    ]);
    assert_clean(&run(&JOB_REQUEST, cases));
}

// ---------------------------------------------------------------------
// Fleet frames and the launch spec.
// ---------------------------------------------------------------------

static TO_WORKER: Decoder = Decoder {
    name: "parse_to_worker",
    decode: |input| {
        parse_to_worker(input)
            .map(drop)
            .map_err(|err| err.variant().to_string())
    },
    bound: default_bound,
};

static TO_COORDINATOR: Decoder = Decoder {
    name: "parse_to_coordinator",
    decode: |input| {
        parse_to_coordinator(input)
            .map(drop)
            .map_err(|err| err.variant().to_string())
    },
    bound: default_bound,
};

/// Frame hostilities common to both directions, behind a `tag`.
fn hostile_frames(tag: &str) -> Vec<(String, Vec<u8>, Expect)> {
    vec![
        refused(
            "deep nesting",
            format!("{{\"t\":\"{tag}\",\"x\":{}", deep("[")),
        ),
        refused(
            "deep nesting in the head",
            format!("{{\"t\":\"{tag}\",\"x\":{}\n", "[".repeat(4000)),
        ),
        refused(
            "a long number",
            format!(
                "{{\"t\":\"{tag}\",\"sweep\":{},\"group\":0}}\n",
                long_number()
            ),
        ),
        refused(
            "a huge update count",
            format!(
                "{{\"t\":\"{tag}\",\"sweep\":0,\"group\":0,\"updates\":1152921504606846976}}\n"
            ),
        ),
        refused(
            "an update count past the bytes",
            format!(
                "{{\"t\":\"{tag}\",\"sweep\":0,\"group\":0,\"updates\":1000}}\n{}",
                "\0".repeat(4999)
            ),
        ),
        refused(
            "invalid UTF-8 in the head",
            [format!("{{\"t\":\"{tag}").as_bytes(), b"\xff\xfe\"}\n"].concat(),
        ),
        refused("no head line", "x".repeat(DEEP)),
    ]
}

#[test]
fn fleet_frames_refuse_hostile_payloads_within_budget() {
    let assign = encode_to_worker(&ToWorker::Assign {
        digest: u64::MAX,
        cells: vec![(0, 1), (1, 0)],
        plane: Some(vec![0, 1, 2, 0x0a]),
        resume_sweep: 3,
        replay: vec![vec![(1, 2), (3, 0)], vec![]],
    });
    let mut cases = truncations(&assign);
    cases.extend(hostile_frames("halo"));
    cases.extend([
        refused(
            "a huge replay list",
            format!("{{\"t\":\"assign\",\"digest\":\"{:016x}\",\"resume_sweep\":0,\"cells\":0,\"plane\":null,\"replay\":[{}0]}}\n", 7, "1152921504606846976,".repeat(150)),
        ),
        refused(
            "a huge plane",
            format!("{{\"t\":\"assign\",\"digest\":\"{:016x}\",\"resume_sweep\":0,\"cells\":0,\"plane\":18446744073709551615,\"replay\":[]}}\n", 7),
        ),
    ]);
    assert_clean(&run(&TO_WORKER, cases));

    let done = encode_to_coordinator(&ToCoordinator::PhaseDone {
        sweep: 2,
        group: 1,
        updates: vec![(0, 1), (7, 0x0a), (u32::MAX as usize, 63)],
    });
    let mut cases = truncations(&done);
    cases.extend(hostile_frames("phase_done"));
    cases.push(refused(
        "a fault reason past the bytes",
        "{\"t\":\"fault\",\"reason\":18446744073709551615}\n",
    ));
    cases.push((
        "a non-UTF-8 fault reason".to_string(),
        b"{\"t\":\"fault\",\"reason\":2}\n\xff\xfe".to_vec(),
        Expect::Value,
    ));
    assert_clean(&run(&TO_COORDINATOR, cases));
}

static FLEET_SPEC: Decoder = Decoder {
    name: "FleetSpec::parse",
    decode: |input| {
        FleetSpec::parse(text(input)?)
            .map(drop)
            .map_err(|err| err.variant().to_string())
    },
    bound: default_bound,
};

#[test]
fn the_fleet_spec_refuses_hostile_text_within_budget() {
    let spec = FleetSpec {
        workload: Workload::Demo {
            width: 6,
            height: 4,
            labels: 3,
        },
        backend: BackendKind::Rsu { replicas: 4 },
        iterations: 5,
        threads: 2,
        seed: u64::MAX,
        burn_in: 1,
    };
    let valid = spec.encode();
    let mut cases = truncations(valid.as_bytes());
    let body = valid.trim_end_matches('}');
    cases.extend([
        refused("deep nesting", format!("{body},\"x\":{}", deep("["))),
        refused("deep objects", format!("{body},\"x\":{}", deep("{\"a\":"))),
        refused(
            "a long number",
            valid.replace(
                "\"iterations\":5",
                &format!("\"iterations\":{}", long_number()),
            ),
        ),
        refused(
            "a huge pool",
            valid.replace("\"replicas\":4", "\"replicas\":1e300"),
        ),
        refused("invalid UTF-8", [body.as_bytes(), b",\"\xff\":1}"].concat()),
    ]);
    assert_clean(&run(&FLEET_SPEC, cases));
}

// ---------------------------------------------------------------------
// Checkpoint envelopes.
// ---------------------------------------------------------------------

static CHECKPOINT: Decoder = Decoder {
    name: "mogs_ckpt::decode",
    decode: |input| {
        decode(input)
            .map(drop)
            .map_err(|err| err.variant().to_string())
    },
    bound: default_bound,
};

fn checkpoint() -> Checkpoint {
    Checkpoint {
        meta: "{\"tenant\":\"acme\"}".to_string(),
        state: JobState {
            binding: StateBinding {
                sites: 6,
                width: 3,
                height: 2,
                labels: 2,
                iterations: 9,
                burn_in: 1,
                threads: 2,
                seed: u64::MAX,
                fingerprint: 0x0a0a,
                kernel: "rsu-pool".to_string(),
                track_modes: true,
                record_energy: true,
            },
            next_sweep: 4,
            labels: vec![0, 1, 1, 0, 1, 0],
            energy_trace: vec![f64::NAN, -0.0, 1.5, f64::INFINITY],
            histograms: Some((0..12).collect()),
            kernel_faults: vec![None, Some(UnitFault::Stuck(Label::new(1)))],
            fault: Some(FaultState {
                cursor: 1,
                quarantined: vec![false, true],
                degraded: Some(Degraded {
                    failed_over_at: 2,
                    units_lost: 1,
                }),
                poisoned: false,
            }),
            sink_state: Some(SinkState {
                words: vec![2, 9, u64::MAX],
                samples: vec![-1.25, 3.0],
                counts: vec![4, 0, 0x0a0a_0a0a],
            }),
        },
    }
}

/// `file`'s payload with its head edited, re-sealed.
fn reseal(file: &[u8], from: &str, to: &str) -> Vec<u8> {
    let payload = open_envelope(file).expect("opens");
    let split = payload.iter().position(|&b| b == b'\n').expect("head line");
    let head = std::str::from_utf8(&payload[..split]).expect("UTF-8 head");
    assert!(head.contains(from), "{from} in {head}");
    let mut edited = head.replacen(from, to, 1).into_bytes();
    edited.extend_from_slice(&payload[split..]);
    seal(&edited)
}

#[test]
fn checkpoint_envelopes_refuse_hostile_files_within_budget() {
    let file = encode(&checkpoint());
    let mut cases = truncations(&file);
    // Every lie is sealed under a valid header, so only the state layer
    // can refuse it.
    let meta = format!("\"meta\":{},", checkpoint().meta.len());
    let sink = "\"sink_state\":[3,2,3]";
    let long = format!("\"next_sweep\":{}", long_number());
    for (from, to) in [
        (meta.as_str(), "\"meta\":18,"),
        (meta.as_str(), "\"meta\":18446744073709551615,"),
        (meta.as_str(), "\"meta\":16,"),
        (sink, "\"sink_state\":[2305843009213693952,2,3]"),
        (sink, "\"sink_state\":[3,1,3]"),
        (sink, "\"sink_state\":[3,2,4611686018427387904]"),
        (sink, "\"sink_state\":[3,2]"),
        (sink, "\"sink_state\":null"),
        ("\"labels\":6,", "\"labels\":9007199254740992,"),
        (
            "\"energy_trace\":4,",
            "\"energy_trace\":1152921504606846976,",
        ),
        ("\"next_sweep\":4", "\"next_sweep\":1e400"),
        ("\"next_sweep\":4", &long),
    ] {
        let label = format!("{from} -> {to:.40}");
        cases.push((label, reseal(&file, from, to), Expect::Typed("state")));
    }
    let payload = open_envelope(&file).expect("opens");
    let meta_at = payload.iter().position(|&b| b == b'\n').expect("head") + 1 + 6 + 32 + 48;
    let mut rotten = payload.to_vec();
    rotten[meta_at] = 0xff;
    cases.push((
        "a non-UTF-8 meta section".to_string(),
        seal(&rotten),
        Expect::Typed("state"),
    ));
    cases.extend([
        refused(
            "deep nesting",
            seal(format!("{{\"x\":{}\n", deep("[")).as_bytes()),
        ),
        refused(
            "deep nesting under the head cap",
            seal(format!("{{\"x\":{}\n", "[".repeat(2000)).as_bytes()),
        ),
        refused("a head past the cap", seal(&vec![b' '; 2 * HEAD_LIMIT])),
        refused(
            "a huge declared length",
            "{\"version\":4,\"length\":18446744073709551615,\"checksum\":\"0000000000000000\"}\n",
        ),
        refused(
            "a long length",
            format!("{{\"version\":4,\"length\":{},", long_number()),
        ),
        refused("invalid UTF-8 in the head", seal(b"{\"meta\xff\xfe\":0}\n")),
    ]);
    assert_clean(&run(&CHECKPOINT, cases));
}

// ---------------------------------------------------------------------
// Schedule certificates.
// ---------------------------------------------------------------------

static CERTIFICATE: Decoder = Decoder {
    name: "ScheduleCertificate::from_json",
    decode: |input| {
        ScheduleCertificate::from_json(text(input)?)
            .map(drop)
            .map_err(|_| "json".to_string())
    },
    bound: json_array_bound,
};

#[test]
fn certificates_refuse_hostile_json_within_budget() {
    let topology = Topology::from_grid(Grid2D::new(4, 3), Neighborhood::FirstOrder);
    let valid = color_schedule(&topology, 2).to_json();
    let mut cases = truncations(valid.as_bytes());
    let body = valid.trim_end_matches('}');
    cases.extend([
        refused("deep nesting", format!("{body},\"x\":{}", deep("["))),
        refused(
            "deep classes",
            valid.replacen("\"classes\":[", &format!("\"classes\":{}", deep("[")), 1),
        ),
        refused(
            "a long number",
            valid.replacen("\"sites\":12", &format!("\"sites\":{}", long_number()), 1),
        ),
        refused(
            "many empty classes",
            valid.replacen(
                "\"classes\":[",
                &format!("\"classes\":[{}", "[],".repeat(DEEP)),
                1,
            ) + "x",
        ),
        refused("invalid UTF-8", [body.as_bytes(), b",\"\xff\":1}"].concat()),
    ]);
    assert_clean(&run(&CERTIFICATE, cases));
}
