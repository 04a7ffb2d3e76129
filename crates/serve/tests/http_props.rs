//! Byte-boundary tests for the serve front door: the HTTP/1.1 request
//! reader, the `POST /v1/jobs` JSON body and the `POST /v1/fleet/jobs`
//! spec.
//!
//! The claims under test:
//!
//! - `http::read_request` on arbitrary bytes — bare, or behind a genuine
//!   request line — returns a request, a clean end of stream, or a typed
//!   `BadRequest`/`PayloadTooLarge`, never a panic;
//! - every proper prefix of a valid POST is a clean end of stream (the
//!   empty prefix) or a typed `BadRequest`, never a partial request;
//! - a declared `Content-Length` anywhere above the body cap, up to
//!   `u64::MAX`, is refused as `PayloadTooLarge` before a single body
//!   byte is read;
//! - `JobRequest::parse` on arbitrary strings — bare, or spliced into a
//!   valid request — returns a request or a typed `BadRequest`, never a
//!   panic;
//! - `FleetSpec::parse` on arbitrary strings returns a spec or an error,
//!   and `FleetRunner::submit` on them, or on a spec with any `u64`
//!   width, height, sweep budget and RSU pool size, answers a typed
//!   `BadRequest` or `Backpressure` (the single-flight slot is held),
//!   never a panic or an abort — `Backpressure` exactly when the spec
//!   is within the site cap, the sweep bound and the replica bound.

use std::io::Cursor;
use std::sync::OnceLock;

use mogs_engine::MAX_REPLICAS;
use mogs_fleet::{BackendKind, FleetError, FleetSpec, Workload};
use mogs_serve::http::read_request;
use mogs_serve::jobspec::MAX_ITERATIONS;
use mogs_serve::{FleetRunner, FleetSetup, JobRequest, Limits, ServeError};
use proptest::prelude::*;

/// A well-formed POST with a JSON body.
fn valid_post(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/jobs?wait=0 HTTP/1.1\r\nHost: localhost\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const BODY: &str = r#"{"tenant":"acme","workload":"segmentation","width":8,"height":6}"#;

/// Small caps so arbitrary inputs reach every limit branch.
fn limits() -> Limits {
    Limits {
        max_header_bytes: 256,
        max_body_bytes: 128,
    }
}

/// The typed outcomes `read_request` may report for bad bytes.
fn is_typed(err: &ServeError) -> bool {
    matches!(
        err,
        ServeError::BadRequest { .. } | ServeError::PayloadTooLarge { .. }
    )
}

#[test]
fn a_valid_post_parses() {
    let bytes = valid_post(BODY);
    let request = read_request(&mut Cursor::new(&bytes), limits())
        .expect("valid request")
        .expect("not end of stream");
    assert_eq!(request.method, "POST");
    assert_eq!(request.path, "/v1/jobs");
    assert_eq!(request.body, BODY.as_bytes());
    let job = JobRequest::parse(request.body_utf8().expect("utf-8")).expect("valid job");
    assert_eq!((job.tenant.as_str(), job.sites()), ("acme", 48));
}

#[test]
fn every_proper_prefix_of_a_valid_post_is_end_of_stream_or_bad_request() {
    let bytes = valid_post(BODY);
    for cut in 0..bytes.len() {
        let outcome = read_request(&mut Cursor::new(&bytes[..cut]), limits());
        match outcome {
            Ok(None) => assert_eq!(cut, 0, "only the empty prefix is a clean close"),
            Ok(Some(request)) => panic!("prefix of {cut} bytes parsed as {request:?}"),
            Err(err) => assert!(
                matches!(err, ServeError::BadRequest { .. }),
                "prefix of {cut} bytes: {err:?}"
            ),
        }
    }
}

/// JSON-ish tokens: structure, every key the parser knows, and values
/// at and past its ranges — including non-finite and huge numbers, lone
/// surrogate escapes and multi-byte text.
#[rustfmt::skip]
const TOKENS: [&str; 40] = [
    "{", "}", "[", "]", ":", ",", " ", "\"", "\\", "\"tenant\"", "\"workload\"", "\"raw\"",
    "\"segmentation\"", "\"motion\"", "\"stereo\"", "\"width\"", "\"height\"", "\"labels\"",
    "\"iterations\"", "\"seed\"", "\"threads\"", "\"noise_sigma\"", "\"smoothness\"", "\"dx\"",
    "\"dy\"", "\"disparity\"", "\"diag\"", "\"unaries\"", "true", "null", "0", "-1", "3", "64",
    "1e309", "-0.0", "9007199254740993", "\"\\uD800\"", "\"\\u00e9\"", "é",
];

/// Strings drawn from [`TOKENS`] and from arbitrary code points.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..4, 0usize..TOKENS.len(), 0u32..0x11_0000), 0..48).prop_map(
        |parts| {
            parts
                .into_iter()
                .map(|(kind, token, code)| match kind {
                    0 => char::from_u32(code).map(String::from).unwrap_or_default(),
                    _ => TOKENS[token].to_string(),
                })
                .collect()
        },
    )
}

/// Fragments of fleet specs, whitespace-separated, spliced at random by
/// [`arb_fleet_text`].
const FLEET_TOKENS: &str = r#"{ } : , " "workload" "kind" "demo" "stereo" "width" "height"
    "labels" "disparity" "noise_sigma" "scene_seed" "backend" "softmax" "rsu" "replicas"
    "iterations" "threads" "seed" "burn_in" "0000000000000011" 0 3 -1 1e309 8589934592
    67280421310721 4503599627370496 18446744073709551615"#;

/// Strings drawn from [`FLEET_TOKENS`], with a valid spec's text mixed in.
fn arb_fleet_text() -> impl Strategy<Value = String> {
    let valid = fleet_spec(6, 4, 3).encode();
    let tokens: Vec<&str> = FLEET_TOKENS.split_whitespace().collect();
    let parts = (0u8..3, 0usize..tokens.len(), 0usize..valid.len());
    prop::collection::vec(parts, 0..48).prop_map(move |parts| {
        parts
            .into_iter()
            .map(|(kind, token, cut)| match kind {
                0 => &valid[..cut],
                _ => tokens[token],
            })
            .collect()
    })
}

/// A `u64` that is often an edge: arbitrary, small, near 2^32, or a
/// power of two.
fn arb_edge_u64() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..=u64::MAX).prop_map(|(kind, bits)| match kind {
        0 => bits,
        1 => bits % 65,
        2 => (1u64 << 32) - 2 + bits % 5,
        _ => 1u64 << (bits % 64),
    })
}

fn fleet_spec(width: usize, height: usize, iterations: usize) -> FleetSpec {
    FleetSpec {
        workload: Workload::Demo {
            width,
            height,
            labels: 3,
        },
        backend: BackendKind::Softmax,
        iterations,
        threads: 2,
        seed: 17,
        burn_in: 1,
    }
}

fn rsu_fleet_spec(width: usize, height: usize, iterations: usize, replicas: usize) -> FleetSpec {
    FleetSpec {
        workload: Workload::Demo {
            width,
            height,
            labels: 3,
        },
        backend: BackendKind::Rsu { replicas },
        iterations,
        threads: 2,
        seed: 17,
        burn_in: 1,
    }
}

const FLEET_MAX_SITES: usize = 1 << 16;

/// One process-wide runner whose single-flight slot is held by a job
/// with the largest admissible sweep budget, so every spec that passes
/// validation meets `Backpressure` instead of launching.
fn busy_fleet() -> &'static FleetRunner {
    static RUNNER: OnceLock<FleetRunner> = OnceLock::new();
    RUNNER.get_or_init(|| {
        let runner = FleetRunner::new(FleetSetup {
            workers: 1,
            max_sites: FLEET_MAX_SITES,
        });
        let slow = fleet_spec(6, 4, MAX_ITERATIONS).encode();
        runner.submit(&slow, 1).expect("the slot starts free");
        runner
    })
}

/// The typed outcomes a busy fleet route may report.
fn is_fleet_typed(err: &ServeError) -> bool {
    matches!(
        err,
        ServeError::BadRequest { .. } | ServeError::Backpressure { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_never_panic_the_request_reader(
        bytes in prop::collection::vec(0u8..=255, 0..400),
        behind_a_request_line in prop::bool::ANY,
    ) {
        let mut input = Vec::new();
        if behind_a_request_line {
            input.extend_from_slice(b"POST /v1/jobs HTTP/1.1\r\n");
        }
        input.extend_from_slice(&bytes);
        if let Err(err) = read_request(&mut Cursor::new(&input), limits()) {
            prop_assert!(is_typed(&err), "{err:?}");
        }
    }

    #[test]
    fn oversized_content_length_is_refused_before_the_body(
        declared in 129u64..=u64::MAX,
        body in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let head = format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        let mut input = head.clone().into_bytes();
        input.extend_from_slice(&body);
        let mut stream = Cursor::new(&input);
        let err = read_request(&mut stream, limits()).expect_err("over the cap");
        match err {
            ServeError::PayloadTooLarge { limit, declared: seen } => {
                prop_assert_eq!(limit, 128);
                prop_assert_eq!(seen as u64, declared);
            }
            other => prop_assert!(false, "expected PayloadTooLarge, got {other:?}"),
        }
        prop_assert_eq!(stream.position(), head.len() as u64, "a body byte was read");
    }

    #[test]
    fn arbitrary_strings_never_panic_the_job_parser(text in arb_text()) {
        if let Err(err) = JobRequest::parse(&text) {
            prop_assert!(matches!(err, ServeError::BadRequest { .. }), "{text:?}: {err:?}");
        }
    }

    #[test]
    fn values_spliced_into_a_valid_request_never_panic_the_job_parser(
        key in 0usize..TOKENS.len(),
        value in (0u8..3, 0u64..=u64::MAX, arb_text()),
    ) {
        let value = match value {
            (0, bits, _) => format!("{:e}", f64::from_bits(bits)),
            (1, bits, _) => (bits as i64).to_string(),
            (_, _, text) => text,
        };
        let json = format!(r#"{{"tenant":"t","workload":"raw",{}:{value}}}"#, TOKENS[key]);
        if let Err(err) = JobRequest::parse(&json) {
            prop_assert!(matches!(err, ServeError::BadRequest { .. }), "{json}: {err:?}");
        }
    }

    #[test]
    fn arbitrary_strings_never_panic_the_fleet_spec_parser(text in arb_fleet_text()) {
        let _ = FleetSpec::parse(&text);
        match busy_fleet().submit(&text, 1) {
            Ok(response) => prop_assert!(false, "{text:?} launched: {}", response.status),
            Err(err) => prop_assert!(is_fleet_typed(&err), "{text:?}: {err:?}"),
        }
    }

    #[test]
    fn any_u64_dimensions_and_budget_through_fleet_submit_are_typed(
        width in arb_edge_u64(),
        height in arb_edge_u64(),
        iterations in arb_edge_u64(),
        rsu in prop::bool::ANY,
        replicas in arb_edge_u64(),
    ) {
        let [w, h, n] = [width, height, iterations].map(|v| usize::try_from(v).unwrap_or(usize::MAX));
        let r = rsu.then(|| usize::try_from(replicas).unwrap_or(usize::MAX));
        let body = match r {
            None => fleet_spec(w, h, n).encode(),
            Some(r) => rsu_fleet_spec(w, h, n, r).encode(),
        };
        let pool_ok = r.is_none_or(|r| (1..=MAX_REPLICAS).contains(&r));
        if !pool_ok {
            prop_assert!(
                matches!(FleetSpec::parse(&body), Err(FleetError::Spec { .. })),
                "{}", body
            );
        }
        let sites = w.checked_mul(h);
        if sites.is_none_or(|s| s > 1 << 32) {
            // Overflowing, or past what a u32 site index can name.
            prop_assert!(
                matches!(FleetSpec::parse(&body), Err(FleetError::Spec { .. })),
                "{}", body
            );
        }
        let admissible = sites.is_some_and(|s| (1..=FLEET_MAX_SITES).contains(&s))
            && (1..=MAX_ITERATIONS).contains(&n)
            && pool_ok;
        match busy_fleet().submit(&body, 1) {
            Ok(response) => prop_assert!(false, "{body} launched: {}", response.status),
            Err(err) => {
                prop_assert!(is_fleet_typed(&err), "{body}: {err:?}");
                prop_assert_eq!(
                    matches!(err, ServeError::Backpressure { .. }),
                    admissible,
                    "{}: {:?}",
                    body,
                    err
                );
            }
        }
    }
}
