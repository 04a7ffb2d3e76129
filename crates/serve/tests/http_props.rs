//! Byte-boundary tests for the serve front door: the HTTP/1.1 request
//! reader and the `POST /v1/jobs` JSON body.
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
//!   panic.

use std::io::Cursor;

use mogs_serve::http::read_request;
use mogs_serve::{JobRequest, Limits, ServeError};
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
}
