//! A minimal, std-only HTTP/1.1 message layer.
//!
//! The vendored registry has no hyper/tokio and the engine API is
//! blocking, so the server speaks HTTP/1.1 by hand over `std::net`
//! streams: [`read_request`] parses one request from any `BufRead`
//! (request line, headers, `Content-Length`-framed body) and
//! [`Response::write_to`] emits one response to any `Write`. Keeping
//! both ends generic over the stream traits means every parser path is
//! unit-testable on in-memory buffers, no sockets required.
//!
//! Limits are enforced *while reading*, not after: the request line and
//! header block are capped by [`Limits::max_header_bytes`] and a body is
//! only read once its declared `Content-Length` clears
//! [`Limits::max_body_bytes`] — an oversized upload is rejected without
//! pulling it off the socket (the caller then closes the connection, see
//! [`ServeError::into_response`]).
//!
//! Chunked transfer encoding is deliberately not supported: every client
//! this server exists for (the bench driver, `curl` with a JSON body)
//! sends `Content-Length`, and rejecting the rest with a typed 400 keeps
//! the framing logic small enough to audit.

use std::io::{BufRead, Read, Write};

use crate::error::ServeError;

/// Read caps applied while parsing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Cap on the request line plus all header lines, bytes.
    pub max_header_bytes: usize,
    /// Cap on the declared `Content-Length`, bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The path component of the request target (query string stripped).
    pub path: String,
    /// The headers the server acts on — `content-length`,
    /// `transfer-encoding` and `connection` — each at its first value,
    /// names lowercased; [`read_request`] keeps no other.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body (empty when none was declared).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this
    /// exchange (`Connection: close`; HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header_value("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the body is not valid UTF-8.
    pub fn body_utf8(&self) -> Result<&str, ServeError> {
        std::str::from_utf8(&self.body).map_err(|_| ServeError::BadRequest {
            reason: "request body is not valid UTF-8".to_string(),
        })
    }
}

/// The headers [`read_request`] keeps.
const READ_HEADERS: [&str; 3] = ["content-length", "transfer-encoding", "connection"];

/// Reads one request off `stream`.
///
/// Returns `Ok(None)` on a clean end-of-stream before any request byte
/// (the client closed an idle keep-alive connection — not an error).
///
/// # Errors
///
/// [`ServeError::BadRequest`] for malformed framing and
/// [`ServeError::PayloadTooLarge`] for a `Content-Length` over the cap
/// (in which case the body is *not* consumed and the connection must be
/// closed after responding).
pub fn read_request<R: BufRead>(
    stream: &mut R,
    limits: Limits,
) -> Result<Option<Request>, ServeError> {
    let mut budget = limits.max_header_bytes;
    let Some(request_line) = read_crlf_line(stream, &mut budget)? else {
        return Ok(None);
    };
    if request_line.is_empty() {
        return Err(ServeError::BadRequest {
            reason: "empty request line".to_string(),
        });
    }
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ServeError::BadRequest {
            reason: format!("malformed request line `{request_line}`"),
        });
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ServeError::BadRequest {
            reason: format!("unsupported request line `{request_line}`"),
        });
    }
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_crlf_line(stream, &mut budget)? else {
            return Err(ServeError::BadRequest {
                reason: "connection closed inside the header block".to_string(),
            });
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::BadRequest {
                reason: format!("header line `{line}` has no colon"),
            });
        };
        // Every other header is read, charged to the cap and dropped.
        let name = name.trim().to_ascii_lowercase();
        if READ_HEADERS.contains(&name.as_str()) && !headers.iter().any(|(n, _)| *n == name) {
            headers.push((name, value.trim().to_string()));
        }
    }
    let request = Request {
        method: method.to_string(),
        path: target.split('?').next().unwrap_or(target).to_string(),
        headers,
        body: Vec::new(),
    };
    if request
        .header_value("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ServeError::BadRequest {
            reason: "chunked transfer encoding is not supported; send Content-Length".to_string(),
        });
    }
    let declared = match request.header_value("content-length") {
        None => 0,
        Some(raw) => raw.parse::<usize>().map_err(|_| ServeError::BadRequest {
            reason: format!("unparseable Content-Length `{raw}`"),
        })?,
    };
    if declared > limits.max_body_bytes {
        // Refuse before reading: the caller responds 413 and closes.
        return Err(ServeError::PayloadTooLarge {
            limit: limits.max_body_bytes,
            declared,
        });
    }
    let mut request = request;
    if declared > 0 {
        // The buffer grows with the bytes that arrive, so a length the
        // client declares but never sends sizes nothing past 64 KiB.
        let mut body = Vec::with_capacity(declared.min(64 << 10));
        let read = stream
            .take(u64::try_from(declared).unwrap_or(u64::MAX))
            .read_to_end(&mut body)
            .map_err(|e| ServeError::BadRequest {
                reason: format!("body shorter than its Content-Length: {e}"),
            })?;
        if read < declared {
            return Err(ServeError::BadRequest {
                reason: format!("body shorter than its Content-Length: {read} of {declared} bytes"),
            });
        }
        request.body = body;
    }
    Ok(Some(request))
}

/// Reads one CRLF-terminated line, charging its bytes against `budget`.
/// Returns `Ok(None)` on end-of-stream at a line boundary.
fn read_crlf_line<R: BufRead>(
    stream: &mut R,
    budget: &mut usize,
) -> Result<Option<String>, ServeError> {
    let mut raw = Vec::new();
    let mut take = stream.take(*budget as u64 + 1);
    let n = match take.read_until(b'\n', &mut raw) {
        Ok(n) => n,
        // A read timeout (idle keep-alive connection) is a clean close,
        // not a protocol error — nothing useful can be sent back.
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Ok(None);
        }
        Err(e) => {
            return Err(ServeError::BadRequest {
                reason: format!("read failed: {e}"),
            });
        }
    };
    if n == 0 {
        return Ok(None);
    }
    if n > *budget {
        return Err(ServeError::BadRequest {
            reason: "request head exceeds the header-size cap".to_string(),
        });
    }
    *budget -= n;
    if raw.last() != Some(&b'\n') {
        return Err(ServeError::BadRequest {
            reason: "connection closed mid-line".to_string(),
        });
    }
    raw.pop();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| ServeError::BadRequest {
            reason: "request head is not valid UTF-8".to_string(),
        })
}

/// One response, built by handlers and written by the connection loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Content-Length`, and
    /// `Connection` are emitted automatically).
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Close the connection after writing (set for framing-unsafe
    /// errors and honoured for client `Connection: close`).
    pub close_connection: bool,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), "application/json".to_string())],
            body: body.into_bytes(),
            close_connection: false,
        }
    }

    /// A plain-text response (used by `/metrics`, which speaks the
    /// Prometheus text exposition format).
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            headers: vec![(
                "Content-Type".to_string(),
                "text/plain; version=0.0.4; charset=utf-8".to_string(),
            )],
            body: body.into_bytes(),
            close_connection: false,
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Marks the connection for closing after this response.
    #[must_use]
    pub fn close(mut self) -> Self {
        self.close_connection = true;
        self
    }

    /// First value of a header, by exact name.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Writes the response in wire format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the stream.
    pub fn write_to<W: Write>(&self, stream: &mut W) -> std::io::Result<()> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            status_text(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(stream, "{name}: {value}\r\n")?;
        }
        write!(stream, "Content-Length: {}\r\n", self.body.len())?;
        if self.close_connection {
            stream.write_all(b"Connection: close\r\n")?;
        }
        stream.write_all(b"\r\n")?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Reason phrase for the status codes this server emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// JSON-escapes a string, quotes included (the serve layer builds its
/// small response bodies by hand; the vendored serde derive only covers
/// fixed-shape structs).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    use serde::Serialize;
    s.serialize_json(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Option<Request>, ServeError> {
        read_request(&mut Cursor::new(raw.as_bytes()), Limits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"\"}")
            .expect("well-formed")
            .expect("a request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, b"{\"\"}");
        assert_eq!(req.header_value("content-length"), Some("4"));
        assert_eq!(
            req.header_value("host"),
            None,
            "a header the server never reads"
        );
        assert!(!req.wants_close());
    }

    #[test]
    fn strips_query_strings_and_honours_connection_close() {
        let req = parse("GET /v1/jobs/3?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("well-formed")
            .expect("a request");
        assert_eq!(req.path, "/v1/jobs/3");
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        assert_eq!(parse("").expect("clean eof"), None);
    }

    #[test]
    fn malformed_request_lines_are_bad_requests() {
        for raw in [
            "GET\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "\r\n\r\n",
        ] {
            let err = parse(raw).expect_err("malformed");
            assert_eq!(err.status(), 400, "raw: {raw:?}");
        }
    }

    #[test]
    fn headers_without_colons_are_rejected() {
        let err = parse("GET /x HTTP/1.1\r\nbroken header\r\n\r\n").expect_err("malformed");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn oversized_declared_body_is_413_without_reading_it() {
        let raw = "POST /v1/jobs HTTP/1.1\r\nContent-Length: 99\r\n\r\n";
        let mut cursor = Cursor::new(raw.as_bytes());
        let err = read_request(
            &mut cursor,
            Limits {
                max_header_bytes: 1024,
                max_body_bytes: 10,
            },
        )
        .expect_err("too large");
        let ServeError::PayloadTooLarge { limit, declared } = err else {
            panic!("wrong variant: {err:?}");
        };
        assert_eq!((limit, declared), (10, 99));
        // Nothing past the blank line was consumed.
        assert_eq!(cursor.position() as usize, raw.len());
    }

    #[test]
    fn oversized_header_block_is_rejected() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64));
        let err = read_request(
            &mut Cursor::new(raw.as_bytes()),
            Limits {
                max_header_bytes: 32,
                max_body_bytes: 10,
            },
        )
        .expect_err("head too big");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").expect_err("short");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn chunked_encoding_is_refused() {
        let err = parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .expect_err("unsupported");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn responses_round_trip_in_wire_format() {
        let mut wire = Vec::new();
        Response::json(201, "{\"id\":1}".to_string())
            .header("Retry-After", "3")
            .write_to(&mut wire)
            .expect("write");
        let text = String::from_utf8(wire).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"), "{text}");
        assert!(text.contains("Content-Length: 8\r\n"), "{text}");
        assert!(text.contains("Retry-After: 3\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"id\":1}"), "{text}");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
