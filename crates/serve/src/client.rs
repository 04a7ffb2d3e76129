//! A minimal blocking HTTP/1.1 client, in two flavors.
//!
//! This is the test-and-bench counterpart of the server — just enough
//! protocol to drive [`Server`](crate::Server) over loopback from the
//! integration tests and the benchmark's closed-loop clients:
//!
//! * [`http_request`] opens a fresh connection per request
//!   (`Connection: close`) — trivially wedge-free and stateless;
//! * [`HttpClient`] keeps one connection alive across requests,
//!   reconnecting transparently when the server closes it (idle
//!   timeout, per-connection request cap) and counting how often it
//!   had to (`serve_lifecycle` pins the reconnect at the cap).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a header, by lowercase name.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as text (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request and reads the full response.
///
/// # Errors
///
/// Propagates socket errors; malformed responses surface as
/// `InvalidData`.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let mut write_half = stream.try_clone()?;
    let payload = body.unwrap_or("");
    write!(
        write_half,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{payload}",
        payload.len()
    )?;
    write_half.flush()?;
    read_response(BufReader::new(stream))
}

/// A keep-alive HTTP/1.1 client: one connection reused across
/// requests.
///
/// The connection is opened lazily on the first request and dropped
/// whenever the server signals close (`Connection: close`, or a
/// response the framing cannot keep the stream alive through). A
/// request that fails on a *pooled* connection — the server closed it
/// between requests, which keep-alive makes routine — is retried once
/// on a fresh connection before the error surfaces.
/// [`connections_opened`](HttpClient::connections_opened) counts the
/// connections it took.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    read_timeout: Duration,
    conn: Option<Conn>,
    connects: u64,
}

#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// A client for `addr`; no connection is opened until the first
    /// request.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient {
            addr,
            read_timeout: Duration::from_secs(30),
            conn: None,
            connects: 0,
        }
    }

    /// Connections opened so far (1 for a fully reused session; one
    /// per request degenerates to the `http_request` baseline).
    #[must_use]
    pub fn connections_opened(&self) -> u64 {
        self.connects
    }

    /// Sends one request on the pooled connection and reads the full
    /// response, reconnecting (and retrying once) if the pooled
    /// connection had gone stale.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; malformed responses surface as
    /// `InvalidData`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        let pooled = self.conn.is_some();
        match self.try_request(method, path, body) {
            // A pooled connection can die legitimately between requests
            // (server request cap, idle timeout); one fresh retry
            // distinguishes that from a down server.
            Err(_) if pooled => {
                self.conn = None;
                self.try_request(method, path, body)
            }
            outcome => outcome,
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.read_timeout))?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some(Conn {
                reader,
                writer: stream,
            });
            self.connects += 1;
        }
        let addr = self.addr;
        let Some(conn) = self.conn.as_mut() else {
            // Unreachable: the block above just ensured a connection.
            return Err(std::io::Error::other("connection pool empty after connect"));
        };
        let payload = body.unwrap_or("");
        let outcome = write!(
            conn.writer,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        )
        .and_then(|()| conn.writer.flush())
        .and_then(|()| read_response(&mut conn.reader));
        match outcome {
            Ok(response) => {
                // Drop the connection when the server said close, or
                // when the response had no Content-Length (the stream
                // position is only known through end-of-stream).
                let server_closed = response
                    .header_value("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                if server_closed || response.header_value("content-length").is_none() {
                    self.conn = None;
                }
                Ok(response)
            }
            Err(err) => {
                self.conn = None;
                Err(err)
            }
        }
    }
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

fn read_response<R: BufRead>(mut reader: R) -> std::io::Result<ClientResponse> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let body = match headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>())
    {
        Some(Ok(len)) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            body
        }
        Some(Err(_)) => return Err(invalid("unparseable Content-Length")),
        None => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_framed_response() {
        let wire = "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                    Retry-After: 2\r\nContent-Length: 4\r\n\r\nbody";
        let response = read_response(Cursor::new(wire.as_bytes())).expect("well-formed");
        assert_eq!(response.status, 429);
        assert_eq!(response.header_value("retry-after"), Some("2"));
        assert_eq!(response.body_text(), "body");
    }

    #[test]
    fn malformed_status_lines_are_invalid_data() {
        let err = read_response(Cursor::new(b"garbage\r\n\r\n".as_slice())).expect_err("bad");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
