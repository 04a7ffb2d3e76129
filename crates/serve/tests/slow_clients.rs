//! Slow clients against a live listener with a single connection
//! worker: a client that drips bytes, or stalls mid-body, is cut off
//! within about twice the read timeout, and the one worker then serves
//! the next client. Every test binds its own server on port 0.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mogs_engine::{Engine, EngineConfig};
use mogs_serve::{http_request, ServeConfig, Server, TenantRegistry};

const READ_TIMEOUT: Duration = Duration::from_millis(300);

/// Scheduling slack on top of the 2× `READ_TIMEOUT` bound.
const SLACK: Duration = Duration::from_millis(400);

fn serve() -> Server {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }));
    let config = ServeConfig {
        conn_workers: 1,
        read_timeout: READ_TIMEOUT,
        ..ServeConfig::default()
    };
    Server::bind(
        "127.0.0.1:0",
        config,
        engine,
        Arc::new(TenantRegistry::new()),
    )
    .expect("bind loopback")
}

/// Everything the server sends until it closes the connection. A reset
/// ends the read like a close does; the client-side timeout turns a
/// hang into a failed assertion instead of a wedged test.
fn read_until_closed(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

#[test]
fn a_dripping_client_is_cut_off_and_the_worker_serves_the_next() {
    let server = serve();
    let addr = server.local_addr();
    let mut reader = TcpStream::connect(addr).expect("connect");
    let mut writer = reader.try_clone().expect("clone the client socket");
    // A head that takes ~20 s to drip at one byte per third of the read
    // timeout: every single read succeeds well inside the per-read
    // timeout, so only a bound on the whole request can end it early.
    let head = format!(
        "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(180)
    );
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (reply, waited) = std::thread::scope(|scope| {
        scope.spawn(|| {
            for byte in head.bytes() {
                if done.load(Ordering::Acquire) || writer.write_all(&[byte]).is_err() {
                    return;
                }
                std::thread::sleep(READ_TIMEOUT / 3);
            }
        });
        let reply = read_until_closed(&mut reader);
        let waited = started.elapsed();
        done.store(true, Ordering::Release);
        (reply, waited)
    });
    assert!(
        waited < 2 * READ_TIMEOUT + SLACK,
        "the dripping client held the worker for {waited:?}"
    );
    let text = String::from_utf8_lossy(&reply);
    assert!(
        !text.starts_with("HTTP/1.1 2"),
        "an unfinished request must not be served: {text}"
    );
    let next = http_request(addr, "GET", "/metrics", None).expect("second client");
    assert_eq!(next.status, 200, "{}", next.body_text());
    server.shutdown();
}

#[test]
fn a_client_stalled_mid_body_gets_a_4xx_or_a_close_never_a_hang() {
    let server = serve();
    let addr = server.local_addr();
    let mut stalled = TcpStream::connect(addr).expect("connect");
    let started = Instant::now();
    stalled
        .write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"tenant\":")
        .expect("send the head and a tenth of the body");
    let reply = read_until_closed(&mut stalled);
    let waited = started.elapsed();
    assert!(
        waited < 2 * READ_TIMEOUT + SLACK,
        "the stalled client held the worker for {waited:?}"
    );
    let text = String::from_utf8_lossy(&reply);
    assert!(
        reply.is_empty() || text.starts_with("HTTP/1.1 4"),
        "expected a 4xx or a bare close, got: {text}"
    );
    let next = http_request(addr, "GET", "/metrics", None).expect("second client");
    assert_eq!(next.status, 200, "{}", next.body_text());
    server.shutdown();
}
