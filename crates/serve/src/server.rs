//! The listener: `std::net::TcpListener` + a crossbeam-channel
//! connection worker pool.
//!
//! Accepted connections travel over a bounded channel to a fixed pool
//! of connection workers; each worker owns one connection at a time,
//! reading requests and writing responses until the client closes, the
//! read timeout fires, or the per-connection request cap is reached.
//! When the channel is full the accept thread blocks, which pushes
//! further connections into the OS listen backlog — admission control
//! at the socket layer, mirroring the engine's bounded job queue one
//! level up.
//!
//! Wedge avoidance, the property the lifecycle and slow-client tests and
//! the benchmark's `serve-small` load drive: a worker can never be parked indefinitely. Reads carry
//! [`ServeConfig::read_timeout`] (an idle keep-alive connection is
//! closed, not waited on), one request may take no longer than that from
//! its first byte (a client dripping bytes is cut off within twice the
//! timeout), writes carry the same timeout (a client that never reads
//! cannot park a worker in a response), request handling is non-blocking
//! end to end (the job store polls handles, it never calls `wait()`), oversized
//! bodies are refused *before* they are read and the connection is
//! closed since its framing is unsound, and malformed requests get a
//! typed 4xx while the worker moves on. See DESIGN §13 for how
//! `conn_workers` should be sized against the engine's own pool.

use std::io::{BufReader, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use mogs_ckpt::CheckpointStore;
use mogs_engine::Engine;

use crate::ckpt::{recover, CheckpointSetup, RecoveryReport};
use crate::fleet::{FleetRunner, FleetSetup};
use crate::http::{read_request, Limits, Response};
use crate::metrics::ServeMetrics;
use crate::router::Router;
use crate::store::JobStore;
use crate::tenant::TenantRegistry;

/// Tunables for one [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Connection workers. Sized independently of the engine's worker
    /// pool: connection workers are I/O-bound (parse, route, poll) and
    /// cheap, engine workers are compute-bound — see DESIGN §13.
    pub conn_workers: usize,
    /// Cap on a request's declared `Content-Length`, bytes.
    pub max_body_bytes: usize,
    /// Cap on a request line plus header block, bytes.
    pub max_header_bytes: usize,
    /// `Retry-After` hint on 429/503 responses, seconds.
    pub retry_after_s: u64,
    /// Bounded random jitter added on top of `retry_after_s` in the
    /// rendered header — each 429/503 carries
    /// `retry_after_s + U(0..=retry_jitter_s)` so synchronized clients
    /// decorrelate their retries. Zero (the default) disables jitter.
    pub retry_jitter_s: u64,
    /// Batch-priority jobs are refused once the engine queue depth
    /// reaches this, reserving headroom for interactive tenants.
    pub batch_queue_ceiling: u64,
    /// Terminal jobs retained for polling before oldest-first eviction.
    pub max_terminal_retained: usize,
    /// Socket read and write timeout, and the budget for one request
    /// from its first byte; bounds how long an idle, slow, or non-reading
    /// client can hold a worker.
    pub read_timeout: Duration,
    /// Requests served on one connection before it is closed, bounding
    /// how long any single client can occupy a worker.
    pub keep_alive_max_requests: usize,
    /// Durable sweep-boundary checkpoints: every submission checkpoints
    /// under its serve id, and [`Server::bind`] re-admits resumable jobs
    /// found in the directory before serving traffic. `None` disables
    /// checkpointing (the default).
    pub checkpoint: Option<CheckpointSetup>,
    /// Optional multi-process fleet backend: when set, `/v1/fleet/jobs`
    /// routes submissions through the `mogs-fleet` coordinator. `None`
    /// (the default) leaves the fleet routes answering 404.
    pub fleet: Option<FleetSetup>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            conn_workers: 8,
            max_body_bytes: 1024 * 1024,
            max_header_bytes: 16 * 1024,
            retry_after_s: 1,
            retry_jitter_s: 0,
            batch_queue_ceiling: 8,
            max_terminal_retained: 256,
            read_timeout: Duration::from_secs(2),
            keep_alive_max_requests: 256,
            checkpoint: None,
            fleet: None,
        }
    }
}

/// A running HTTP front-end over one engine.
pub struct Server {
    local_addr: SocketAddr,
    router: Arc<Router>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// What startup recovery did; `None` when checkpointing is off.
    recovery: Option<RecoveryReport>,
}

impl Server {
    /// Binds `addr`, spawns the accept thread and connection workers,
    /// and starts serving the given engine to the given tenants.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure, and checkpoint
    /// directory errors when `config.checkpoint` is set.
    ///
    /// # Panics
    ///
    /// Panics if `config.conn_workers` is zero.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: ServeConfig,
        engine: Arc<Engine>,
        tenants: Arc<TenantRegistry>,
    ) -> std::io::Result<Server> {
        assert!(
            config.conn_workers > 0,
            "need at least one connection worker"
        );
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept so the thread can observe the stop flag.
        listener.set_nonblocking(true)?;
        let metrics = Arc::new(ServeMetrics::new());
        let mut router = Router::new(
            Arc::clone(&engine),
            tenants,
            Arc::new(JobStore::new(config.max_terminal_retained)),
            Arc::clone(&metrics),
            config.retry_after_s,
            config.batch_queue_ceiling,
        )
        .with_retry_jitter(config.retry_jitter_s);
        if let Some(setup) = &config.fleet {
            router = router.with_fleet(FleetRunner::new(
                setup.clone(),
                config.max_terminal_retained,
            ));
        }
        // Recovery runs before the first connection worker spawns, so
        // every resumed job is re-admitted (and its serve id reclaimed)
        // before any request can race it. Accepted connections simply
        // wait in the OS listen backlog meanwhile.
        let mut recovery = None;
        if let Some(setup) = &config.checkpoint {
            let ckpt_store = CheckpointStore::open(&setup.dir, setup.retain)
                .map_err(|e| std::io::Error::other(format!("checkpoint dir: {e}")))?;
            let policy = setup.policy();
            recovery = Some(recover(
                &ckpt_store,
                policy,
                &engine,
                router.tenants(),
                router.store(),
                config.retry_after_s,
            ));
            // GC after recovery: anything resumable was just resumed, so
            // the age bound only ever deletes leftovers.
            if let Some(age) = setup.gc_max_age {
                if let Ok(report) = ckpt_store.gc(age) {
                    metrics.record_gc(&report);
                }
            }
            router = router.with_checkpoints(ckpt_store, policy);
        }
        let router = Arc::new(router);
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = bounded(config.conn_workers * 2);
        let workers = (0..config.conn_workers)
            .map(|i| {
                let rx = rx.clone();
                let router = Arc::clone(&router);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("serve-conn-{i}"))
                    .spawn(move || {
                        while let Ok(stream) = rx.recv() {
                            serve_connection(stream, &router, &config);
                        }
                    })
                    .expect("spawn connection worker")
            })
            .collect();
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let router = Arc::clone(&router);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                router
                                    .metrics()
                                    .connections_accepted
                                    .fetch_add(1, Ordering::Relaxed);
                                // A full channel blocks here, pushing
                                // overload into the OS listen backlog.
                                if tx.send(stream).is_err() {
                                    break;
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => break,
                        }
                    }
                    // Dropping tx closes the channel; workers drain any
                    // queued connections and exit.
                })
                .expect("spawn accept thread")
        };
        Ok(Server {
            local_addr,
            router,
            stop,
            accept_thread: Some(accept_thread),
            workers,
            recovery,
        })
    }

    /// What startup recovery did (resumed ids, discarded checkpoints).
    /// `None` when the config has no [`CheckpointSetup`].
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared router (store, tenants, metrics).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Stops accepting, drains queued connections, and joins every
    /// thread. In-flight engine jobs are untouched — shutting down the
    /// front-end does not cancel work.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A connection's read half that bounds each request as a whole: the
/// first byte of a request arms a deadline one `timeout` away, and past
/// it every further read fails `TimedOut`. The socket's per-read timeout
/// still bounds the read in flight, so a client dripping bytes holds a
/// worker for at most twice `timeout`. The check reads the clock, not a
/// socket option, so it costs no syscall.
struct RequestDeadline {
    stream: TcpStream,
    timeout: Duration,
    deadline: Option<Instant>,
}

impl Read for RequestDeadline {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "request exceeded the read timeout",
            ));
        }
        let n = self.stream.read(buf)?;
        if n > 0 && self.deadline.is_none() {
            self.deadline = Some(Instant::now() + self.timeout);
        }
        Ok(n)
    }
}

/// Serves one connection until close, timeout, error, or the request
/// cap.
fn serve_connection(stream: TcpStream, router: &Router, config: &ServeConfig) {
    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
        || stream.set_write_timeout(Some(config.read_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(RequestDeadline {
        stream: read_half,
        timeout: config.read_timeout,
        deadline: None,
    });
    let mut write_half = stream;
    let limits = Limits {
        max_header_bytes: config.max_header_bytes,
        max_body_bytes: config.max_body_bytes,
    };
    for served in 0.. {
        // Each request's deadline is armed by its own first byte.
        reader.get_mut().deadline = None;
        let start = Instant::now();
        let (response, close_after) = match read_request(&mut reader, limits) {
            // Clean close or idle timeout — nothing to respond to.
            Ok(None) => return,
            Ok(Some(request)) => {
                let response = router.handle(&request);
                let close = request.wants_close()
                    || response.close_connection
                    || served + 1 >= config.keep_alive_max_requests;
                (response, close)
            }
            // Parse errors answer with their typed status and close:
            // after a framing error the stream position is unknown.
            Err(err) => (err.into_response(), true),
        };
        record(router, &response, start);
        if response.write_to(&mut write_half).is_err() || close_after {
            return;
        }
    }
}

fn record(router: &Router, response: &Response, start: Instant) {
    router
        .metrics()
        .record_request(response.status, start.elapsed());
}
