//! A13: the HTTP serving front-end under many-client closed-loop load.
//!
//! Binds a real [`mogs_serve::Server`] on loopback over a fresh engine,
//! registers several tenants (interactive and batch), and drives it
//! with `clients` closed-loop client threads: each submits a small
//! segmentation job, polls it to a terminal state, fetches the result,
//! thinks briefly, and repeats until the wall-clock budget runs out.
//!
//! The load runs in **two phases of equal duration**, differing only in
//! transport: first every request opens a fresh connection
//! (`Connection: close` — the accept path at full rate), then the same
//! closed loop again over per-client keep-alive connections
//! ([`HttpClient`]), counting how often the server's idle timeout or
//! per-connection request cap forced a reconnect. The report shows the
//! two side by side — the connect-per-request tax is protocol overhead
//! a real client would not pay — and the gates apply to the combined
//! run, so both transports must stay wedge-free.
//!
//! What the run reports and what `repro serve-bench` gates on:
//!
//! * **p50/p95/p99 end-to-end job latency** (submit → result fetched)
//!   and the **saturation throughput** in jobs/second;
//! * **zero transport errors** — a wedged connection worker shows up as
//!   a client timeout, which fails the gate;
//! * **bit-identity** — before the load phase, one served job's label
//!   map is compared byte-for-byte against the direct engine path for
//!   the same spec and seed.
//!
//! The throughput number comes with a caveat the report prints: at this
//! job size the per-request cost is dominated by *table construction*
//! (the synthetic scene and its unary energy table are rebuilt inside
//! the connection worker on every POST, `O(sites × labels)`), not by
//! sampling. Serving amortizes that cost only when jobs carry enough
//! iterations; the report surfaces it rather than hiding it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::render_table;
use mogs_engine::{Engine, EngineConfig};
use mogs_gibbs::SoftmaxGibbs;
use mogs_serve::{
    http_request, ClientResponse, HttpClient, JobRequest, Priority, ServeConfig, Server,
    TenantQuota, TenantRegistry,
};

/// Tenant names the clients round-robin over. The last one is
/// registered at batch priority so the batch admission gate is live
/// during the run.
const TENANTS: [&str; 4] = ["alpha", "bravo", "charlie", "delta-batch"];

/// Grid side of the benchmark job.
const SIDE: usize = 32;
/// Sweeps per job — enough that sampling is visible next to the
/// per-request table construction, small enough for closed-loop rates.
const ITERATIONS: usize = 60;

/// Outcome of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchResult {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Tenants the clients were spread across.
    pub tenants: usize,
    /// Measured load-phase wall time, seconds.
    pub duration_s: f64,
    /// Jobs that reached `done` and had their result fetched.
    pub jobs_completed: u64,
    /// 429 responses observed (per-tenant quota).
    pub rejected_quota: u64,
    /// 503 responses observed (engine backpressure / batch ceiling).
    pub rejected_backpressure: u64,
    /// Total HTTP requests the clients issued.
    pub http_requests: u64,
    /// Socket-level failures or unexpected statuses; must be zero.
    pub transport_errors: u64,
    /// End-to-end job latency percentiles, milliseconds.
    pub job_p50_ms: f64,
    /// 95th percentile, milliseconds.
    pub job_p95_ms: f64,
    /// 99th percentile, milliseconds.
    pub job_p99_ms: f64,
    /// Completed jobs per second over the load phase.
    pub jobs_per_sec: f64,
    /// Served label map equals the direct engine path, byte for byte.
    pub bit_identical: bool,
    /// Connect-per-request phase: completed jobs per second.
    pub cpr_jobs_per_sec: f64,
    /// Connect-per-request phase: median job latency, milliseconds.
    pub cpr_job_p50_ms: f64,
    /// Connect-per-request phase: TCP connections opened (one per
    /// request, by construction).
    pub cpr_connections: u64,
    /// Keep-alive phase: completed jobs per second.
    pub keepalive_jobs_per_sec: f64,
    /// Keep-alive phase: median job latency, milliseconds.
    pub keepalive_job_p50_ms: f64,
    /// Keep-alive phase: TCP connections opened across all clients.
    pub keepalive_connections: u64,
    /// Keep-alive phase: reconnects beyond each client's first
    /// connection (server idle timeout or request cap).
    pub keepalive_reconnects: u64,
}

/// Shared counters the client threads bump.
#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    quota_429: AtomicU64,
    backpressure_503: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
}

fn job_body(tenant: &str, seed: u64) -> String {
    format!(
        "{{\"tenant\":\"{tenant}\",\"workload\":\"segmentation\",\"width\":{SIDE},\
         \"height\":{SIDE},\"labels\":5,\"iterations\":{ITERATIONS},\"seed\":{seed},\
         \"threads\":2}}"
    )
}

fn extract_id(body: &str) -> Option<u64> {
    let start = body.find("\"id\":")? + 5;
    body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

fn terminal_state(body: &str) -> Option<&'static str> {
    ["done", "degraded", "failed", "cancelled"]
        .into_iter()
        .find(|s| body.contains(&format!("\"state\":\"{s}\"")))
}

/// Issues one request on the phase's transport: the pooled keep-alive
/// client when one is given, a fresh `Connection: close` socket
/// otherwise.
fn send(
    client: &mut Option<HttpClient>,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    match client.as_mut() {
        Some(pooled) => pooled.request(method, path, body),
        None => http_request(addr, method, path, body),
    }
}

/// One client's closed loop. Returns the latencies (µs) of its
/// completed jobs and the TCP connections it opened.
fn client_loop(
    addr: SocketAddr,
    tenant: String,
    deadline: Instant,
    base_seed: u64,
    keep_alive: bool,
    counters: &Counters,
) -> (Vec<u64>, u64) {
    let mut client = keep_alive.then(|| HttpClient::new(addr));
    let mut sent = 0u64;
    let mut latencies = Vec::new();
    let mut n = 0u64;
    while Instant::now() < deadline {
        n += 1;
        let started = Instant::now();
        counters.requests.fetch_add(1, Ordering::Relaxed);
        sent += 1;
        let submit = match send(
            &mut client,
            addr,
            "POST",
            "/v1/jobs",
            Some(&job_body(&tenant, base_seed + n)),
        ) {
            Ok(response) => response,
            Err(_) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        match submit.status {
            201 => {}
            429 => {
                counters.quota_429.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            503 => {
                counters.backpressure_503.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            _ => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        }
        let Some(id) = extract_id(&submit.body_text()) else {
            counters.errors.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        // Poll with backoff; a job the server lost counts as an error.
        let mut poll_ms = 2u64;
        let outcome = loop {
            counters.requests.fetch_add(1, Ordering::Relaxed);
            sent += 1;
            match send(&mut client, addr, "GET", &format!("/v1/jobs/{id}"), None) {
                Ok(poll) if poll.status == 200 => {
                    if let Some(state) = terminal_state(&poll.body_text()) {
                        break Some(state);
                    }
                }
                _ => break None,
            }
            std::thread::sleep(Duration::from_millis(poll_ms));
            poll_ms = (poll_ms * 2).min(40);
        };
        match outcome {
            Some("done") => {
                counters.requests.fetch_add(1, Ordering::Relaxed);
                sent += 1;
                match send(
                    &mut client,
                    addr,
                    "GET",
                    &format!("/v1/jobs/{id}/result"),
                    None,
                ) {
                    Ok(result) if result.status == 200 => {
                        counters.completed.fetch_add(1, Ordering::Relaxed);
                        let elapsed = started.elapsed().as_micros().min(u128::from(u64::MAX));
                        latencies.push(elapsed as u64);
                    }
                    _ => {
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Degraded/failed/cancelled would be surprising with no
            // fault plan, but they are server-truthful outcomes, not
            // transport wedges; only a lost job is an error here.
            Some(_) => {}
            None => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Think time keeps the closed loop from degenerating into a
        // pure connect() stress test (and loopback out of TIME_WAIT
        // port exhaustion).
        std::thread::sleep(Duration::from_millis(20));
    }
    let connections = client.map_or(sent, |c| c.connections_opened());
    (latencies, connections)
}

/// Serves one job and compares its label map against the direct engine
/// path for the same spec and seed.
fn check_bit_identity(addr: SocketAddr, seed: u64) -> bool {
    let body = job_body("alpha", seed);
    let Ok(submit) = http_request(addr, "POST", "/v1/jobs", Some(&body)) else {
        return false;
    };
    if submit.status != 201 {
        return false;
    }
    let Some(id) = extract_id(&submit.body_text()) else {
        return false;
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match http_request(addr, "GET", &format!("/v1/jobs/{id}"), None) {
            Ok(poll) if poll.status == 200 => match terminal_state(&poll.body_text()) {
                Some("done") => break,
                Some(_) => return false,
                None => {}
            },
            _ => return false,
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let Ok(result) = http_request(addr, "GET", &format!("/v1/jobs/{id}/result"), None) else {
        return false;
    };
    if result.status != 200 {
        return false;
    }
    let served = int_array(&result.body_text(), "labels");

    // Direct path: the exact job the server dispatches, on a private
    // engine — the determinism contract says instance doesn't matter.
    let Ok(spec) = JobRequest::parse(&body) else {
        return false;
    };
    let direct_engine = Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 4,
        max_active_jobs: 2,
        phase_deadline: None,
        max_phase_retries: 0,
    });
    let job = spec
        .segmentation()
        .engine_job(SoftmaxGibbs::new(), ITERATIONS, seed);
    let direct = match direct_engine.submit(job) {
        Ok(handle) => handle.wait(),
        Err(_) => return false,
    };
    let direct_labels: Vec<u64> = direct.labels.iter().map(|l| u64::from(l.value())).collect();
    direct_engine.shutdown();
    !served.is_empty() && served == direct_labels
}

fn int_array(body: &str, key: &str) -> Vec<u64> {
    let marker = format!("\"{key}\":[");
    let Some(start) = body.find(&marker).map(|p| p + marker.len()) else {
        return Vec::new();
    };
    let Some(end) = body[start..].find(']').map(|p| p + start) else {
        return Vec::new();
    };
    body[start..end]
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1_000.0
}

/// One load phase's tally.
struct LoadPhase {
    latencies: Vec<u64>,
    completed: u64,
    quota_429: u64,
    backpressure_503: u64,
    requests: u64,
    errors: u64,
    connections: u64,
    elapsed_s: f64,
}

/// Drives `clients` closed-loop threads against `addr` for `duration`
/// on one transport.
///
/// # Panics
///
/// Panics when a client thread panics.
fn load_phase(
    addr: SocketAddr,
    clients: usize,
    duration: Duration,
    seed: u64,
    keep_alive: bool,
) -> LoadPhase {
    let counters = Arc::new(Counters::default());
    let deadline = Instant::now() + duration;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let tenant = TENANTS[c % TENANTS.len()].to_string();
            let counters = Arc::clone(&counters);
            let base_seed = seed + 10_000 * (c as u64 + 1);
            std::thread::spawn(move || {
                client_loop(addr, tenant, deadline, base_seed, keep_alive, &counters)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    let mut connections = 0u64;
    for handle in handles {
        let (client_latencies, client_connections) = handle.join().expect("client thread panicked");
        latencies.extend(client_latencies);
        connections += client_connections;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    LoadPhase {
        latencies,
        completed: counters.completed.load(Ordering::Relaxed),
        quota_429: counters.quota_429.load(Ordering::Relaxed),
        backpressure_503: counters.backpressure_503.load(Ordering::Relaxed),
        requests: counters.requests.load(Ordering::Relaxed),
        errors: counters.errors.load(Ordering::Relaxed),
        connections,
        elapsed_s,
    }
}

/// Runs the closed-loop load for `duration` with `clients` client
/// threads spread over [`TENANTS`]: half the budget on fresh
/// connections, half on keep-alive.
///
/// # Panics
///
/// Panics if the loopback server fails to bind or a client thread
/// panics (both indicate a broken environment, not a benchmark
/// outcome).
pub fn run(clients: usize, duration: Duration, seed: u64) -> ServeBenchResult {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 4,
        queue_capacity: 128,
        max_active_jobs: 32,
        phase_deadline: None,
        max_phase_retries: 0,
    }));
    let tenants = TenantRegistry::new();
    for (i, name) in TENANTS.iter().enumerate() {
        tenants.register(
            name,
            TenantQuota {
                max_in_flight: 8,
                max_sites_per_job: 1 << 16,
                priority: if i == TENANTS.len() - 1 {
                    Priority::Batch
                } else {
                    Priority::Interactive
                },
            },
        );
    }
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            conn_workers: 16,
            batch_queue_ceiling: 64,
            ..ServeConfig::default()
        },
        Arc::clone(&engine),
        Arc::new(tenants),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let bit_identical = check_bit_identity(addr, seed);

    // Same client population, same per-phase wall budget; only the
    // transport differs. Disjoint seed ranges keep the job streams
    // independent.
    let half = duration / 2;
    let cpr = load_phase(addr, clients, half, seed, false);
    let keepalive = load_phase(addr, clients, half, seed + 5_000_000, true);

    server.shutdown();
    Arc::try_unwrap(engine)
        .map(Engine::shutdown)
        .unwrap_or_default();

    let mut latencies: Vec<u64> =
        Vec::with_capacity(cpr.latencies.len() + keepalive.latencies.len());
    latencies.extend_from_slice(&cpr.latencies);
    latencies.extend_from_slice(&keepalive.latencies);
    latencies.sort_unstable();
    let elapsed = cpr.elapsed_s + keepalive.elapsed_s;
    let completed = cpr.completed + keepalive.completed;
    let per_sec =
        |phase: &LoadPhase| phase.completed as f64 / phase.elapsed_s.max(f64::MIN_POSITIVE);
    ServeBenchResult {
        clients,
        tenants: TENANTS.len(),
        duration_s: elapsed,
        jobs_completed: completed,
        rejected_quota: cpr.quota_429 + keepalive.quota_429,
        rejected_backpressure: cpr.backpressure_503 + keepalive.backpressure_503,
        http_requests: cpr.requests + keepalive.requests,
        transport_errors: cpr.errors + keepalive.errors,
        job_p50_ms: percentile(&latencies, 50.0),
        job_p95_ms: percentile(&latencies, 95.0),
        job_p99_ms: percentile(&latencies, 99.0),
        jobs_per_sec: completed as f64 / elapsed.max(f64::MIN_POSITIVE),
        bit_identical,
        cpr_jobs_per_sec: per_sec(&cpr),
        cpr_job_p50_ms: percentile(&cpr.latencies, 50.0),
        cpr_connections: cpr.connections,
        keepalive_jobs_per_sec: per_sec(&keepalive),
        keepalive_job_p50_ms: percentile(&keepalive.latencies, 50.0),
        keepalive_connections: keepalive.connections,
        keepalive_reconnects: keepalive.connections.saturating_sub(clients as u64),
    }
}

/// Renders the `repro serve-bench` report.
pub fn render(result: &ServeBenchResult) -> String {
    let table = vec![
        vec!["clients".to_owned(), format!("{}", result.clients)],
        vec!["tenants".to_owned(), format!("{}", result.tenants)],
        vec![
            "load duration".to_owned(),
            format!("{:.2} s", result.duration_s),
        ],
        vec![
            "jobs completed".to_owned(),
            format!("{}", result.jobs_completed),
        ],
        vec![
            "saturation throughput".to_owned(),
            format!("{:.1} jobs/s", result.jobs_per_sec),
        ],
        vec!["job p50".to_owned(), format!("{:.1} ms", result.job_p50_ms)],
        vec!["job p95".to_owned(), format!("{:.1} ms", result.job_p95_ms)],
        vec!["job p99".to_owned(), format!("{:.1} ms", result.job_p99_ms)],
        vec![
            "HTTP requests".to_owned(),
            format!("{}", result.http_requests),
        ],
        vec![
            "429 (quota)".to_owned(),
            format!("{}", result.rejected_quota),
        ],
        vec![
            "503 (backpressure)".to_owned(),
            format!("{}", result.rejected_backpressure),
        ],
        vec![
            "transport errors".to_owned(),
            format!("{}", result.transport_errors),
        ],
        vec![
            "bit-identical to direct path".to_owned(),
            format!("{}", result.bit_identical),
        ],
    ];
    let transport = vec![
        vec![
            "connect-per-request".to_owned(),
            format!("{:.1}", result.cpr_jobs_per_sec),
            format!("{:.1}", result.cpr_job_p50_ms),
            format!("{}", result.cpr_connections),
            "-".to_owned(),
        ],
        vec![
            "keep-alive".to_owned(),
            format!("{:.1}", result.keepalive_jobs_per_sec),
            format!("{:.1}", result.keepalive_job_p50_ms),
            format!("{}", result.keepalive_connections),
            format!("{}", result.keepalive_reconnects),
        ],
    ];
    format!(
        "Serving front-end: {} closed-loop clients, {} tenants, {}×{} segmentation @ {} sweeps/job\n\n{}\n\n\
         transport comparison (equal wall budget per phase):\n\n{}\n\n\
         note: per-job cost is dominated by request-time table construction (the synthetic\n\
         scene and unary energy table are rebuilt in the connection worker on every POST,\n\
         O(sites × labels)), not by sampling — throughput amortizes it only as jobs carry\n\
         more iterations.",
        result.clients,
        result.tenants,
        SIDE,
        SIDE,
        ITERATIONS,
        render_table(&["metric", "value"], &table),
        render_table(
            &["transport", "jobs/s", "p50 ms", "connections", "reconnects"],
            &transport
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_completes_jobs_without_wedges() {
        let result = run(8, Duration::from_millis(600), 9);
        assert!(
            result.bit_identical,
            "served labels diverged from direct path"
        );
        assert_eq!(result.transport_errors, 0, "{result:?}");
        assert!(result.jobs_completed > 0, "{result:?}");
        assert!(result.job_p50_ms > 0.0);
        // Both transport phases must carry load, and keep-alive must
        // actually reuse connections (fewer connections than requests
        // would need one each).
        assert!(result.cpr_connections > 0, "{result:?}");
        assert!(result.keepalive_connections > 0, "{result:?}");
        assert!(
            result.keepalive_connections < result.http_requests,
            "keep-alive opened one connection per request: {result:?}"
        );
        let text = render(&result);
        assert!(text.contains("saturation throughput"));
        assert!(text.contains("transport comparison"));
        assert!(text.contains("table construction"));
    }
}
