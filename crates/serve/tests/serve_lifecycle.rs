//! Full HTTP round-trips against a real listener on loopback.
//!
//! Every test binds its own server (port 0) over its own engine, so
//! they run in parallel without interference. The headline assertions:
//!
//! * a served segmentation job's label map is **bit-identical** to the
//!   direct engine path for the same spec and seed (the engine's
//!   determinism contract carried through HTTP);
//! * cancellation mid-flight returns 200 and the job lands in the
//!   terminal `cancelled` state;
//! * quota exhaustion answers 429 and engine queue saturation answers
//!   503, both with `Retry-After`;
//! * malformed JSON and oversized bodies get their 4xx without wedging
//!   the connection pool — follow-up requests on fresh connections
//!   still succeed;
//! * a keep-alive client rides through the server's per-connection
//!   request cap by reconnecting, with no failed request.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mogs_engine::{Engine, EngineConfig};
use mogs_gibbs::SoftmaxGibbs;
use mogs_serve::{
    http_request, ClientResponse, HttpClient, JobRequest, Priority, ServeConfig, Server,
    TenantQuota, TenantRegistry,
};

fn engine(queue_capacity: usize, max_active_jobs: usize) -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        workers: 2,
        queue_capacity,
        max_active_jobs,
        phase_deadline: None,
        max_phase_retries: 0,
    }))
}

fn quota(max_in_flight: usize) -> TenantQuota {
    TenantQuota {
        max_in_flight,
        max_sites_per_job: 1 << 16,
        priority: Priority::Interactive,
    }
}

fn serve(engine: Arc<Engine>, tenants: TenantRegistry, config: ServeConfig) -> Server {
    Server::bind("127.0.0.1:0", config, engine, Arc::new(tenants)).expect("bind loopback")
}

fn get(addr: SocketAddr, path: &str) -> ClientResponse {
    http_request(addr, "GET", path, None).expect("GET")
}

fn post_job(addr: SocketAddr, body: &str) -> ClientResponse {
    http_request(addr, "POST", "/v1/jobs", Some(body)).expect("POST")
}

/// Polls `GET /v1/jobs/{id}` until the state is terminal (or a 4xx
/// ends the wait), with a hard deadline so a hang fails instead of
/// wedging CI.
fn wait_terminal(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let poll = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(poll.status, 200, "poll failed: {}", poll.body_text());
        let body = poll.body_text();
        for terminal in ["done", "degraded", "failed", "cancelled"] {
            if body.contains(&format!("\"state\":\"{terminal}\"")) {
                return terminal.to_string();
            }
        }
        assert!(Instant::now() < deadline, "job {id} never became terminal");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Extracts a JSON array of integers by key from a response body.
fn json_int_array(body: &str, key: &str) -> Vec<u8> {
    let marker = format!("\"{key}\":[");
    let start = body
        .find(&marker)
        .unwrap_or_else(|| panic!("`{key}` in {body}"))
        + marker.len();
    let end = body[start..].find(']').expect("closing bracket") + start;
    body[start..end]
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("integer element"))
        .collect()
}

fn extract_id(body: &str) -> u64 {
    let start = body.find("\"id\":").expect("id in body") + 5;
    body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric id")
}

#[test]
fn served_labels_are_bit_identical_to_the_direct_engine_path() {
    let shared = engine(8, 2);
    let tenants = TenantRegistry::new();
    tenants.register("acme", quota(4));
    let server = serve(Arc::clone(&shared), tenants, ServeConfig::default());
    let addr = server.local_addr();

    let spec_json = r#"{"tenant":"acme","workload":"segmentation",
        "width":16,"height":16,"iterations":12,"seed":42,"threads":2}"#;
    let submitted = post_job(addr, spec_json);
    assert_eq!(submitted.status, 201, "{}", submitted.body_text());
    let id = extract_id(&submitted.body_text());
    assert_eq!(wait_terminal(addr, id), "done");
    let result = get(addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(result.status, 200, "{}", result.body_text());
    let served_labels = json_int_array(&result.body_text(), "labels");

    // Direct path: the identical model and job, straight into a fresh
    // engine — determinism is per (seed, threads), not per engine
    // instance, exactly like `run_chains_on_engine`'s contract.
    let direct_engine = engine(8, 2);
    let request = JobRequest::parse(spec_json).expect("same spec");
    let job =
        request
            .segmentation()
            .engine_job(SoftmaxGibbs::new(), request.iterations, request.seed);
    let direct = direct_engine
        .try_submit(job)
        .expect("direct submit")
        .wait_result()
        .expect("direct job completes");
    let direct_labels: Vec<u8> = direct.labels.iter().map(|l| l.value()).collect();

    assert_eq!(
        served_labels, direct_labels,
        "served label map must be bit-identical to the direct engine path"
    );
    server.shutdown();
}

#[test]
fn diag_jobs_return_marginal_and_entropy_maps() {
    let shared = engine(8, 2);
    let tenants = TenantRegistry::new();
    tenants.register("acme", quota(4));
    let server = serve(shared, tenants, ServeConfig::default());
    let addr = server.local_addr();

    let submitted = post_job(
        addr,
        r#"{"tenant":"acme","workload":"segmentation","width":8,"height":8,
            "iterations":10,"seed":7,"diag":true}"#,
    );
    assert_eq!(submitted.status, 201, "{}", submitted.body_text());
    let id = extract_id(&submitted.body_text());
    assert_eq!(wait_terminal(addr, id), "done");
    let body = get(addr, &format!("/v1/jobs/{id}/result")).body_text();
    let marginal = json_int_array(&body, "marginal_map");
    assert_eq!(marginal.len(), 64, "one posterior mode per site");
    assert!(
        body.contains("\"entropy\":["),
        "entropy map present: {body}"
    );
    server.shutdown();
}

#[test]
fn cancel_mid_flight_returns_200_then_terminal_cancelled() {
    let shared = engine(8, 2);
    let tenants = TenantRegistry::new();
    tenants.register("acme", quota(4));
    let server = serve(shared, tenants, ServeConfig::default());
    let addr = server.local_addr();

    let submitted = post_job(
        addr,
        r#"{"tenant":"acme","workload":"segmentation","width":32,"height":32,
            "iterations":200000,"seed":1}"#,
    );
    assert_eq!(submitted.status, 201, "{}", submitted.body_text());
    let id = extract_id(&submitted.body_text());
    let cancelled = http_request(addr, "DELETE", &format!("/v1/jobs/{id}"), None).expect("DELETE");
    assert_eq!(cancelled.status, 200, "{}", cancelled.body_text());
    assert_eq!(wait_terminal(addr, id), "cancelled");
    // A cancelled job still serves its partial labeling.
    let result = get(addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(result.status, 200, "{}", result.body_text());
    assert!(result.body_text().contains("\"cancelled\":true"));
    // Cancelling again conflicts with the terminal state.
    let again = http_request(addr, "DELETE", &format!("/v1/jobs/{id}"), None).expect("DELETE");
    assert_eq!(again.status, 409, "{}", again.body_text());
    server.shutdown();
}

#[test]
fn quota_exhaustion_answers_429_with_retry_after() {
    let shared = engine(8, 4);
    let tenants = TenantRegistry::new();
    tenants.register("small", quota(1));
    tenants.register("other", quota(4));
    let server = serve(shared, tenants, ServeConfig::default());
    let addr = server.local_addr();

    let long_job = r#"{"tenant":"small","workload":"segmentation","width":32,"height":32,
        "iterations":200000,"seed":2}"#;
    let first = post_job(addr, long_job);
    assert_eq!(first.status, 201, "{}", first.body_text());
    let id = extract_id(&first.body_text());
    let second = post_job(addr, long_job);
    assert_eq!(second.status, 429, "{}", second.body_text());
    assert!(
        second.header_value("retry-after").is_some(),
        "429 must carry Retry-After"
    );
    assert!(second.body_text().contains("\"error\":\"quota\""));
    // Another tenant is unaffected by `small`'s quota.
    let other = post_job(
        addr,
        r#"{"tenant":"other","workload":"segmentation","width":8,"height":8,
            "iterations":4,"seed":3}"#,
    );
    assert_eq!(other.status, 201, "{}", other.body_text());
    let _ = http_request(addr, "DELETE", &format!("/v1/jobs/{id}"), None);
    server.shutdown();
}

#[test]
fn engine_queue_saturation_answers_503_with_retry_after() {
    // One worker, one active job, one queue slot: the third long job
    // must hit TrySubmitError::Full and surface as backpressure.
    let shared = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        queue_capacity: 1,
        max_active_jobs: 1,
        phase_deadline: None,
        max_phase_retries: 0,
    }));
    let tenants = TenantRegistry::new();
    tenants.register("acme", quota(32));
    let server = serve(shared, tenants, ServeConfig::default());
    let addr = server.local_addr();

    let long_job = r#"{"tenant":"acme","workload":"segmentation","width":32,"height":32,
        "iterations":200000,"seed":4}"#;
    let mut ids = Vec::new();
    let mut saw_backpressure = false;
    for _ in 0..6 {
        let response = post_job(addr, long_job);
        match response.status {
            201 => ids.push(extract_id(&response.body_text())),
            503 => {
                assert!(
                    response.header_value("retry-after").is_some(),
                    "503 must carry Retry-After"
                );
                assert!(response.body_text().contains("\"error\":\"backpressure\""));
                saw_backpressure = true;
                break;
            }
            other => panic!("unexpected status {other}: {}", response.body_text()),
        }
    }
    assert!(saw_backpressure, "queue never saturated in 6 submissions");
    for id in ids {
        let _ = http_request(addr, "DELETE", &format!("/v1/jobs/{id}"), None);
    }
    server.shutdown();
}

#[test]
fn malformed_and_oversized_bodies_get_4xx_without_wedging_the_pool() {
    let shared = engine(8, 2);
    let tenants = TenantRegistry::new();
    tenants.register("acme", quota(8));
    let server = serve(
        shared,
        tenants,
        ServeConfig {
            max_body_bytes: 512,
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();

    for garbage in ["{not json", "", "[]", r#"{"tenant":42}"#, "\u{1}\u{2}"] {
        let response = post_job(addr, garbage);
        assert_eq!(response.status, 400, "garbage {garbage:?}");
    }
    let oversized = "x".repeat(4096);
    let response = post_job(addr, &oversized);
    assert_eq!(response.status, 413, "{}", response.body_text());
    assert!(response.body_text().contains("payload-too-large"));

    // The pool still serves real work after a burst of bad requests.
    let good = post_job(
        addr,
        r#"{"tenant":"acme","workload":"segmentation","width":8,"height":8,
            "iterations":4,"seed":5}"#,
    );
    assert_eq!(good.status, 201, "{}", good.body_text());
    let id = extract_id(&good.body_text());
    assert_eq!(wait_terminal(addr, id), "done");
    server.shutdown();
}

#[test]
fn metrics_endpoint_is_valid_prometheus_with_both_layers() {
    let shared = engine(8, 2);
    let tenants = TenantRegistry::new();
    tenants.register("acme", quota(4));
    let server = serve(shared, tenants, ServeConfig::default());
    let addr = server.local_addr();

    let submitted = post_job(
        addr,
        r#"{"tenant":"acme","workload":"segmentation","width":8,"height":8,
            "iterations":4,"seed":6}"#,
    );
    let id = extract_id(&submitted.body_text());
    assert_eq!(wait_terminal(addr, id), "done");
    let response = get(addr, "/metrics");
    assert_eq!(response.status, 200);
    let text = response.body_text();
    mogs_serve::validate_exposition(&text).expect("valid Prometheus text");
    assert!(
        text.contains("mogs_engine_jobs_completed_total 1"),
        "{text}"
    );
    assert!(text.contains("mogs_engine_queue_depth_hwm"), "{text}");
    assert!(text.contains("# TYPE mogs_engine_phase_latency_seconds histogram"));
    assert!(text.contains("mogs_serve_requests_total{tenant=\"acme\"}"));
    assert!(text.contains("# TYPE mogs_serve_request_latency_seconds histogram"));
    server.shutdown();
}

#[test]
fn keep_alive_client_reconnects_at_the_request_cap_without_an_error() {
    let config = ServeConfig {
        keep_alive_max_requests: 2,
        ..ServeConfig::default()
    };
    let server = serve(engine(4, 1), TenantRegistry::new(), config);
    let mut client = HttpClient::new(server.local_addr());
    for n in 1..=5 {
        let response = client.request("GET", "/metrics", None).expect("GET");
        assert_eq!(
            response.status,
            200,
            "request {n}: {}",
            response.body_text()
        );
    }
    // The server closes each connection after its second request, so
    // five requests need connections for 1–2, 3–4 and 5.
    assert_eq!(client.connections_opened(), 3);
    // Closing the client lets its connection worker exit now instead of
    // at the read timeout.
    drop(client);
    server.shutdown();
}
