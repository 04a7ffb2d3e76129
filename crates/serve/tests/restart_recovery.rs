//! Restart durability over loopback: a job submitted to one server
//! process survives that process and finishes under the next one.
//!
//! The first server checkpoints every sweep into a shared directory and
//! is then torn down without ever observing the job's terminal state
//! (no status poll → no store refresh → the checkpoints stay on disk,
//! exactly as a crash would leave them; the engine drain stands in for
//! the sweeps that happened before the "crash"). The second server
//! binds over the same directory and must:
//!
//! * re-admit the job under its **original serve id** with the same
//!   tenant accounting ([`Server::recovery`] reports it);
//! * finish it with a label map **bit-identical** to a direct engine
//!   run of the same request (the tentpole resume contract, carried
//!   through HTTP);
//! * delete the checkpoints once the terminal state is observed, and
//!   hand out fresh ids *after* the recovered one.
//!
//! The same holds for a job with `"diag":true`: its served marginal map
//! and entropy — accumulated by a diagnostics sink whose state crossed
//! the restart inside the checkpoint — equal those of the same request
//! run uninterrupted, bit for bit.
//!
//! A further test pins the discard path: a checkpoint whose tenant is
//! unknown to the new process is reported, not resumed — and left on
//! disk for the operator.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mogs_ckpt::CheckpointStore;
use mogs_engine::{Engine, EngineConfig};
use mogs_gibbs::SoftmaxGibbs;
use mogs_serve::{
    http_request, job_key, CheckpointSetup, ClientResponse, JobRequest, Priority, ServeConfig,
    Server, TenantQuota, TenantRegistry,
};

const RETAIN: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mogs-serve-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 8,
        max_active_jobs: 2,
        phase_deadline: None,
        max_phase_retries: 0,
    }))
}

fn registry(tenant: &str) -> Arc<TenantRegistry> {
    let tenants = TenantRegistry::new();
    tenants.register(
        tenant,
        TenantQuota {
            max_in_flight: 4,
            max_sites_per_job: 1 << 16,
            priority: Priority::Interactive,
        },
    );
    Arc::new(tenants)
}

fn config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        checkpoint: Some(CheckpointSetup {
            dir: dir.to_path_buf(),
            every_sweeps: 1,
            retain: RETAIN,
            gc_max_age: None,
        }),
        ..ServeConfig::default()
    }
}

fn get(addr: SocketAddr, path: &str) -> ClientResponse {
    http_request(addr, "GET", path, None).expect("GET")
}

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

fn extract_id(body: &str) -> u64 {
    let start = body.find("\"id\":").expect("id in body") + 5;
    body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric id")
}

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

/// The raw text of the JSON array under `key` in `body`.
fn json_array_text<'a>(body: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\":[");
    let start = body
        .find(&marker)
        .unwrap_or_else(|| panic!("`{key}` in {body}"))
        + marker.len();
    let end = body[start..].find(']').expect("closing bracket") + start;
    &body[start..end]
}

/// Waits until at least one checkpoint for `key` is on disk.
fn wait_for_checkpoint(dir: &std::path::Path, key: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let store = CheckpointStore::open(dir, RETAIN).expect("open checkpoint dir");
        if store.latest(key).expect("read latest").is_some() {
            return;
        }
        assert!(Instant::now() < deadline, "no checkpoint for `{key}`");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn job_survives_a_server_restart_bit_identically() {
    let dir = temp_dir("resume");
    let spec_json = r#"{"tenant":"acme","workload":"segmentation",
        "width":16,"height":16,"iterations":12,"seed":42,"threads":2}"#;

    // Process 1: submit, wait for a durable checkpoint, tear down
    // without ever polling the job (so nothing observes terminal and
    // nothing deletes the checkpoints — crash semantics).
    let engine1 = engine();
    let server1 = Server::bind(
        "127.0.0.1:0",
        config(&dir),
        Arc::clone(&engine1),
        registry("acme"),
    )
    .expect("bind first server");
    assert_eq!(
        server1.recovery().expect("checkpointing on"),
        &mogs_serve::RecoveryReport::default(),
        "an empty directory recovers nothing"
    );
    let submitted =
        http_request(server1.local_addr(), "POST", "/v1/jobs", Some(spec_json)).expect("POST");
    assert_eq!(submitted.status, 201, "{}", submitted.body_text());
    let id = extract_id(&submitted.body_text());
    assert_eq!(id, 1);
    wait_for_checkpoint(&dir, &job_key(id));
    server1.shutdown();
    match Arc::try_unwrap(engine1) {
        Ok(engine) => engine.shutdown(),
        Err(_) => panic!("server shutdown must release its engine handle"),
    }

    // Process 2: recovery re-admits job 1 before serving traffic.
    let engine2 = engine();
    let server2 = Server::bind(
        "127.0.0.1:0",
        config(&dir),
        Arc::clone(&engine2),
        registry("acme"),
    )
    .expect("bind second server");
    let addr = server2.local_addr();
    let report = server2.recovery().expect("checkpointing on");
    assert_eq!(report.resumed, vec![id], "job 1 re-admitted: {report:?}");
    assert!(report.discarded.is_empty(), "{report:?}");

    assert_eq!(wait_terminal(addr, id), "done");
    let result = get(addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(result.status, 200, "{}", result.body_text());
    let served_labels = json_int_array(&result.body_text(), "labels");

    // Direct path: the identical request on a fresh engine. Resume from
    // any intermediate sweep must land on the same final labeling.
    let request = JobRequest::parse(spec_json).expect("same spec");
    let job =
        request
            .segmentation()
            .engine_job(SoftmaxGibbs::new(), request.iterations, request.seed);
    let direct = engine()
        .try_submit(job)
        .expect("direct submit")
        .wait_result()
        .expect("direct job completes");
    let direct_labels: Vec<u8> = direct.labels.iter().map(|l| l.value()).collect();
    assert_eq!(
        served_labels, direct_labels,
        "recovered job must be bit-identical to the uninterrupted run"
    );

    // The refresh that observed the terminal transition deleted the
    // job's checkpoints — done jobs must not be resurrected.
    let store = CheckpointStore::open(&dir, RETAIN).expect("open checkpoint dir");
    assert!(
        store.latest(&job_key(id)).expect("read latest").is_none(),
        "terminal job's checkpoints must be deleted"
    );

    // The id space continues past the recovered job.
    let next = http_request(addr, "POST", "/v1/jobs", Some(spec_json)).expect("POST");
    assert_eq!(next.status, 201, "{}", next.body_text());
    assert_eq!(extract_id(&next.body_text()), id + 1);
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_diag_job_survives_a_server_restart_bit_identically() {
    let dir = temp_dir("diag");
    let spec_json = r#"{"tenant":"acme","workload":"segmentation",
        "width":16,"height":16,"iterations":12,"seed":42,"threads":2,"diag":true}"#;

    // Process 1 checkpoints every sweep and is torn down unobserved.
    let engine1 = engine();
    let server1 = Server::bind(
        "127.0.0.1:0",
        config(&dir),
        Arc::clone(&engine1),
        registry("acme"),
    )
    .expect("bind first server");
    let submitted =
        http_request(server1.local_addr(), "POST", "/v1/jobs", Some(spec_json)).expect("POST");
    assert_eq!(submitted.status, 201, "{}", submitted.body_text());
    let id = extract_id(&submitted.body_text());
    wait_for_checkpoint(&dir, &job_key(id));
    server1.shutdown();
    match Arc::try_unwrap(engine1) {
        Ok(engine) => engine.shutdown(),
        Err(_) => panic!("server shutdown must release its engine handle"),
    }
    let store = CheckpointStore::open(&dir, RETAIN).expect("open checkpoint dir");
    let (_, cut) = store
        .latest(&job_key(id))
        .expect("read latest")
        .expect("a checkpoint survives the teardown");
    let sink = cut
        .state
        .sink_state
        .expect("the cut carries the sink's state");
    assert!(!sink.counts.is_empty(), "the marginal tallies crossed");

    // Process 2 resumes the job from that cut.
    let server2 = Server::bind("127.0.0.1:0", config(&dir), engine(), registry("acme"))
        .expect("bind second server");
    let report = server2.recovery().expect("checkpointing on");
    assert_eq!(report.resumed, vec![id], "{report:?}");
    assert_eq!(wait_terminal(server2.local_addr(), id), "done");
    let resumed = get(server2.local_addr(), &format!("/v1/jobs/{id}/result")).body_text();
    server2.shutdown();

    // The same request, uninterrupted, on a fresh engine.
    let fresh = Server::bind(
        "127.0.0.1:0",
        ServeConfig::default(),
        engine(),
        registry("acme"),
    )
    .expect("bind an uncheckpointed server");
    let submitted =
        http_request(fresh.local_addr(), "POST", "/v1/jobs", Some(spec_json)).expect("POST");
    assert_eq!(submitted.status, 201, "{}", submitted.body_text());
    let direct_id = extract_id(&submitted.body_text());
    assert_eq!(wait_terminal(fresh.local_addr(), direct_id), "done");
    let direct = get(fresh.local_addr(), &format!("/v1/jobs/{direct_id}/result")).body_text();
    fresh.shutdown();

    // Every finite f64 is served as its shortest round-trip decimal, so
    // equal text is equal bits.
    for key in ["labels", "marginal_map", "entropy"] {
        assert_eq!(
            json_array_text(&resumed, key),
            json_array_text(&direct, key),
            "`{key}` of the resumed diag job differs from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_tenant_checkpoints_are_discarded_not_resumed() {
    let dir = temp_dir("discard");
    let spec_json = r#"{"tenant":"ghost","workload":"segmentation",
        "width":8,"height":8,"iterations":8,"seed":7}"#;

    let engine1 = engine();
    let server1 = Server::bind(
        "127.0.0.1:0",
        config(&dir),
        Arc::clone(&engine1),
        registry("ghost"),
    )
    .expect("bind first server");
    let submitted =
        http_request(server1.local_addr(), "POST", "/v1/jobs", Some(spec_json)).expect("POST");
    assert_eq!(submitted.status, 201, "{}", submitted.body_text());
    let id = extract_id(&submitted.body_text());
    wait_for_checkpoint(&dir, &job_key(id));
    server1.shutdown();
    drop(engine1);

    // The new process does not know tenant `ghost`: the checkpoint is
    // reported as discarded and stays on disk for the operator.
    let server2 = Server::bind("127.0.0.1:0", config(&dir), engine(), registry("acme"))
        .expect("bind second server");
    let report = server2.recovery().expect("checkpointing on");
    assert!(report.resumed.is_empty(), "{report:?}");
    assert_eq!(report.discarded.len(), 1, "{report:?}");
    assert_eq!(report.discarded[0].0, job_key(id));
    let store = CheckpointStore::open(&dir, RETAIN).expect("open checkpoint dir");
    assert!(
        store.latest(&job_key(id)).expect("read latest").is_some(),
        "discarded checkpoints must stay on disk"
    );
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_startup_gc_spares_the_checkpoint_a_job_resumed_from() {
    let dir = temp_dir("gc");
    let spec_json = r#"{"tenant":"acme","workload":"segmentation",
        "width":16,"height":16,"iterations":40,"seed":9,"threads":2}"#;

    // Process 1 checkpoints every sweep; its drain leaves the newest
    // checkpoint at cursor 39, one sweep before the end, so the resumed
    // job writes no further checkpoint and the file it resumed from is
    // its only durable record.
    let engine1 = engine();
    let server1 = Server::bind(
        "127.0.0.1:0",
        config(&dir),
        Arc::clone(&engine1),
        registry("acme"),
    )
    .expect("bind first server");
    let submitted =
        http_request(server1.local_addr(), "POST", "/v1/jobs", Some(spec_json)).expect("POST");
    assert_eq!(submitted.status, 201, "{}", submitted.body_text());
    let id = extract_id(&submitted.body_text());
    wait_for_checkpoint(&dir, &job_key(id));
    server1.shutdown();
    drop(engine1);

    // Process 2 runs the GC with a zero age bound, so every file on disk
    // has expired: the resumed job's must survive it all the same.
    let mut config = config(&dir);
    if let Some(setup) = &mut config.checkpoint {
        setup.gc_max_age = Some(Duration::ZERO);
    }
    let server2 = Server::bind("127.0.0.1:0", config, engine(), registry("acme"))
        .expect("bind second server");
    let report = server2.recovery().expect("checkpointing on");
    assert_eq!(report.resumed, vec![id], "{report:?}");
    let store = CheckpointStore::open(&dir, RETAIN).expect("open checkpoint dir");
    assert!(
        store.latest(&job_key(id)).expect("read latest").is_some(),
        "the startup GC deleted the checkpoint job {id} resumed from"
    );
    assert_eq!(wait_terminal(server2.local_addr(), id), "done");
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
