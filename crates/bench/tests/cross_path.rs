//! One job description, three paths: `POST /v1/jobs` on a live server,
//! the in-process engine reference (`mogs_fleet::run_in_process`) and a
//! fleet of two in-process workers (`run_fleet`). Every path builds its
//! job through `JobDescription::build`, so for one small description
//! per workload on softmax, and one on an RSU-G pool, all three must
//! return the same labels, the same MAP estimate and the same energy
//! bits. The server serves no energy, so its labels are priced through
//! the description's own unpinned shard, the pricing the fleet's mirror
//! uses.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mogs_engine::{Backend, Engine, EngineConfig};
use mogs_fleet::{build_shard, run_fleet, run_in_process, FleetConfig};
use mogs_serve::{http_request, ServeConfig, Server, TenantQuota, TenantRegistry};
use mogs_vision::job::{JobDescription, Workload};
use serde::de::Parser;
use serde::Deserialize;

fn softmax(workload: Workload) -> JobDescription {
    JobDescription {
        workload,
        backend: Backend::Softmax,
        iterations: 6,
        threads: 2,
        seed: 0x0C20_55A7,
        burn_in: 2,
    }
}

/// One description per workload on softmax, and segmentation on an
/// RSU-G pool.
fn descriptions() -> Vec<JobDescription> {
    let segmentation = Workload::Segmentation {
        width: 10,
        height: 8,
        labels: 4,
        noise_sigma: 9.5,
        scene_seed: 3,
    };
    vec![
        softmax(Workload::Demo {
            width: 8,
            height: 6,
            labels: 3,
        }),
        softmax(segmentation.clone()),
        softmax(Workload::Motion {
            width: 12,
            height: 10,
            dx: 1,
            dy: -1,
            noise_sigma: 2.0,
            scene_seed: 5,
        }),
        softmax(Workload::Stereo {
            width: 12,
            height: 10,
            disparity: 2,
            noise_sigma: 2.0,
            scene_seed: 7,
        }),
        softmax(Workload::Raw {
            width: 6,
            height: 5,
            labels: 3,
            unaries: (0..90).map(|i| f64::from(i % 7) * 0.375).collect(),
        }),
        JobDescription {
            backend: Backend::RsuG { replicas: 3 },
            ..softmax(segmentation)
        },
    ]
}

/// The result body's `labels` and `map_estimate`.
fn served_planes(body: &str) -> (Vec<u8>, Option<Vec<u8>>) {
    let (mut labels, mut map) = (Vec::new(), None);
    Parser::new(body)
        .parse_object(|key, parser| {
            match key {
                "labels" => labels = Vec::deserialize_json(parser)?,
                "map_estimate" => map = Some(Vec::deserialize_json(parser)?),
                _ => return Ok(false),
            }
            Ok(true)
        })
        .expect("a JSON result");
    (labels, map)
}

/// Posts `description` and returns its finished result body.
fn serve(addr: SocketAddr, description: &JobDescription) -> String {
    let body = format!("{{\"tenant\":\"paths\",{}", &description.encode()[1..]);
    let submitted = http_request(addr, "POST", "/v1/jobs", Some(&body)).expect("POST");
    assert_eq!(submitted.status, 201, "{body}: {}", submitted.body_text());
    let reply = submitted.body_text();
    let id: u64 = reply["{\"id\":".len()..]
        .split(',')
        .next()
        .and_then(|id| id.parse().ok())
        .expect("a numeric id");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = http_request(addr, "GET", &format!("/v1/jobs/{id}"), None).expect("GET");
        let text = status.body_text();
        if text.contains("\"state\":\"done\"") {
            break;
        }
        assert!(
            text.contains("\"state\":\"queued\"") || text.contains("\"state\":\"running\""),
            "{body}: {text}"
        );
        assert!(Instant::now() < deadline, "{body} never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    let result = http_request(addr, "GET", &format!("/v1/jobs/{id}/result"), None).expect("GET");
    assert_eq!(result.status, 200, "{}", result.body_text());
    result.body_text()
}

#[test]
fn every_workload_is_bit_identical_served_in_process_and_on_a_fleet() {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    }));
    let tenants = TenantRegistry::new();
    tenants.register("paths", TenantQuota::default());
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig::default(),
        engine,
        Arc::new(tenants),
    )
    .expect("bind loopback");
    for description in descriptions() {
        let name = description.encode();
        let reference = run_in_process(&description).expect("the engine runs it");
        let labels: Vec<u8> = reference.labels.iter().map(|l| l.value()).collect();
        let map = reference
            .map_estimate
            .as_ref()
            .map(|m| m.iter().map(|l| l.value()).collect::<Vec<u8>>());
        let last = reference.energy_trace.last().expect("an energy trace");

        let fleet = run_fleet(&description, &FleetConfig::new(2)).expect("the fleet runs it");
        assert!(fleet.bit_identical_to(&reference), "fleet: {name}");

        let (served, served_map) = served_planes(&serve(server.local_addr(), &description));
        assert_eq!(served, labels, "served labels: {name}");
        assert_eq!(served_map, map, "served MAP estimate: {name}");
        let priced = build_shard(&description, &[])
            .expect("the shard admits")
            .price(&served)
            .expect("the served plane fits");
        assert_eq!(priced.to_bits(), last.to_bits(), "served energy: {name}");
    }
    server.shutdown();
}
