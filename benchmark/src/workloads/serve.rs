//! `serve-small`: an in-process HTTP server over one engine, driven by
//! closed-loop keep-alive clients with no think time. Each client
//! POSTs a small segmentation job with a fresh seed, polls its status
//! on a fixed 2 ms sleep, GETs the result and verifies it. One tenant
//! per client with head-room in its quota, so the expected count of
//! 429 and 503 responses is zero and any that appear are failures.

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mogs_engine::prelude::*;
use mogs_gibbs::SoftmaxGibbs;
use mogs_mrf::Label;
use mogs_serve::http::read_request;
use mogs_serve::{
    HttpClient, JobRequest, Limits, Request, ServeConfig, Server, TenantQuota, TenantRegistry,
};

use super::engine::{engine_counts, median_ms, model_probes, Model};
use super::{job_seed, JobSample, Pass, Shape, Workload};
use crate::spec::{Host, Sizes};
use crate::stats::median;
use crate::trace::Tracer;

const LABELS: usize = 5;
/// Deterministic chunk count of a served job.
const CHUNKS: usize = 2;
const POLL_SLEEP: Duration = Duration::from_millis(2);
/// Seed stream of the warm-up job; client `c` draws from stream `c`.
const STREAM_WARMUP: u64 = 1 << 32;
/// Tenant the layer probes submit under, with room for all of them.
const PROBE_TENANT: &str = "bench-probe";

struct Live {
    engine: Arc<Engine>,
    server: Server,
    addr: SocketAddr,
}

pub struct ServeWorkload {
    seed: u64,
    side: usize,
    sweeps: usize,
    clients: usize,
    workers: usize,
    live: Option<Live>,
    /// Label map the first job of each client must return.
    expected: Vec<Vec<u8>>,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientTally {
    jobs: Vec<JobSample>,
    attempted: u64,
    failures: Vec<String>,
    requests: u64,
    ok_2xx: u64,
    quota_429: u64,
    backpressure_503: u64,
    transport_errors: u64,
    reconnects: u64,
}

fn tenant(client: usize) -> String {
    format!("bench-{client}")
}

fn int_field(body: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let start = body.find(&marker)? + marker.len();
    body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

fn state_field(body: &str) -> Option<&str> {
    let start = body.find("\"state\":\"")? + 9;
    body[start..].split('"').next()
}

fn labels_field(body: &str) -> Option<Vec<u8>> {
    let start = body.find("\"labels\":[")? + 10;
    let end = start + body[start..].find(']')?;
    body[start..end]
        .split(',')
        .map(|s| s.trim().parse().ok())
        .collect()
}

impl ServeWorkload {
    pub fn new(seed: u64, sizes: Sizes, host: Host) -> Self {
        ServeWorkload {
            seed,
            side: sizes.serve_side,
            sweeps: sizes.serve_sweeps,
            clients: host.workers,
            workers: host.workers,
            live: None,
            expected: Vec::new(),
        }
    }

    fn body(&self, tenant: &str, seed: u64) -> String {
        format!(
            "{{\"tenant\":\"{tenant}\",\"workload\":\"segmentation\",\"width\":{side},\
             \"height\":{side},\"labels\":{LABELS},\"iterations\":{sweeps},\"seed\":{seed},\
             \"threads\":{CHUNKS}}}",
            side = self.side,
            sweeps = self.sweeps,
            // The request parser reads numbers as f64: keep seeds exact.
            seed = seed >> 16,
        )
    }

    /// The result body is a finished job of the requested shape.
    fn well_formed(&self, result: &str) -> Result<Vec<u8>, String> {
        if state_field(result) != Some("done") {
            return Err(format!("result state {:?}", state_field(result)));
        }
        if int_field(result, "iterations_run") != Some(self.sweeps as u64) {
            return Err("job did not run its whole sweep budget".to_string());
        }
        let labels = labels_field(result).ok_or("result carries no label map")?;
        if labels.len() != self.side * self.side || labels.iter().any(|&l| usize::from(l) >= LABELS)
        {
            return Err("label map has the wrong shape".to_string());
        }
        Ok(labels)
    }

    /// One job over HTTP: POST, poll to a terminal state, GET result.
    /// Returns the result body and the POST-sent → result-received time.
    fn serve_one(
        &self,
        http: &mut HttpClient,
        tally: &mut ClientTally,
        tracer: &Tracer,
        body: &str,
    ) -> Result<(String, Duration), String> {
        let mut send = |tally: &mut ClientTally,
                        span: &'static str,
                        method: &str,
                        path: &str,
                        body: Option<&str>|
         -> Result<String, String> {
            tally.requests += 1;
            let response = tracer.span(span, || http.request(method, path, body));
            match response {
                Ok(r) if (200..300).contains(&r.status) => {
                    tally.ok_2xx += 1;
                    Ok(r.body_text())
                }
                Ok(r) => {
                    match r.status {
                        429 => tally.quota_429 += 1,
                        503 => tally.backpressure_503 += 1,
                        _ => {}
                    }
                    Err(format!("{method} {path} answered {}", r.status))
                }
                Err(err) => {
                    tally.transport_errors += 1;
                    Err(format!("{method} {path}: {err}"))
                }
            }
        };
        let started = Instant::now();
        let submitted = send(tally, "client.post", "POST", "/v1/jobs", Some(body))?;
        let id = int_field(&submitted, "id").ok_or("submit reply carries no id")?;
        let status_path = format!("/v1/jobs/{id}");
        loop {
            let status = send(tally, "client.poll", "GET", &status_path, None)?;
            match state_field(&status) {
                Some("done") => break,
                Some("queued" | "running") => {}
                other => return Err(format!("job {id} ended {other:?}")),
            }
            tracer.span("client.sleep", || std::thread::sleep(POLL_SLEEP));
        }
        let result = send(
            tally,
            "client.result",
            "GET",
            &format!("/v1/jobs/{id}/result"),
            None,
        )?;
        Ok((result, started.elapsed()))
    }

    fn client_loop(
        &self,
        client: usize,
        addr: SocketAddr,
        started: Instant,
        window: Duration,
        tracer: &Tracer,
    ) -> ClientTally {
        let mut tally = ClientTally::default();
        let mut http = HttpClient::new(addr);
        let tenant = tenant(client);
        let mut i = 0u64;
        while started.elapsed() < window {
            let body = self.body(&tenant, job_seed(self.seed, client as u64, i));
            tally.attempted += 1;
            let checked = self
                .serve_one(&mut http, &mut tally, tracer, &body)
                .and_then(|(result, latency)| {
                    let labels = tracer.span("client.verify", || self.well_formed(&result))?;
                    if i == 0 && self.expected.get(client) != Some(&labels) {
                        return Err("served labels differ from the direct engine path".to_string());
                    }
                    Ok(latency)
                });
            match checked {
                Ok(latency) => tally.jobs.push(JobSample::finished_now(started, latency)),
                Err(why) => {
                    if tally.failures.len() < 4 {
                        tally
                            .failures
                            .push(format!("client {client} job {i}: {why}"));
                    }
                    // A refused or broken request must not turn the
                    // closed loop into a spin.
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            i += 1;
        }
        tally.reconnects = http.connections_opened().saturating_sub(1);
        tally
    }

    /// The exact job the server dispatches for `body`, run directly.
    fn direct_labels(&self, engine: &Engine, body: &str) -> Result<Vec<u8>, String> {
        let request = JobRequest::parse(body).map_err(|e| e.to_string())?;
        let job = request.segmentation().engine_job(
            SoftmaxGibbs::new(),
            request.iterations,
            request.seed,
        );
        let out = engine
            .submit(job)
            .map_err(|e| e.to_string())?
            .wait_result()
            .map_err(|e| e.to_string())?;
        Ok(out.labels.iter().map(|l| l.value()).collect())
    }
}

impl Workload for ServeWorkload {
    fn shape(&self) -> Shape {
        Shape {
            sites: self.side * self.side,
            labels: LABELS,
            sweeps: self.sweeps,
            chunks: CHUNKS,
            clients: self.clients,
            backend: "softmax",
        }
    }

    fn setup(&mut self) -> Result<(), String> {
        self.teardown();
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: self.workers,
            queue_capacity: 64,
            ..EngineConfig::default()
        }));
        let tenants = TenantRegistry::new();
        for client in 0..self.clients {
            tenants.register(&tenant(client), TenantQuota::default());
        }
        tenants.register(
            PROBE_TENANT,
            TenantQuota {
                max_in_flight: 64,
                ..TenantQuota::default()
            },
        );
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig::default(),
            Arc::clone(&engine),
            Arc::new(tenants),
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        let addr = server.local_addr();
        self.live = Some(Live {
            engine,
            server,
            addr,
        });
        let body = self.body(&tenant(0), job_seed(self.seed, STREAM_WARMUP, 0));
        let mut http = HttpClient::new(addr);
        let (result, _) = self.serve_one(
            &mut http,
            &mut ClientTally::default(),
            &Tracer::new(false),
            &body,
        )?;
        self.well_formed(&result).map(|_| ())
    }

    fn prepare_checks(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        let live = self.live.as_ref().ok_or("prepare_checks before setup")?;
        self.expected = (0..self.clients)
            .map(|client| {
                let body = self.body(&tenant(client), job_seed(self.seed, client as u64, 0));
                self.direct_labels(&live.engine, &body)
            })
            .collect::<Result<_, _>>()?;
        Ok(Vec::new())
    }

    fn measure(&mut self, window: Duration, tracer: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let Some(live) = self.live.as_ref() else {
            pass.attempted = 1;
            pass.fail("measure before setup".to_string());
            return pass;
        };
        let before = live.engine.metrics();
        let parent = tracer.current();
        let started = Instant::now();
        let this = &*self;
        let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..this.clients)
                .map(|client| {
                    scope.spawn(move || {
                        tracer.adopt(parent);
                        this.client_loop(client, live.addr, started, window, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        pass.wall_s = started.elapsed().as_secs_f64();
        let after = live.engine.metrics();

        let mut sum = ClientTally::default();
        for tally in tallies {
            pass.jobs.extend(&tally.jobs);
            pass.attempted += tally.attempted;
            pass.failed += tally.attempted - tally.jobs.len() as u64;
            pass.failures.extend(tally.failures);
            sum.requests += tally.requests;
            sum.ok_2xx += tally.ok_2xx;
            sum.quota_429 += tally.quota_429;
            sum.backpressure_503 += tally.backpressure_503;
            sum.transport_errors += tally.transport_errors;
            sum.reconnects += tally.reconnects;
        }
        pass.layer = engine_counts(&before, &after);
        pass.layer.extend([
            ("serve.requests", sum.requests as f64),
            ("serve.responses_2xx", sum.ok_2xx as f64),
            ("serve.responses_429", sum.quota_429 as f64),
            ("serve.responses_503", sum.backpressure_503 as f64),
            ("serve.transport_errors", sum.transport_errors as f64),
            ("serve.reconnects", sum.reconnects as f64),
        ]);
        pass
    }

    fn probes(&mut self, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let Some(live) = self.live.as_ref() else {
            return Vec::new();
        };
        const REPS: usize = 20;
        let body = self.body(PROBE_TENANT, job_seed(self.seed, STREAM_WARMUP, 1));
        let Ok(request) = JobRequest::parse(&body) else {
            return Vec::new();
        };
        let mut out = Vec::new();

        let wire = format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            live.addr,
            body.len()
        );
        out.push((
            "serve.http_parse_us",
            1e3 * median_ms(REPS, || {
                let mut stream = Cursor::new(wire.as_bytes());
                let parsed = tracer.span("serve.http_parse", || {
                    read_request(&mut stream, Limits::default())
                });
                std::hint::black_box(&parsed);
            }),
        ));
        out.push((
            "serve.spec_parse_us",
            1e3 * median_ms(REPS, || {
                let parsed = tracer.span("serve.spec_parse", || JobRequest::parse(&body));
                std::hint::black_box(&parsed);
            }),
        ));
        out.push((
            "vision.model_build_ms",
            median_ms(REPS, || {
                std::hint::black_box(tracer.span("vision.model_build", || request.segmentation()));
            }),
        ));

        // The router with no socket in front: submit, poll until done,
        // encode the result, one job at a time.
        let router = live.server.router();
        let route = |span: &'static str, method: &str, path: String, body: &str| {
            let request = Request {
                method: method.to_string(),
                path,
                headers: Vec::new(),
                body: body.as_bytes().to_vec(),
            };
            let started = Instant::now();
            let response = tracer.span(span, || router.handle(&request));
            let took = started.elapsed().as_secs_f64() * 1e6;
            (String::from_utf8_lossy(&response.body).into_owned(), took)
        };
        let (mut submit_us, mut poll_us, mut encode_us) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REPS {
            let (reply, took) = route("serve.route_submit", "POST", "/v1/jobs".to_string(), &body);
            let Some(id) = int_field(&reply, "id") else {
                break;
            };
            submit_us.push(took);
            loop {
                let (status, took) = route("serve.route_poll", "GET", format!("/v1/jobs/{id}"), "");
                poll_us.push(took);
                if !matches!(state_field(&status), Some("queued" | "running")) {
                    break;
                }
                std::thread::sleep(POLL_SLEEP);
            }
            let (_, took) = route(
                "serve.result_encode",
                "GET",
                format!("/v1/jobs/{id}/result"),
                "",
            );
            encode_us.push(took);
        }
        if !submit_us.is_empty() {
            out.push(("serve.route_submit_us", median(&submit_us)));
            out.push(("serve.route_poll_us", median(&poll_us)));
            out.push(("serve.result_encode_us", median(&encode_us)));
        }

        // The same job with no HTTP at all, from as many submitters at
        // once as the measured pass has clients, so that both share the
        // engine the same way.
        let parent = tracer.current();
        let direct: Vec<f64> = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..self.clients)
                .map(|_| {
                    scope.spawn(|| {
                        tracer.adopt(parent);
                        median_ms(REPS, || {
                            tracer.span("serve.direct_job", || {
                                if let Ok((handle, _)) = request.submit(&live.engine, 1) {
                                    std::hint::black_box(handle.wait_result().is_ok());
                                }
                            });
                        })
                    })
                })
                .collect();
            submitters
                .into_iter()
                .map(|h| h.join().expect("direct submitter panicked"))
                .collect()
        });
        out.push(("serve.direct_job_ms", median(&direct)));

        let app = request.segmentation();
        let model = Model {
            initial: app.mrf().uniform_labeling(),
            mrf: app.mrf().clone(),
        };
        let equilibrated: Vec<Label> = self
            .direct_labels(&live.engine, &body)
            .unwrap_or_default()
            .into_iter()
            .map(Label::new)
            .collect();
        let sampler = || {
            BackendSampler::try_new(Backend::Softmax, model.mrf.temperature())
                .map_err(|e| e.to_string())
        };
        out.extend(model_probes(
            tracer,
            &model,
            &equilibrated,
            CHUNKS,
            sampler,
            || {
                JobSpec::builder(model.mrf.clone(), sampler()?)
                    .iterations(self.sweeps)
                    .threads(CHUNKS)
                    .seed(request.seed)
                    .build()
                    .map_err(|e| e.to_string())
            },
        ));
        out
    }

    fn teardown(&mut self) {
        if let Some(live) = self.live.take() {
            live.server.shutdown();
            if let Ok(engine) = Arc::try_unwrap(live.engine) {
                engine.shutdown();
            }
        }
    }
}
