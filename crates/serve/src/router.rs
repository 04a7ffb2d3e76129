//! Request routing: one `handle_*` function per endpoint, all returning
//! `Result<Response, ServeError>`.
//!
//! [`Router::handle`]'s `match` pins this shape: every routed arm must
//! have the type of its `Err(ServeError::…)` fallbacks, so a handler
//! surfaces failures as typed [`ServeError`] values — rendered into a
//! response exactly once, in `handle` — and never unwraps request input.
//! The router owns no threads and no sockets; it is a pure
//! `Request -> Response` function over the shared engine, tenant
//! registry, job store, and metrics, which is what makes every endpoint
//! testable without a listener.
//!
//! Admission order in [`handle_submit`](Router::handle_submit) is the
//! quota-vs-backpressure decision table from DESIGN §13:
//!
//! 1. parse + validate the spec (400),
//! 2. tenant registered? (403),
//! 3. tenant quota — in-flight cap, per-job site cap (429),
//! 4. batch-priority reserve — batch jobs only (503),
//! 5. engine `try_submit` — bounded queue (503).
//!
//! Per-tenant checks run before global ones so a tenant over its own
//! cap sees 429 even while the engine also happens to be full.

use std::sync::Arc;

use mogs_ckpt::CheckpointStore;
use mogs_engine::{CheckpointPolicy, Engine};

use crate::ckpt::job_key;
use crate::error::ServeError;
use crate::http::{json_string, Request, Response};
use crate::jobspec::JobRequest;
use crate::metrics::ServeMetrics;
use crate::prometheus::encode_metrics;
use crate::store::{JobResultView, JobStore};
use crate::tenant::{Priority, TenantRegistry};

/// Shared serving state behind the connection workers.
pub struct Router {
    engine: Arc<Engine>,
    tenants: Arc<TenantRegistry>,
    store: Arc<JobStore>,
    metrics: Arc<ServeMetrics>,
    /// `Retry-After` hint on 429/503 responses, seconds.
    retry_after_s: u64,
    /// Batch-priority jobs are refused once the engine queue is this
    /// deep, reserving the remaining capacity for interactive tenants.
    batch_queue_ceiling: u64,
    /// When set, every submission checkpoints under `job-<id>` and
    /// terminal jobs get their checkpoints deleted.
    ckpt: Option<(CheckpointStore, CheckpointPolicy)>,
}

impl Router {
    /// Assembles a router over the shared serving state.
    pub fn new(
        engine: Arc<Engine>,
        tenants: Arc<TenantRegistry>,
        store: Arc<JobStore>,
        metrics: Arc<ServeMetrics>,
        retry_after_s: u64,
        batch_queue_ceiling: u64,
    ) -> Self {
        Router {
            engine,
            tenants,
            store,
            metrics,
            retry_after_s,
            batch_queue_ceiling,
            ckpt: None,
        }
    }

    /// Enables durable checkpointing: every submission gets a
    /// sweep-boundary writer keyed `job-<id>` with the raw request body
    /// as meta, and checkpoints of terminal jobs are deleted on the
    /// refresh that observes them finish.
    #[must_use]
    pub fn with_checkpoints(mut self, store: CheckpointStore, policy: CheckpointPolicy) -> Self {
        self.ckpt = Some((store, policy));
        self
    }

    /// [`JobStore::refresh`] plus checkpoint hygiene: jobs that just
    /// reached a terminal state have their checkpoints removed, so a
    /// restart never resurrects finished work.
    pub fn refresh_store(&self) {
        let finished = self.store.refresh(&self.tenants);
        if let Some((ckpt_store, _)) = &self.ckpt {
            for id in finished {
                let _ = ckpt_store.remove(&job_key(id));
            }
        }
    }

    /// The job store (used by the server for shutdown bookkeeping).
    pub fn store(&self) -> &Arc<JobStore> {
        &self.store
    }

    /// The tenant registry.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.tenants
    }

    /// The serve-layer metrics.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Routes one request and renders any error into its response.
    pub fn handle(&self, request: &Request) -> Response {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let result = match (request.method.as_str(), segments.as_slice()) {
            ("POST", ["v1", "jobs"]) => self.handle_submit(request),
            ("GET", ["v1", "jobs", id]) => self.handle_status(id),
            ("GET", ["v1", "jobs", id, "result"]) => self.handle_result(id),
            ("DELETE", ["v1", "jobs", id]) => self.handle_cancel(id),
            ("GET", ["metrics"]) => self.handle_metrics(),
            (_, ["v1", "jobs"] | ["v1", "jobs", _] | ["v1", "jobs", _, "result"] | ["metrics"]) => {
                Err(ServeError::MethodNotAllowed {
                    method: request.method.clone(),
                })
            }
            _ => Err(ServeError::NotFound {
                what: request.path.clone(),
            }),
        };
        result.unwrap_or_else(ServeError::into_response)
    }

    /// `POST /v1/jobs`: parse, admit, submit, store.
    fn handle_submit(&self, request: &Request) -> Result<Response, ServeError> {
        let raw_body = request.body_utf8()?;
        let spec = JobRequest::parse(raw_body)?;
        self.tenants.record_request(&spec.tenant);
        // Free slots held by jobs that finished since the last request,
        // so quota decisions see current in-flight counts.
        self.refresh_store();
        self.tenants
            .admit(&spec.tenant, spec.sites(), self.retry_after_s)?;
        if self.tenants.priority(&spec.tenant) == Some(Priority::Batch)
            && self.engine.metrics().queue_depth >= self.batch_queue_ceiling
        {
            self.tenants.release(&spec.tenant);
            self.tenants.record_backpressure(&spec.tenant);
            return Err(ServeError::Backpressure {
                retry_after_s: self.retry_after_s,
            });
        }
        // The writer needs the serve id before the engine sees the job,
        // so checkpointed submissions reserve theirs up front. The meta
        // is the raw request body: recovery re-parses it to rebuild the
        // exact spec this state was captured under. A reserved id whose
        // submission fails below is simply never inserted.
        let (reserved_id, checkpoint) = match self.ckpt.as_ref() {
            Some((ckpt_store, policy)) => {
                let id = self.store.reserve();
                let writer = ckpt_store.writer(&job_key(id), raw_body.to_string());
                (Some(id), Some((*policy, writer)))
            }
            None => (None, None),
        };
        let submitted = spec.admit(&self.engine, self.retry_after_s, checkpoint, None);
        match submitted {
            Ok((handle, diag)) => {
                let id = self
                    .store
                    .insert(reserved_id, &spec.tenant, &spec.job, handle, diag);
                Ok(Response::json(
                    201,
                    format!(
                        "{{\"id\":{id},\"state\":\"queued\",\"tenant\":{}}}",
                        json_string(&spec.tenant)
                    ),
                ))
            }
            Err(err) => {
                self.tenants.release(&spec.tenant);
                if matches!(err, ServeError::Backpressure { .. }) {
                    self.tenants.record_backpressure(&spec.tenant);
                }
                Err(err)
            }
        }
    }

    /// `GET /v1/jobs/{id}`: current lifecycle state.
    fn handle_status(&self, id: &str) -> Result<Response, ServeError> {
        let id = parse_id(id)?;
        self.refresh_store();
        let view = self.store.status(id).ok_or_else(|| ServeError::NotFound {
            what: format!("job {id}"),
        })?;
        self.tenants.record_request(&view.tenant);
        Ok(Response::json(
            200,
            format!(
                "{{\"id\":{},\"tenant\":{},\"workload\":{},\"state\":{}}}",
                view.id,
                json_string(&view.tenant),
                json_string(&view.workload),
                json_string(view.state.name())
            ),
        ))
    }

    /// `GET /v1/jobs/{id}/result`: label map and optional uncertainty
    /// maps for a terminal job.
    fn handle_result(&self, id: &str) -> Result<Response, ServeError> {
        let id = parse_id(id)?;
        self.refresh_store();
        if let Some(view) = self.store.status(id) {
            self.tenants.record_request(&view.tenant);
        }
        let result = self.store.result(id)?;
        Ok(Response::json(200, render_result(&result)))
    }

    /// `DELETE /v1/jobs/{id}`: request cancellation of a live job.
    fn handle_cancel(&self, id: &str) -> Result<Response, ServeError> {
        let id = parse_id(id)?;
        self.refresh_store();
        if let Some(view) = self.store.status(id) {
            self.tenants.record_request(&view.tenant);
        }
        self.store.cancel(id)?;
        Ok(Response::json(
            200,
            format!("{{\"id\":{id},\"cancelling\":true}}"),
        ))
    }

    /// `GET /metrics`: engine + serve families in Prometheus text
    /// format.
    fn handle_metrics(&self) -> Result<Response, ServeError> {
        self.refresh_store();
        let text = encode_metrics(
            &self.engine.metrics(),
            &self.metrics.snapshot(),
            &self.tenants.snapshot(),
            self.store.snapshot(),
        );
        Ok(Response::text(200, text))
    }
}

fn parse_id(raw: &str) -> Result<u64, ServeError> {
    raw.parse().map_err(|_| ServeError::BadRequest {
        reason: format!("job id `{raw}` is not an integer"),
    })
}

/// Renders a terminal result as JSON, leaning on the vendored serde for
/// the numeric arrays.
fn render_result(view: &JobResultView) -> String {
    let mut body = format!(
        "{{\"id\":{},\"state\":{},\"width\":{},\"height\":{},\"iterations_run\":{},\"cancelled\":{},",
        view.id,
        json_string(view.state.name()),
        view.width,
        view.height,
        view.iterations_run,
        view.cancelled,
    );
    match view.degraded {
        Some((failed_over_at, units_lost)) => body.push_str(&format!(
            "\"degraded\":{{\"failed_over_at\":{failed_over_at},\"units_lost\":{units_lost}}},"
        )),
        None => body.push_str("\"degraded\":null,"),
    }
    body.push_str(&format!(
        "\"labels\":{}",
        serde::json::to_string(&view.labels)
    ));
    if let Some(map) = &view.map_estimate {
        body.push_str(&format!(
            ",\"map_estimate\":{}",
            serde::json::to_string(map)
        ));
    }
    if let Some(marginal) = &view.marginal_map {
        let indices: Vec<u64> = marginal.iter().map(|&i| i as u64).collect();
        body.push_str(&format!(
            ",\"marginal_map\":{}",
            serde::json::to_string(&indices)
        ));
    }
    if let Some(entropy) = &view.entropy {
        body.push_str(&format!(",\"entropy\":{}", serde::json::to_string(entropy)));
    }
    body.push('}');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantQuota;
    use mogs_engine::EngineConfig;

    fn test_router(queue_capacity: usize) -> Router {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            queue_capacity,
            max_active_jobs: 2,
            phase_deadline: None,
            max_phase_retries: 0,
        }));
        let tenants = Arc::new(TenantRegistry::new());
        tenants.register(
            "acme",
            TenantQuota {
                max_in_flight: 2,
                max_sites_per_job: 4096,
                priority: Priority::Interactive,
            },
        );
        Router::new(
            engine,
            tenants,
            Arc::new(JobStore::new(16)),
            Arc::new(ServeMetrics::new()),
            1,
            4,
        )
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn body_text(response: &Response) -> String {
        String::from_utf8(response.body.clone()).expect("utf8 body")
    }

    #[test]
    fn submit_poll_result_round_trip() {
        let router = test_router(8);
        let submit = router.handle(&request(
            "POST",
            "/v1/jobs",
            r#"{"tenant":"acme","workload":"segmentation","width":8,"height":8,"iterations":4}"#,
        ));
        assert_eq!(submit.status, 201, "{}", body_text(&submit));
        assert!(body_text(&submit).contains("\"id\":1"));
        // Poll until terminal (tiny job; bounded spin).
        let mut state = String::new();
        for _ in 0..500 {
            let poll = router.handle(&request("GET", "/v1/jobs/1", ""));
            assert_eq!(poll.status, 200);
            state = body_text(&poll);
            if state.contains("\"done\"") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(state.contains("\"state\":\"done\""), "state: {state}");
        let result = router.handle(&request("GET", "/v1/jobs/1/result", ""));
        assert_eq!(result.status, 200, "{}", body_text(&result));
        let body = body_text(&result);
        assert!(body.contains("\"labels\":["), "{body}");
        assert!(body.contains("\"iterations_run\":4"), "{body}");
    }

    #[test]
    fn result_before_terminal_is_409_and_unknown_is_404() {
        let router = test_router(8);
        let submit = router.handle(&request(
            "POST",
            "/v1/jobs",
            r#"{"tenant":"acme","workload":"segmentation","width":16,"height":16,"iterations":400}"#,
        ));
        assert_eq!(submit.status, 201);
        let early = router.handle(&request("GET", "/v1/jobs/1/result", ""));
        // 409 while live; the tiny chance it already finished gives 200.
        assert!(
            early.status == 409 || early.status == 200,
            "status {}",
            early.status
        );
        assert_eq!(
            router.handle(&request("GET", "/v1/jobs/99", "")).status,
            404
        );
        assert_eq!(
            router
                .handle(&request("GET", "/v1/jobs/not-a-number", ""))
                .status,
            400
        );
        router.handle(&request("DELETE", "/v1/jobs/1", ""));
    }

    #[test]
    fn batch_tenant_at_the_queue_ceiling_is_503_and_gives_its_slot_back() {
        let mut router = test_router(8);
        // An idle engine's queue depth of 0 already meets a zero ceiling.
        router.batch_queue_ceiling = 0;
        let batch = TenantQuota {
            max_in_flight: 1,
            max_sites_per_job: 4096,
            priority: Priority::Batch,
        };
        router.tenants.register("nightly", batch);
        let body =
            r#"{"tenant":"nightly","workload":"segmentation","width":8,"height":8,"iterations":4}"#;
        let refused = router.handle(&request("POST", "/v1/jobs", body));
        assert_eq!(refused.status, 503, "{}", body_text(&refused));
        assert_eq!(refused.header_value("Retry-After"), Some("1"));
        // Had the refusal kept the tenant's one in-flight slot, the same
        // tenant reconfigured as interactive would now get a 429.
        router.tenants.register(
            "nightly",
            TenantQuota {
                priority: Priority::Interactive,
                ..batch
            },
        );
        let admitted = router.handle(&request("POST", "/v1/jobs", body));
        assert_eq!(admitted.status, 201, "{}", body_text(&admitted));
    }

    #[test]
    fn unknown_routes_and_methods_are_typed() {
        let router = test_router(8);
        // The retired fleet route is an unknown path like any other.
        let fleet = ["/v1", "/fleet/jobs"].concat();
        let fleet_job = format!("{fleet}/1");
        for path in ["/nope", fleet.as_str(), fleet_job.as_str()] {
            for method in ["GET", "POST"] {
                assert_eq!(router.handle(&request(method, path, "{}")).status, 404);
            }
        }
        assert_eq!(router.handle(&request("PUT", "/v1/jobs", "")).status, 405);
        assert_eq!(router.handle(&request("POST", "/metrics", "")).status, 405);
    }

    #[test]
    fn unknown_tenant_is_403_and_malformed_body_is_400() {
        let router = test_router(8);
        let forbidden = router.handle(&request(
            "POST",
            "/v1/jobs",
            r#"{"tenant":"ghost","workload":"segmentation"}"#,
        ));
        assert_eq!(forbidden.status, 403);
        let malformed = router.handle(&request("POST", "/v1/jobs", "{not json"));
        assert_eq!(malformed.status, 400);
    }

    #[test]
    fn metrics_endpoint_serves_valid_prometheus_text() {
        let router = test_router(8);
        let response = router.handle(&request("GET", "/metrics", ""));
        assert_eq!(response.status, 200);
        assert_eq!(
            response.header_value("Content-Type"),
            Some("text/plain; version=0.0.4; charset=utf-8")
        );
        crate::prometheus::validate_exposition(&body_text(&response)).expect("valid exposition");
    }
}
