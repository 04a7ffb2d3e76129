//! The optional fleet backend: multi-process jobs behind the serving
//! front-end.
//!
//! When a [`ServeConfig`](crate::ServeConfig) carries a [`FleetSetup`],
//! two extra routes come up:
//!
//! | Method & path               | Purpose                              |
//! |-----------------------------|--------------------------------------|
//! | `POST /v1/fleet/jobs`       | Submit a [`FleetSpec`] JSON body     |
//! | `GET /v1/fleet/jobs/{id}`   | Poll state; terminal replies carry the labels |
//!
//! A fleet job spans worker *processes* (here: the in-process launcher,
//! so the serving host needs no helper binary on disk), so the backend
//! is deliberately conservative: **one fleet job in flight at a time**,
//! a site cap on the spec, and the coordinator running on its own
//! thread — a fleet submission never parks a connection worker, and a
//! busy backend answers 503 with `Retry-After` like any other
//! backpressure. Results are bit-identical to the engine path for the
//! same spec; that is the fleet crate's contract, not this module's
//! problem.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

use mogs_fleet::{run_fleet, FleetConfig, FleetError, FleetOutput, FleetSpec, Launcher};
use parking_lot::Mutex;

use crate::error::ServeError;
use crate::http::Response;
use crate::jobspec::MAX_ITERATIONS;

/// Fleet backend configuration carried by
/// [`ServeConfig`](crate::ServeConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSetup {
    /// Worker threads (in-process launcher) per fleet job.
    pub workers: usize,
    /// Largest plane a fleet submission may request, sites.
    pub max_sites: usize,
}

impl Default for FleetSetup {
    fn default() -> Self {
        FleetSetup {
            workers: 2,
            max_sites: 1 << 16,
        }
    }
}

enum FleetJob {
    Running(JoinHandle<Result<FleetOutput, FleetError>>),
    Done(Box<FleetOutput>),
    Failed(String),
}

/// The single-flight fleet job table behind the two fleet routes.
pub struct FleetRunner {
    setup: FleetSetup,
    next_id: AtomicU64,
    jobs: Mutex<HashMap<u64, FleetJob>>,
}

impl FleetRunner {
    /// A runner with no jobs yet.
    #[must_use]
    pub fn new(setup: FleetSetup) -> Self {
        FleetRunner {
            setup,
            next_id: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
        }
    }

    /// `POST /v1/fleet/jobs`: parse the [`FleetSpec`] body, enforce the
    /// sweep bound, the site cap and the single-flight slot, and launch
    /// the coordinator on its own thread.
    pub fn submit(&self, body: &str, retry_after_s: u64) -> Result<Response, ServeError> {
        let spec = FleetSpec::parse(body).map_err(|err| ServeError::BadRequest {
            reason: format!("fleet spec: {err}"),
        })?;
        if spec.iterations > MAX_ITERATIONS {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "fleet job of {} iterations exceeds the bound of {MAX_ITERATIONS}",
                    spec.iterations
                ),
            });
        }
        let sites = spec.workload.sites();
        if sites > self.setup.max_sites {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "fleet job of {sites} sites exceeds the backend cap of {} sites",
                    self.setup.max_sites
                ),
            });
        }
        let mut jobs = self.jobs.lock();
        let busy = jobs
            .values()
            .any(|job| matches!(job, FleetJob::Running(handle) if !handle.is_finished()));
        if busy {
            return Err(ServeError::Backpressure { retry_after_s });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let workers = self.setup.workers;
        let handle = std::thread::Builder::new()
            .name(format!("serve-fleet-{id}"))
            .spawn(move || {
                let mut config = FleetConfig::new(workers);
                config.launcher = Launcher::InProcess;
                run_fleet(&spec, &config)
            })
            .map_err(|err| ServeError::JobFailed {
                variant: "fleet-spawn".to_string(),
                message: format!("spawning the coordinator thread: {err}"),
            })?;
        jobs.insert(id, FleetJob::Running(handle));
        Ok(Response::json(
            202,
            format!("{{\"id\":{id},\"state\":\"running\",\"workers\":{workers}}}"),
        ))
    }

    /// `GET /v1/fleet/jobs/{id}`: settle a finished coordinator thread
    /// and report the job's state (terminal replies carry the labels).
    pub fn status(&self, id: u64) -> Result<Response, ServeError> {
        let mut jobs = self.jobs.lock();
        let job = jobs.get_mut(&id).ok_or_else(|| ServeError::NotFound {
            what: format!("fleet job {id}"),
        })?;
        // Settle: a finished Running entry becomes Done or Failed.
        let current = std::mem::replace(job, FleetJob::Failed("settling".to_string()));
        *job = match current {
            FleetJob::Running(handle) if handle.is_finished() => match handle.join() {
                Ok(Ok(output)) => FleetJob::Done(Box::new(output)),
                Ok(Err(err)) => FleetJob::Failed(err.to_string()),
                Err(_) => FleetJob::Failed("fleet coordinator thread panicked".to_string()),
            },
            other => other,
        };
        match &*job {
            FleetJob::Running(_) => Ok(Response::json(
                200,
                format!("{{\"id\":{id},\"state\":\"running\"}}"),
            )),
            FleetJob::Done(output) => Ok(Response::json(200, render_output(id, output))),
            FleetJob::Failed(message) => Err(ServeError::JobFailed {
                variant: "fleet".to_string(),
                message: message.clone(),
            }),
        }
    }
}

fn render_output(id: u64, output: &FleetOutput) -> String {
    let mut body = format!(
        "{{\"id\":{id},\"state\":{},\"iterations_run\":{},\"finished\":{},\
         \"migrations\":{},\"workers_spawned\":{},\"wire_frames\":{},\
         \"wire_bytes_out\":{},\"wire_bytes_in\":{},",
        if output.degraded.is_some() {
            "\"degraded\""
        } else {
            "\"done\""
        },
        output.iterations_run,
        output.finished,
        output.migrations,
        output.workers_spawned,
        output.wire_frames,
        output.wire_bytes_out,
        output.wire_bytes_in,
    );
    match output.degraded {
        Some(d) => body.push_str(&format!(
            "\"degraded\":{{\"failed_over_at\":{},\"units_lost\":{}}},",
            d.failed_over_at, d.units_lost
        )),
        None => body.push_str("\"degraded\":null,"),
    }
    body.push_str(&format!(
        "\"labels\":{}}}",
        serde::json::to_string(&output.labels)
    ));
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_fleet::{run_in_process, BackendKind, Workload};
    use std::time::Duration;

    fn spec() -> FleetSpec {
        FleetSpec {
            workload: Workload::Demo {
                width: 6,
                height: 4,
                labels: 3,
            },
            backend: BackendKind::Softmax,
            iterations: 4,
            threads: 2,
            seed: 0x5E11_F1EE,
            burn_in: 1,
        }
    }

    fn body(response: &Response) -> String {
        String::from_utf8(response.body.clone()).expect("utf8 body")
    }

    fn poll_done(runner: &FleetRunner, id: u64) -> String {
        for _ in 0..1000 {
            match runner.status(id) {
                Ok(response) => {
                    let text = body(&response);
                    if !text.contains("\"running\"") {
                        return text;
                    }
                }
                Err(err) => panic!("fleet job failed: {err}"),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("fleet job never finished");
    }

    #[test]
    fn submit_poll_and_labels_match_the_engine() {
        let runner = FleetRunner::new(FleetSetup::default());
        let accepted = runner.submit(&spec().encode(), 1).expect("submitted");
        assert_eq!(accepted.status, 202);
        assert!(body(&accepted).contains("\"id\":1"));
        let done = poll_done(&runner, 1);
        assert!(done.contains("\"state\":\"done\""), "{done}");
        assert!(done.contains("\"migrations\":0"), "{done}");
        assert!(done.contains("\"wire_frames\":"), "{done}");
        assert!(!done.contains("\"wire_bytes_in\":0,"), "{done}");
        let reference = run_in_process(&spec()).expect("engine runs");
        let labels = format!(
            "\"labels\":{}",
            serde::json::to_string(
                &reference
                    .labels
                    .iter()
                    .map(|l| l.value())
                    .collect::<Vec<u8>>()
            )
        );
        assert!(done.contains(&labels), "served labels diverged: {done}");
    }

    #[test]
    fn backend_is_single_flight() {
        let runner = FleetRunner::new(FleetSetup::default());
        let mut slow = spec();
        slow.iterations = 200;
        runner.submit(&slow.encode(), 7).expect("first job fits");
        let refused = runner.submit(&spec().encode(), 7).expect_err("slot busy");
        assert!(matches!(
            refused,
            ServeError::Backpressure { retry_after_s: 7 }
        ));
        poll_done(&runner, 1);
        // The slot frees once the first job settles.
        runner.submit(&spec().encode(), 7).expect("slot free again");
        poll_done(&runner, 2);
    }

    #[test]
    fn bad_specs_and_oversize_jobs_are_400_and_unknown_ids_404() {
        let runner = FleetRunner::new(FleetSetup {
            workers: 2,
            max_sites: 10,
        });
        assert!(matches!(
            runner.submit("{not json", 1),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            runner.submit(&spec().encode(), 1),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            runner.status(99),
            Err(ServeError::NotFound { .. })
        ));
    }
}
