//! The `POST /v1/jobs` body: a tenant, a diagnostics flag and one
//! [`JobDescription`], and its admission into the engine.
//!
//! [`JobRequest::parse`] reads `tenant` and `diag` and hands every other
//! key to the description's [`KeyReader`], so
//! `{"tenant":"acme","workload":"segmentation"}` runs the reference
//! 16×16 five-class scene while a typo'd key is a 400, not a silent
//! default. Admission builds the job through [`JobDescription::build`],
//! the one path from a description to an engine job (the fleet's workers
//! take it too), so a served job is *bit-identical* to the direct engine
//! path for the same description. Scene synthesis and the MRF build are
//! a large per-job cost on small jobs; the benchmark's `serve-small` row
//! reads it as `vision.model_build_ms` under `--trace 1`.

use std::ops::Deref;
use std::sync::Arc;

use mogs_diag::{DiagConfig, MultiChainDiag};
use mogs_engine::{
    BackendSampler, CheckpointPolicy, CheckpointWriter, Engine, InferenceJob, JobHandle,
    JobState as CheckpointState, TrySubmitError,
};
use mogs_mrf::energy::SingletonPotential;
use mogs_vision::job::{JobDescription, JobError, JobVisitor, KeyReader};
use serde::de::Parser;

use crate::error::ServeError;

/// A job admitted into the engine, with the coordinator holding its
/// marginal accumulators when diagnostics were requested.
type Admitted = (JobHandle, Option<Arc<MultiChainDiag>>);

/// One parsed and validated job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The submitting tenant (required).
    pub tenant: String,
    /// Attach streaming diagnostics and return marginal/entropy maps
    /// with the result.
    pub diag: bool,
    /// The job itself.
    pub job: JobDescription,
}

/// A request reads as its job description.
impl Deref for JobRequest {
    type Target = JobDescription;

    fn deref(&self) -> &JobDescription {
        &self.job
    }
}

impl JobRequest {
    /// Parses and validates a JSON job request.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for malformed JSON, unknown keys or
    /// workloads, a missing tenant or workload, and out-of-range values.
    pub fn parse(json: &str) -> Result<JobRequest, ServeError> {
        let mut parser = Parser::new(json);
        let (mut tenant, mut diag, mut keys) = (String::new(), false, KeyReader::default());
        parser
            .parse_object(|key, parser| {
                match key {
                    "tenant" => tenant = parser.parse_string()?,
                    "diag" => diag = parser.parse_bool()?,
                    _ => return keys.read_key(key, parser),
                }
                Ok(true)
            })
            .and_then(|()| parser.expect_end())
            .map_err(JobError::from)?;
        if tenant.is_empty() {
            return Err(ServeError::BadRequest {
                reason: "missing required key `tenant`".to_string(),
            });
        }
        Ok(JobRequest {
            tenant,
            diag,
            job: keys.finish()?,
        })
    }

    /// [`admit`](JobRequest::admit) with no checkpoint writer.
    ///
    /// # Errors
    ///
    /// Same as [`admit`](JobRequest::admit).
    pub fn submit(&self, engine: &Engine, retry_after_s: u64) -> Result<Admitted, ServeError> {
        self.admit(engine, retry_after_s, None, None)
    }

    /// Admits this request into the engine with an optional durable
    /// checkpoint writer (every submission has one when the server runs
    /// with a [`CheckpointSetup`](crate::CheckpointSetup)), returning the
    /// handle and, when diagnostics were requested, the coordinator
    /// holding the marginal accumulators. With `resume`, it seats that
    /// checkpointed state via [`Engine::resume`] instead: the body fully
    /// determines the job, so re-parsing it rebuilds the spec the state
    /// was captured under, and the engine's binding check refuses
    /// anything that drifted.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] when the engine queue is full,
    /// [`ServeError::Rejected`]/[`ServeError::ShuttingDown`] for
    /// admission failures (see [`ServeError::from_admission`]), including
    /// a state that does not belong to this spec.
    pub fn admit(
        &self,
        engine: &Engine,
        retry_after_s: u64,
        checkpoint: Option<(CheckpointPolicy, Arc<dyn CheckpointWriter>)>,
        resume: Option<&CheckpointState>,
    ) -> Result<Admitted, ServeError> {
        self.job.build(Admit {
            engine,
            diag: self.diag,
            retry_after_s,
            checkpoint,
            resume,
        })?
    }
}

/// Attaches a fresh diagnostics coordinator and a checkpoint writer to a
/// built job and admits it via `try_submit` — or, on the recovery path,
/// seats the checkpointed state via [`Engine::resume`] — mapping the
/// failure modes onto the serve taxonomy.
struct Admit<'a> {
    engine: &'a Engine,
    diag: bool,
    retry_after_s: u64,
    checkpoint: Option<(CheckpointPolicy, Arc<dyn CheckpointWriter>)>,
    resume: Option<&'a CheckpointState>,
}

impl JobVisitor for Admit<'_> {
    type Output = Result<Admitted, ServeError>;

    fn visit<S: SingletonPotential + 'static>(
        self,
        mut job: InferenceJob<S, BackendSampler>,
    ) -> Self::Output {
        let coordinator = self.diag.then(|| {
            MultiChainDiag::for_field(
                &job.mrf,
                1,
                DiagConfig {
                    // Serve jobs run their full budget; the sink only
                    // accumulates the marginals the result endpoint serves.
                    early_stop: false,
                    label_stride: 1,
                    window: 64,
                    ..DiagConfig::default()
                },
            )
        });
        if let Some(coordinator) = &coordinator {
            job = job.sink(coordinator.sink(0));
        }
        if let Some((policy, writer)) = self.checkpoint {
            job = job.checkpoint(policy, writer);
        }
        match self.resume {
            None => match self.engine.try_submit(job) {
                Ok(handle) => Ok((handle, coordinator)),
                Err(TrySubmitError::Full) => Err(ServeError::Backpressure {
                    retry_after_s: self.retry_after_s,
                }),
                Err(TrySubmitError::Engine(err)) => Err(ServeError::from_admission(err)),
            },
            // Recovery runs before the listener serves traffic, so the
            // blocking `resume` cannot be starved by request load.
            Some(state) => self
                .engine
                .resume(job, state)
                .map(|handle| (handle, coordinator))
                .map_err(ServeError::from_admission),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_vision::job::Workload;

    #[test]
    fn minimal_request_gets_defaults() {
        let req =
            JobRequest::parse(r#"{"tenant":"acme","workload":"segmentation"}"#).expect("minimal");
        assert_eq!(req.tenant, "acme");
        let Workload::Segmentation { labels: 5, .. } = req.workload else {
            panic!("a 5-label segmentation job: {:?}", req.workload);
        };
        assert_eq!(req.workload.dims(), (16, 16));
        assert_eq!(req.iterations, 20);
        assert_eq!(req.threads, 2);
        assert!(!req.diag);
        assert_eq!(req.sites(), 256);
    }

    #[test]
    fn explicit_fields_override_defaults() {
        let req = JobRequest::parse(
            r#"{"tenant":"t","workload":"stereo","width":24,"height":12,
                "iterations":5,"seed":99,"threads":4,"disparity":3,"diag":true}"#,
        )
        .expect("valid");
        let Workload::Stereo { disparity: 3, .. } = req.workload else {
            panic!("a stereo job at disparity 3: {:?}", req.workload);
        };
        assert_eq!(req.workload.dims(), (24, 12));
        assert_eq!(req.seed, 99);
        assert!(req.diag);
    }

    #[test]
    fn missing_tenant_or_workload_is_rejected() {
        for json in [
            r#"{"workload":"segmentation"}"#,
            r#"{"tenant":"acme"}"#,
            r#"{"tenant":"","workload":"segmentation"}"#,
        ] {
            let err = JobRequest::parse(json).expect_err("incomplete");
            assert_eq!(err.status(), 400, "json: {json}");
        }
    }

    #[test]
    fn unknown_keys_and_workloads_are_rejected() {
        assert_eq!(
            JobRequest::parse(r#"{"tenant":"t","workload":"segmentation","iterationz":5}"#)
                .expect_err("typo")
                .status(),
            400
        );
        assert_eq!(
            JobRequest::parse(r#"{"tenant":"t","workload":"quantum"}"#)
                .expect_err("unknown workload")
                .status(),
            400
        );
    }

    #[test]
    fn malformed_json_is_a_bad_request_never_a_panic() {
        for json in ["", "{", "not json", r#"{"tenant":12}"#, "[1,2]", "{}"] {
            assert_eq!(
                JobRequest::parse(json).expect_err("malformed").status(),
                400,
                "json: {json}"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        for json in [
            r#"{"tenant":"t","workload":"motion","dx":4}"#,
            r#"{"tenant":"t","workload":"segmentation","labels":65}"#,
            r#"{"tenant":"t","workload":"segmentation","iterations":0}"#,
            r#"{"tenant":"t","workload":"segmentation","width":0}"#,
            r#"{"tenant":"t","workload":"stereo","disparity":5}"#,
            r#"{"tenant":"t","workload":"segmentation","seed":-1}"#,
        ] {
            assert_eq!(
                JobRequest::parse(json).expect_err("out of range").status(),
                400,
                "json: {json}"
            );
        }
    }

    #[test]
    fn raw_requires_well_shaped_unaries() {
        assert_eq!(
            JobRequest::parse(r#"{"tenant":"t","workload":"raw"}"#)
                .expect_err("missing unaries")
                .status(),
            400
        );
        let err = JobRequest::parse(
            r#"{"tenant":"t","workload":"raw","width":2,"height":1,"labels":2,
                "unaries":[[0.0,1.0]]}"#,
        )
        .expect_err("1 row for 2 sites");
        assert_eq!(err.status(), 400);
        let req = JobRequest::parse(
            r#"{"tenant":"t","workload":"raw","width":2,"height":1,"labels":2,
                "unaries":[[0.0,1.0],[1.0,0.0]]}"#,
        )
        .expect("well shaped");
        let Workload::Raw { unaries, .. } = &req.workload else {
            panic!("a raw request parses as a raw job");
        };
        assert_eq!(unaries, &[0.0, 1.0, 1.0, 0.0]);
    }
}
