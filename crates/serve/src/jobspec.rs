//! The `POST /v1/jobs` body: a hand-parsed JSON job request and its
//! dispatch into a validated engine submission.
//!
//! Hand-parsed because the vendored serde derive requires every field
//! to be present, while a job request is mostly defaults — a client
//! should be able to post `{"tenant":"acme","workload":"segmentation"}`
//! and get the reference 16×16 five-class scene. The parser walks the
//! object with [`serde::de::Parser`], applies defaults for absent keys,
//! and rejects unknown keys (a typo'd `"iterations"` silently running
//! the default budget would be a debugging trap).
//!
//! Dispatch monomorphizes per workload: each arm builds the same
//! [`InferenceJob`] the workload's own `engine_job` constructor
//! produces and admits it via [`Engine::try_submit`], which validates it
//! — so a served job is *bit-identical* to the
//! direct engine path for the same spec, the property the lifecycle
//! test pins. This construction (scene synthesis + MRF build per
//! request) is also a large per-job cost on small jobs; the benchmark's
//! `serve-small` row reads it as `vision.model_build_ms` under
//! `--trace 1`.

use std::sync::Arc;

use mogs_diag::{DiagConfig, MultiChainDiag};
use mogs_engine::{
    CheckpointPolicy, CheckpointWriter, Engine, InferenceJob, JobHandle,
    JobState as CheckpointState, TrySubmitError,
};
use mogs_gibbs::{LabelSampler, SoftmaxGibbs, SweepKernel};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};
use mogs_vision::motion::{MotionConfig, MotionEstimation};
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::stereo::{StereoConfig, StereoMatching};
use mogs_vision::synthetic;
use serde::de::Parser;

use crate::error::ServeError;

/// The workload a job request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Intensity segmentation over a synthetic region scene.
    Segmentation,
    /// Dense motion estimation over a synthetic translated pair.
    Motion,
    /// Stereo disparity over a synthetic rectified pair.
    Stereo,
    /// Caller-supplied per-site unary energy tables on a Potts prior.
    Raw,
}

impl Workload {
    /// Stable lowercase name (the JSON `workload` value).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Segmentation => "segmentation",
            Workload::Motion => "motion",
            Workload::Stereo => "stereo",
            Workload::Raw => "raw",
        }
    }
}

/// The largest sweep budget `POST /v1/jobs` accepts.
pub const MAX_ITERATIONS: usize = 1 << 20;

/// One parsed and sanity-checked job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The submitting tenant (required).
    pub tenant: String,
    /// The workload to run (required).
    pub workload: Workload,
    /// Field width in sites.
    pub width: usize,
    /// Field height in sites.
    pub height: usize,
    /// Label count: segmentation classes, or raw table width.
    pub labels: u16,
    /// Sweep budget.
    pub iterations: usize,
    /// Base RNG seed (also seeds the synthetic scene).
    pub seed: u64,
    /// Deterministic chunk count (the reference path's `threads`);
    /// clamped to at least 2 so results match the reference chain.
    pub threads: usize,
    /// Synthetic scene noise standard deviation.
    pub noise_sigma: f64,
    /// Smoothness-prior weight override; `None` keeps the workload's
    /// default.
    pub smoothness: Option<f64>,
    /// Motion: ground-truth x displacement.
    pub dx: i32,
    /// Motion: ground-truth y displacement.
    pub dy: i32,
    /// Stereo: foreground disparity in pixels.
    pub disparity: u8,
    /// Attach streaming diagnostics and return marginal/entropy maps
    /// with the result.
    pub diag: bool,
    /// Raw workload: per-site unary energies, `sites` rows of `labels`
    /// columns.
    pub unaries: Option<Vec<Vec<f64>>>,
}

impl JobRequest {
    /// Field size in sites, known before any model is built — this is
    /// what the tenant's per-job quota is checked against.
    pub fn sites(&self) -> usize {
        self.width * self.height
    }

    /// Parses and validates a JSON job request.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for malformed JSON, unknown keys or
    /// workloads, missing required fields, and out-of-range values.
    pub fn parse(json: &str) -> Result<JobRequest, ServeError> {
        let mut p = Parser::new(json);
        let mut tenant: Option<String> = None;
        let mut workload: Option<Workload> = None;
        let mut req = JobRequest {
            tenant: String::new(),
            workload: Workload::Segmentation,
            width: 16,
            height: 16,
            labels: 5,
            iterations: 20,
            seed: 0,
            threads: 2,
            noise_sigma: 12.0,
            smoothness: None,
            dx: 1,
            dy: 0,
            disparity: 2,
            diag: false,
            unaries: None,
        };
        p.expect_char('{').map_err(bad)?;
        if !p.consume_char('}') {
            loop {
                let key = p.parse_string().map_err(bad)?;
                p.expect_char(':').map_err(bad)?;
                match key.as_str() {
                    "tenant" => tenant = Some(p.parse_string().map_err(bad)?),
                    "workload" => {
                        let name = p.parse_string().map_err(bad)?;
                        workload = Some(match name.as_str() {
                            "segmentation" => Workload::Segmentation,
                            "motion" => Workload::Motion,
                            "stereo" => Workload::Stereo,
                            "raw" => Workload::Raw,
                            other => {
                                return Err(ServeError::BadRequest {
                                    reason: format!(
                                        "unknown workload `{other}` (expected \
                                         segmentation, motion, stereo, or raw)"
                                    ),
                                });
                            }
                        });
                    }
                    "width" => req.width = usize_field(&mut p, "width", 1, 1 << 14)?,
                    "height" => req.height = usize_field(&mut p, "height", 1, 1 << 14)?,
                    "labels" => req.labels = usize_field(&mut p, "labels", 1, 64)? as u16,
                    "iterations" => {
                        req.iterations = usize_field(&mut p, "iterations", 1, MAX_ITERATIONS)?;
                    }
                    "seed" => {
                        let n = p.parse_number().map_err(bad)?;
                        if n < 0.0 || n.fract() != 0.0 || n >= 2f64.powi(53) {
                            return Err(range_err("seed", "a non-negative integer < 2^53"));
                        }
                        req.seed = n as u64;
                    }
                    "threads" => req.threads = usize_field(&mut p, "threads", 1, 256)?.max(2),
                    "noise_sigma" => {
                        let n = p.parse_number().map_err(bad)?;
                        if !(0.0..=128.0).contains(&n) {
                            return Err(range_err("noise_sigma", "in 0..=128"));
                        }
                        req.noise_sigma = n;
                    }
                    "smoothness" => {
                        let n = p.parse_number().map_err(bad)?;
                        if !(0.0..=64.0).contains(&n) {
                            return Err(range_err("smoothness", "in 0..=64"));
                        }
                        req.smoothness = Some(n);
                    }
                    "dx" => req.dx = displacement_field(&mut p, "dx")?,
                    "dy" => req.dy = displacement_field(&mut p, "dy")?,
                    "disparity" => req.disparity = usize_field(&mut p, "disparity", 1, 4)? as u8,
                    "diag" => req.diag = p.parse_bool().map_err(bad)?,
                    "unaries" => req.unaries = Some(parse_unaries(&mut p)?),
                    other => {
                        return Err(ServeError::BadRequest {
                            reason: format!("unknown key `{other}` in job request"),
                        });
                    }
                }
                if !p.consume_char(',') {
                    p.expect_char('}').map_err(bad)?;
                    break;
                }
            }
        }
        p.expect_end().map_err(bad)?;
        let Some(tenant) = tenant.filter(|t| !t.is_empty()) else {
            return Err(ServeError::BadRequest {
                reason: "missing required key `tenant`".to_string(),
            });
        };
        let Some(workload) = workload else {
            return Err(ServeError::BadRequest {
                reason: "missing required key `workload`".to_string(),
            });
        };
        req.tenant = tenant;
        req.workload = workload;
        if workload == Workload::Raw {
            let Some(unaries) = &req.unaries else {
                return Err(ServeError::BadRequest {
                    reason: "raw workload requires `unaries`".to_string(),
                });
            };
            if unaries.len() != req.sites() {
                return Err(ServeError::BadRequest {
                    reason: format!(
                        "unaries has {} rows for a {}x{} field of {} sites",
                        unaries.len(),
                        req.width,
                        req.height,
                        req.sites()
                    ),
                });
            }
            if let Some(row) = unaries.iter().find(|r| r.len() != usize::from(req.labels)) {
                return Err(ServeError::BadRequest {
                    reason: format!(
                        "every unaries row needs {} energies, found one with {}",
                        req.labels,
                        row.len()
                    ),
                });
            }
        }
        Ok(req)
    }

    /// Builds the segmentation model this request describes — exposed
    /// so the lifecycle test and the benchmark can run the *direct*
    /// engine path on the identical model and compare label maps bit
    /// for bit.
    pub fn segmentation(&self) -> Segmentation {
        let scene = synthetic::region_scene(
            self.width,
            self.height,
            usize::from(self.labels),
            self.noise_sigma,
            self.seed,
        );
        let mut config = SegmentationConfig {
            num_labels: self.labels,
            threads: self.threads,
            ..SegmentationConfig::default()
        };
        if let Some(w) = self.smoothness {
            config.smoothness_weight = w;
        }
        Segmentation::new(scene.image, config)
    }

    /// Admits this request into the engine, returning the handle and,
    /// when diagnostics were requested, the coordinator holding the
    /// marginal accumulators.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] when the engine queue is full,
    /// [`ServeError::Rejected`]/[`ServeError::ShuttingDown`] for
    /// admission failures (see [`ServeError::from_admission`]).
    pub fn submit(
        &self,
        engine: &Engine,
        retry_after_s: u64,
    ) -> Result<(JobHandle, Option<Arc<MultiChainDiag>>), ServeError> {
        self.dispatch(engine, retry_after_s, None, None)
    }

    /// [`submit`](JobRequest::submit) with a durable checkpoint writer
    /// attached — the path every submission takes when the server runs
    /// with a [`CheckpointSetup`](crate::CheckpointSetup).
    ///
    /// # Errors
    ///
    /// Same as [`submit`](JobRequest::submit).
    pub fn submit_with_checkpoint(
        &self,
        engine: &Engine,
        retry_after_s: u64,
        checkpoint: Option<(CheckpointPolicy, Arc<dyn CheckpointWriter>)>,
    ) -> Result<(JobHandle, Option<Arc<MultiChainDiag>>), ServeError> {
        self.dispatch(engine, retry_after_s, checkpoint, None)
    }

    /// Seats a checkpointed state under the spec this request rebuilds,
    /// via [`Engine::resume`]. Recovery-path counterpart of
    /// [`submit`](JobRequest::submit): because the request body fully
    /// determines the job (scene, tables, seed), re-parsing it
    /// reconstructs the exact spec the state was captured under, and the
    /// engine's binding check refuses anything that drifted.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when the state does not belong to this
    /// spec (binding mismatch, invalid plane), plus everything
    /// [`submit`](JobRequest::submit) reports.
    pub fn resume(
        &self,
        engine: &Engine,
        retry_after_s: u64,
        state: &CheckpointState,
        checkpoint: Option<(CheckpointPolicy, Arc<dyn CheckpointWriter>)>,
    ) -> Result<(JobHandle, Option<Arc<MultiChainDiag>>), ServeError> {
        self.dispatch(engine, retry_after_s, checkpoint, Some(state))
    }

    fn dispatch(
        &self,
        engine: &Engine,
        retry_after_s: u64,
        checkpoint: Option<(CheckpointPolicy, Arc<dyn CheckpointWriter>)>,
        resume: Option<&CheckpointState>,
    ) -> Result<(JobHandle, Option<Arc<MultiChainDiag>>), ServeError> {
        match self.workload {
            Workload::Segmentation => {
                let app = self.segmentation();
                let job = app.engine_job(SoftmaxGibbs::new(), self.iterations, self.seed);
                admit(engine, job, self.diag, retry_after_s, checkpoint, resume)
            }
            Workload::Motion => {
                let scene = synthetic::translated_pair(
                    self.width,
                    self.height,
                    self.dx,
                    self.dy,
                    self.noise_sigma,
                    self.seed,
                );
                let mut config = MotionConfig {
                    threads: self.threads,
                    ..MotionConfig::default()
                };
                if let Some(w) = self.smoothness {
                    config.smoothness_weight = w;
                }
                let app = MotionEstimation::new(&scene.frame1, &scene.frame2, config);
                let job = app.engine_job(SoftmaxGibbs::new(), self.iterations, self.seed);
                admit(engine, job, self.diag, retry_after_s, checkpoint, resume)
            }
            Workload::Stereo => {
                let scene = synthetic::stereo_pair(
                    self.width,
                    self.height,
                    self.disparity,
                    self.noise_sigma,
                    self.seed,
                );
                let mut config = StereoConfig {
                    num_disparities: u16::from(self.disparity) + 1,
                    threads: self.threads,
                    ..StereoConfig::default()
                };
                if let Some(w) = self.smoothness {
                    config.smoothness_weight = w;
                }
                let app = StereoMatching::new(&scene.left, &scene.right, config);
                let job = app.engine_job(SoftmaxGibbs::new(), self.iterations, self.seed);
                admit(engine, job, self.diag, retry_after_s, checkpoint, resume)
            }
            Workload::Raw => {
                let unaries = self.unaries.clone().unwrap_or_default();
                let singleton = TableSingleton {
                    labels: usize::from(self.labels),
                    energies: Arc::new(unaries.into_iter().flatten().collect()),
                };
                let mrf = MarkovRandomField::builder(
                    Grid2D::new(self.width, self.height),
                    LabelSpace::scalar(self.labels),
                )
                .prior(SmoothnessPrior::potts(self.smoothness.unwrap_or(1.0)))
                .singleton(singleton)
                .build();
                let mut job = InferenceJob::new(mrf, SoftmaxGibbs::new());
                job.iterations = self.iterations;
                job.threads = self.threads;
                job.seed = self.seed;
                job.track_modes = true;
                job.burn_in = self.iterations / 4;
                admit(engine, job, self.diag, retry_after_s, checkpoint, resume)
            }
        }
    }
}

/// Per-site unary lookup for the raw workload: row-major
/// `sites x labels` energy table behind an `Arc` so field clones stay
/// cheap.
#[derive(Debug, Clone)]
pub struct TableSingleton {
    labels: usize,
    energies: Arc<Vec<f64>>,
}

impl SingletonPotential for TableSingleton {
    fn energy(&self, site: usize, label: Label) -> f64 {
        self.energies[site * self.labels + usize::from(label.value())]
    }
}

/// Optionally attaches a fresh diagnostics coordinator and a checkpoint
/// writer to an assembled job, and admits it via `try_submit`
/// — or, on the recovery path, seats the checkpointed state via
/// [`Engine::resume`] — mapping the failure modes onto the serve
/// taxonomy.
fn admit<S, L>(
    engine: &Engine,
    mut job: InferenceJob<S, L>,
    diag: bool,
    retry_after_s: u64,
    checkpoint: Option<(CheckpointPolicy, Arc<dyn CheckpointWriter>)>,
    resume: Option<&CheckpointState>,
) -> Result<(JobHandle, Option<Arc<MultiChainDiag>>), ServeError>
where
    S: SingletonPotential + Clone + 'static,
    L: LabelSampler + SweepKernel + Clone + Send + Sync + 'static,
{
    let coordinator = diag.then(|| {
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
    if let Some((policy, writer)) = checkpoint {
        job = job.checkpoint(policy, writer);
    }
    match resume {
        None => match engine.try_submit(job) {
            Ok(handle) => Ok((handle, coordinator)),
            Err(TrySubmitError::Full) => Err(ServeError::Backpressure { retry_after_s }),
            Err(TrySubmitError::Engine(err)) => Err(ServeError::from_admission(err)),
        },
        // Recovery runs before the listener serves traffic, so the
        // blocking `resume` cannot be starved by request load.
        Some(state) => engine
            .resume(job, state)
            .map(|handle| (handle, coordinator))
            .map_err(ServeError::from_admission),
    }
}

fn bad(err: serde::de::Error) -> ServeError {
    ServeError::BadRequest {
        reason: format!("invalid job request JSON: {err}"),
    }
}

fn range_err(field: &str, expected: &str) -> ServeError {
    ServeError::BadRequest {
        reason: format!("`{field}` must be {expected}"),
    }
}

fn usize_field(
    p: &mut Parser<'_>,
    field: &str,
    min: usize,
    max: usize,
) -> Result<usize, ServeError> {
    let n = p.parse_number().map_err(bad)?;
    if n.fract() != 0.0 || n < min as f64 || n > max as f64 {
        return Err(range_err(field, &format!("an integer in {min}..={max}")));
    }
    Ok(n as usize)
}

fn displacement_field(p: &mut Parser<'_>, field: &str) -> Result<i32, ServeError> {
    let n = p.parse_number().map_err(bad)?;
    if n.fract() != 0.0 || !(-3.0..=3.0).contains(&n) {
        return Err(range_err(field, "an integer in -3..=3"));
    }
    Ok(n as i32)
}

fn parse_unaries(p: &mut Parser<'_>) -> Result<Vec<Vec<f64>>, ServeError> {
    let mut rows = Vec::new();
    p.expect_char('[').map_err(bad)?;
    if !p.consume_char(']') {
        loop {
            let mut row = Vec::new();
            p.expect_char('[').map_err(bad)?;
            if !p.consume_char(']') {
                loop {
                    row.push(p.parse_number().map_err(bad)?);
                    if !p.consume_char(',') {
                        p.expect_char(']').map_err(bad)?;
                        break;
                    }
                }
            }
            rows.push(row);
            if !p.consume_char(',') {
                p.expect_char(']').map_err(bad)?;
                break;
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_gets_defaults() {
        let req =
            JobRequest::parse(r#"{"tenant":"acme","workload":"segmentation"}"#).expect("minimal");
        assert_eq!(req.tenant, "acme");
        assert_eq!(req.workload, Workload::Segmentation);
        assert_eq!((req.width, req.height, req.labels), (16, 16, 5));
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
        assert_eq!(req.workload, Workload::Stereo);
        assert_eq!((req.width, req.height), (24, 12));
        assert_eq!(req.seed, 99);
        assert_eq!(req.disparity, 3);
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
        assert_eq!(req.unaries.as_ref().map(Vec::len), Some(2));
    }

    #[test]
    fn table_singleton_indexes_row_major() {
        let s = TableSingleton {
            labels: 2,
            energies: Arc::new(vec![0.0, 1.0, 2.0, 3.0]),
        };
        assert_eq!(s.energy(0, Label::new(1)), 1.0);
        assert_eq!(s.energy(1, Label::new(0)), 2.0);
    }
}
