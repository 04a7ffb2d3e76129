//! Validated job descriptions: the [`JobSpec`] builder.
//!
//! [`InferenceJob`] grew ten `with_*` setters whose invariants were only
//! checked at submit time, deep inside admission. [`JobSpec`] moves that
//! boundary: `JobSpec::builder(mrf, kernel)` collects the same settings,
//! and [`JobSpecBuilder::build`] validates them *before* anything touches
//! the engine, returning a typed [`EngineError`] naming the offending
//! field. A `JobSpec` is therefore evidence of a well-formed request;
//! [`Engine::submit`](crate::Engine::submit) accepts
//! `impl Into<JobSpec<_, _>>`, so both specs and legacy `InferenceJob`
//! values (converted unvalidated, then vetted at admission as before)
//! flow through the same door.

use std::sync::Arc;

use mogs_gibbs::{LabelSampler, TemperatureSchedule};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::label::MAX_LABELS;
use mogs_mrf::{Label, MarkovRandomField};

use crate::error::EngineError;
use crate::job::InferenceJob;
use crate::sink::DiagSink;

/// A validated inference request, produced by [`JobSpecBuilder::build`].
///
/// Everything an [`InferenceJob`] holds, with the cheap structural
/// invariants (non-zero iteration budget and chunk count, a label space
/// the engine's energy buffers can hold, an initial labeling that fits
/// the field) already checked. The sweep-schedule interference audit
/// still runs at admission — it needs the full site graph.
pub struct JobSpec<S: SingletonPotential, L: LabelSampler> {
    pub(crate) job: InferenceJob<S, L>,
}

impl<S: SingletonPotential, L: LabelSampler> JobSpec<S, L> {
    /// Starts a builder over `mrf` with `kernel` as the sampler backend,
    /// using the same defaults as [`InferenceJob::new`]: the field's own
    /// temperature held constant, 100 iterations, 2 chunks, seed 0, no
    /// burn-in, no mode tracking, energy recording on.
    pub fn builder(mrf: MarkovRandomField<S>, kernel: L) -> JobSpecBuilder<S, L> {
        JobSpecBuilder {
            job: InferenceJob::new(mrf, kernel),
        }
    }

    /// Read access to the validated request.
    pub fn job(&self) -> &InferenceJob<S, L> {
        &self.job
    }

    /// Unwraps the request for admission.
    pub(crate) fn into_job(self) -> InferenceJob<S, L> {
        self.job
    }
}

impl<S: SingletonPotential, L: LabelSampler> std::fmt::Debug for JobSpec<S, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec").field("job", &self.job).finish()
    }
}

/// Legacy path: an [`InferenceJob`] converts into an *unvalidated* spec;
/// admission performs the full check exactly as it always did.
impl<S: SingletonPotential, L: LabelSampler> From<InferenceJob<S, L>> for JobSpec<S, L> {
    fn from(job: InferenceJob<S, L>) -> Self {
        JobSpec { job }
    }
}

/// Builder for [`JobSpec`]; validation happens once, in
/// [`JobSpecBuilder::build`].
pub struct JobSpecBuilder<S: SingletonPotential, L: LabelSampler> {
    job: InferenceJob<S, L>,
}

impl<S: SingletonPotential, L: LabelSampler> JobSpecBuilder<S, L> {
    /// Sets the iteration budget.
    #[must_use]
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.job.iterations = iterations;
        self
    }

    /// Sets the deterministic chunk count (the reference path's
    /// `threads`).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.job.threads = threads;
        self
    }

    /// Sets the base RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.job.seed = seed;
        self
    }

    /// Replaces the sampler backend.
    #[must_use]
    pub fn kernel(mut self, kernel: L) -> Self {
        self.job.sampler = kernel;
        self
    }

    /// Sets the annealing schedule.
    #[must_use]
    pub fn schedule(mut self, schedule: TemperatureSchedule) -> Self {
        self.job.schedule = schedule;
        self
    }

    /// Sets the burn-in prefix discarded before mode tracking.
    #[must_use]
    pub fn burn_in(mut self, burn_in: usize) -> Self {
        self.job.burn_in = burn_in;
        self
    }

    /// Enables or disables marginal-mode tracking.
    #[must_use]
    pub fn track_modes(mut self, on: bool) -> Self {
        self.job.track_modes = on;
        self
    }

    /// Enables or disables the per-iteration energy trace.
    #[must_use]
    pub fn record_energy(mut self, on: bool) -> Self {
        self.job.record_energy = on;
        self
    }

    /// Sets an explicit starting labeling (validated at [`build`]).
    ///
    /// [`build`]: JobSpecBuilder::build
    #[must_use]
    pub fn initial(mut self, labels: Vec<Label>) -> Self {
        self.job.initial = Some(labels);
        self
    }

    /// Overrides the sweep phase groups. The override still passes the
    /// `mogs-audit` interference check at admission.
    #[must_use]
    pub fn groups(mut self, groups: Vec<Vec<usize>>) -> Self {
        self.job.groups = Some(groups);
        self
    }

    /// Attaches a streaming diagnostics sink.
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn DiagSink>) -> Self {
        self.job.sink = Some(sink);
        self
    }

    /// Attaches a deterministic device-fault schedule, applied to the
    /// job's kernel at sweep boundaries. An empty plan is bit-identical
    /// to no plan.
    #[must_use]
    pub fn fault_plan(mut self, plan: crate::FaultPlan) -> Self {
        self.job.fault_plan = Some(plan);
        self
    }

    /// Enables between-sweep unit health monitoring (validated at
    /// [`build`]): calibration probes, quarantine past the drift
    /// threshold, rotation rebalancing, and failover to the exact
    /// backend under the live-unit floor.
    ///
    /// [`build`]: JobSpecBuilder::build
    #[must_use]
    pub fn health(mut self, policy: crate::HealthPolicy) -> Self {
        self.job.health = Some(policy);
        self
    }

    /// Enables durable checkpointing: captured sweep-boundary states go
    /// to `writer` on `policy`'s cadence. See
    /// [`CheckpointPolicy`](crate::CheckpointPolicy) for when captures
    /// happen and [`Engine::resume`](crate::Engine::resume) for seating
    /// a captured state back into a fresh engine.
    #[must_use]
    pub fn checkpoint(
        mut self,
        policy: crate::CheckpointPolicy,
        writer: Arc<dyn crate::CheckpointWriter>,
    ) -> Self {
        self.job.checkpoint = Some(crate::CheckpointSpec { policy, writer });
        self
    }

    /// Validates the collected settings and seals them into a
    /// [`JobSpec`].
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] for a zero iteration budget, a zero
    /// chunk count, an empty explicit group override, an out-of-range
    /// health policy field, or a fault plan that sticks a unit on a
    /// label outside the field's label space;
    /// [`EngineError::LabelSpace`] when the field's label space is empty
    /// or exceeds [`MAX_LABELS`]; [`EngineError::Labeling`] when an
    /// explicit initial labeling does not fit the field.
    pub fn build(self) -> Result<JobSpec<S, L>, EngineError> {
        let job = self.job;
        if job.iterations == 0 {
            return Err(EngineError::InvalidSpec {
                field: "iterations",
                reason: "iteration budget must be at least 1".to_string(),
            });
        }
        if job.threads == 0 {
            return Err(EngineError::InvalidSpec {
                field: "threads",
                reason: "deterministic chunk count must be at least 1".to_string(),
            });
        }
        let m = job.mrf.space().count();
        if m == 0 || m > usize::from(MAX_LABELS) {
            return Err(EngineError::LabelSpace {
                count: m,
                max: usize::from(MAX_LABELS),
            });
        }
        if let Some(groups) = &job.groups {
            if groups.is_empty() {
                return Err(EngineError::InvalidSpec {
                    field: "groups",
                    reason: "explicit phase override must contain at least one group".to_string(),
                });
            }
        }
        if let Some(labels) = &job.initial {
            job.mrf
                .validate_labeling(labels)
                .map_err(EngineError::Labeling)?;
        }
        if let Some(policy) = &job.health {
            policy.validate()?;
        }
        if let Some(plan) = &job.fault_plan {
            plan.validate(m)?;
        }
        Ok(JobSpec { job })
    }
}

impl<S: SingletonPotential, L: LabelSampler> std::fmt::Debug for JobSpecBuilder<S, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpecBuilder")
            .field("job", &self.job)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_gibbs::SoftmaxGibbs;
    use mogs_mrf::{Grid2D, LabelSpace, SmoothnessPrior};

    fn field_with(space: LabelSpace) -> MarkovRandomField<impl SingletonPotential> {
        MarkovRandomField::builder(Grid2D::new(4, 4), space)
            .prior(SmoothnessPrior::potts(0.5))
            .singleton(|_s: usize, _l: Label| 0.0)
            .build()
    }

    #[test]
    fn builder_validates_and_carries_settings() {
        let spec = JobSpec::builder(field_with(LabelSpace::scalar(3)), SoftmaxGibbs::new())
            .iterations(7)
            .threads(3)
            .seed(42)
            .burn_in(2)
            .track_modes(true)
            .record_energy(false)
            .build()
            .expect("well-formed spec");
        assert_eq!(spec.job().iterations, 7);
        assert_eq!(spec.job().threads, 3);
        assert_eq!(spec.job().seed, 42);
        assert_eq!(spec.job().burn_in, 2);
        assert!(spec.job().track_modes);
        assert!(!spec.job().record_energy);
    }

    #[test]
    fn zero_iterations_fail_at_build() {
        let err = JobSpec::builder(field_with(LabelSpace::scalar(3)), SoftmaxGibbs::new())
            .iterations(0)
            .build()
            .expect_err("zero iterations must not validate");
        assert_eq!(err.variant(), "invalid-spec");
        let EngineError::InvalidSpec { field, .. } = err else {
            panic!("wrong variant: {err}");
        };
        assert_eq!(field, "iterations");
    }

    #[test]
    fn zero_threads_fail_at_build() {
        let err = JobSpec::builder(field_with(LabelSpace::scalar(3)), SoftmaxGibbs::new())
            .threads(0)
            .build()
            .expect_err("zero chunks must not validate");
        let EngineError::InvalidSpec { field, .. } = err else {
            panic!("wrong variant: {err}");
        };
        assert_eq!(field, "threads");
    }

    #[test]
    fn empty_label_space_fails_at_build() {
        // No public constructor yields an empty space, but serde (the one
        // remaining door: checkpoints and config files) can — the builder
        // must still catch it.
        let degenerate: LabelSpace = serde::json::from_str(r#"{"count":0,"kind":"Scalar"}"#)
            .expect("the JSON stand-in accepts a zero count");
        assert_eq!(degenerate.count(), 0);
        let err = JobSpec::builder(field_with(degenerate), SoftmaxGibbs::new())
            .build()
            .expect_err("empty label space must not validate");
        assert_eq!(err.variant(), "label-space");
        let EngineError::LabelSpace { count, max } = err else {
            panic!("wrong variant: {err}");
        };
        assert_eq!(count, 0);
        assert_eq!(max, 64);
    }

    #[test]
    fn bad_initial_labeling_fails_at_build() {
        let err = JobSpec::builder(field_with(LabelSpace::scalar(3)), SoftmaxGibbs::new())
            .initial(vec![Label::new(0); 3]) // 16-site grid
            .build()
            .expect_err("short labeling must not validate");
        assert_eq!(err.variant(), "labeling");
    }

    #[test]
    fn inference_job_converts_unvalidated() {
        let mut job = InferenceJob::new(field_with(LabelSpace::scalar(2)), SoftmaxGibbs::new());
        job.iterations = 0; // the legacy path defers checks past conversion
        let spec: JobSpec<_, _> = job.into();
        assert_eq!(spec.job().iterations, 0);
    }
}
