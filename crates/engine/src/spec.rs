//! Chaining setters and the one structural validation of an
//! [`InferenceJob`].
//!
//! The fields of an [`InferenceJob`] are public; the by-value setters
//! here chain from [`InferenceJob::new`]. [`InferenceJob::validate`]
//! holds every check that needs no site graph, and both
//! [`InferenceJob::build`] and admission run it, so every door
//! ([`Engine::submit`](crate::Engine::submit),
//! [`Engine::try_submit`](crate::Engine::try_submit),
//! [`Engine::resume`](crate::Engine::resume) and
//! [`ShardRunner::try_new`](crate::ShardRunner::try_new)) refuses a
//! malformed job with the same typed error.

use std::sync::Arc;

use mogs_gibbs::{LabelSampler, TemperatureSchedule};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::label::MAX_LABELS;
use mogs_mrf::{Label, MarkovRandomField};

use crate::error::EngineError;
use crate::job::InferenceJob;
use crate::sink::DiagSink;

/// The job description under the name the benchmark harness spells it
/// (`JobSpec::builder(..)…build()`).
pub type JobSpec<S, L> = InferenceJob<S, L>;

impl<S: SingletonPotential, L: LabelSampler> InferenceJob<S, L> {
    /// The same job as [`InferenceJob::new`], for the
    /// `JobSpec::builder(..)…build()` spelling.
    pub fn builder(mrf: MarkovRandomField<S>, kernel: L) -> Self {
        InferenceJob::new(mrf, kernel)
    }

    /// Sets the iteration budget.
    #[must_use]
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the deterministic chunk count (the reference path's
    /// `threads`).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the base RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the sampler backend.
    #[must_use]
    pub fn kernel(mut self, kernel: L) -> Self {
        self.sampler = kernel;
        self
    }

    /// Sets the annealing schedule.
    #[must_use]
    pub fn schedule(mut self, schedule: TemperatureSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the burn-in prefix discarded before mode tracking.
    #[must_use]
    pub fn burn_in(mut self, burn_in: usize) -> Self {
        self.burn_in = burn_in;
        self
    }

    /// Enables or disables marginal-mode tracking.
    #[must_use]
    pub fn track_modes(mut self, on: bool) -> Self {
        self.track_modes = on;
        self
    }

    /// Enables or disables the per-iteration energy trace.
    #[must_use]
    pub fn record_energy(mut self, on: bool) -> Self {
        self.record_energy = on;
        self
    }

    /// Sets an explicit starting labeling.
    #[must_use]
    pub fn initial(mut self, labels: Vec<Label>) -> Self {
        self.initial = Some(labels);
        self
    }

    /// Overrides the sweep phase groups. The override still passes the
    /// `mogs-audit` interference check at admission.
    #[must_use]
    pub fn groups(mut self, groups: Vec<Vec<usize>>) -> Self {
        self.groups = Some(groups);
        self
    }

    /// Attaches a streaming diagnostics sink.
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn DiagSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a deterministic device-fault schedule, applied to the
    /// job's kernel at sweep boundaries. An empty plan is bit-identical
    /// to no plan.
    #[must_use]
    pub fn fault_plan(mut self, plan: crate::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables between-sweep unit health monitoring: calibration probes,
    /// quarantine past the drift threshold, rotation rebalancing, and
    /// failover to the exact backend under the live-unit floor.
    #[must_use]
    pub fn health(mut self, policy: crate::HealthPolicy) -> Self {
        self.health = Some(policy);
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
        self.checkpoint = Some(crate::CheckpointSpec { policy, writer });
        self
    }

    /// Checks everything about the job that needs no site graph. The
    /// sweep-schedule interference audit runs at admission, after this.
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
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.iterations == 0 {
            return Err(EngineError::InvalidSpec {
                field: "iterations",
                reason: "iteration budget must be at least 1".to_string(),
            });
        }
        if self.threads == 0 {
            return Err(EngineError::InvalidSpec {
                field: "threads",
                reason: "deterministic chunk count must be at least 1".to_string(),
            });
        }
        let m = self.mrf.space().count();
        if m == 0 || m > usize::from(MAX_LABELS) {
            return Err(EngineError::LabelSpace {
                count: m,
                max: usize::from(MAX_LABELS),
            });
        }
        if self.groups.as_ref().is_some_and(Vec::is_empty) {
            return Err(EngineError::InvalidSpec {
                field: "groups",
                reason: "explicit phase override must contain at least one group".to_string(),
            });
        }
        if let Some(labels) = &self.initial {
            self.mrf
                .validate_labeling(labels)
                .map_err(EngineError::Labeling)?;
        }
        if let Some(policy) = &self.health {
            policy.validate()?;
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(m)?;
        }
        Ok(())
    }

    /// [`validate`](Self::validate)s the job and hands it back.
    ///
    /// # Errors
    ///
    /// Everything [`InferenceJob::validate`] reports.
    pub fn build(self) -> Result<Self, EngineError> {
        self.validate()?;
        Ok(self)
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
        let spec = InferenceJob::new(field_with(LabelSpace::scalar(3)), SoftmaxGibbs::new())
            .iterations(7)
            .threads(3)
            .seed(42)
            .burn_in(2)
            .track_modes(true)
            .record_energy(false)
            .build()
            .expect("well-formed spec");
        assert_eq!(spec.iterations, 7);
        assert_eq!(spec.threads, 3);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.burn_in, 2);
        assert!(spec.track_modes);
        assert!(!spec.record_energy);
    }

    #[test]
    fn zero_iterations_fail_at_build() {
        let err = InferenceJob::new(field_with(LabelSpace::scalar(3)), SoftmaxGibbs::new())
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
        let err = InferenceJob::new(field_with(LabelSpace::scalar(3)), SoftmaxGibbs::new())
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
        let err = InferenceJob::new(field_with(degenerate), SoftmaxGibbs::new())
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
        let err = InferenceJob::new(field_with(LabelSpace::scalar(3)), SoftmaxGibbs::new())
            .initial(vec![Label::new(0); 3]) // 16-site grid
            .build()
            .expect_err("short labeling must not validate");
        assert_eq!(err.variant(), "labeling");
    }
}
