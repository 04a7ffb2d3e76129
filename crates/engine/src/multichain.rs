//! Multi-chain convergence runs on the persistent engine.
//!
//! MCMC "converges to an exact result" only asymptotically (§1); the
//! standard practical check runs several independent chains from the same
//! initialization family and compares their between- and within-chain
//! variances (Gelman–Rubin R̂, in `mogs_gibbs::diagnostics`).
//! [`run_replicas`] is the one replica loop: replica `k` is a template
//! job at `seed + k`, submitted as an ordinary engine job, so replicas
//! share the persistent worker pool with whatever else the engine is
//! serving, flow through the same bounded queue, and show up in the
//! engine's metrics. [`run_chains_on_engine`] adds R̂ over the loop's
//! outputs; `mogs_diag::run_chains_diagnosed` attaches a diagnostics sink
//! to each replica.

use std::sync::Arc;

use mogs_gibbs::diagnostics::potential_scale_reduction;
use mogs_gibbs::kernel::SweepKernel;
use mogs_mrf::energy::SingletonPotential;

use crate::engine::Engine;
use crate::error::EngineError;
use crate::job::{InferenceJob, JobHandle, JobOutput};
use crate::sink::DiagSink;

/// Result of a multi-chain run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChainResult {
    /// Per-chain outputs, in seed order.
    pub chains: Vec<JobOutput>,
    /// Gelman–Rubin R̂ over the post-burn-in energy traces.
    pub r_hat: f64,
}

impl MultiChainResult {
    /// Conventional convergence verdict: `R̂ < threshold` (1.1 is the
    /// usual choice).
    pub fn converged(&self, threshold: f64) -> bool {
        self.r_hat < threshold
    }
}

/// Runs `replicas` independent chains of the template `job` through
/// `engine` and computes Gelman–Rubin R̂ over their post-burn-in energy
/// traces (the `burn_in` prefix of each trace is discarded).
///
/// # Errors
///
/// Everything [`run_replicas`] reports.
pub fn run_chains_on_engine<S, L>(
    engine: &Engine,
    job: InferenceJob<S, L>,
    replicas: usize,
) -> Result<MultiChainResult, EngineError>
where
    S: SingletonPotential + Clone + 'static,
    L: SweepKernel + Clone + Send + Sync + 'static,
{
    let burn_in = job.burn_in;
    let chains = run_replicas(engine, job, replicas, |_| None)?;
    let traces: Vec<Vec<f64>> = chains
        .iter()
        .map(|out| out.energy_trace[burn_in..].to_vec())
        .collect();
    let r_hat = potential_scale_reduction(&traces);
    Ok(MultiChainResult { chains, r_hat })
}

/// The replica loop: submits `replicas` copies of the template `job`,
/// replica `k` at `job.seed.wrapping_add(k)` carrying `sink(k)`, and
/// waits for their outputs in replica order. Replicas are submitted
/// through the engine's bounded queue, so a saturated engine applies
/// backpressure here like everywhere else.
///
/// # Errors
///
/// [`EngineError::InvalidSpec`] when `replicas < 2` (field
/// `"replicas"`), when the budget leaves fewer than two post-burn-in
/// sweeps (`"iterations"`), when the template records no energy trace
/// (`"record_energy"`: R̂ reads the traces) or already carries a sink
/// (`"sink"`: the loop attaches one per replica); any submission or
/// per-replica failure ([`EngineError::ShutDown`], an admission refusal,
/// a worker panic, a watchdog timeout, an RSU-pool collapse) propagates
/// as its own variant.
pub fn run_replicas<S, L>(
    engine: &Engine,
    job: InferenceJob<S, L>,
    replicas: usize,
    mut sink: impl FnMut(usize) -> Option<Arc<dyn DiagSink>>,
) -> Result<Vec<JobOutput>, EngineError>
where
    S: SingletonPotential + Clone + 'static,
    L: SweepKernel + Clone + Send + Sync + 'static,
{
    let refuse = |field, reason| Err(EngineError::InvalidSpec { field, reason });
    if replicas < 2 {
        return refuse(
            "replicas",
            format!("convergence assessment needs at least two chains, got {replicas}"),
        );
    }
    if job.iterations.saturating_sub(job.burn_in) < 2 {
        return refuse(
            "iterations",
            format!(
                "iterations ({}) must exceed burn-in ({}) by at least two sweeps for R-hat",
                job.iterations, job.burn_in
            ),
        );
    }
    if !job.record_energy {
        return refuse(
            "record_energy",
            "R-hat reads every replica's energy trace".to_string(),
        );
    }
    if job.sink.is_some() {
        return refuse(
            "sink",
            "the replica loop attaches each replica's sink itself".to_string(),
        );
    }
    let handles: Vec<JobHandle> = (0..replicas)
        .map(|k| {
            let mut replica = job.clone();
            replica.seed = job.seed.wrapping_add(k as u64);
            replica.sink = sink(k);
            engine.submit(replica)
        })
        .collect::<Result<_, _>>()?;
    handles.into_iter().map(JobHandle::wait_result).collect()
}

#[cfg(test)]
#[path = "../tests/support/reference_chain.rs"]
mod reference_chain;

#[cfg(test)]
mod tests {
    use super::reference_chain::reference_chain;
    use super::*;
    use mogs_gibbs::{SoftmaxGibbs, TemperatureSchedule};
    use mogs_mrf::energy::ZeroSingleton;
    use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};

    #[derive(Debug, Clone)]
    struct Striped;
    impl SingletonPotential for Striped {
        fn energy(&self, site: usize, label: Label) -> f64 {
            let want = u8::from(site.is_multiple_of(2));
            if label.value() == want {
                0.0
            } else {
                4.0
            }
        }
    }

    /// Strong data term: chains mix essentially immediately.
    fn easy_mrf() -> MarkovRandomField<Striped> {
        MarkovRandomField::builder(Grid2D::new(8, 8), LabelSpace::scalar(2))
            .prior(SmoothnessPrior::potts(0.3))
            .singleton(Striped)
            .build()
    }

    /// A constant-temperature (T = 1), two-chunk template without mode
    /// tracking.
    fn template<S: SingletonPotential>(
        mrf: MarkovRandomField<S>,
        iterations: usize,
        burn_in: usize,
        seed: u64,
    ) -> InferenceJob<S, SoftmaxGibbs> {
        InferenceJob::new(mrf, SoftmaxGibbs::new())
            .schedule(TemperatureSchedule::constant(1.0))
            .iterations(iterations)
            .burn_in(burn_in)
            .seed(seed)
    }

    #[test]
    fn engine_multichain_matches_reference_run_chains() {
        let job = template(easy_mrf(), 20, 5, 21);
        let engine = Engine::with_default_config();
        let ours = run_chains_on_engine(&engine, job.clone(), 3).expect("well-formed run");
        let reference: Vec<JobOutput> = (0..3)
            .map(|k| reference_chain(&job.clone().seed(job.seed + k)))
            .collect();
        assert_eq!(ours.chains, reference, "replica k is the chain at seed + k");
        let traces: Vec<Vec<f64>> = reference
            .iter()
            .map(|r| r.energy_trace[job.burn_in..].to_vec())
            .collect();
        assert_eq!(
            ours.r_hat.to_bits(),
            potential_scale_reduction(&traces).to_bits()
        );
        assert_eq!(engine.metrics().jobs_completed, 3);
    }

    #[test]
    fn well_mixed_chains_pass_r_hat() {
        let engine = Engine::with_default_config();
        let result = run_chains_on_engine(&engine, template(easy_mrf(), 60, 10, 1), 4)
            .expect("well-formed multi-chain run");
        assert_eq!(result.chains.len(), 4);
        assert!(result.converged(1.1), "R-hat {}", result.r_hat);
    }

    #[test]
    fn chains_differ_by_seed() {
        let engine = Engine::with_default_config();
        let result = run_chains_on_engine(&engine, template(easy_mrf(), 5, 0, 7), 2)
            .expect("well-formed multi-chain run");
        assert_ne!(
            result.chains[0].energy_trace, result.chains[1].energy_trace,
            "independent chains must explore differently"
        );
    }

    #[test]
    fn frozen_cold_chains_flag_nonconvergence() {
        // A frustrated model (no data term, weak coupling): each chain's
        // energy wanders around a chain-specific level only slowly, so
        // short chains disagree more than their within-chain noise.
        let mrf = MarkovRandomField::builder(Grid2D::new(8, 8), LabelSpace::scalar(8))
            .prior(SmoothnessPrior::squared_difference(0.02))
            .singleton(ZeroSingleton)
            .build();
        let engine = Engine::with_default_config();
        let run = |iterations| {
            let job = template(mrf.clone(), iterations, 2, 3)
                .schedule(TemperatureSchedule::constant(5.0));
            run_chains_on_engine(&engine, job, 3).expect("well-formed multi-chain run")
        };
        let (short, long) = (run(8), run(120));
        assert!(
            long.r_hat < short.r_hat || long.r_hat < 1.1,
            "longer chains must not look worse: short {} long {}",
            short.r_hat,
            long.r_hat
        );
    }

    #[test]
    fn degenerate_runs_are_typed_errors_not_panics() {
        let engine = Engine::with_default_config();
        let refused = |job, replicas| {
            let err = run_chains_on_engine(&engine, job, replicas).expect_err("refused");
            let EngineError::InvalidSpec { field, .. } = err else {
                panic!("wrong variant: {err}");
            };
            field
        };
        assert_eq!(refused(template(easy_mrf(), 20, 5, 7), 1), "replicas");
        assert_eq!(refused(template(easy_mrf(), 5, 5, 7), 3), "iterations");
        // One post-burn-in sweep is one sample per chain: too few for R-hat.
        assert_eq!(refused(template(easy_mrf(), 6, 5, 7), 3), "iterations");
        let silent = template(easy_mrf(), 20, 5, 7).record_energy(false);
        assert_eq!(refused(silent, 3), "record_energy");
        let observed = template(easy_mrf(), 20, 5, 7).sink(Arc::new(crate::NullSink));
        assert_eq!(refused(observed, 3), "sink");
    }

    #[test]
    #[should_panic(expected = "at least two chains")]
    fn single_replica_rejected() {
        let engine = Engine::with_default_config();
        run_chains_on_engine(&engine, template(easy_mrf(), 10, 0, 0), 1)
            .unwrap_or_else(|err| panic!("{err}"));
    }
}
