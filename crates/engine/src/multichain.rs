//! Multi-chain convergence runs on the persistent engine.
//!
//! MCMC "converges to an exact result" only asymptotically (§1); the
//! standard practical check runs several independent chains from the same
//! initialization family and compares their between- and within-chain
//! variances (Gelman–Rubin R̂, in `mogs_gibbs::diagnostics`).
//! [`run_chains_on_engine`] submits the replicas as ordinary engine jobs:
//! they share the persistent worker pool with whatever else the engine is
//! serving, flow through the same bounded queue, and show up in the
//! engine's metrics.

use mogs_gibbs::diagnostics::potential_scale_reduction;
use mogs_gibbs::kernel::SweepKernel;
use mogs_gibbs::{ChainConfig, ChainResult};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::MarkovRandomField;

use crate::engine::Engine;
use crate::error::EngineError;
use crate::job::{InferenceJob, JobOutput};

/// Result of a multi-chain run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChainResult {
    /// Per-chain results, in seed order.
    pub chains: Vec<ChainResult>,
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

/// Runs `replicas` independent chains through `engine` and computes
/// Gelman–Rubin R̂ over their post-burn-in energy traces.
///
/// Chain `k` uses `config.seed + k`; all other configuration is shared,
/// and the `burn_in` prefix of each energy trace is discarded before
/// computing R̂. Replicas are submitted through the engine's bounded
/// queue, so a saturated engine applies backpressure here like
/// everywhere else.
///
/// # Errors
///
/// [`EngineError::InvalidSpec`] when `replicas < 2` or
/// `iterations <= config.burn_in`; any submission or per-replica
/// failure ([`EngineError::ShutDown`], a worker panic, a watchdog
/// timeout, an RSU-pool collapse) propagates as its own variant.
pub fn run_chains_on_engine<S, L>(
    engine: &Engine,
    mrf: &MarkovRandomField<S>,
    sampler: &L,
    config: ChainConfig,
    replicas: usize,
    iterations: usize,
) -> Result<MultiChainResult, EngineError>
where
    S: SingletonPotential + Clone + 'static,
    L: SweepKernel + Clone + Send + Sync + 'static,
{
    if replicas < 2 {
        return Err(EngineError::InvalidSpec {
            field: "replicas",
            reason: format!("convergence assessment needs at least two chains, got {replicas}"),
        });
    }
    if iterations <= config.burn_in {
        return Err(EngineError::InvalidSpec {
            field: "iterations",
            reason: format!(
                "iterations ({iterations}) must exceed burn-in ({}) to leave samples for R-hat",
                config.burn_in
            ),
        });
    }
    let handles: Vec<_> = (0..replicas)
        .map(|k| {
            let chain_config = ChainConfig {
                seed: config.seed.wrapping_add(k as u64),
                ..config
            };
            let job = InferenceJob::from_chain_config(
                mrf.clone(),
                sampler.clone(),
                chain_config,
                iterations,
            );
            engine.submit(job)
        })
        .collect::<Result<_, _>>()?;
    let chains: Vec<ChainResult> = handles
        .into_iter()
        .map(|h| h.wait_result().map(JobOutput::into_chain_result))
        .collect::<Result<_, _>>()?;
    let traces: Vec<Vec<f64>> = chains
        .iter()
        .map(|r| r.energy_trace[config.burn_in..].to_vec())
        .collect();
    let r_hat = potential_scale_reduction(&traces);
    Ok(MultiChainResult { chains, r_hat })
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
    use mogs_mrf::{Grid2D, Label, LabelSpace, SmoothnessPrior};

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

    fn config(burn_in: usize, seed: u64) -> ChainConfig {
        ChainConfig {
            schedule: TemperatureSchedule::constant(1.0),
            burn_in,
            track_modes: false,
            threads: 2,
            seed,
        }
    }

    #[test]
    fn engine_multichain_matches_reference_run_chains() {
        let mrf = easy_mrf();
        let config = config(5, 21);
        let engine = Engine::with_default_config();
        let ours = run_chains_on_engine(&engine, &mrf, &SoftmaxGibbs::new(), config, 3, 20)
            .expect("well-formed multi-chain run");
        let reference: Vec<ChainResult> = (0..3)
            .map(|k| {
                let seed = config.seed + k;
                reference_chain(
                    &mrf,
                    &SoftmaxGibbs::new(),
                    ChainConfig { seed, ..config },
                    20,
                )
            })
            .collect();
        assert_eq!(ours.chains, reference, "replica k is the chain at seed + k");
        let traces: Vec<Vec<f64>> = reference
            .iter()
            .map(|r| r.energy_trace[config.burn_in..].to_vec())
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
        let result = run_chains_on_engine(
            &engine,
            &easy_mrf(),
            &SoftmaxGibbs::new(),
            config(10, 1),
            4,
            60,
        )
        .expect("well-formed multi-chain run");
        assert_eq!(result.chains.len(), 4);
        assert!(result.converged(1.1), "R-hat {}", result.r_hat);
    }

    #[test]
    fn chains_differ_by_seed() {
        let engine = Engine::with_default_config();
        let result = run_chains_on_engine(
            &engine,
            &easy_mrf(),
            &SoftmaxGibbs::new(),
            config(0, 7),
            2,
            5,
        )
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
        let config = ChainConfig {
            schedule: TemperatureSchedule::constant(5.0),
            ..config(2, 3)
        };
        let engine = Engine::with_default_config();
        let run = |iterations| {
            run_chains_on_engine(&engine, &mrf, &SoftmaxGibbs::new(), config, 3, iterations)
                .expect("well-formed multi-chain run")
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
        let mrf = easy_mrf();
        let config = config(5, 7);
        let engine = Engine::with_default_config();
        let err = run_chains_on_engine(&engine, &mrf, &SoftmaxGibbs::new(), config, 1, 20)
            .expect_err("one chain cannot support R-hat");
        let EngineError::InvalidSpec { field, .. } = err else {
            panic!("wrong variant: {err}");
        };
        assert_eq!(field, "replicas");
        let err = run_chains_on_engine(&engine, &mrf, &SoftmaxGibbs::new(), config, 3, 5)
            .expect_err("burn-in must leave samples");
        let EngineError::InvalidSpec { field, .. } = err else {
            panic!("wrong variant: {err}");
        };
        assert_eq!(field, "iterations");
    }

    #[test]
    #[should_panic(expected = "at least two chains")]
    fn single_replica_rejected() {
        let engine = Engine::with_default_config();
        run_chains_on_engine(
            &engine,
            &easy_mrf(),
            &SoftmaxGibbs::new(),
            ChainConfig::default(),
            1,
            10,
        )
        .unwrap_or_else(|err| panic!("{err}"));
    }
}
