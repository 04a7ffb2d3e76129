//! Diagnosed multi-chain runs on the persistent engine.
//!
//! [`run_chains_diagnosed`] is `mogs_engine::run_chains_on_engine` with
//! the diagnostics sink attached: every replica streams its energies and
//! stride-sampled labelings into one [`MultiChainDiag`], and — unless the
//! config says observe-only — the run ends the moment the chains agree
//! instead of burning the whole iteration budget.
//!
//! For the early stop to be *cross*-chain the engine must actually run
//! the replicas concurrently: configure
//! [`EngineConfig::max_active_jobs`](mogs_engine::EngineConfig) at or
//! above `replicas`. With fewer slots the run still completes and still
//! reports diagnostics, but trailing chains only see frozen windows from
//! finished ones.

use std::sync::Arc;

use mogs_engine::prelude::*;
use mogs_mrf::energy::SingletonPotential;

use crate::marginals::LabelIndexer;
use crate::policy::DiagConfig;
use crate::report::DiagReport;
use crate::sink::MultiChainDiag;

/// Outcome of a diagnosed run: the raw outputs, the final report, and
/// the live coordinator (for uncertainty maps or further inspection).
#[derive(Debug)]
pub struct DiagnosedRun {
    /// Per-replica job outputs, in replica order.
    pub outputs: Vec<JobOutput>,
    /// Final diagnostics snapshot.
    pub report: DiagReport,
    /// The coordinator itself.
    pub diag: Arc<MultiChainDiag>,
}

impl DiagnosedRun {
    /// Sweeps actually run, summed over replicas.
    pub fn total_sweeps(&self) -> usize {
        self.outputs.iter().map(|o| o.iterations_run).sum()
    }

    /// Whether any replica was stopped early by the policy.
    pub fn early_stopped(&self) -> bool {
        self.outputs.iter().any(|o| o.early_stopped)
    }
}

/// Runs `replicas` chains of the template `job` through `engine` with
/// streaming diagnostics: the replica loop of
/// [`mogs_engine::run_chains_on_engine`] with
/// [`MultiChainDiag::sink`]`(k)` attached to replica `k`. Replica `k`
/// runs at `job.seed + k`, so a diagnosed run is sample-for-sample the
/// same Markov chain as an undiagnosed one up to the sweep where the
/// policy stops it.
///
/// # Errors
///
/// Everything [`run_replicas`] reports: fewer than two replicas, fewer
/// than two post-burn-in sweeps, a template without an energy trace or
/// already carrying a sink, and any submission or per-replica failure.
///
/// # Panics
///
/// Panics if `diag_config` fails [`DiagConfig::validate`].
pub fn run_chains_diagnosed<S, L>(
    engine: &Engine,
    job: InferenceJob<S, L>,
    replicas: usize,
    diag_config: DiagConfig,
) -> Result<DiagnosedRun, EngineError>
where
    S: SingletonPotential + Clone + 'static,
    L: SweepKernel + Clone + Send + Sync + 'static,
{
    // The coordinator is built once the loop has checked the replica
    // count, so a refused count is a typed error, not its panic.
    let indexer = LabelIndexer::from_space(job.mrf.space());
    let mut diag = None;
    let outputs = run_replicas(engine, job, replicas, |k| {
        let diag =
            diag.get_or_insert_with(|| MultiChainDiag::new(replicas, indexer.clone(), diag_config));
        Some(diag.sink(k) as Arc<dyn DiagSink>)
    })?;
    let diag = diag.unwrap_or_else(|| MultiChainDiag::new(replicas, indexer, diag_config));
    let mut report = diag.report();
    report.degraded_chains = outputs.iter().filter(|o| o.degraded.is_some()).count() as u64;
    Ok(DiagnosedRun {
        outputs,
        report,
        diag,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::EarlyStopPolicy;
    use mogs_engine::EngineConfig;
    use mogs_gibbs::{SoftmaxGibbs, TemperatureSchedule};
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

    fn easy_mrf() -> MarkovRandomField<Striped> {
        MarkovRandomField::builder(Grid2D::new(12, 10), LabelSpace::scalar(2))
            .prior(SmoothnessPrior::potts(0.3))
            .singleton(Striped)
            .build()
    }

    /// T = 0.8, burn-in 4, two chunks, seed 33, no mode tracking.
    fn template(iterations: usize) -> InferenceJob<Striped, SoftmaxGibbs> {
        InferenceJob::new(easy_mrf(), SoftmaxGibbs::new())
            .schedule(TemperatureSchedule::constant(0.8))
            .iterations(iterations)
            .burn_in(4)
            .seed(33)
    }

    fn diag_config() -> DiagConfig {
        DiagConfig::default()
            .with_window(64)
            .with_policy(EarlyStopPolicy {
                min_sweeps: 16,
                check_stride: 4,
                r_hat_threshold: 1.2,
                plateau_window: 8,
                plateau_rel_tol: 0.05,
            })
    }

    #[test]
    fn easy_field_early_stops_near_the_fixed_budget_energy() {
        let engine = Engine::new(EngineConfig {
            max_active_jobs: 4,
            ..EngineConfig::default()
        });
        let budget = 400;
        let fixed =
            run_chains_diagnosed(&engine, template(budget), 3, diag_config().observe_only())
                .expect("well-formed run");
        assert!(!fixed.early_stopped());
        assert_eq!(fixed.total_sweeps(), 3 * budget);

        let stopped = run_chains_diagnosed(&engine, template(budget), 3, diag_config())
            .expect("well-formed run");
        assert!(stopped.early_stopped(), "easy field must converge early");
        assert!(
            stopped.total_sweeps() < fixed.total_sweeps(),
            "early stop must save sweeps: {} vs {}",
            stopped.total_sweeps(),
            fixed.total_sweeps()
        );
        assert!(stopped.report.converged);
        // At constant temperature single final samples jitter, so
        // compare equilibrium estimates: the stopped run's post-burn-in
        // mean energy stays within 5% of the fixed-budget run's.
        let mean_of = |run: &DiagnosedRun| {
            let chains = &run.report.chains;
            chains.iter().map(|c| c.energy_mean).sum::<f64>() / chains.len() as f64
        };
        let gap = (mean_of(&stopped) - mean_of(&fixed)).abs() / mean_of(&fixed).abs().max(1.0);
        assert!(gap < 0.05, "mean energy gap {gap}");
        assert_eq!(engine.metrics().jobs_early_stopped, 3);
        engine.shutdown();
    }

    #[test]
    fn observe_only_matches_undiagnosed_run_exactly() {
        let engine = Engine::with_default_config();
        let bare = mogs_engine::run_chains_on_engine(&engine, template(30), 2)
            .expect("well-formed reference run");
        let diagnosed =
            run_chains_diagnosed(&engine, template(30), 2, diag_config().observe_only())
                .expect("well-formed run");
        for (ours, reference) in diagnosed.outputs.iter().zip(&bare.chains) {
            assert_eq!(
                ours.labels, reference.labels,
                "observation must not perturb the chain"
            );
        }
        assert_eq!(diagnosed.report.chains.len(), 2);
        assert!(diagnosed.report.marginal_samples > 0);
        // The shared replica loop refuses, typed, what it cannot diagnose.
        for replicas in [0, 1] {
            let err = run_chains_diagnosed(&engine, template(30), replicas, diag_config());
            assert_eq!(err.expect_err("refused").variant(), "invalid-spec");
        }
        engine.shutdown();
    }
}
