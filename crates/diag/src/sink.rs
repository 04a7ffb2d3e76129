//! The multi-chain diagnostics coordinator and its per-chain sinks.
//!
//! One [`MultiChainDiag`] watches a whole convergence run: each replica's
//! engine job carries a [`ChainDiagSink`] handle, and the coordinator
//! pools their energy windows and label marginals. Convergence is judged
//! *across* chains (split-R̂ needs independent replicas to mean
//! anything), so the stop decision lives here, not in any one sink: the
//! first chain to observe both cross-chain agreement and an energy
//! plateau flips a shared flag, and every chain's next sweep returns
//! [`SweepDecision::Stop`], which the engine routes through its ordinary
//! cancellation path and reports as [`JobOutput::early_stopped`].
//!
//! Overhead is bounded by construction: per-sweep work is a ring push and
//! a Welford fold under a per-chain lock, label snapshots arrive only on
//! the declared stride, and the O(window · chains) R̂ evaluation runs
//! every `check_stride` sweeps on whichever chain reaches the check point
//! first (`try_lock` keeps concurrent evaluators from piling up). All
//! evaluation buffers are preallocated.
//!
//! Chains finishing at different times is normal — the engine interleaves
//! them however its scheduler likes — so evaluation trims every chain's
//! window to the shortest one before comparing.
//!
//! [`JobOutput::early_stopped`]: mogs_engine::JobOutput::early_stopped

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use mogs_engine::prelude::*;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::MarkovRandomField;
use parking_lot::Mutex;

use crate::marginals::{LabelIndexer, MarginalAccumulator};
use crate::policy::DiagConfig;
use crate::report::{write_pgm, ChainSummary, DiagReport};
use crate::rhat::{plateaued, split_r_hat, window_ess};
use crate::ring::RingBuffer;
use crate::stats::Welford;

/// Per-chain streaming state, touched once per sweep under its own lock.
#[derive(Debug)]
struct ChainState {
    ring: RingBuffer,
    stats: Welford,
    marginals: Option<MarginalAccumulator>,
    sweeps: usize,
    burn_in: usize,
    width: usize,
    height: usize,
    labels: usize,
}

/// Preallocated evaluation workspace plus the latest verdict.
#[derive(Debug)]
struct EvalScratch {
    windows: Vec<Vec<f64>>,
    r_hat: f64,
    checks: u64,
}

const NOT_STOPPED: usize = usize::MAX;

/// Coordinator for one diagnosed multi-chain run.
#[derive(Debug)]
pub struct MultiChainDiag {
    config: DiagConfig,
    indexer: LabelIndexer,
    states: Vec<Mutex<ChainState>>,
    eval: Mutex<EvalScratch>,
    converged: AtomicBool,
    stop_sweep: AtomicUsize,
}

impl MultiChainDiag {
    /// Builds a coordinator for `replicas` chains over a space described
    /// by `indexer`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or the config fails
    /// [`DiagConfig::validate`].
    pub fn new(replicas: usize, indexer: LabelIndexer, config: DiagConfig) -> Arc<Self> {
        assert!(replicas > 0, "need at least one chain");
        config.validate();
        let states = (0..replicas)
            .map(|_| {
                Mutex::new(ChainState {
                    ring: RingBuffer::with_capacity(config.window),
                    stats: Welford::new(),
                    marginals: None,
                    sweeps: 0,
                    burn_in: 0,
                    width: 0,
                    height: 0,
                    labels: 0,
                })
            })
            .collect();
        let windows = (0..replicas)
            .map(|_| Vec::with_capacity(config.window))
            .collect();
        Arc::new(MultiChainDiag {
            config,
            indexer,
            states,
            eval: Mutex::new(EvalScratch {
                windows,
                r_hat: f64::NAN,
                checks: 0,
            }),
            converged: AtomicBool::new(false),
            stop_sweep: AtomicUsize::new(NOT_STOPPED),
        })
    }

    /// Coordinator whose label indexer matches `mrf`'s label space.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MultiChainDiag::new`].
    pub fn for_field<S: SingletonPotential>(
        mrf: &MarkovRandomField<S>,
        replicas: usize,
        config: DiagConfig,
    ) -> Arc<Self> {
        MultiChainDiag::new(replicas, LabelIndexer::from_space(mrf.space()), config)
    }

    /// The sink handle for chain `k`, to attach via
    /// [`InferenceJob::sink`](mogs_engine::InferenceJob::sink).
    ///
    /// # Panics
    ///
    /// Panics if `chain` is out of range.
    pub fn sink(self: &Arc<Self>, chain: usize) -> Arc<ChainDiagSink> {
        assert!(chain < self.states.len(), "chain {chain} out of range");
        Arc::new(ChainDiagSink {
            shared: Arc::clone(self),
            chain,
        })
    }

    /// Number of chains this coordinator watches.
    pub fn replicas(&self) -> usize {
        self.states.len()
    }

    /// Whether the stop rule has fired (in observe-only mode: whether it
    /// *would* have — evaluation still runs, the verdict just never
    /// reaches the engine).
    pub fn converged(&self) -> bool {
        self.converged.load(Ordering::Acquire)
    }

    /// The sweep count at which convergence was declared, if it was.
    pub fn stop_sweep(&self) -> Option<usize> {
        match self.stop_sweep.load(Ordering::Acquire) {
            NOT_STOPPED => None,
            s => Some(s),
        }
    }

    fn on_start(&self, chain: usize, info: &JobStartInfo) {
        let mut st = self.states[chain].lock();
        st.burn_in = info.burn_in;
        st.width = info.width;
        st.height = info.height;
        st.labels = info.labels;
        if self.config.label_stride > 0 {
            st.marginals = Some(MarginalAccumulator::new(info.sites, self.indexer.labels()));
        }
    }

    fn observe(&self, chain: usize, obs: &SweepObservation<'_>) -> SweepDecision {
        let sweeps = {
            let mut st = self.states[chain].lock();
            st.sweeps = obs.iteration + 1;
            if obs.iteration >= st.burn_in {
                if let Some(e) = obs.energy {
                    st.ring.push(e);
                    st.stats.push(e);
                }
                if let (Some(labeling), Some(marginals)) = (obs.labels, st.marginals.as_mut()) {
                    marginals.record(labeling, &self.indexer);
                }
            }
            st.sweeps
        };
        if self.config.early_stop && self.converged.load(Ordering::Acquire) {
            return SweepDecision::Stop;
        }
        let policy = &self.config.policy;
        if sweeps < policy.min_sweeps || !sweeps.is_multiple_of(policy.check_stride) {
            return SweepDecision::Continue;
        }
        // Observe-only runs still evaluate (so their reports carry R̂
        // and check counts) but the verdict never leaves the scratchpad.
        match self.evaluate(sweeps) {
            SweepDecision::Stop if self.config.early_stop => SweepDecision::Stop,
            _ => SweepDecision::Continue,
        }
    }

    /// Runs the convergence check; at most one evaluator at a time (a
    /// busy evaluator means a check just happened — skipping is correct,
    /// not lossy).
    fn evaluate(&self, sweeps: usize) -> SweepDecision {
        let Some(mut scratch) = self.eval.try_lock() else {
            return SweepDecision::Continue;
        };
        let policy = &self.config.policy;
        let mut common = usize::MAX;
        for state in &self.states {
            common = common.min(state.lock().ring.len());
        }
        if common < policy.plateau_window.max(4) {
            return SweepDecision::Continue;
        }
        let EvalScratch {
            windows,
            r_hat,
            checks,
        } = &mut *scratch;
        for (window, state) in windows.iter_mut().zip(&self.states) {
            state.lock().ring.copy_last_into(common, window);
        }
        *checks += 1;
        let flat = windows.iter().all(|w| {
            plateaued(
                &w[w.len() - policy.plateau_window..],
                policy.plateau_rel_tol,
            )
        });
        let Some(r) = split_r_hat(windows) else {
            return SweepDecision::Continue;
        };
        *r_hat = r;
        if flat && r <= policy.r_hat_threshold {
            self.converged.store(true, Ordering::Release);
            let _ = self.stop_sweep.compare_exchange(
                NOT_STOPPED,
                sweeps,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            return SweepDecision::Stop;
        }
        SweepDecision::Continue
    }

    /// Pools every chain's marginal counts, or `None` when label
    /// snapshots were disabled or never arrived.
    pub fn merged_marginals(&self) -> Option<MarginalAccumulator> {
        let mut merged: Option<MarginalAccumulator> = None;
        for state in &self.states {
            let st = state.lock();
            if let Some(m) = st.marginals.as_ref() {
                match merged.as_mut() {
                    Some(acc) => acc.merge(m),
                    None => merged = Some(m.clone()),
                }
            }
        }
        merged
    }

    /// Snapshot of everything the coordinator has learned, serializable
    /// to JSON via [`DiagReport::to_json`].
    pub fn report(&self) -> DiagReport {
        let mut chains = Vec::with_capacity(self.states.len());
        let mut window = Vec::with_capacity(self.config.window);
        let (mut width, mut height, mut labels) = (0, 0, 0);
        for (k, state) in self.states.iter().enumerate() {
            let st = state.lock();
            width = width.max(st.width);
            height = height.max(st.height);
            labels = labels.max(st.labels);
            st.ring.copy_last_into(st.ring.len(), &mut window);
            chains.push(ChainSummary {
                chain: k,
                sweeps: st.sweeps,
                post_burn_in_samples: st.ring.total_pushed(),
                energy_mean: st.stats.mean(),
                energy_variance: st.stats.variance(),
                window_len: window.len(),
                window_ess: window_ess(&window),
            });
        }
        let (r_hat, convergence_checks) = {
            let scratch = self.eval.lock();
            (scratch.r_hat, scratch.checks)
        };
        let mut marginal_samples = 0;
        let mut mean_entropy = 0.0;
        let mut max_entropy = 0.0;
        let mut uncertain_site_fraction = 0.0;
        if let Some(m) = self.merged_marginals() {
            marginal_samples = m.samples();
            if marginal_samples > 0 {
                let h = m.entropy_map();
                mean_entropy = h.iter().sum::<f64>() / h.len() as f64;
                max_entropy = h.iter().fold(0.0, |a: f64, &b| a.max(b));
                uncertain_site_fraction =
                    h.iter().filter(|&&e| e > 0.5).count() as f64 / h.len() as f64;
            }
        }
        DiagReport {
            chains,
            converged: self.converged(),
            stop_sweep: self.stop_sweep().unwrap_or(0),
            r_hat,
            convergence_checks,
            marginal_samples,
            degraded_chains: 0,
            mean_entropy,
            max_entropy,
            uncertain_site_fraction,
            width,
            height,
            labels,
        }
    }

    /// Writes `{stem}_labels.pgm` (max-marginal labeling) and
    /// `{stem}_entropy.pgm` (normalized per-site entropy) under `dir`,
    /// returning the two paths.
    ///
    /// # Errors
    ///
    /// Fails when no marginals were collected (label snapshots disabled
    /// or zero post-burn-in sweeps), when the grid dimensions are
    /// unknown, or on I/O failure.
    pub fn write_uncertainty_maps(
        &self,
        dir: &Path,
        stem: &str,
    ) -> std::io::Result<(PathBuf, PathBuf)> {
        let marginals = self.merged_marginals().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no marginals collected")
        })?;
        let (width, height) = {
            let st = self.states[0].lock();
            (st.width, st.height)
        };
        if width * height != marginals.sites() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "grid dimensions unknown or inconsistent",
            ));
        }
        let labels = marginals.labels().max(2);
        let label_pixels: Vec<u8> = marginals
            .map_label_indices()
            .iter()
            .map(|&i| ((i * 255) / (labels - 1)).min(255) as u8)
            .collect();
        let entropy_pixels: Vec<u8> = marginals
            .entropy_map()
            .iter()
            .map(|&e| (e * 255.0).round().clamp(0.0, 255.0) as u8)
            .collect();
        let labels_path = dir.join(format!("{stem}_labels.pgm"));
        let entropy_path = dir.join(format!("{stem}_entropy.pgm"));
        write_pgm(&labels_path, width, height, &label_pixels)?;
        write_pgm(&entropy_path, width, height, &entropy_pixels)?;
        Ok((labels_path, entropy_path))
    }
}

/// The per-chain [`DiagSink`] handle attached to one engine job.
#[derive(Debug)]
pub struct ChainDiagSink {
    shared: Arc<MultiChainDiag>,
    chain: usize,
}

impl ChainDiagSink {
    /// The coordinator this sink reports to.
    pub fn coordinator(&self) -> &Arc<MultiChainDiag> {
        &self.shared
    }
}

impl DiagSink for ChainDiagSink {
    fn needs(&self) -> SinkNeeds {
        SinkNeeds {
            energy: true,
            labels_stride: self.shared.config.label_stride,
        }
    }

    fn on_start(&self, info: &JobStartInfo) {
        self.shared.on_start(self.chain, info);
    }

    fn on_sweep(&self, observation: &SweepObservation<'_>) -> SweepDecision {
        self.shared.observe(self.chain, observation)
    }

    fn export_state(&self) -> Option<SinkState> {
        let st = self.shared.states[self.chain].lock();
        let (w_count, w_mean, w_m2) = st.stats.state();
        let mut words = vec![
            STATE_VERSION,
            word(st.sweeps),
            word(st.burn_in),
            word(st.width),
            word(st.height),
            word(st.labels),
            word(st.ring.capacity()),
            st.ring.total_pushed(),
            w_count,
            w_mean.to_bits(),
            w_m2.to_bits(),
        ];
        let counts = st.marginals.as_ref().map_or_else(Vec::new, |m| {
            words.extend([word(m.sites()), word(m.labels()), m.samples()]);
            m.counts().to_vec()
        });
        Some(SinkState {
            words,
            samples: st.ring.samples(),
            counts,
        })
    }

    fn restore_state(&self, state: &SinkState) -> Result<(), String> {
        let Some((chain, marginal)) = state.words.split_first_chunk::<11>() else {
            return Err(format!(
                "chain state holds {} words, a chain exports at least 11",
                state.words.len()
            ));
        };
        let [version, sweeps, burn_in, width, height, labels, cap, pushed, count, mean, m2] = chain;
        if *version != STATE_VERSION {
            return Err(format!("unsupported chain-state version {version}"));
        }
        let sweeps = usize::try_from(*sweeps)
            .map_err(|_| format!("chain state's {sweeps} sweeps overflow"))?;
        let mut st = self.shared.states[self.chain].lock();
        // `on_start` has already seated the resumed job's geometry; the
        // state must describe the same chain or the statistics would be
        // silently mismatched.
        let geometry = [*burn_in, *width, *height, *labels];
        let job = [st.burn_in, st.width, st.height, st.labels].map(word);
        if geometry != job {
            return Err(format!(
                "chain geometry mismatch: burn-in, width, height and labels are {geometry:?} in \
                 the state, {job:?} in the job"
            ));
        }
        if *cap != word(st.ring.capacity()) {
            return Err(format!(
                "energy window mismatch: state holds {cap}, config asks {}",
                st.ring.capacity()
            ));
        }
        let marginals = match (st.marginals.as_ref(), marginal) {
            (Some(current), &[sites, labels, samples]) => {
                let shape = [current.sites(), current.labels()];
                if [sites, labels] != shape.map(word) {
                    return Err(format!(
                        "marginal shape mismatch: state is {sites}x{labels}, job is {}x{}",
                        shape[0], shape[1]
                    ));
                }
                let counts = state.counts.clone();
                Some(MarginalAccumulator::restore(
                    shape[0], shape[1], counts, samples,
                )?)
            }
            (None, []) if state.counts.is_empty() => None,
            (collecting, words) => {
                return Err(format!(
                    "chain state holds {} marginal words and {} counts, but the job {} label \
                     marginals",
                    words.len(),
                    state.counts.len(),
                    if collecting.is_some() {
                        "collects"
                    } else {
                        "does not collect"
                    }
                ))
            }
        };
        st.ring = RingBuffer::restore(st.ring.capacity(), &state.samples, *pushed)?;
        st.stats = Welford::restore(*count, f64::from_bits(*mean), f64::from_bits(*m2));
        st.marginals = marginals;
        st.sweeps = sweeps;
        Ok(())
    }
}

/// Layout version of a chain's exported [`SinkState`]: `words` holds the
/// version, then `sweeps, burn_in, width, height, labels, ring capacity,
/// ring pushes, Welford count, mean bits, m2 bits`, then — when the
/// chain collects marginals — `sites, labels, samples`; `samples` is
/// the energy window oldest first; `counts` the marginal tallies.
const STATE_VERSION: u64 = 2;

fn word(value: usize) -> u64 {
    u64::try_from(value).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::EarlyStopPolicy;
    use mogs_mrf::Label;

    fn info(sites: usize, burn_in: usize) -> JobStartInfo {
        JobStartInfo {
            sites,
            width: sites,
            height: 1,
            labels: 2,
            iterations: 1000,
            burn_in,
        }
    }

    fn drive(
        diag: &Arc<MultiChainDiag>,
        chain: usize,
        iteration: usize,
        energy: f64,
        labeling: Option<&[Label]>,
    ) -> SweepDecision {
        diag.sink(chain).on_sweep(&SweepObservation {
            iteration,
            energy: Some(energy),
            labels: labeling,
        })
    }

    fn fast_config() -> DiagConfig {
        DiagConfig::default()
            .with_window(32)
            .with_policy(EarlyStopPolicy {
                min_sweeps: 8,
                check_stride: 2,
                r_hat_threshold: 1.2,
                plateau_window: 4,
                plateau_rel_tol: 1e-2,
            })
    }

    #[test]
    fn two_flat_agreeing_chains_converge_and_stop_everyone() {
        let diag = MultiChainDiag::new(2, LabelIndexer::identity(2), fast_config());
        for chain in 0..2 {
            diag.sink(chain).on_start(&info(4, 0));
        }
        // Interleave: identical plateaued energies with a little jitter.
        let mut stopped_at = None;
        'outer: for it in 0..64 {
            for chain in 0..2 {
                let e = 100.0 + f64::from((it % 3) as u8) * 0.05;
                if drive(&diag, chain, it, e, None) == SweepDecision::Stop {
                    stopped_at = Some(it);
                    break 'outer;
                }
            }
        }
        let stopped_at = stopped_at.expect("must converge");
        assert!(diag.converged());
        assert!(diag.stop_sweep().is_some());
        assert!(stopped_at >= 7, "respects min_sweeps");
        // Every other chain now stops immediately, whatever its state.
        assert_eq!(
            drive(&diag, 0, stopped_at + 1, 100.0, None),
            SweepDecision::Stop
        );
        let report = diag.report();
        assert!(report.converged);
        assert!(report.r_hat <= 1.2, "R-hat {}", report.r_hat);
        assert!(report.convergence_checks > 0);
    }

    #[test]
    fn disagreeing_chains_never_stop() {
        let diag = MultiChainDiag::new(2, LabelIndexer::identity(2), fast_config());
        for chain in 0..2 {
            diag.sink(chain).on_start(&info(4, 0));
        }
        for it in 0..64 {
            // Chain 0 sits at 100, chain 1 at 200: both plateaued, but
            // they disagree — R-hat must hold the gate closed. Jitter
            // keeps the variance finite so R-hat is well-defined.
            let jitter = f64::from((it % 5) as u8) * 0.1;
            assert_eq!(
                drive(&diag, 0, it, 100.0 + jitter, None),
                SweepDecision::Continue
            );
            assert_eq!(
                drive(&diag, 1, it, 200.0 - jitter, None),
                SweepDecision::Continue
            );
        }
        assert!(!diag.converged());
        let report = diag.report();
        assert!(report.r_hat > 1.2, "R-hat {}", report.r_hat);
    }

    #[test]
    fn observe_only_mode_reports_but_never_stops() {
        let diag = MultiChainDiag::new(1, LabelIndexer::identity(2), fast_config().observe_only());
        diag.sink(0).on_start(&info(4, 0));
        for it in 0..64 {
            // A dead-constant trace trivially satisfies the stop rule,
            // yet the verdict must never reach the engine.
            assert_eq!(drive(&diag, 0, it, 50.0, None), SweepDecision::Continue);
        }
        let report = diag.report();
        assert_eq!(report.chains[0].sweeps, 64);
        assert!(report.convergence_checks > 0, "evaluation still runs");
        assert!(report.converged, "records that the rule would have fired");
    }

    #[test]
    fn burn_in_sweeps_are_excluded_from_statistics() {
        let diag = MultiChainDiag::new(1, LabelIndexer::identity(2), fast_config());
        diag.sink(0).on_start(&info(4, 10));
        for it in 0..20 {
            // Wild burn-in energies would wreck the plateau if counted.
            let e = if it < 10 { 1e6 } else { 42.0 };
            drive(&diag, 0, it, e, None);
        }
        let report = diag.report();
        assert_eq!(report.chains[0].post_burn_in_samples, 10);
        assert!((report.chains[0].energy_mean - 42.0).abs() < 1e-9);
    }

    #[test]
    fn marginals_flow_into_maps_and_report() {
        let diag = MultiChainDiag::new(2, LabelIndexer::identity(2), fast_config());
        for chain in 0..2 {
            diag.sink(chain).on_start(&info(4, 0));
        }
        let a = [Label::new(0), Label::new(1), Label::new(0), Label::new(1)];
        let b = [Label::new(0), Label::new(1), Label::new(1), Label::new(0)];
        for it in 0..4 {
            drive(&diag, 0, it, 10.0, Some(&a));
            drive(&diag, 1, it, 10.0, Some(&b));
        }
        let merged = diag.merged_marginals().expect("labels were recorded");
        assert_eq!(merged.samples(), 8);
        // Sites 0/1 agree across chains (certain); sites 2/3 split 50/50.
        assert_eq!(merged.map_label_indices()[..2], [0, 1]);
        let h = merged.entropy_map();
        assert!(h[0] < 1e-12 && h[1] < 1e-12);
        assert!((h[2] - 1.0).abs() < 1e-12 && (h[3] - 1.0).abs() < 1e-12);
        let report = diag.report();
        assert_eq!(report.marginal_samples, 8);
        assert!((report.uncertain_site_fraction - 0.5).abs() < 1e-12);
        let dir = std::env::temp_dir().join("mogs_diag_sink_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (lp, ep) = diag.write_uncertainty_maps(&dir, "t").expect("maps");
        let label_bytes = std::fs::read(&lp).expect("labels pgm");
        assert!(label_bytes.starts_with(b"P5\n4 1\n255\n"));
        // Sites 2 and 3 are 50/50 ties and break to index 0.
        assert_eq!(&label_bytes[label_bytes.len() - 4..], &[0, 255, 0, 0]);
        let entropy_bytes = std::fs::read(&ep).expect("entropy pgm");
        assert_eq!(&entropy_bytes[entropy_bytes.len() - 4..], &[0, 0, 255, 255]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exported_chain_state_restores_bit_exactly() {
        let diag = MultiChainDiag::new(1, LabelIndexer::identity(2), fast_config());
        diag.sink(0).on_start(&info(4, 2));
        let a = [Label::new(0), Label::new(1), Label::new(0), Label::new(1)];
        for it in 0..7 {
            drive(&diag, 0, it, 90.0 + f64::from(it as u8) * 0.125, Some(&a));
        }
        let state = diag.sink(0).export_state().expect("chain sinks export");

        // A fresh coordinator restored from the state reports the same
        // statistics and continues the trace identically.
        let restored = MultiChainDiag::new(1, LabelIndexer::identity(2), fast_config());
        restored.sink(0).on_start(&info(4, 2));
        restored
            .sink(0)
            .restore_state(&state)
            .expect("same geometry");
        assert_eq!(
            restored.sink(0).export_state(),
            Some(state),
            "the restored chain exports what it was given"
        );
        let (a_report, b_report) = (diag.report(), restored.report());
        assert_eq!(a_report.chains[0].sweeps, b_report.chains[0].sweeps);
        assert_eq!(
            a_report.chains[0].post_burn_in_samples,
            b_report.chains[0].post_burn_in_samples
        );
        assert_eq!(
            a_report.chains[0].energy_mean.to_bits(),
            b_report.chains[0].energy_mean.to_bits()
        );
        assert_eq!(
            a_report.chains[0].energy_variance.to_bits(),
            b_report.chains[0].energy_variance.to_bits()
        );
        assert_eq!(a_report.marginal_samples, b_report.marginal_samples);
        for it in 7..12 {
            let e = 90.0 + f64::from(it as u8) * 0.125;
            assert_eq!(
                drive(&diag, 0, it, e, Some(&a)),
                drive(&restored, 0, it, e, Some(&a))
            );
        }
        assert_eq!(
            diag.report().chains[0].energy_mean.to_bits(),
            restored.report().chains[0].energy_mean.to_bits()
        );
    }

    #[test]
    fn restore_rejects_mismatched_geometry_or_garbage() {
        let diag = MultiChainDiag::new(1, LabelIndexer::identity(2), fast_config());
        diag.sink(0).on_start(&info(4, 0));
        for it in 0..3 {
            drive(&diag, 0, it, 50.0, None);
        }
        let state = diag.sink(0).export_state().expect("exports");

        // Different grid geometry is refused.
        let other = MultiChainDiag::new(1, LabelIndexer::identity(2), fast_config());
        other.sink(0).on_start(&info(8, 0));
        assert!(other.sink(0).restore_state(&state).is_err());

        // Garbage and truncated states are refused, never panic.
        let fresh = MultiChainDiag::new(1, LabelIndexer::identity(2), fast_config());
        fresh.sink(0).on_start(&info(4, 0));
        assert!(fresh.sink(0).restore_state(&SinkState::default()).is_err());
        let mut truncated = state.clone();
        truncated.words.truncate(state.words.len() / 2);
        assert!(fresh.sink(0).restore_state(&truncated).is_err());
        let mut bumped = state.clone();
        bumped.words[0] = 9;
        assert!(fresh.sink(0).restore_state(&bumped).is_err());
        let mut short_counts = state.clone();
        short_counts.counts.pop();
        assert!(fresh.sink(0).restore_state(&short_counts).is_err());
        let mut overfull = state.clone();
        overfull.samples = vec![50.0; 33];
        assert!(fresh.sink(0).restore_state(&overfull).is_err());
        // The untampered state still restores.
        assert!(fresh.sink(0).restore_state(&state).is_ok());
        // A chain that collects no marginals refuses a state that has
        // them.
        let blind = MultiChainDiag::new(
            1,
            LabelIndexer::identity(2),
            fast_config().with_label_stride(0),
        );
        blind.sink(0).on_start(&info(4, 0));
        assert!(blind.sink(0).restore_state(&state).is_err());
    }

    #[test]
    fn single_chain_split_r_hat_can_stop() {
        let diag = MultiChainDiag::new(1, LabelIndexer::identity(2), fast_config());
        diag.sink(0).on_start(&info(4, 0));
        let mut stopped = false;
        for it in 0..64 {
            let e = 7.0 + f64::from((it % 2) as u8) * 0.01;
            if drive(&diag, 0, it, e, None) == SweepDecision::Stop {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "a flat single chain stops on its split halves");
    }
}
