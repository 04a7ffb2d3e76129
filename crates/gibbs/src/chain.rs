//! What one MCMC chain is asked to do, and what it returns.
//!
//! A chain runs full-grid sweeps for a number of iterations, applying a
//! temperature schedule, recording the energy trace, and (optionally)
//! counting per-site labels so the **marginal MAP** estimate — the
//! per-pixel mode over post-burn-in samples, the quantity the paper's
//! vision applications report — can be extracted at the end. The engine
//! (`mogs-engine`) runs every chain; these are its plain-data inputs and
//! outputs.

use crate::schedule::TemperatureSchedule;
use mogs_mrf::Label;

/// Configuration for an MCMC run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainConfig {
    /// Temperature schedule over iterations.
    pub schedule: TemperatureSchedule,
    /// Iterations to discard before mode tracking begins.
    pub burn_in: usize,
    /// Whether to accumulate per-site label histograms (costs `sites × M`
    /// counters).
    pub track_modes: bool,
    /// Deterministic chunk count per colour group: each chunk draws from
    /// its own seeded stream, so `(seed, threads)` fixes the result bit
    /// for bit whatever the number of OS threads. At least 1.
    pub threads: usize,
    /// Master RNG seed; every sweep derives its streams from this.
    pub seed: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            schedule: TemperatureSchedule::default(),
            burn_in: 0,
            track_modes: true,
            threads: 2,
            seed: 0,
        }
    }
}

/// Summary of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainResult {
    /// The final labeling (the last MCMC sample).
    pub labels: Vec<Label>,
    /// Marginal MAP estimate (per-site histogram mode), if tracked.
    pub map_estimate: Option<Vec<Label>>,
    /// Total energy after each iteration.
    pub energy_trace: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
}
