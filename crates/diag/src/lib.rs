//! mogs-diag: streaming convergence diagnostics, uncertainty
//! quantification, and early stopping for the inference engine.
//!
//! A Gibbs sampler "converges to the exact answer" only in the limit; a
//! serving system (the paper's accelerator runs whole batches of MRF
//! problems) has to decide *when to stop paying for sweeps* and *how much
//! to trust the answer*. Fixed iteration budgets get both wrong: too
//! short silently under-mixes, too long burns accelerator time on chains
//! that flattened hundreds of sweeps ago. This crate closes the loop —
//! diagnostics stream out of running jobs and the stop decision streams
//! back in, through `mogs_engine`'s [`DiagSink`](mogs_engine::DiagSink)
//! observer called at each quiescent sweep boundary.
//!
//! The pieces, bottom-up:
//!
//! - [`RingBuffer`] / [`Welford`]: per-chain energy windows and running
//!   mean/variance, O(1) per sweep, no allocation on the sweep path.
//! - [`split_r_hat`] / [`window_ess`] / [`plateaued`]: non-panicking
//!   window statistics over the streamed traces (the batch math lives in
//!   `mogs_gibbs::diagnostics`).
//! - [`MarginalAccumulator`]: per-site label histograms from
//!   stride-sampled labelings → max-marginal labeling and normalized
//!   per-site entropy maps, written as PGM images ([`write_pgm`]).
//! - [`EarlyStopPolicy`] / [`DiagConfig`]: the stop rule — minimum
//!   sweeps, split-R̂ threshold, energy plateau — and what to observe.
//! - [`MultiChainDiag`] / [`ChainDiagSink`]: the coordinator pooling all
//!   replicas; the first chain to see cross-chain agreement stops the
//!   whole run through the engine's cancellation path, and outputs carry
//!   `early_stopped` rather than `cancelled`.
//! - [`run_chains_diagnosed`]: `run_chains_on_engine` with the sink
//!   attached; returns a [`DiagnosedRun`] with a serializable
//!   [`DiagReport`].
//!
//! Determinism caveat: the *samples* of a diagnosed run are bit-identical
//! to an undiagnosed one (observation never perturbs the chain — the
//! engine's trace and the sink see the same numbers), but the sweep at
//! which a run stops depends on how the engine interleaves the replicas,
//! so stop points may vary run to run. Tests therefore pin outcome
//! properties (stopped early, energy within tolerance), not stop sweeps.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

mod marginals;
mod policy;
mod report;
mod rhat;
mod ring;
mod run;
mod sink;
mod stats;

pub use marginals::{LabelIndexer, MarginalAccumulator};
pub use policy::{DiagConfig, EarlyStopPolicy};
pub use report::{write_pgm, ChainSummary, DiagReport};
pub use rhat::{plateaued, split_r_hat, window_ess};
pub use ring::RingBuffer;
pub use run::{run_chains_diagnosed, DiagnosedRun};
pub use sink::{ChainDiagSink, MultiChainDiag};
pub use stats::Welford;
