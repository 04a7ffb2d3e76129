//! # mogs-gibbs — MCMC engine for MRF inference
//!
//! The software inference substrate of the `mogs` workspace: everything
//! needed to run Markov Chain Monte Carlo over a
//! [`mogs_mrf::MarkovRandomField`], independent of (and as the baseline
//! for) the RSU-G hardware sampler.
//!
//! * [`dist`] — from-scratch samplers for the exponential, normal and gamma
//!   distributions (the paper's Table 1 measures exactly these through the
//!   C++11 `<random>` library; we reimplement the textbook algorithms).
//! * [`sampler`] — the [`LabelSampler`](sampler::LabelSampler) abstraction:
//!   given the `M` conditional energies of a site, draw its new label.
//!   Software implementations: exact softmax Gibbs and Metropolis. The
//!   RSU-G unit in `mogs-core` implements the same trait, so chains can run
//!   on either back end unchanged.
//! * [`kernel`] — the chunk-batched [`SweepKernel`](kernel::SweepKernel)
//!   layer over [`LabelSampler`](sampler::LabelSampler): evaluate a whole
//!   chunk of same-phase sites from a flat energy buffer, then draw every
//!   label, bit-identically to the per-site loop. The engine's hot path.
//! * [`sweep`] — sequential and checkerboard-parallel full-grid sweeps.
//! * [`chain`] — the MCMC driver: iterations, annealing, marginal-MAP mode
//!   tracking, energy traces.
//! * [`schedule`] — temperature schedules (constant, geometric annealing).
//! * [`diagnostics`] — autocorrelation, effective sample size, convergence
//!   checks.
//!
//! ## Example: sampling a two-label field
//!
//! ```
//! use mogs_gibbs::{chain::{ChainConfig, McmcChain}, sampler::SoftmaxGibbs};
//! use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};
//!
//! let mrf = MarkovRandomField::builder(Grid2D::new(8, 8), LabelSpace::scalar(2))
//!     .prior(SmoothnessPrior::potts(0.8))
//!     .singleton(|_s: usize, _l: Label| 0.0)
//!     .build();
//! let config = ChainConfig { seed: 42, ..ChainConfig::default() };
//! let mut chain = McmcChain::new(&mrf, SoftmaxGibbs::new(), config);
//! chain.run(10);
//! assert_eq!(chain.labels().len(), 64);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

pub mod chain;
pub mod diagnostics;
pub mod dist;
pub mod kernel;
pub mod multichain;
pub mod sampler;
pub mod schedule;
pub mod sweep;
pub mod tempering;

pub use chain::{ChainConfig, ChainResult, McmcChain};
pub use kernel::{KernelArena, KernelScratch, SweepKernel, UnitFault};
pub use multichain::{run_chains, MultiChainResult};
pub use sampler::{LabelSampler, Metropolis, SoftmaxGibbs};
pub use schedule::TemperatureSchedule;
pub use sweep::{checkerboard_sweep, colored_sweep, sequential_sweep};
pub use tempering::{TemperedChains, TemperingConfig};
