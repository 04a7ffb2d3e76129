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
//! * [`sweep`] — the reference full-grid sweeps: checkerboard and
//!   colour-group schedules, each group cut into deterministic chunks
//!   with their own RNG streams, run serially. The engine
//!   (`mogs-engine`) is held bit-identical to them.
//! * [`tempering`] — parallel tempering, a ladder of replicas swept with
//!   the reference sweep and swapped at every iteration.
//! * [`schedule`] — temperature schedules (constant, geometric annealing).
//! * [`diagnostics`] — autocorrelation, effective sample size, convergence
//!   checks.
//!
//! ## Example: sampling a two-label field
//!
//! ```
//! use mogs_gibbs::{colored_sweep, sweep::sweep_seed, SoftmaxGibbs};
//! use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};
//!
//! let mrf = MarkovRandomField::builder(Grid2D::new(8, 8), LabelSpace::scalar(2))
//!     .prior(SmoothnessPrior::potts(0.8))
//!     .singleton(|_s: usize, _l: Label| 0.0)
//!     .build();
//! let mut labels = mrf.uniform_labeling();
//! for iteration in 0..10 {
//!     // Two deterministic chunks per colour group, seed 42.
//!     colored_sweep(&mrf, &mut labels, &SoftmaxGibbs::new(), 1.0, 2, sweep_seed(42, iteration));
//! }
//! assert_eq!(labels.len(), 64);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

pub mod diagnostics;
pub mod dist;
pub mod kernel;
pub mod sampler;
pub mod schedule;
pub mod sweep;
pub mod tempering;

pub use kernel::{KernelArena, KernelScratch, SweepKernel, UnitFault};
pub use sampler::{LabelSampler, Metropolis, SoftmaxGibbs};
pub use schedule::TemperatureSchedule;
pub use sweep::{checkerboard_sweep, colored_sweep};
pub use tempering::{TemperedChains, TemperingConfig};
