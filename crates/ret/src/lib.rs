//! # mogs-ret — Resonance Energy Transfer network physics simulator
//!
//! This crate is the *molecular optical substrate* of the `mogs` workspace: a
//! software stand-in for the physical RET devices of Wang et al., *ISCA 2016*
//! ("Accelerating Markov Random Field Inference Using Molecular Optical Gibbs
//! Sampling Units").
//!
//! The real device is a **RET circuit**: an on-chip quantum-dot LED array
//! excites an ensemble of chromophore networks assembled on DNA scaffolds;
//! excitons hop between chromophores by Förster resonance energy transfer
//! (probabilistic, distance- and spectrum-dependent) until one fluoresces; a
//! single-photon avalanche detector (SPAD) records the **time to fluorescence
//! (TTF)**. Because exciton dynamics form a continuous-time Markov chain, the
//! TTF follows a *phase-type distribution*, and in the regime used by the
//! RSU-G unit it is (approximately) **exponential with a rate proportional to
//! the LED excitation intensity** — which is exactly the knob the CMOS side
//! turns to parameterize the distribution.
//!
//! This crate models that whole stack, at two selectable fidelities:
//!
//! * [`Fidelity::Physics`] — excitations arrive as a Poisson process, each
//!   exciton random-walks through the chromophore network (Gillespie
//!   simulation of the CTMC built from Förster rates), the SPAD applies
//!   detection efficiency, timing jitter, and dark counts.
//! * [`Fidelity::Ideal`] — the first detection time is drawn directly from
//!   the exponential the physics converges to. Used for large application
//!   runs; a statistical test asserts both modes agree.
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`spectra`] | Gaussian absorption/emission spectra, overlap integrals |
//! | [`chromophore`] | chromophore photophysics (lifetime, quantum yield) |
//! | [`forster`] | Förster radius and pairwise transfer rates |
//! | [`network`] | chromophore networks and their exciton CTMC generator |
//! | [`phase_type`] | phase-type TTF distributions (pdf/cdf/moments/sampling) |
//! | [`ctmc`] | Gillespie simulation of exciton trajectories |
//! | [`circuit`] | QD-LEDs + network ensemble + SPAD = a RET circuit |
//! | [`exponential`] | exponential samplers and first-to-fire composition |
//! | [`wearout`] | photobleaching / ensemble-lifetime model (paper §9) |
//!
//! ## Quick example: a RET circuit as an intensity-parameterized sampler
//!
//! ```
//! use mogs_ret::circuit::{RetCircuit, RetCircuitConfig};
//! use rand::SeedableRng;
//!
//! let mut circuit = RetCircuit::new(RetCircuitConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! circuit.set_intensity_code(9); // 4-bit LED code, 0..=15
//! let ttf = circuit.sample_ttf(&mut rng);
//! assert!(ttf.is_some());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod chromophore;
pub mod circuit;
pub mod ctmc;
pub mod error;
pub mod exponential;
pub mod forster;
pub mod geometry;
mod linalg;
pub mod network;
pub mod phase_type;
pub mod samplers;
pub mod spectra;
pub mod wearout;

pub use chromophore::Chromophore;
pub use circuit::{Fidelity, RetCircuit, RetCircuitConfig, Spad, SpadConfig};
pub use error::RetError;
pub use exponential::{first_to_fire, ExponentialSampler, IdealExponential};
pub use forster::ForsterPair;
pub use network::RetNetwork;
pub use phase_type::PhaseType;
