//! # mogs-core — RET-based Sampling Units (the paper's contribution)
//!
//! This crate implements the **RSU** concept of Wang et al., ISCA 2016: a
//! hybrid CMOS/optical functional unit that draws samples from
//! parameterized probability distributions, and its concrete instance
//! **RSU-G**, a Gibbs sampling unit for first-order MRF inference.
//!
//! A generic RSU (paper Fig. 1) performs three steps:
//!
//! 1. **Parameterize** *(CMOS)* — map application values to RET-circuit
//!    inputs (QD-LED intensity codes);
//! 2. **Sample** *(RET)* — obtain a time-to-fluorescence sample from the
//!    parameterized optical distribution;
//! 3. **Map back** *(CMOS)* — convert the observation to an application
//!    value.
//!
//! For RSU-G the parameterization is the MRF energy datapath (one singleton
//! plus four doubleton clique potentials, 8-bit saturating), an
//! energy→intensity lookup table, and the sample is a **first-to-fire
//! tournament**: each candidate label's exponential TTF competes and the
//! shortest (after 8-bit capture at 8× the system clock) wins — which makes
//! the winner exactly Gibbs-distributed over the quantized energies.
//!
//! ## Modules
//!
//! | module | contents |
//! |---|---|
//! | [`rsu`] | the generic three-stage RSU abstraction |
//! | [`energy_unit`] | bit-accurate 8-bit energy datapath (stage 2 of the pipeline) |
//! | [`intensity`] | 256×4-bit energy→intensity LUT and its Boltzmann construction |
//! | [`ttf`] | 8-bit TTF capture register (8× clock) |
//! | [`rsu_g`] | the RSU-G unit: bit-exact sampling + [`mogs_gibbs::LabelSampler`] impl |
//! | [`pipeline`] | cycle-accurate pipeline/structural-hazard simulation (§5.2–5.3) |
//! | [`variants`] | RSU-G1/G4/…/G64 width variants and latency formulas |
//! | [`isa`] | the `RSU op, regsrc, regdest` instruction interface + context switch (§6.1) |
//! | [`power`] | Table 3 power model (45 nm / 15 nm, unit → system) |
//! | [`area`] | Table 4 area model |
//!
//! ## Example: sampling one pixel with an RSU-G1
//!
//! ```
//! use mogs_core::rsu_g::{RsuG, RsuGConfig, SiteInputs};
//! use rand::SeedableRng;
//!
//! let mut rsu = RsuG::new(RsuGConfig::for_labels(5, 32.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let inputs = SiteInputs {
//!     neighbors: [Some(0), Some(0), Some(1), Some(1)],
//!     data1: 12,
//!     data2: vec![10, 20, 30, 40, 50],
//! };
//! let sample = rsu.sample_site(&inputs, &mut rng);
//! assert!(sample.label.value() < 5);
//! assert_eq!(sample.cycles, 7 + 4); // 7 + (M-1) for RSU-G1
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod area;
pub mod energy_unit;
pub mod intensity;
pub mod isa;
pub mod pipeline;
pub mod power;
pub mod rsu;
pub mod rsu_b;
pub mod rsu_e;
pub mod rsu_g;
pub mod stream;
pub mod ttf;
pub mod variants;
pub mod verification;

pub use area::AreaModel;
pub use intensity::IntensityMap;
pub use power::PowerModel;
pub use rsu_g::{RsuG, RsuGConfig, RsuGSampler, SiteInputs};
pub use ttf::TtfRegister;
pub use variants::RsuVariant;
