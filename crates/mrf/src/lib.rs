//! # mogs-mrf — first-order Markov Random Fields on 2-D lattices
//!
//! The modelling substrate for the `mogs` workspace (Wang et al., ISCA 2016,
//! §4.1–§4.2). A **Markov Random Field** here is a grid of discrete random
//! variables (one per pixel), each taking one of `M ≤ 64` labels, whose
//! joint distribution is given by clique potential energies:
//!
//! ```text
//! p(Xᵢⱼ = x | neighbours, D) ∝ exp( −(1/T) · [ Ec(x, D)            singleton
//!                                            + Σₙ Ec(x, xₙ) ] )     doubletons
//! ```
//!
//! The paper restricts to first-order MRFs (4-neighbourhood) with
//! **smoothness-based priors**: the doubleton energy is a distance between
//! labels (squared difference, Eq. 2), optionally truncated, and the
//! singleton ties a variable to observed data. This crate provides:
//!
//! * [`grid::Grid2D`] — the lattice, 4-neighbourhoods, checkerboard parity;
//! * [`label::Label`] / [`label::LabelSpace`] — 6-bit labels, scalar (3-bit)
//!   or 2-vector (3+3-bit) component views;
//! * [`energy`] — smoothness doubletons and the
//!   [`SingletonPotential`](energy::SingletonPotential) trait;
//! * [`field::MarkovRandomField`] — full conditionals and total energy;
//! * [`precision`] — the paper's limited-precision (8-bit energy)
//!   quantization and redundant-label collapsing (§4.4).
//!
//! ## Example: a tiny denoising field
//!
//! ```
//! use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};
//!
//! // Observed noisy data: one byte per site.
//! let grid = Grid2D::new(8, 8);
//! let data: Vec<u8> = (0..64).map(|i| if i % 2 == 0 { 10 } else { 200 }).collect();
//! let space = LabelSpace::scalar(2);
//! let mrf = MarkovRandomField::builder(grid, space)
//!     .singleton(move |site: usize, label: Label| {
//!         let target = if label.value() == 0 { 0.0 } else { 255.0 };
//!         let d = f64::from(data[site]) - target;
//!         d * d / 255.0
//!     })
//!     .prior(SmoothnessPrior::squared_difference(1.0))
//!     .temperature(1.0)
//!     .build();
//! let labels = vec![Label::new(0); 64];
//! let energies = mrf.conditional_energies(&labels, 9);
//! assert_eq!(energies.len(), 2);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

pub mod energy;
pub mod error;
pub mod field;
pub mod grid;
pub mod label;
pub mod labeling;
pub mod precision;
pub mod topology;

pub use energy::{DoubletonKind, SingletonPotential, SmoothnessPrior};
pub use error::MrfError;
pub use field::{FixedRows, MarkovRandomField, MrfBuilder, Neighborhood};
pub use grid::{Grid2D, Parity};
pub use label::{Label, LabelKind, LabelSpace};
pub use labeling::Labeling;
pub use precision::EnergyQuantizer;
pub use topology::{fnv1a, Topology};
