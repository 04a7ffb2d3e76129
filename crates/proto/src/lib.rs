//! # mogs-proto — the macro-scale RSU-G2 hardware prototype, emulated
//!
//! The paper's §7 demonstrates a rudimentary RSU-G with bench-top parts:
//! two laser sources illuminate two RET networks (cuvettes), two discrete
//! SPADs detect the output fluorescence, and an FPGA timestamps photon
//! arrivals with 250 ps resolution; a PC parameterizes the distribution by
//! setting relative laser intensities. Two experiments run on it:
//!
//! 1. **Ratio parameterization** — sweep the target relative probability
//!    of the two channels from 1 to 255 and measure the achieved ratio.
//!    The paper reports ≤10% error below ratio 30 and ~24% above.
//! 2. **Image segmentation** — a two-label MRF over a 50×67 image, with
//!    energies computed in software and the prototype sampling the output
//!    label distribution; Figure 7 shows the sample at the 10th iteration.
//!
//! We cannot ship lasers, so [`rig`] emulates the bench: an 8-bit laser
//! power DAC with systematic calibration error, SPAD dark counts at a
//! macro-scale level, and the FPGA's 250 ps timer. Those three
//! imperfections *derive* the paper's error profile — the weak channel of
//! a high ratio lands between DAC codes and rides on the dark-count floor.
//! [`experiments`] packages both paper experiments, and [`timing`] records
//! why the prototype is functionally interesting but performance-wise
//! meaningless (~2 µs per sample, 60 s per image-iteration through the
//! proprietary laser-controller interface).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

pub mod controller;
pub mod experiments;
pub mod rig;
pub mod timing;

pub use controller::{Command, ControllerLatency, ControllerSession};
pub use experiments::{ratio_sweep, segment_demo, Fig7Result, RatioPoint};
pub use rig::{PrototypeRig, RigConfig, RigSampler};
pub use timing::PrototypeTiming;
