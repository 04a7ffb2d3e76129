//! # mogs-arch — architecture evaluation models for RSU systems
//!
//! Reproduces the paper's performance evaluation (§8): Table 2's execution
//! times, Figure 8's speedups, and the §8.2 discrete-accelerator analysis.
//!
//! ## Modelling approach (honest calibration)
//!
//! The paper evaluates by *emulation*: RSU-covered code sequences in real
//! CUDA kernels are replaced by instruction sequences matching RSU timing.
//! We cannot run CUDA, so we use a **calibrated throughput model**:
//!
//! 1. [`kernel`] assigns each kernel variant (standard MCMC, optimized
//!    with precomputed singletons, RSU-G1/G4/…) a *work cost* per pixel
//!    update, decomposed into per-pixel and per-label instruction
//!    estimates. The decomposition is documented field-by-field.
//! 2. [`gpu::GpuModel`] converts work into time using an effective
//!    throughput **calibrated once per (application, image size) from the
//!    paper's baseline GPU column of Table 2** — four constants total —
//!    and bounds every kernel by an effective memory bandwidth.
//! 3. Every other number (Opt GPU, RSU-G1, RSU-G4, all of Figure 8, the
//!    §8.2 accelerator speedups) is then *derived*, not pasted. The
//!    derived cells land within ~10% of the paper's.
//!
//! [`accelerator`] needs no calibration at all: the discrete accelerator is
//! DRAM-bound by construction, so its times follow exactly from image
//! sizes, iteration counts, bytes per pixel (5 for segmentation, 54 for
//! motion), and the 336 GB/s bandwidth.
//!
//! ## Example: regenerate one Table 2 row
//!
//! ```
//! use mogs_arch::gpu::GpuModel;
//! use mogs_arch::kernel::KernelVariant;
//! use mogs_arch::workload::{ImageSize, Workload};
//!
//! let gpu = GpuModel::calibrated();
//! let w = Workload::segmentation(ImageSize::SMALL);
//! let baseline = gpu.execution_time(&w, KernelVariant::Baseline);
//! let rsu = gpu.execution_time(&w, KernelVariant::rsu(1));
//! assert!(baseline / rsu > 2.5, "RSU-G1 speedup {}", baseline / rsu);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

pub mod accel_sim;
pub mod accelerator;
pub mod cpu;
pub mod energy;
pub mod gpu;
pub mod kernel;
pub mod occupancy;
pub mod scaling;
pub mod speedup;
pub mod workload;

pub use accel_sim::{AccelSim, AccelSimConfig};
pub use accelerator::Accelerator;
pub use energy::EnergyModel;
pub use gpu::GpuModel;
pub use kernel::KernelVariant;
pub use speedup::{figure8, table2, Figure8Row, Table2Row};
pub use workload::{ImageSize, VisionApp, Workload};
