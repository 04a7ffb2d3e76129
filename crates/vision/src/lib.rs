//! # mogs-vision — low-level vision applications on MRF-MCMC
//!
//! The application layer of the `mogs` workspace: the three workloads the
//! paper evaluates (§8.1), each formulated as first-order MRF inference and
//! runnable on any [`mogs_gibbs::SweepKernel`] — the exact software Gibbs
//! sampler or the RSU-G hardware model from `mogs-core`. Every application
//! packages its inference as one engine job (`engine_job`) and runs it on a
//! [`mogs_engine::Engine`] (`run`).
//!
//! * [`segmentation`] — image segmentation: 5 intensity classes per pixel
//!   (Geman & Geman 1984; Szirányi et al. 2000).
//! * [`motion`] — dense motion estimation: a 7×7 search window per pixel,
//!   49 vector labels (Konrad & Dubois 1992).
//! * [`stereo`] — stereo vision: 5 disparity labels aligning a rectified
//!   pair (Tappen & Freeman 2003).
//! * [`restoration`] — image restoration/denoising on 8 gray levels, the
//!   original Gibbs-sampling application (Geman & Geman 1984).
//!
//! Because the paper's test content is not available, [`synthetic`]
//! generates deterministic scenes **with ground truth** (piecewise-constant
//! regions under noise, translated texture frames, disparity-shifted
//! pairs), which lets the workspace verify inference *quality*, not only
//! speed. [`image`] provides the grayscale image type and PGM I/O so users
//! can run the applications on their own data.
//!
//! ## Example: segmenting a noisy two-region scene
//!
//! ```
//! use mogs_engine::Engine;
//! use mogs_gibbs::SoftmaxGibbs;
//! use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
//! use mogs_vision::synthetic;
//!
//! let scene = synthetic::region_scene(24, 24, 2, 12.0, 7);
//! let app = Segmentation::new(scene.image.clone(), SegmentationConfig {
//!     num_labels: 2,
//!     ..SegmentationConfig::default()
//! });
//! let engine = Engine::with_default_config();
//! let result = app.run(&engine, SoftmaxGibbs::new(), 30, 0);
//! let accuracy = mogs_vision::metrics::label_accuracy(
//!     result.map_estimate.as_ref().unwrap(),
//!     &scene.truth,
//! );
//! assert!(accuracy > 0.8, "accuracy {accuracy}");
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

pub mod image;
pub mod metrics;
pub mod motion;
pub mod pyramid;
pub mod restoration;
pub mod segmentation;
pub mod stereo;
pub mod synthetic;
pub mod texture_model;

pub use image::GrayImage;
pub use motion::{MotionConfig, MotionEstimation};
pub use restoration::{Restoration, RestorationConfig};
pub use segmentation::{Segmentation, SegmentationConfig};
pub use stereo::{StereoConfig, StereoMatching};
pub use texture_model::{TextureConfig, TextureModel};

use mogs_engine::{Engine, InferenceJob, JobOutput};
use mogs_gibbs::SweepKernel;
use mogs_mrf::energy::SingletonPotential;

/// Runs an application's job on `engine` to completion.
///
/// # Panics
///
/// Panics if the engine refuses the job (shut down, failed admission) or
/// the job fails.
fn run_job<S, L>(engine: &Engine, job: InferenceJob<S, L>) -> JobOutput
where
    S: SingletonPotential + 'static,
    L: SweepKernel + Clone + Send + Sync + 'static,
{
    engine
        .submit(job)
        .expect("the engine accepts the application's job")
        .wait()
}

/// The serial reference chain the engine is held to, bit for bit
/// (pinned across commits by `mogs-engine`'s `chain_golden` test).
#[cfg(test)]
#[path = "../../engine/tests/support/reference_chain.rs"]
mod reference_chain;
