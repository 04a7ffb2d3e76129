//! Stereo vision by MRF-MCMC (paper §8.1).
//!
//! For a rectified pair, each left-image pixel gets one of `M = 5`
//! disparity labels; the singleton energy is the squared intensity
//! difference between the left pixel and the right pixel shifted by the
//! candidate disparity (Tappen & Freeman 2003), and the smoothness prior
//! favours piecewise-constant disparity surfaces.

use crate::image::GrayImage;
use mogs_engine::prelude::*;
use mogs_gibbs::sampler::LabelSampler;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};

/// Configuration of the stereo model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StereoConfig {
    /// Number of disparity labels (the paper uses 5; label value =
    /// disparity in pixels).
    pub num_disparities: u16,
    /// Smoothness prior weight.
    pub smoothness_weight: f64,
    /// Singleton weight (hardware `2⁻⁴` pre-factor by default).
    pub singleton_weight: f64,
    /// Sampling temperature.
    pub temperature: f64,
    /// Deterministic chunk count per colour group (at least 2 are run):
    /// it fixes the result bit for bit, whatever the engine's worker count.
    pub threads: usize,
    /// Fraction of iterations treated as burn-in for the marginal MAP.
    pub burn_in_fraction: f64,
}

impl Default for StereoConfig {
    fn default() -> Self {
        StereoConfig {
            num_disparities: 5,
            smoothness_weight: 2.0,
            singleton_weight: 1.0 / 8.0,
            temperature: 1.5,
            threads: 1,
            burn_in_fraction: 0.3,
        }
    }
}

/// Singleton potential: squared 6-bit difference between the left pixel
/// and the disparity-shifted right pixel.
#[derive(Debug, Clone, PartialEq)]
pub struct DisparitySingleton {
    left: GrayImage,
    right: GrayImage,
    weight: f64,
}

impl SingletonPotential for DisparitySingleton {
    fn energy(&self, site: usize, label: Label) -> f64 {
        let width = self.left.width();
        let (x, y) = (site % width, site / width);
        let d = isize::from(label.value());
        let a = f64::from(self.left.get(x, y));
        let b = f64::from(self.right.get_clamped(x as isize - d, y as isize));
        self.weight * (a - b) * (a - b)
    }
}

/// The stereo matching application.
#[derive(Debug, Clone)]
pub struct StereoMatching {
    config: StereoConfig,
    mrf: MarkovRandomField<DisparitySingleton>,
}

impl StereoMatching {
    /// Builds the stereo model for a rectified pair.
    ///
    /// # Panics
    ///
    /// Panics if the images' dimensions differ or the disparity count is
    /// outside `1..=64`.
    pub fn new(left: &GrayImage, right: &GrayImage, config: StereoConfig) -> Self {
        assert_eq!(left.width(), right.width(), "images must share dimensions");
        assert_eq!(
            left.height(),
            right.height(),
            "images must share dimensions"
        );
        let grid = Grid2D::new(left.width(), left.height());
        let space = LabelSpace::scalar(config.num_disparities);
        let singleton = DisparitySingleton {
            left: left.to_6bit(),
            right: right.to_6bit(),
            weight: config.singleton_weight,
        };
        let mrf = MarkovRandomField::builder(grid, space)
            .prior(SmoothnessPrior::squared_difference(
                config.smoothness_weight,
            ))
            .temperature(config.temperature)
            .singleton(singleton)
            .build();
        StereoMatching { config, mrf }
    }

    /// The underlying MRF.
    pub fn mrf(&self) -> &MarkovRandomField<DisparitySingleton> {
        &self.mrf
    }

    /// Packages this matching as an engine job from the all-zero
    /// labeling. Uses at least two deterministic chunks.
    pub fn engine_job<L>(
        &self,
        sampler: L,
        iterations: usize,
        seed: u64,
    ) -> InferenceJob<DisparitySingleton, L>
    where
        L: LabelSampler,
    {
        InferenceJob {
            iterations,
            threads: self.config.threads.max(2),
            seed,
            burn_in: (iterations as f64 * self.config.burn_in_fraction) as usize,
            track_modes: true,
            ..InferenceJob::new(self.mrf.clone(), sampler)
        }
    }

    /// Runs MCMC for `iterations` full sweeps on `engine` (see
    /// [`StereoMatching::engine_job`]).
    ///
    /// # Panics
    ///
    /// Panics if the engine refuses or fails the job.
    pub fn run<L>(&self, engine: &Engine, sampler: L, iterations: usize, seed: u64) -> JobOutput
    where
        L: SweepKernel + Clone + Send + Sync + 'static,
    {
        crate::run_job(engine, self.engine_job(sampler, iterations, seed))
    }

    /// Renders a disparity labeling as an image (disparity stretched over
    /// the gray range for visibility).
    pub fn disparity_image(&self, labels: &[Label]) -> GrayImage {
        let max_d = (self.config.num_disparities - 1).max(1);
        let grid = self.mrf.grid();
        GrayImage::from_pixels(
            grid.width(),
            grid.height(),
            labels
                .iter()
                .map(|l| (u16::from(l.value()) * 255 / max_d) as u8)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::label_accuracy;
    use crate::synthetic;
    use mogs_gibbs::SoftmaxGibbs;

    #[test]
    fn recovers_foreground_disparity() {
        let scene = synthetic::stereo_pair(32, 32, 3, 2.0, 31);
        let app = StereoMatching::new(&scene.left, &scene.right, StereoConfig::default());
        let result = app.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 80, 5);
        let acc = label_accuracy(result.map_estimate.as_ref().unwrap(), &scene.truth);
        // Smooth synthetic texture leaves genuine ambiguity (aperture
        // problem + the occluded band at the foreground edge), so 70% on a
        // 5-way choice is a solid recovery.
        assert!(acc > 0.70, "disparity accuracy {acc}");
    }

    #[test]
    fn singleton_prefers_true_disparity_in_foreground() {
        let scene = synthetic::stereo_pair(32, 32, 2, 0.0, 32);
        let app = StereoMatching::new(&scene.left, &scene.right, StereoConfig::default());
        let site = 16 * 32 + 16; // centre: foreground
        let e_true = app.mrf().singleton().energy(site, Label::new(2));
        let e_zero = app.mrf().singleton().energy(site, Label::new(0));
        assert!(e_true <= e_zero);
        assert!(
            e_true < 0.5,
            "true-disparity energy should be ~0, got {e_true}"
        );
    }

    #[test]
    fn disparity_image_stretches_range() {
        let scene = synthetic::stereo_pair(16, 16, 1, 0.0, 33);
        let app = StereoMatching::new(&scene.left, &scene.right, StereoConfig::default());
        let labels = vec![Label::new(4); 256];
        let img = app.disparity_image(&labels);
        assert!(img.pixels().iter().all(|&p| p == 255));
    }

    #[test]
    fn energy_decreases_over_iterations() {
        let scene = synthetic::stereo_pair(24, 24, 2, 2.0, 34);
        let app = StereoMatching::new(&scene.left, &scene.right, StereoConfig::default());
        let result = app.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 25, 6);
        assert!(result.energy_trace[24] < result.energy_trace[0]);
    }

    #[test]
    fn engine_path_matches_chain_path_bit_for_bit() {
        let scene = synthetic::stereo_pair(16, 16, 2, 2.0, 17);
        let app = StereoMatching::new(
            &scene.left,
            &scene.right,
            StereoConfig {
                threads: 3,
                ..StereoConfig::default()
            },
        );
        let job = app.engine_job(SoftmaxGibbs::new(), 20, 7);
        let reference = crate::reference_chain::reference_chain(&job);
        let result = app.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 20, 7);
        assert_eq!(
            result, reference,
            "engine stereo must be bit-identical to the reference chain"
        );
    }

    #[test]
    #[should_panic(expected = "images must share dimensions")]
    fn mismatched_pair_rejected() {
        let a = GrayImage::filled(4, 4, 0);
        let b = GrayImage::filled(4, 5, 0);
        StereoMatching::new(&a, &b, StereoConfig::default());
    }
}
