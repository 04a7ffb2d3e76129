//! Image restoration (denoising) by MRF-MCMC — the original application of
//! Gibbs sampling to images (Geman & Geman 1984, the paper's reference
//! [11] and the root of its segmentation formulation).
//!
//! The label space is a quantized intensity scale: each pixel's label *is*
//! its restored gray level, on 8 levels — exactly the 3-bit scalar range
//! the RSU-G doubleton datapath operates on, so this application exercises
//! the hardware's native precision with no slack at all. The singleton
//! pulls each label toward the observed noisy pixel; the (optionally
//! truncated) smoothness prior removes the noise while the truncation
//! preserves edges.

use crate::image::GrayImage;
use mogs_engine::prelude::*;
use mogs_gibbs::sampler::LabelSampler;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior};

/// Number of restoration gray levels (3-bit hardware scalar range).
pub const GRAY_LEVELS: u16 = 8;

/// Configuration of the restoration model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestorationConfig {
    /// Smoothness prior weight.
    pub smoothness_weight: f64,
    /// Truncation cap on the squared label difference (`None` = pure
    /// quadratic; a cap preserves edges).
    pub truncation: Option<f64>,
    /// Singleton weight.
    pub singleton_weight: f64,
    /// Clique neighbourhood: second order couples diagonals too, which
    /// smooths oblique structure better (paper §9's "other MRF problems").
    pub neighborhood: Neighborhood,
    /// Sampling temperature.
    pub temperature: f64,
    /// Deterministic chunk count per colour group (at least 2 are run):
    /// it fixes the result bit for bit, whatever the engine's worker count.
    pub threads: usize,
    /// Fraction of iterations treated as burn-in for the marginal MAP.
    pub burn_in_fraction: f64,
}

impl Default for RestorationConfig {
    fn default() -> Self {
        RestorationConfig {
            smoothness_weight: 1.0,
            truncation: Some(4.0),
            singleton_weight: 0.5,
            neighborhood: Neighborhood::FirstOrder,
            temperature: 1.0,
            threads: 1,
            burn_in_fraction: 0.3,
        }
    }
}

/// Singleton potential: squared distance between a pixel's 3-bit
/// observation and the candidate gray level.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationSingleton {
    observed3: Vec<u8>,
    weight: f64,
}

impl SingletonPotential for ObservationSingleton {
    fn energy(&self, site: usize, label: Label) -> f64 {
        let d = f64::from(self.observed3[site]) - f64::from(label.value());
        self.weight * d * d
    }
}

/// The image restoration application.
#[derive(Debug, Clone)]
pub struct Restoration {
    config: RestorationConfig,
    mrf: MarkovRandomField<ObservationSingleton>,
    width: usize,
    height: usize,
}

impl Restoration {
    /// Builds the restoration model for a noisy image (quantized to 8 gray
    /// levels internally).
    pub fn new(noisy: &GrayImage, config: RestorationConfig) -> Self {
        let grid = Grid2D::new(noisy.width(), noisy.height());
        let space = LabelSpace::scalar(GRAY_LEVELS);
        let singleton = ObservationSingleton {
            observed3: noisy.pixels().iter().map(|p| p >> 5).collect(),
            weight: config.singleton_weight,
        };
        let prior = match config.truncation {
            Some(cap) => SmoothnessPrior::truncated_quadratic(config.smoothness_weight, cap),
            None => SmoothnessPrior::squared_difference(config.smoothness_weight),
        };
        let mrf = MarkovRandomField::builder(grid, space)
            .prior(prior)
            .neighborhood(config.neighborhood)
            .temperature(config.temperature)
            .singleton(singleton)
            .build();
        Restoration {
            config,
            mrf,
            width: noisy.width(),
            height: noisy.height(),
        }
    }

    /// The underlying MRF.
    pub fn mrf(&self) -> &MarkovRandomField<ObservationSingleton> {
        &self.mrf
    }

    /// Packages this restoration as an engine job starting from the
    /// observed labels (the natural warm start for restoration). Uses at
    /// least two deterministic chunks.
    pub fn engine_job<L>(
        &self,
        sampler: L,
        iterations: usize,
        seed: u64,
    ) -> InferenceJob<ObservationSingleton, L>
    where
        L: LabelSampler,
    {
        let observed = self.mrf.singleton().observed3.iter();
        InferenceJob {
            iterations,
            threads: self.config.threads.max(2),
            seed,
            burn_in: (iterations as f64 * self.config.burn_in_fraction) as usize,
            track_modes: true,
            initial: Some(observed.map(|&v| Label::new(v)).collect()),
            ..InferenceJob::new(self.mrf.clone(), sampler)
        }
    }

    /// Runs MCMC for `iterations` full sweeps on `engine` (see
    /// [`Restoration::engine_job`]).
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

    /// Renders a labeling back to an 8-bit image (levels spread over the
    /// gray range).
    pub fn labels_to_image(&self, labels: &[Label]) -> GrayImage {
        GrayImage::from_pixels(
            self.width,
            self.height,
            labels.iter().map(|l| (l.value() << 5) | 0x10).collect(),
        )
    }

    /// Peak signal-to-noise ratio between two images (dB).
    ///
    /// # Panics
    ///
    /// Panics if the images' dimensions differ.
    pub fn psnr(a: &GrayImage, b: &GrayImage) -> f64 {
        assert_eq!(a.width(), b.width(), "images must share dimensions");
        assert_eq!(a.height(), b.height(), "images must share dimensions");
        let mse: f64 = a
            .pixels()
            .iter()
            .zip(b.pixels())
            .map(|(&x, &y)| {
                let d = f64::from(x) - f64::from(y);
                d * d
            })
            .sum::<f64>()
            / a.len() as f64;
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0 * 255.0 / mse).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_gibbs::SoftmaxGibbs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A piecewise-constant test card with additive noise.
    fn noisy_card(seed: u64, sigma: f64) -> (GrayImage, GrayImage) {
        let clean = GrayImage::from_fn(32, 32, |x, _| if x < 16 { 0x30 } else { 0xD0 });
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy = GrayImage::from_fn(32, 32, |x, y| {
            let z: f64 = {
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            (f64::from(clean.get(x, y)) + z * sigma).clamp(0.0, 255.0) as u8
        });
        (clean, noisy)
    }

    #[test]
    fn restoration_improves_psnr() {
        let (clean, noisy) = noisy_card(1, 25.0);
        let app = Restoration::new(&noisy, RestorationConfig::default());
        let result = app.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 40, 1);
        let restored = app.labels_to_image(result.map_estimate.as_ref().unwrap());
        let before = Restoration::psnr(&clean, &noisy);
        let after = Restoration::psnr(&clean, &restored);
        assert!(
            after > before + 2.0,
            "PSNR before {before:.1} after {after:.1}"
        );
    }

    #[test]
    fn truncation_preserves_the_edge() {
        let (_, noisy) = noisy_card(2, 20.0);
        let app = Restoration::new(&noisy, RestorationConfig::default());
        let result = app.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 40, 2);
        let labels = result.map_estimate.unwrap();
        // The left and right halves should settle on different levels.
        let left = usize::from(labels[16 * 32 + 4].value());
        let right = usize::from(labels[16 * 32 + 28].value());
        assert!(right > left + 2, "edge lost: left {left} right {right}");
    }

    #[test]
    fn pure_quadratic_oversmooths_relative_to_truncated() {
        let (clean, noisy) = noisy_card(3, 25.0);
        let truncated = Restoration::new(&noisy, RestorationConfig::default());
        let quadratic = Restoration::new(
            &noisy,
            RestorationConfig {
                truncation: None,
                ..RestorationConfig::default()
            },
        );
        let r_t = truncated.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 40, 3);
        let r_q = quadratic.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 40, 3);
        let psnr_t = Restoration::psnr(
            &clean,
            &truncated.labels_to_image(r_t.map_estimate.as_ref().unwrap()),
        );
        let psnr_q = Restoration::psnr(
            &clean,
            &quadratic.labels_to_image(r_q.map_estimate.as_ref().unwrap()),
        );
        assert!(
            psnr_t >= psnr_q,
            "truncated {psnr_t:.1} dB should beat quadratic {psnr_q:.1} dB on an edge image"
        );
    }

    #[test]
    fn second_order_restoration_also_denoises() {
        let (clean, noisy) = noisy_card(5, 25.0);
        let app = Restoration::new(
            &noisy,
            RestorationConfig {
                neighborhood: Neighborhood::SecondOrder,
                ..RestorationConfig::default()
            },
        );
        let result = app.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 40, 5);
        let restored = app.labels_to_image(result.map_estimate.as_ref().unwrap());
        let before = Restoration::psnr(&clean, &noisy);
        let after = Restoration::psnr(&clean, &restored);
        assert!(
            after > before + 2.0,
            "PSNR before {before:.1} after {after:.1}"
        );
    }

    #[test]
    fn psnr_identity_is_infinite() {
        let img = GrayImage::filled(4, 4, 7);
        assert!(Restoration::psnr(&img, &img).is_infinite());
    }

    #[test]
    fn warm_start_matches_observation() {
        let (_, noisy) = noisy_card(4, 10.0);
        let app = Restoration::new(&noisy, RestorationConfig::default());
        let result = app.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 1, 4);
        // After one sweep the labeling is close to the quantized input.
        let matches = result
            .labels
            .iter()
            .zip(noisy.pixels())
            .filter(|(l, &p)| l.value() == p >> 5)
            .count();
        assert!(matches > result.labels.len() / 2);
    }
}
