//! MRF texture modelling: sampling textures *from the prior* (§1 lists
//! texture modeling among the MRF applications).
//!
//! With no data term, Gibbs sampling draws labelings directly from the
//! smoothness prior — the generative direction of the same model the other
//! applications use for inference. The coupling strength and temperature
//! control the texture's correlation length: weak coupling gives salt-and-
//! pepper noise, strong coupling gives large coherent patches (and, for
//! Potts couplings beyond the critical point, system-spanning domains —
//! the Potts model's ordering transition).

use crate::image::GrayImage;
use mogs_engine::prelude::*;
use mogs_gibbs::sampler::LabelSampler;
use mogs_mrf::energy::ZeroSingleton;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};

/// Configuration of the texture model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextureConfig {
    /// Number of gray levels (labels).
    pub levels: u16,
    /// The smoothness prior shaping the texture.
    pub prior: SmoothnessPrior,
    /// Sampling temperature.
    pub temperature: f64,
}

impl Default for TextureConfig {
    fn default() -> Self {
        TextureConfig {
            levels: 8,
            prior: SmoothnessPrior::potts(1.2),
            temperature: 1.0,
        }
    }
}

/// A generative MRF texture model (a pure-prior field).
#[derive(Debug, Clone)]
pub struct TextureModel {
    config: TextureConfig,
    mrf: MarkovRandomField<ZeroSingleton>,
}

impl TextureModel {
    /// Builds the model over a `width × height` lattice.
    pub fn new(width: usize, height: usize, config: TextureConfig) -> Self {
        let mrf = MarkovRandomField::builder(
            Grid2D::new(width, height),
            LabelSpace::scalar(config.levels),
        )
        .prior(config.prior)
        .temperature(config.temperature)
        .singleton(ZeroSingleton)
        .build();
        TextureModel { config, mrf }
    }

    /// The underlying field.
    pub fn mrf(&self) -> &MarkovRandomField<ZeroSingleton> {
        &self.mrf
    }

    /// Packages one texture draw as an engine job: `iterations` sweeps
    /// from a random start, two deterministic chunks, no mode tracking
    /// (the sample is the final labeling).
    pub fn engine_job<L>(
        &self,
        sampler: L,
        iterations: usize,
        seed: u64,
    ) -> InferenceJob<ZeroSingleton, L>
    where
        L: LabelSampler,
    {
        // A random start mixes faster than all-zero for a pure prior:
        // scatter the labels with a cheap LCG keyed to the seed.
        let m = self.mrf.space().count() as u64;
        let initial: Vec<Label> = (0..self.mrf.grid().len() as u64)
            .map(|i| {
                let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                Label::new((h % m) as u8)
            })
            .collect();
        InferenceJob {
            iterations,
            seed,
            initial: Some(initial),
            ..InferenceJob::new(self.mrf.clone(), sampler)
        }
    }

    /// Draws one texture sample (the result's `labels`) with `iterations`
    /// sweeps on `engine` (see [`TextureModel::engine_job`]).
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

    /// Renders a labeling as an image (levels spread over the gray range).
    pub fn to_image(&self, labels: &[Label]) -> GrayImage {
        let grid = self.mrf.grid();
        let max = (self.config.levels - 1).max(1);
        GrayImage::from_pixels(
            grid.width(),
            grid.height(),
            labels
                .iter()
                .map(|l| (u16::from(l.value()) * 255 / max) as u8)
                .collect(),
        )
    }

    /// Nearest-neighbour agreement rate of a labeling: the fraction of
    /// horizontally adjacent site pairs with equal labels — a simple
    /// correlation-length proxy (uniform random labelings score `1/M`).
    pub fn neighbor_agreement(&self, labels: &[Label]) -> f64 {
        let grid = self.mrf.grid();
        let mut pairs = 0usize;
        let mut agree = 0usize;
        for y in 0..grid.height() {
            for x in 0..grid.width() - 1 {
                pairs += 1;
                if labels[grid.index(x, y)] == labels[grid.index(x + 1, y)] {
                    agree += 1;
                }
            }
        }
        agree as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_gibbs::SoftmaxGibbs;

    #[test]
    fn stronger_coupling_means_more_coherent_texture() {
        let weak = TextureModel::new(
            32,
            32,
            TextureConfig {
                prior: SmoothnessPrior::potts(0.2),
                ..TextureConfig::default()
            },
        );
        let strong = TextureModel::new(
            32,
            32,
            TextureConfig {
                prior: SmoothnessPrior::potts(2.0),
                ..TextureConfig::default()
            },
        );
        let engine = Engine::with_default_config();
        let a_weak = weak.neighbor_agreement(&weak.run(&engine, SoftmaxGibbs::new(), 60, 1).labels);
        let a_strong =
            strong.neighbor_agreement(&strong.run(&engine, SoftmaxGibbs::new(), 60, 1).labels);
        assert!(
            a_strong > a_weak + 0.2,
            "strong coupling {a_strong} vs weak {a_weak}"
        );
    }

    #[test]
    fn zero_ish_coupling_is_near_uniform() {
        let model = TextureModel::new(
            32,
            32,
            TextureConfig {
                prior: SmoothnessPrior::potts(0.01),
                ..TextureConfig::default()
            },
        );
        let engine = Engine::with_default_config();
        let sample = model.run(&engine, SoftmaxGibbs::new(), 20, 2).labels;
        let agreement = model.neighbor_agreement(&sample);
        // Uniform over 8 labels: agreement ≈ 1/8.
        assert!((agreement - 0.125).abs() < 0.05, "agreement {agreement}");
    }

    #[test]
    fn squared_difference_prior_gives_smooth_gradients() {
        // Squared-difference coupling penalizes big jumps more than small
        // ones, so adjacent disagreeing labels should usually differ by 1.
        let model = TextureModel::new(
            32,
            32,
            TextureConfig {
                prior: SmoothnessPrior::squared_difference(1.5),
                ..TextureConfig::default()
            },
        );
        let engine = Engine::with_default_config();
        let labels = model.run(&engine, SoftmaxGibbs::new(), 60, 3).labels;
        let grid = model.mrf().grid();
        let mut small_steps = 0usize;
        let mut disagreements = 0usize;
        for y in 0..grid.height() {
            for x in 0..grid.width() - 1 {
                let a = labels[grid.index(x, y)].value();
                let b = labels[grid.index(x + 1, y)].value();
                if a != b {
                    disagreements += 1;
                    if a.abs_diff(b) == 1 {
                        small_steps += 1;
                    }
                }
            }
        }
        assert!(disagreements > 0, "texture cannot be perfectly flat at T=1");
        let frac = small_steps as f64 / disagreements as f64;
        assert!(frac > 0.9, "fraction of unit steps {frac}");
    }

    #[test]
    fn rendering_spreads_levels() {
        let model = TextureModel::new(8, 8, TextureConfig::default());
        let labels = vec![Label::new(7); 64];
        assert!(model.to_image(&labels).pixels().iter().all(|&p| p == 255));
    }

    #[test]
    fn samples_are_seed_deterministic() {
        let model = TextureModel::new(16, 16, TextureConfig::default());
        let engine = Engine::with_default_config();
        let a = model.run(&engine, SoftmaxGibbs::new(), 60, 9).labels;
        let b = model.run(&engine, SoftmaxGibbs::new(), 60, 9).labels;
        assert_eq!(a, b);
    }
}
