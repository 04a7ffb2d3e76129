//! Image segmentation by MRF-MCMC (paper §8.1).
//!
//! Each pixel's label is one of `M` intensity classes (the paper uses 5);
//! the singleton energy pulls a pixel toward the class whose mean intensity
//! matches its observation and the smoothness prior pulls neighbours
//! together. Class means are evenly spaced by default (classes ordered by
//! brightness, so the squared-difference prior — the RSU-G's hardware
//! doubleton — is meaningful) or can be supplied explicitly.
//!
//! All arithmetic uses 6-bit data values and the hardware singleton form
//! `(data1 − data2)²`, so a run on the software sampler and a run on the
//! RSU-G model see *identical* energies.

use crate::image::GrayImage;
use mogs_engine::prelude::*;
use mogs_gibbs::sampler::LabelSampler;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};

/// Configuration of the segmentation model.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentationConfig {
    /// Number of intensity classes `M` (the paper uses 5).
    pub num_labels: u16,
    /// Explicit 6-bit class means; `None` spaces them evenly.
    pub class_means_6bit: Option<Vec<u8>>,
    /// Smoothness prior weight.
    pub smoothness_weight: f64,
    /// Singleton weight (the hardware's `2⁻⁴` pre-factor by default).
    pub singleton_weight: f64,
    /// Sampling temperature.
    pub temperature: f64,
    /// Deterministic chunk count per colour group (at least 2 are run):
    /// it fixes the result bit for bit, whatever the engine's worker count.
    pub threads: usize,
    /// Fraction of iterations treated as burn-in for the marginal MAP.
    pub burn_in_fraction: f64,
}

impl Default for SegmentationConfig {
    fn default() -> Self {
        SegmentationConfig {
            num_labels: 5,
            class_means_6bit: None,
            smoothness_weight: 2.0,
            singleton_weight: 1.0 / 16.0,
            temperature: 4.0,
            threads: 1,
            burn_in_fraction: 0.3,
        }
    }
}

/// Singleton potential: squared distance between a pixel's 6-bit intensity
/// and a class's 6-bit mean — the exact RSU-G singleton form.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMeanSingleton {
    pixels6: Vec<u8>,
    means6: Vec<u8>,
    weight: f64,
}

impl ClassMeanSingleton {
    /// The per-label `DATA2` values (class means) the RSU-G data path
    /// receives.
    pub fn means_6bit(&self) -> &[u8] {
        &self.means6
    }
}

impl SingletonPotential for ClassMeanSingleton {
    fn energy(&self, site: usize, label: Label) -> f64 {
        let p = f64::from(self.pixels6[site]);
        let m = f64::from(self.means6[usize::from(label.value())]);
        self.weight * (p - m) * (p - m)
    }
}

/// The image segmentation application.
#[derive(Debug, Clone)]
pub struct Segmentation {
    image: GrayImage,
    config: SegmentationConfig,
    mrf: MarkovRandomField<ClassMeanSingleton>,
}

impl Segmentation {
    /// Builds the segmentation model for an image.
    ///
    /// # Panics
    ///
    /// Panics if `num_labels` is outside `1..=64` or explicit class means
    /// have the wrong length.
    pub fn new(image: GrayImage, config: SegmentationConfig) -> Self {
        let space = LabelSpace::scalar(config.num_labels);
        let means6 = match &config.class_means_6bit {
            Some(m) => {
                assert_eq!(m.len(), space.count(), "one class mean per label");
                assert!(m.iter().all(|&v| v < 64), "class means are 6-bit");
                m.clone()
            }
            None => (0..config.num_labels)
                .map(|k| ((f64::from(k) + 0.5) * 64.0 / f64::from(config.num_labels)) as u8)
                .collect(),
        };
        let grid = Grid2D::new(image.width(), image.height());
        let singleton = ClassMeanSingleton {
            pixels6: image.to_6bit().pixels().to_vec(),
            means6,
            weight: config.singleton_weight,
        };
        let mrf = MarkovRandomField::builder(grid, space)
            .prior(SmoothnessPrior::squared_difference(
                config.smoothness_weight,
            ))
            .temperature(config.temperature)
            .singleton(singleton)
            .build();
        Segmentation { image, config, mrf }
    }

    /// The input image.
    pub fn image(&self) -> &GrayImage {
        &self.image
    }

    /// The underlying MRF (for custom chains or RSU data extraction).
    pub fn mrf(&self) -> &MarkovRandomField<ClassMeanSingleton> {
        &self.mrf
    }

    /// The 6-bit class means (the RSU-G `DATA2` stream).
    pub fn class_means_6bit(&self) -> &[u8] {
        self.mrf.singleton().means_6bit()
    }

    /// Packages this segmentation as an engine job (for
    /// [`mogs_engine::Engine::submit`]) starting from the all-zero
    /// labeling; set [`InferenceJob::initial`] for a warm start (the
    /// coarse-to-fine levels of [`crate::pyramid`] do). The job uses at
    /// least two deterministic chunks.
    pub fn engine_job<L>(
        &self,
        sampler: L,
        iterations: usize,
        seed: u64,
    ) -> InferenceJob<ClassMeanSingleton, L>
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
    /// [`Segmentation::engine_job`]).
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

    /// Renders a labeling as an image (each label painted with its class
    /// mean, back at 8-bit scale).
    pub fn labels_to_image(&self, labels: &[Label]) -> GrayImage {
        let means = self.class_means_6bit();
        GrayImage::from_pixels(
            self.image.width(),
            self.image.height(),
            labels
                .iter()
                .map(|l| means[usize::from(l.value())] << 2)
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
    fn default_class_means_are_even() {
        let app = Segmentation::new(GrayImage::filled(4, 4, 0), SegmentationConfig::default());
        assert_eq!(app.class_means_6bit(), &[6, 19, 32, 44, 57]);
    }

    #[test]
    fn segments_a_clean_two_region_scene() {
        let scene = synthetic::region_scene(20, 20, 2, 8.0, 11);
        let app = Segmentation::new(
            scene.image.clone(),
            SegmentationConfig {
                num_labels: 2,
                ..SegmentationConfig::default()
            },
        );
        let result = app.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 40, 1);
        let acc = label_accuracy(result.map_estimate.as_ref().unwrap(), &scene.truth);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn engine_path_matches_chain_path_bit_for_bit() {
        // Default config: one chunk asked for, two run.
        let scene = synthetic::region_scene(16, 16, 3, 8.0, 4);
        let app = Segmentation::new(scene.image.clone(), SegmentationConfig::default());
        let job = app.engine_job(SoftmaxGibbs::new(), 30, 9);
        assert_eq!(job.threads, 2);
        let reference = crate::reference_chain::reference_chain(&job);
        let result = app.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 30, 9);
        assert_eq!(
            result, reference,
            "engine segmentation must be bit-identical to the reference chain"
        );
    }

    #[test]
    fn five_label_scene_converges() {
        let scene = synthetic::region_scene(24, 24, 5, 6.0, 13);
        let app = Segmentation::new(scene.image.clone(), SegmentationConfig::default());
        let result = app.run(&Engine::with_default_config(), SoftmaxGibbs::new(), 60, 2);
        let acc = label_accuracy(result.map_estimate.as_ref().unwrap(), &scene.truth);
        assert!(acc > 0.8, "accuracy {acc}");
        assert!(result.energy_trace[59] < result.energy_trace[0]);
    }

    #[test]
    fn explicit_class_means_accepted() {
        let app = Segmentation::new(
            GrayImage::filled(4, 4, 100),
            SegmentationConfig {
                num_labels: 2,
                class_means_6bit: Some(vec![5, 50]),
                ..SegmentationConfig::default()
            },
        );
        assert_eq!(app.class_means_6bit(), &[5, 50]);
    }

    #[test]
    fn labels_to_image_paints_means() {
        let app = Segmentation::new(
            GrayImage::filled(2, 1, 0),
            SegmentationConfig {
                num_labels: 2,
                class_means_6bit: Some(vec![10, 40]),
                ..SegmentationConfig::default()
            },
        );
        let img = app.labels_to_image(&[Label::new(0), Label::new(1)]);
        assert_eq!(img.pixels(), &[40, 160]);
    }

    #[test]
    #[should_panic(expected = "one class mean per label")]
    fn wrong_mean_count_panics() {
        Segmentation::new(
            GrayImage::filled(2, 2, 0),
            SegmentationConfig {
                num_labels: 3,
                class_means_6bit: Some(vec![1, 2]),
                ..SegmentationConfig::default()
            },
        );
    }
}
