//! The two prototype experiments of §7.

use crate::rig::{PrototypeRig, RigSampler};
use mogs_engine::Engine;
use mogs_vision::image::GrayImage;
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::synthetic;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One point of the ratio-parameterization sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioPoint {
    /// Target relative probability.
    pub target: f64,
    /// Measured win ratio over the trials.
    pub measured: f64,
    /// Relative error `|measured − target| / target`.
    pub relative_error: f64,
}

/// Sweeps target ratios from 1 to 255 and measures the achieved pairwise
/// relative probabilities (§7, first experiment).
///
/// `trials` first-to-fire draws are taken per point; 50k reproduces the
/// paper's error bands comfortably.
pub fn ratio_sweep(
    rig: &mut PrototypeRig,
    targets: &[f64],
    trials: usize,
    seed: u64,
) -> Vec<RatioPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    targets
        .iter()
        .map(|&target| {
            rig.set_ratio(target);
            let measured = rig.measured_ratio(trials, &mut rng);
            RatioPoint {
                target,
                measured,
                relative_error: (measured - target).abs() / target,
            }
        })
        .collect()
}

/// The standard sweep targets (powers-of-two-ish ladder over 1..=255).
pub fn standard_targets() -> Vec<f64> {
    vec![
        1.0, 2.0, 4.0, 8.0, 15.0, 30.0, 60.0, 100.0, 150.0, 200.0, 255.0,
    ]
}

/// Result of the Figure 7 segmentation demonstration.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// The 50×67 input image.
    pub input: GrayImage,
    /// The MCMC sample after 10 iterations, rendered as an image.
    pub sample: GrayImage,
    /// Fraction of pixels matching the generating ground truth.
    pub accuracy: f64,
}

/// Runs the Figure 7 demonstration: a two-label MRF over a 50×67 synthetic
/// scene, energies computed "on the PC", the prototype RSU-G2 sampling the
/// output label distribution, sampled for 10 MCMC iterations on an
/// engine.
///
/// # Panics
///
/// Panics if the engine fails the job.
pub fn segment_demo(rig: PrototypeRig, seed: u64) -> Fig7Result {
    // Figure 7's input is 50 wide × 67 tall.
    let scene = synthetic::region_scene(50, 67, 2, 20.0, seed);
    let app = Segmentation::new(
        scene.image.clone(),
        SegmentationConfig {
            num_labels: 2,
            // Mode tracking needs post-burn-in samples within 10 iterations.
            burn_in_fraction: 0.0,
            ..SegmentationConfig::default()
        },
    );
    let engine = Engine::with_default_config();
    let result = app.run(&engine, RigSampler::new(rig), 10, seed);
    let accuracy = mogs_vision::metrics::label_accuracy(&result.labels, &scene.truth);
    Fig7Result {
        input: scene.image,
        sample: app.labels_to_image(&result.labels),
        accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::RigConfig;

    #[test]
    fn sweep_reproduces_paper_error_bands() {
        // Paper §7: within 10% for ratios below 30, ~24% above.
        let mut rig = PrototypeRig::new(RigConfig::default());
        let points = ratio_sweep(&mut rig, &standard_targets(), 60_000, 42);
        for p in &points {
            if p.target <= 30.0 {
                assert!(
                    p.relative_error < 0.10,
                    "ratio {}: error {:.3}",
                    p.target,
                    p.relative_error
                );
            } else {
                assert!(
                    p.relative_error < 0.40,
                    "ratio {}: error {:.3} beyond even the degraded band",
                    p.target,
                    p.relative_error
                );
            }
        }
        // At least one high-ratio point should show the degradation the
        // paper reports.
        let worst_high = points
            .iter()
            .filter(|p| p.target > 30.0)
            .map(|p| p.relative_error)
            .fold(0.0, f64::max);
        assert!(
            worst_high > 0.10,
            "high ratios should degrade, worst {worst_high:.3}"
        );
    }

    #[test]
    fn figure7_recovers_regions_in_ten_iterations() {
        let result = segment_demo(PrototypeRig::default(), 7);
        assert_eq!(result.input.width(), 50);
        assert_eq!(result.input.height(), 67);
        assert!(result.accuracy > 0.85, "accuracy {}", result.accuracy);
    }

    #[test]
    fn sweep_is_deterministic_for_a_seed() {
        let mut rig1 = PrototypeRig::default();
        let mut rig2 = PrototypeRig::default();
        let a = ratio_sweep(&mut rig1, &[4.0, 16.0], 5_000, 9);
        let b = ratio_sweep(&mut rig2, &[4.0, 16.0], 5_000, 9);
        assert_eq!(a, b);
    }
}
