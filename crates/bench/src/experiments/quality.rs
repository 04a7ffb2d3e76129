//! A3: inference-quality comparison — exact software Gibbs vs the RSU-G
//! hardware model vs Metropolis, on ground-truth synthetic scenes.
//!
//! This is the experiment the paper could not run numerically (it verified
//! against MATLAB and by eye): does the RSU-G's quantization chain cost
//! solution quality? Each sampler runs the same application on the same
//! scene and reports accuracy and final energy.

use crate::report::render_table;
use mogs_core::rsu_g::RsuGSampler;
use mogs_engine::{Engine, JobOutput};
use mogs_gibbs::{Metropolis, SoftmaxGibbs};
use mogs_mrf::precision::EnergyQuantizer;
use mogs_mrf::Label;
use mogs_vision::metrics::{label_accuracy, mean_endpoint_error};
use mogs_vision::motion::{MotionConfig, MotionEstimation};
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::stereo::{StereoConfig, StereoMatching};
use mogs_vision::synthetic;

/// Result of one (application, sampler) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityCell {
    /// Application name.
    pub app: &'static str,
    /// Sampler name.
    pub sampler: &'static str,
    /// Primary quality metric (accuracy, or negative endpoint error for
    /// motion so that "higher is better" holds uniformly).
    pub quality: f64,
    /// Final total energy of the chain.
    pub final_energy: f64,
}

fn rsu_sampler(temperature: f64) -> RsuGSampler {
    // Scale 8 pre-factors model energies into the 8-bit hardware domain
    // (the paper's pre-factored weights), so the 4-bit LUT sees fine
    // granularity.
    RsuGSampler::new(EnergyQuantizer::new(8.0), temperature)
}

/// The reported labeling (marginal MAP; mode tracking is always on for
/// the vision apps) and the chain's final energy.
///
/// # Panics
///
/// Panics if the chain ran no sweep (the energy trace is then empty).
fn map_and_energy(r: JobOutput) -> (Vec<Label>, f64) {
    let energy = *r
        .energy_trace
        .last()
        .expect("every sweep records its energy");
    (r.map_estimate.unwrap_or(r.labels), energy)
}

/// Runs the full comparison grid on small scenes, every chain on one
/// engine.
pub fn run(iterations: usize, seed: u64) -> Vec<QualityCell> {
    let engine = Engine::with_default_config();
    let mut cells = Vec::new();
    let mut push = |app: &'static str, sampler: &'static str, quality: f64, final_energy: f64| {
        cells.push(QualityCell {
            app,
            sampler,
            quality,
            final_energy,
        });
    };

    // Segmentation: 5 regions, moderate noise.
    let scene = synthetic::region_scene(28, 28, 5, 6.0, seed);
    let config = SegmentationConfig::default();
    let t = config.temperature;
    let seg = Segmentation::new(scene.image.clone(), config);
    for (name, result) in [
        (
            "softmax-gibbs",
            seg.run(&engine, SoftmaxGibbs::new(), iterations, seed),
        ),
        ("rsu-g", seg.run(&engine, rsu_sampler(t), iterations, seed)),
        (
            "metropolis",
            seg.run(&engine, Metropolis::new(), iterations, seed),
        ),
    ] {
        let (labels, energy) = map_and_energy(result);
        push(
            "segmentation",
            name,
            label_accuracy(&labels, &scene.truth),
            energy,
        );
    }

    // Motion: constant translation under noise.
    let scene = synthetic::translated_pair(24, 24, 2, -1, 2.0, seed ^ 1);
    let config = MotionConfig::default();
    let t = config.temperature;
    let motion = MotionEstimation::new(&scene.frame1, &scene.frame2, config);
    for (name, result) in [
        (
            "softmax-gibbs",
            motion.run(&engine, SoftmaxGibbs::new(), iterations, seed),
        ),
        (
            "rsu-g",
            motion.run(&engine, rsu_sampler(t), iterations, seed),
        ),
        (
            "metropolis",
            motion.run(&engine, Metropolis::new(), iterations, seed),
        ),
    ] {
        let (labels, energy) = map_and_energy(result);
        let flow = motion.flow_field(&labels);
        push(
            "motion",
            name,
            -mean_endpoint_error(&flow, scene.flow),
            energy,
        );
    }

    // Stereo: foreground plane at disparity 3.
    let scene = synthetic::stereo_pair(28, 28, 3, 2.0, seed ^ 2);
    let config = StereoConfig::default();
    let t = config.temperature;
    let stereo = StereoMatching::new(&scene.left, &scene.right, config);
    for (name, result) in [
        (
            "softmax-gibbs",
            stereo.run(&engine, SoftmaxGibbs::new(), iterations, seed),
        ),
        (
            "rsu-g",
            stereo.run(&engine, rsu_sampler(t), iterations, seed),
        ),
        (
            "metropolis",
            stereo.run(&engine, Metropolis::new(), iterations, seed),
        ),
    ] {
        let (labels, energy) = map_and_energy(result);
        push(
            "stereo",
            name,
            label_accuracy(&labels, &scene.truth),
            energy,
        );
    }

    cells
}

/// Renders the comparison grid.
pub fn render(cells: &[QualityCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let quality = if c.app == "motion" {
                format!("EPE {:.3}", -c.quality)
            } else {
                format!("{:.1}%", c.quality * 100.0)
            };
            vec![
                c.app.to_owned(),
                c.sampler.to_owned(),
                quality,
                format!("{:.0}", c.final_energy),
            ]
        })
        .collect();
    let mut s = String::from(
        "A3: solution quality by sampler (RSU-G runs the full hardware \
         quantization chain)\n\n",
    );
    s.push_str(&render_table(
        &["application", "sampler", "quality", "final energy"],
        &rows,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsu_quality_tracks_software_gibbs() {
        let cells = run(40, 5);
        for app in ["segmentation", "stereo"] {
            let get = |sampler: &str| {
                cells
                    .iter()
                    .find(|c| c.app == app && c.sampler == sampler)
                    .unwrap()
                    .quality
            };
            let gibbs = get("softmax-gibbs");
            let rsu = get("rsu-g");
            assert!(
                rsu > gibbs - 0.10,
                "{app}: RSU accuracy {rsu:.3} vs Gibbs {gibbs:.3}"
            );
        }
        // Motion: endpoint errors within half a pixel of each other.
        let epe = |sampler: &str| {
            -cells
                .iter()
                .find(|c| c.app == "motion" && c.sampler == sampler)
                .unwrap()
                .quality
        };
        assert!(
            epe("rsu-g") < epe("softmax-gibbs") + 0.5,
            "rsu {} gibbs {}",
            epe("rsu-g"),
            epe("softmax-gibbs")
        );
    }

    #[test]
    fn grid_has_nine_cells() {
        let cells = run(10, 1);
        assert_eq!(cells.len(), 9);
        assert!(render(&cells).contains("metropolis"));
    }
}
