//! A3: inference-quality comparison — exact software Gibbs vs the RSU-G
//! hardware model vs Metropolis, on ground-truth synthetic scenes.
//!
//! This is the experiment the paper could not run numerically (it verified
//! against MATLAB and by eye): does the RSU-G's quantization chain cost
//! solution quality? Each sampler runs the same application on the same
//! scene and reports accuracy and final energy.

use crate::report::render_table;
use mogs_core::rsu_g::RsuGSampler;
use mogs_gibbs::{LabelSampler, Metropolis, SoftmaxGibbs};
use mogs_mrf::precision::EnergyQuantizer;
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

/// Runs the full comparison grid on small scenes.
pub fn run(iterations: usize, seed: u64) -> Vec<QualityCell> {
    let mut cells = Vec::new();

    // Segmentation: 5 regions, moderate noise.
    let seg_scene = synthetic::region_scene(28, 28, 5, 6.0, seed);
    let seg_config = SegmentationConfig::default();
    let seg_t = seg_config.temperature;
    let seg = Segmentation::new(seg_scene.image.clone(), seg_config);
    let mut run_seg = |name: &'static str, sampler: Box<dyn SamplerRun>| {
        let result = sampler.run_seg(&seg, iterations, seed);
        cells.push(QualityCell {
            app: "segmentation",
            sampler: name,
            quality: label_accuracy(result.0.as_ref(), &seg_scene.truth),
            final_energy: result.1,
        });
    };
    run_seg("softmax-gibbs", Box::new(SoftmaxGibbs::new()));
    run_seg("rsu-g", Box::new(rsu_sampler(seg_t)));
    run_seg("metropolis", Box::new(Metropolis::new()));

    // Motion: constant translation under noise.
    let motion_scene = synthetic::translated_pair(24, 24, 2, -1, 2.0, seed ^ 1);
    let motion_config = MotionConfig::default();
    let motion_t = motion_config.temperature;
    let motion = MotionEstimation::new(&motion_scene.frame1, &motion_scene.frame2, motion_config);
    let mut run_motion = |name: &'static str, sampler: Box<dyn SamplerRun>| {
        let (labels, energy) = sampler.run_motion(&motion, iterations, seed);
        let flow = motion.flow_field(&labels);
        cells.push(QualityCell {
            app: "motion",
            sampler: name,
            quality: -mean_endpoint_error(&flow, motion_scene.flow),
            final_energy: energy,
        });
    };
    run_motion("softmax-gibbs", Box::new(SoftmaxGibbs::new()));
    run_motion("rsu-g", Box::new(rsu_sampler(motion_t)));
    run_motion("metropolis", Box::new(Metropolis::new()));

    // Stereo: foreground plane at disparity 3.
    let stereo_scene = synthetic::stereo_pair(28, 28, 3, 2.0, seed ^ 2);
    let stereo_config = StereoConfig::default();
    let stereo_t = stereo_config.temperature;
    let stereo = StereoMatching::new(&stereo_scene.left, &stereo_scene.right, stereo_config);
    let mut run_stereo = |name: &'static str, sampler: Box<dyn SamplerRun>| {
        let (labels, energy) = sampler.run_stereo(&stereo, iterations, seed);
        cells.push(QualityCell {
            app: "stereo",
            sampler: name,
            quality: label_accuracy(&labels, &stereo_scene.truth),
            final_energy: energy,
        });
    };
    run_stereo("softmax-gibbs", Box::new(SoftmaxGibbs::new()));
    run_stereo("rsu-g", Box::new(rsu_sampler(stereo_t)));
    run_stereo("metropolis", Box::new(Metropolis::new()));

    cells
}

/// Object-safe adapter so the three sampler types can share the run grid.
trait SamplerRun {
    fn run_seg(
        &self,
        app: &Segmentation,
        iterations: usize,
        seed: u64,
    ) -> (Vec<mogs_mrf::Label>, f64);
    fn run_motion(
        &self,
        app: &MotionEstimation,
        iterations: usize,
        seed: u64,
    ) -> (Vec<mogs_mrf::Label>, f64);
    fn run_stereo(
        &self,
        app: &StereoMatching,
        iterations: usize,
        seed: u64,
    ) -> (Vec<mogs_mrf::Label>, f64);
}

impl<L: LabelSampler + Clone + Send + Sync> SamplerRun for L {
    fn run_seg(
        &self,
        app: &Segmentation,
        iterations: usize,
        seed: u64,
    ) -> (Vec<mogs_mrf::Label>, f64) {
        let r = app.run(self.clone(), iterations, seed);
        #[expect(
            clippy::unwrap_used,
            reason = "the quality grid always runs with energy recording on, \
                      so the trace holds at least one entry"
        )]
        let energy = *r.energy_trace.last().unwrap();
        (r.map_estimate.unwrap_or(r.labels), energy)
    }
    fn run_motion(
        &self,
        app: &MotionEstimation,
        iterations: usize,
        seed: u64,
    ) -> (Vec<mogs_mrf::Label>, f64) {
        let r = app.run(self.clone(), iterations, seed);
        #[expect(
            clippy::unwrap_used,
            reason = "the quality grid always runs with energy recording on, \
                      so the trace holds at least one entry"
        )]
        let energy = *r.energy_trace.last().unwrap();
        (r.map_estimate.unwrap_or(r.labels), energy)
    }
    fn run_stereo(
        &self,
        app: &StereoMatching,
        iterations: usize,
        seed: u64,
    ) -> (Vec<mogs_mrf::Label>, f64) {
        let r = app.run(self.clone(), iterations, seed);
        #[expect(
            clippy::unwrap_used,
            reason = "the quality grid always runs with energy recording on, \
                      so the trace holds at least one entry"
        )]
        let energy = *r.energy_trace.last().unwrap();
        (r.map_estimate.unwrap_or(r.labels), energy)
    }
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
