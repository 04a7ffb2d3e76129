//! Coarse-to-fine (pyramid) MCMC for segmentation.
//!
//! The paper runs 5000 flat iterations for HD segmentation; classic
//! multigrid practice solves a downsampled version of the problem first
//! and warm-starts the finer level from the upsampled coarse labeling, so
//! the expensive fine level only has to refine boundaries. This module
//! implements the standard 2× mean-pyramid schedule over the segmentation
//! application and lets the experiment harness quantify the iteration
//! savings — an algorithmic lever orthogonal to the RSU-G hardware one,
//! and multiplicative with it.

use crate::image::GrayImage;
use crate::segmentation::{Segmentation, SegmentationConfig};
use mogs_engine::{Engine, JobOutput};
use mogs_gibbs::SweepKernel;
use mogs_mrf::Label;

/// Downsamples an image by 2× with 2×2 block means (odd trailing
/// rows/columns fold into the last block).
pub fn downsample(image: &GrayImage) -> GrayImage {
    let w2 = image.width().div_ceil(2);
    let h2 = image.height().div_ceil(2);
    GrayImage::from_fn(w2, h2, |x, y| {
        let mut total = 0u32;
        let mut count = 0u32;
        for dy in 0..2 {
            for dx in 0..2 {
                let sx = 2 * x + dx;
                let sy = 2 * y + dy;
                if sx < image.width() && sy < image.height() {
                    total += u32::from(image.get(sx, sy));
                    count += 1;
                }
            }
        }
        (total / count) as u8
    })
}

/// Upsamples a coarse labeling to a finer grid by nearest-neighbour
/// replication.
///
/// # Panics
///
/// Panics if the coarse labeling does not match the coarse dimensions, or
/// the fine grid is not the 2×-up size of the coarse one (within the odd
/// remainder).
pub fn upsample_labels(
    coarse: &[Label],
    coarse_w: usize,
    coarse_h: usize,
    fine_w: usize,
    fine_h: usize,
) -> Vec<Label> {
    assert_eq!(
        coarse.len(),
        coarse_w * coarse_h,
        "coarse labeling must match its grid"
    );
    assert!(
        fine_w.div_ceil(2) == coarse_w && fine_h.div_ceil(2) == coarse_h,
        "fine grid must be the 2x-up size of the coarse grid"
    );
    let mut fine = Vec::with_capacity(fine_w * fine_h);
    for y in 0..fine_h {
        for x in 0..fine_w {
            fine.push(coarse[(y / 2) * coarse_w + x / 2]);
        }
    }
    fine
}

/// Per-level iteration counts, coarsest level first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyramidSchedule {
    /// Iterations per level, coarsest first; the last entry runs at full
    /// resolution. Length = number of levels.
    pub iterations: Vec<usize>,
}

impl PyramidSchedule {
    /// A schedule with `levels` levels running `per_level` iterations each.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`.
    pub fn uniform(levels: usize, per_level: usize) -> Self {
        assert!(levels > 0, "need at least one level");
        PyramidSchedule {
            iterations: vec![per_level; levels],
        }
    }
}

/// Runs coarse-to-fine segmentation on `engine`: solve the coarsest level
/// from scratch, then warm-start each finer level's job from the upsampled
/// result. Returns the full-resolution result.
///
/// # Panics
///
/// Panics if the schedule has no levels, or the engine refuses or fails a
/// level's job.
pub fn segment_coarse_to_fine<L>(
    engine: &Engine,
    image: &GrayImage,
    config: &SegmentationConfig,
    sampler: L,
    schedule: &PyramidSchedule,
    seed: u64,
) -> JobOutput
where
    L: SweepKernel + Clone + Send + Sync + 'static,
{
    let levels = schedule.iterations.len();
    // Build the image pyramid, finest first.
    let mut pyramid = vec![image.clone()];
    for _ in 1..levels {
        let next = downsample(pyramid.last().expect("non-empty pyramid"));
        pyramid.push(next);
    }
    // Solve coarsest → finest.
    let mut carried: Option<(Vec<Label>, usize, usize)> = None;
    let mut result = None;
    for (level_from_coarse, &iterations) in schedule.iterations.iter().enumerate() {
        let level_image = &pyramid[levels - 1 - level_from_coarse];
        let app = Segmentation::new(level_image.clone(), config.clone());
        let mut job = app.engine_job(sampler.clone(), iterations, seed + level_from_coarse as u64);
        job.initial = carried.take().map(|(labels, cw, ch)| {
            upsample_labels(&labels, cw, ch, level_image.width(), level_image.height())
        });
        let level_result = crate::run_job(engine, job);
        let labels = level_result
            .map_estimate
            .clone()
            .unwrap_or_else(|| level_result.labels.clone());
        carried = Some((labels, level_image.width(), level_image.height()));
        result = Some(level_result);
    }
    result.expect("schedule has at least one level")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::label_accuracy;
    use crate::synthetic;
    use mogs_gibbs::SoftmaxGibbs;

    #[test]
    fn downsample_halves_dimensions() {
        let img = GrayImage::from_fn(9, 7, |x, y| (x * 10 + y) as u8);
        let d = downsample(&img);
        assert_eq!((d.width(), d.height()), (5, 4));
        // A 2x2 block of a linear ramp averages to its centre value.
        let full = GrayImage::from_fn(4, 4, |x, _| (x * 20) as u8);
        let half = downsample(&full);
        assert_eq!(half.get(0, 0), 10);
    }

    #[test]
    fn upsample_replicates_blocks() {
        let coarse = vec![Label::new(0), Label::new(1), Label::new(2), Label::new(3)];
        let fine = upsample_labels(&coarse, 2, 2, 4, 4);
        assert_eq!(fine[0], Label::new(0));
        assert_eq!(fine[3], Label::new(1));
        assert_eq!(fine[15], Label::new(3));
    }

    #[test]
    fn upsample_handles_odd_sizes() {
        let coarse = vec![Label::new(1); 6]; // 3x2 coarse for a 5x3 fine
        let fine = upsample_labels(&coarse, 3, 2, 5, 3);
        assert_eq!(fine.len(), 15);
        assert!(fine.iter().all(|&l| l == Label::new(1)));
    }

    #[test]
    fn coarse_to_fine_beats_flat_on_equal_fine_budget() {
        // Give both runs the same number of FULL-RESOLUTION iterations;
        // the pyramid additionally runs cheap coarse levels. It should win
        // (or at worst tie) on accuracy.
        let scene = synthetic::region_scene(48, 48, 5, 7.0, 60);
        let config = SegmentationConfig::default();
        let fine_iters = 8;

        let engine = Engine::with_default_config();
        let flat_app = Segmentation::new(scene.image.clone(), config.clone());
        let flat = flat_app.run(&engine, SoftmaxGibbs::new(), fine_iters, 1);
        let flat_acc = label_accuracy(
            flat.map_estimate.as_ref().unwrap_or(&flat.labels),
            &scene.truth,
        );

        let schedule = PyramidSchedule {
            iterations: vec![20, 12, fine_iters], // quarter, half, full
        };
        let pyramid = segment_coarse_to_fine(
            &engine,
            &scene.image,
            &config,
            SoftmaxGibbs::new(),
            &schedule,
            1,
        );
        let pyr_acc = label_accuracy(
            pyramid.map_estimate.as_ref().unwrap_or(&pyramid.labels),
            &scene.truth,
        );
        assert!(
            pyr_acc >= flat_acc - 0.02,
            "pyramid {pyr_acc:.3} vs flat {flat_acc:.3}"
        );
        assert!(pyr_acc > 0.85, "pyramid accuracy {pyr_acc:.3}");
    }

    #[test]
    fn single_level_schedule_equals_flat_run() {
        let scene = synthetic::region_scene(24, 24, 2, 8.0, 61);
        let config = SegmentationConfig {
            num_labels: 2,
            ..SegmentationConfig::default()
        };
        let schedule = PyramidSchedule::uniform(1, 15);
        let engine = Engine::with_default_config();
        let pyramid = segment_coarse_to_fine(
            &engine,
            &scene.image,
            &config,
            SoftmaxGibbs::new(),
            &schedule,
            2,
        );
        let app = Segmentation::new(scene.image.clone(), config);
        let flat = app.run(&engine, SoftmaxGibbs::new(), 15, 2);
        assert_eq!(
            pyramid.labels, flat.labels,
            "one level must be the flat chain"
        );
    }

    #[test]
    #[should_panic(expected = "2x-up size")]
    fn mismatched_upsample_rejected() {
        let coarse = vec![Label::new(0); 4];
        upsample_labels(&coarse, 2, 2, 10, 10);
    }
}
