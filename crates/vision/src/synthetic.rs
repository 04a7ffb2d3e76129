//! Deterministic synthetic scenes with ground truth.
//!
//! The paper evaluates on real photographs; those are not distributable, so
//! every experiment here runs on synthetic content with the same
//! *structure* (piecewise-constant regions for segmentation, translated
//! texture for motion, disparity-shifted pairs for stereo) plus the ground
//! truth the paper never had — letting quality be measured numerically
//! rather than by eye. All generators are seeded and deterministic.

use crate::image::GrayImage;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scene with per-pixel ground-truth labels.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledScene {
    /// The observed (noisy) image.
    pub image: GrayImage,
    /// Ground-truth label per pixel.
    pub truth: Vec<Label>,
}

/// A two-frame motion scene.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionScene {
    /// Frame at time `t`.
    pub frame1: GrayImage,
    /// Frame at time `t+1`.
    pub frame2: GrayImage,
    /// Ground-truth displacement `(dx, dy)` applied between the frames.
    pub flow: (i32, i32),
}

/// A rectified stereo scene.
#[derive(Debug, Clone, PartialEq)]
pub struct StereoScene {
    /// Left image.
    pub left: GrayImage,
    /// Right image.
    pub right: GrayImage,
    /// Ground-truth disparity per pixel (label value = disparity).
    pub truth: Vec<Label>,
}

/// A piecewise-constant region scene for segmentation: `regions` Voronoi
/// cells with well-separated mean intensities, plus Gaussian noise of the
/// given standard deviation.
///
/// Region `k`'s mean intensity is `(k + 0.5) · 256 / regions`, matching the
/// evenly spaced class means [`crate::segmentation::SegmentationConfig`]
/// assumes by default.
///
/// # Panics
///
/// Panics if `regions` is zero or exceeds 64.
pub fn region_scene(
    width: usize,
    height: usize,
    regions: usize,
    noise_sigma: f64,
    seed: u64,
) -> LabeledScene {
    assert!(
        regions > 0 && regions <= 64,
        "region count must be in 1..=64"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Voronoi seed points, at least one per region.
    let sites: Vec<(f64, f64, usize)> = (0..regions.max(2) * 2)
        .map(|i| {
            (
                rng.gen::<f64>() * width as f64,
                rng.gen::<f64>() * height as f64,
                i % regions,
            )
        })
        .collect();
    let mut truth = Vec::with_capacity(width * height);
    let image = GrayImage::from_fn(width, height, |x, y| {
        let region = sites
            .iter()
            .min_by(|a, b| {
                let da = (a.0 - x as f64).powi(2) + (a.1 - y as f64).powi(2);
                let db = (b.0 - x as f64).powi(2) + (b.1 - y as f64).powi(2);
                da.total_cmp(&db)
            })
            .map(|s| s.2)
            .unwrap_or(0);
        truth.push(Label::new(region as u8));
        let mean = (region as f64 + 0.5) * 256.0 / regions as f64;
        let noisy = mean + gaussian(&mut rng) * noise_sigma;
        noisy.clamp(0.0, 255.0) as u8
    });
    LabeledScene { image, truth }
}

/// A random smooth texture (value noise blurred with a box filter), the
/// substrate for motion and stereo scenes: enough local contrast for
/// matching to be well-posed.
pub fn texture(width: usize, height: usize, seed: u64) -> GrayImage {
    let mut rng = StdRng::seed_from_u64(seed);
    let noise: Vec<i32> = (0..width * height).map(|_| rng.gen_range(0..256)).collect();
    // Two passes of a 3×3 box blur leave visible structure at the matching
    // window scale.
    let blur = |src: &[i32]| -> Vec<i32> {
        let mut out = vec![0i32; width * height];
        for y in 0..height {
            for x in 0..width {
                let mut total = 0;
                let mut count = 0;
                for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        let nx = x as i32 + dx;
                        let ny = y as i32 + dy;
                        if nx >= 0 && ny >= 0 && (nx as usize) < width && (ny as usize) < height {
                            total += src[ny as usize * width + nx as usize];
                            count += 1;
                        }
                    }
                }
                out[y * width + x] = total / count;
            }
        }
        out
    };
    let smooth = blur(&blur(&noise));
    GrayImage::from_pixels(width, height, smooth.into_iter().map(|v| v as u8).collect())
}

/// A motion scene: a texture translated by `(dx, dy)` pixels between two
/// frames (border pixels replicate), with optional per-frame sensor noise.
///
/// # Panics
///
/// Panics if `|dx|` or `|dy|` exceeds 3 (the 7×7 search window's reach).
pub fn translated_pair(
    width: usize,
    height: usize,
    dx: i32,
    dy: i32,
    noise_sigma: f64,
    seed: u64,
) -> MotionScene {
    assert!(
        dx.abs() <= 3 && dy.abs() <= 3,
        "displacement must fit the 7x7 window"
    );
    let base = texture(width, height, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let noisy = |v: u8, rng: &mut StdRng| {
        (f64::from(v) + gaussian(rng) * noise_sigma).clamp(0.0, 255.0) as u8
    };
    let frame1 = GrayImage::from_fn(width, height, |x, y| noisy(base.get(x, y), &mut rng));
    let frame2 = GrayImage::from_fn(width, height, |x, y| {
        let v = base.get_clamped(x as isize - dx as isize, y as isize - dy as isize);
        noisy(v, &mut rng)
    });
    MotionScene {
        frame1,
        frame2,
        flow: (dx, dy),
    }
}

/// A motion scene with a *non-constant* flow field: a textured object
/// moves over a static textured background.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionFieldScene {
    /// Frame at time `t`.
    pub frame1: GrayImage,
    /// Frame at time `t+1`.
    pub frame2: GrayImage,
    /// Ground-truth displacement per frame-1 pixel.
    pub flow_field: Vec<(i32, i32)>,
}

/// A moving-object scene: a bright textured rectangle (covering the centre
/// of frame 1) translates by `(dx, dy)` while the background stays still.
/// Ground truth is per-pixel: object pixels carry `(dx, dy)`, background
/// pixels `(0, 0)`. Pixels the object vacates are dis-occluded background
/// (their truth is `(0, 0)`; matching there is genuinely ambiguous, as in
/// real footage).
///
/// # Panics
///
/// Panics if `|dx|` or `|dy|` exceeds 3 (the 7×7 window's reach).
pub fn moving_object_pair(
    width: usize,
    height: usize,
    dx: i32,
    dy: i32,
    noise_sigma: f64,
    seed: u64,
) -> MotionFieldScene {
    assert!(
        dx.abs() <= 3 && dy.abs() <= 3,
        "displacement must fit the 7x7 window"
    );
    let background = texture(width, height, seed);
    // Object texture: brighter and differently seeded so it is trackable.
    let object = texture(width, height, seed ^ 0xCAFE);
    let in_object = |x: isize, y: isize| {
        x >= (width / 4) as isize
            && x < (3 * width / 4) as isize
            && y >= (height / 4) as isize
            && y < (3 * height / 4) as isize
    };
    let object_pixel = |x: isize, y: isize| object.get_clamped(x, y) / 2 + 128;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
    let noisy = |v: u8, rng: &mut StdRng| {
        (f64::from(v) + gaussian(rng) * noise_sigma).clamp(0.0, 255.0) as u8
    };
    let mut flow_field = Vec::with_capacity(width * height);
    let frame1 = GrayImage::from_fn(width, height, |x, y| {
        let (xi, yi) = (x as isize, y as isize);
        if in_object(xi, yi) {
            flow_field.push((dx, dy));
            noisy(object_pixel(xi, yi), &mut rng)
        } else {
            flow_field.push((0, 0));
            noisy(background.get(x, y), &mut rng)
        }
    });
    let frame2 = GrayImage::from_fn(width, height, |x, y| {
        let (xi, yi) = (x as isize, y as isize);
        // The object occupies its shifted footprint in frame 2.
        let (ox, oy) = (xi - dx as isize, yi - dy as isize);
        if in_object(ox, oy) {
            noisy(object_pixel(ox, oy), &mut rng)
        } else {
            noisy(background.get(x, y), &mut rng)
        }
    });
    MotionFieldScene {
        frame1,
        frame2,
        flow_field,
    }
}

/// A stereo scene: a fronto-parallel foreground rectangle at
/// `foreground_disparity` over a zero-disparity background.
///
/// Uses the standard rectified convention `x_left − x_right = d`, so the
/// right image satisfies `R(x, y) = L(x + d, y)` where `d` is the disparity
/// of the scene point — and a left pixel `(x, y)` with disparity `d`
/// matches `R(x − d, y)`, which is exactly what the stereo singleton
/// evaluates. Ground truth is reported per *left* pixel.
///
/// # Panics
///
/// Panics if `foreground_disparity` is not in `1..=4` (the 5-label space).
pub fn stereo_pair(
    width: usize,
    height: usize,
    foreground_disparity: u8,
    noise_sigma: f64,
    seed: u64,
) -> StereoScene {
    assert!(
        (1..=4).contains(&foreground_disparity),
        "disparity must be in 1..=4 for a 5-label space"
    );
    let left = texture(width, height, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    // Foreground membership is defined in LEFT-image coordinates.
    let in_foreground = |x: isize, y: isize| {
        x >= (width / 4) as isize
            && x < (3 * width / 4) as isize
            && y >= (height / 4) as isize
            && y < (3 * height / 4) as isize
    };
    let mut truth = Vec::with_capacity(width * height);
    for y in 0..height {
        for x in 0..width {
            let d = if in_foreground(x as isize, y as isize) {
                foreground_disparity
            } else {
                0
            };
            truth.push(Label::new(d));
        }
    }
    let right = GrayImage::from_fn(width, height, |x, y| {
        // The scene point seen at right-image x is the left pixel x + d;
        // check membership at that left coordinate (foreground occludes).
        let d_fg = foreground_disparity as isize;
        let d = if in_foreground(x as isize + d_fg, y as isize) {
            d_fg
        } else {
            0
        };
        let v = left.get_clamped(x as isize + d, y as isize);
        (f64::from(v) + gaussian(&mut rng) * noise_sigma).clamp(0.0, 255.0) as u8
    });
    StereoScene { left, right, truth }
}

/// Energy bound handed to the RSU backend's intensity coding when it
/// samples the [`demo_field`].
pub const DEMO_MAX_ENERGY: f64 = 8.0;

/// The demo field at any size: a Potts prior over a synthetic singleton
/// term, a fixed pseudo-random preference per `(site, label)` identical
/// in every process that builds it. The `mogs-ckpt` crash harness runs
/// it at its `DEMO_*` size; the `Demo` job workload at the size it names.
pub fn demo_field(
    width: usize,
    height: usize,
    labels: u16,
) -> MarkovRandomField<impl SingletonPotential> {
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(labels))
        .prior(SmoothnessPrior::potts(0.6))
        .singleton(|site: usize, label: Label| {
            let mix = site
                .wrapping_mul(7)
                .wrapping_add(usize::from(label.value()).wrapping_mul(13));
            (mix % 11) as f64 * 0.17
        })
        .build()
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_scene_is_deterministic() {
        let a = region_scene(16, 16, 3, 10.0, 5);
        let b = region_scene(16, 16, 3, 10.0, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn region_scene_labels_cover_regions() {
        let s = region_scene(32, 32, 4, 0.0, 1);
        let mut seen = [false; 4];
        for l in &s.truth {
            seen[usize::from(l.value())] = true;
        }
        assert!(seen.iter().all(|&s| s), "every region should appear");
    }

    #[test]
    fn noiseless_region_scene_matches_means() {
        let s = region_scene(16, 16, 2, 0.0, 2);
        for (i, l) in s.truth.iter().enumerate() {
            let expect = (f64::from(l.value()) + 0.5) * 128.0;
            let got = f64::from(s.image.pixels()[i]);
            assert!((got - expect).abs() <= 1.0);
        }
    }

    #[test]
    fn translated_pair_shifts_content() {
        let s = translated_pair(32, 32, 2, 1, 0.0, 3);
        // Interior pixels of frame2 equal frame1 shifted by (2, 1).
        for y in 5..27 {
            for x in 5..27 {
                assert_eq!(
                    s.frame2.get(x, y),
                    s.frame1.get(x - 2, y - 1),
                    "mismatch at ({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn stereo_pair_shifts_foreground_only() {
        let s = stereo_pair(40, 40, 3, 0.0, 4);
        // A background pixel far from the rectangle matches unshifted.
        assert_eq!(s.right.get(2, 2), s.left.get(2, 2));
        // A left foreground pixel (x, y) with disparity d matches
        // R(x − d, y) — the relation the stereo singleton evaluates.
        assert_eq!(s.left.get(20, 20), s.right.get(17, 20));
        assert_eq!(s.truth[20 * 40 + 20], Label::new(3));
        assert_eq!(s.truth[2 * 40 + 2], Label::new(0));
    }

    #[test]
    fn texture_has_contrast() {
        let t = texture(32, 32, 9);
        let min = *t.pixels().iter().min().unwrap();
        let max = *t.pixels().iter().max().unwrap();
        assert!(
            max - min > 40,
            "texture should span a usable range, got {min}..{max}"
        );
    }

    #[test]
    #[should_panic(expected = "displacement must fit")]
    fn oversized_displacement_rejected() {
        translated_pair(16, 16, 4, 0, 0.0, 0);
    }
}
