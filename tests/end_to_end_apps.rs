//! Cross-crate integration: the three vision applications run end to end
//! on both the exact software sampler and the RSU-G hardware model, and
//! the hardware model does not meaningfully degrade solution quality.

use mogs_core::rsu_g::RsuGSampler;
use mogs_engine::Engine;
use mogs_gibbs::{Metropolis, SoftmaxGibbs};
use mogs_mrf::precision::EnergyQuantizer;
use mogs_vision::metrics::{label_accuracy, mean_endpoint_error};
use mogs_vision::motion::{MotionConfig, MotionEstimation};
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::stereo::{StereoConfig, StereoMatching};
use mogs_vision::synthetic;

fn rsu(temperature: f64) -> RsuGSampler {
    // Scale 8 pre-factors model energies into the 8-bit hardware domain
    // (t8 = 8T), giving the LUT fine granularity and a wide cutoff — the
    // "weights pre-factored from the input data" step of §5.2.
    RsuGSampler::new(EnergyQuantizer::new(8.0), temperature)
}

#[test]
fn segmentation_software_vs_rsu() {
    let engine = Engine::with_default_config();
    let scene = synthetic::region_scene(32, 32, 5, 7.0, 100);
    let config = SegmentationConfig::default();
    let t = config.temperature;
    let app = Segmentation::new(scene.image.clone(), config);

    let soft = app.run(&engine, SoftmaxGibbs::new(), 60, 1);
    let hard = app.run(&engine, rsu(t), 60, 1);
    let acc_soft = label_accuracy(soft.map_estimate.as_ref().unwrap(), &scene.truth);
    let acc_hard = label_accuracy(hard.map_estimate.as_ref().unwrap(), &scene.truth);
    assert!(acc_soft > 0.8, "software accuracy {acc_soft}");
    assert!(
        acc_hard > acc_soft - 0.08,
        "RSU accuracy {acc_hard} vs software {acc_soft}"
    );
}

#[test]
fn motion_software_vs_rsu() {
    let engine = Engine::with_default_config();
    let scene = synthetic::translated_pair(28, 28, 2, 1, 2.0, 101);
    let config = MotionConfig::default();
    let t = config.temperature;
    let app = MotionEstimation::new(&scene.frame1, &scene.frame2, config);

    let soft = app.run(&engine, SoftmaxGibbs::new(), 50, 2);
    let hard = app.run(&engine, rsu(t), 50, 2);
    let epe_soft = mean_endpoint_error(
        &app.flow_field(soft.map_estimate.as_ref().unwrap()),
        scene.flow,
    );
    let epe_hard = mean_endpoint_error(
        &app.flow_field(hard.map_estimate.as_ref().unwrap()),
        scene.flow,
    );
    assert!(epe_soft < 0.8, "software EPE {epe_soft}");
    assert!(
        epe_hard < epe_soft + 0.5,
        "RSU EPE {epe_hard} vs software {epe_soft}"
    );
}

#[test]
fn stereo_software_vs_rsu() {
    let engine = Engine::with_default_config();
    let scene = synthetic::stereo_pair(32, 32, 3, 2.0, 102);
    let config = StereoConfig::default();
    let t = config.temperature;
    let app = StereoMatching::new(&scene.left, &scene.right, config);

    let soft = app.run(&engine, SoftmaxGibbs::new(), 60, 3);
    let hard = app.run(&engine, rsu(t), 60, 3);
    let acc_soft = label_accuracy(soft.map_estimate.as_ref().unwrap(), &scene.truth);
    let acc_hard = label_accuracy(hard.map_estimate.as_ref().unwrap(), &scene.truth);
    assert!(acc_soft > 0.65, "software accuracy {acc_soft}");
    assert!(
        acc_hard > acc_soft - 0.10,
        "RSU {acc_hard} vs software {acc_soft}"
    );
}

#[test]
fn metropolis_converges_slower_but_converges() {
    let engine = Engine::with_default_config();
    // Metropolis is the alternative MCMC kernel (§4.2); on the same budget
    // it should still reduce energy substantially.
    let scene = synthetic::region_scene(24, 24, 5, 7.0, 103);
    let app = Segmentation::new(scene.image.clone(), SegmentationConfig::default());
    let result = app.run(&engine, Metropolis::new(), 80, 4);
    assert!(result.energy_trace[79] < 0.6 * result.energy_trace[0]);
}

#[test]
fn parallel_and_sequential_chains_reach_similar_energy() {
    let engine = Engine::with_default_config();
    let scene = synthetic::region_scene(32, 32, 5, 7.0, 104);
    let seq_app = Segmentation::new(scene.image.clone(), SegmentationConfig::default());
    let par_app = Segmentation::new(
        scene.image.clone(),
        SegmentationConfig {
            threads: 4,
            ..SegmentationConfig::default()
        },
    );
    let seq = seq_app.run(&engine, SoftmaxGibbs::new(), 50, 5);
    let par = par_app.run(&engine, SoftmaxGibbs::new(), 50, 5);
    let (e_seq, e_par) = (
        *seq.energy_trace.last().unwrap(),
        *par.energy_trace.last().unwrap(),
    );
    let rel = (e_seq - e_par).abs() / e_seq.abs().max(1.0);
    assert!(rel < 0.1, "sequential {e_seq} vs parallel {e_par}");
}

#[test]
fn restoration_runs_on_both_neighborhood_orders() {
    let engine = Engine::with_default_config();
    use mogs_mrf::Neighborhood;
    use mogs_vision::image::GrayImage;
    use mogs_vision::restoration::{Restoration, RestorationConfig};
    // A diagonal stripe: the structure second-order diagonal cliques see
    // directly.
    let clean = GrayImage::from_fn(32, 32, |x, y| if (x + y) % 16 < 8 { 0x28 } else { 0xC4 });
    let noisy = {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        GrayImage::from_fn(32, 32, |x, y| {
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (f64::from(clean.get(x, y)) + z * 20.0).clamp(0.0, 255.0) as u8
        })
    };
    let mut psnrs = Vec::new();
    for neighborhood in [Neighborhood::FirstOrder, Neighborhood::SecondOrder] {
        let app = Restoration::new(
            &noisy,
            RestorationConfig {
                neighborhood,
                threads: 2,
                ..RestorationConfig::default()
            },
        );
        let result = app.run(&engine, SoftmaxGibbs::new(), 40, 6);
        let restored = app.labels_to_image(result.map_estimate.as_ref().unwrap());
        let psnr = Restoration::psnr(&clean, &restored);
        assert!(
            psnr > Restoration::psnr(&clean, &noisy) + 2.0,
            "{neighborhood:?}: restored PSNR {psnr:.1}"
        );
        psnrs.push(psnr);
    }
    // Both orders must be competitive on diagonal structure (within 3 dB).
    assert!(
        (psnrs[0] - psnrs[1]).abs() < 3.0,
        "first {} vs second {}",
        psnrs[0],
        psnrs[1]
    );
}

#[test]
fn energy_traces_are_monotone_in_expectation() {
    let engine = Engine::with_default_config();
    // Not strictly monotone (it is a sampler, not a descent method), but
    // the second-half mean must be far below the first few iterations.
    let scene = synthetic::region_scene(24, 24, 5, 7.0, 105);
    let app = Segmentation::new(scene.image.clone(), SegmentationConfig::default());
    let result = app.run(&engine, SoftmaxGibbs::new(), 60, 6);
    let early = result.energy_trace[0];
    let late: f64 = result.energy_trace[30..].iter().sum::<f64>() / 30.0;
    assert!(late < 0.8 * early, "early {early} late {late}");
}
