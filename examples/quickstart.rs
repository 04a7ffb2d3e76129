//! Quickstart: segment a noisy synthetic image with MRF-MCMC, on both the
//! exact software Gibbs sampler and the RSU-G hardware model, and compare.
//!
//! Run with: `cargo run --release --example quickstart`

use mogs_core::rsu_g::RsuGSampler;
use mogs_engine::Engine;
use mogs_gibbs::SoftmaxGibbs;
use mogs_mrf::precision::EnergyQuantizer;
use mogs_vision::metrics::label_accuracy;
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::synthetic;

fn main() {
    // A 64x64 scene: five intensity regions under Gaussian noise, with the
    // generating ground truth kept for scoring.
    let scene = synthetic::region_scene(64, 64, 5, 8.0, 42);
    println!("input scene: {} ({} regions + noise)", scene.image, 5);

    let config = SegmentationConfig::default();
    let temperature = config.temperature;
    let app = Segmentation::new(scene.image.clone(), config);
    let engine = Engine::with_default_config();

    // 1) Exact software Gibbs sampling — the reference.
    let software = app.run(&engine, SoftmaxGibbs::new(), 80, 1);
    let software_map = software.map_estimate.expect("modes tracked");
    println!(
        "software Gibbs:  accuracy {:.1}%  final energy {:.0}",
        100.0 * label_accuracy(&software_map, &scene.truth),
        software.energy_trace.last().unwrap(),
    );

    // 2) The RSU-G hardware model — same MRF, same chain, but every label
    //    draw runs the paper's quantization chain (8-bit energies → 4-bit
    //    intensity codes → exponential TTFs in an 8-bit register →
    //    first-to-fire).
    let rsu = app.run(
        &engine,
        RsuGSampler::new(EnergyQuantizer::new(8.0), temperature),
        80,
        1,
    );
    let rsu_map = rsu.map_estimate.expect("modes tracked");
    println!(
        "RSU-G model:     accuracy {:.1}%  final energy {:.0}",
        100.0 * label_accuracy(&rsu_map, &scene.truth),
        rsu.energy_trace.last().unwrap(),
    );

    println!(
        "\nThe RSU-G's limited-precision optical sampling chain should track \
         the exact sampler\nwithin a few percent — that is the paper's core \
         fidelity claim (§4.4)."
    );
}
