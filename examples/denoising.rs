//! Image restoration (denoising) — the original Gibbs-sampling application
//! (Geman & Geman 1984) — on 8 gray levels, the RSU-G's native 3-bit
//! scalar label range, with edge-preserving truncated-quadratic smoothing.
//!
//! Run with: `cargo run --release --example denoising`

use mogs_core::rsu_g::RsuGSampler;
use mogs_engine::Engine;
use mogs_gibbs::SoftmaxGibbs;
use mogs_mrf::precision::EnergyQuantizer;
use mogs_vision::image::GrayImage;
use mogs_vision::restoration::{Restoration, RestorationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // A clean test card: two flat regions and a diagonal stripe.
    let clean = GrayImage::from_fn(48, 48, |x, y| {
        if x + y > 60 && x + y < 72 {
            0xFF
        } else if x < 24 {
            0x30
        } else {
            0xB0
        }
    });
    // Heavy additive Gaussian noise.
    let mut rng = StdRng::seed_from_u64(11);
    let noisy = GrayImage::from_fn(48, 48, |x, y| {
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (f64::from(clean.get(x, y)) + z * 30.0).clamp(0.0, 255.0) as u8
    });

    let config = RestorationConfig::default();
    let temperature = config.temperature;
    let app = Restoration::new(&noisy, config);
    let engine = Engine::with_default_config();

    let software = app.run(&engine, SoftmaxGibbs::new(), 50, 1);
    let restored_sw = app.labels_to_image(software.map_estimate.as_ref().unwrap());

    let hardware = app.run(
        &engine,
        RsuGSampler::new(EnergyQuantizer::new(8.0), temperature),
        50,
        1,
    );
    let restored_hw = app.labels_to_image(hardware.map_estimate.as_ref().unwrap());

    println!("noisy input:\n{}", noisy.to_ascii());
    println!("restored (software Gibbs):\n{}", restored_sw.to_ascii());
    println!(
        "PSNR vs clean:  noisy {:.1} dB -> software {:.1} dB, RSU-G model {:.1} dB",
        Restoration::psnr(&clean, &noisy),
        Restoration::psnr(&clean, &restored_sw),
        Restoration::psnr(&clean, &restored_hw),
    );
    println!(
        "\nThe truncated-quadratic prior removes the noise while keeping the \
         stripe's edges;\nthe RSU-G hardware model restores within ~1 dB of the \
         exact sampler."
    );
}
