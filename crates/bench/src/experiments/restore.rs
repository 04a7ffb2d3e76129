//! A7: image restoration quality — truncated vs quadratic prior, software
//! vs RSU-G sampler, in PSNR.

use crate::report::render_table;
use mogs_core::rsu_g::RsuGSampler;
use mogs_engine::Engine;
use mogs_gibbs::SoftmaxGibbs;
use mogs_mrf::precision::EnergyQuantizer;
use mogs_vision::image::GrayImage;
use mogs_vision::restoration::{Restoration, RestorationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One restoration result row.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreRow {
    /// Prior / sampler description.
    pub setup: String,
    /// PSNR of the noisy input vs clean (dB).
    pub noisy_psnr: f64,
    /// PSNR of the restored output vs clean (dB).
    pub restored_psnr: f64,
}

/// Runs the restoration grid on a noisy test card.
///
/// # Panics
///
/// Panics if the engine refuses or fails a job, or a run returns no MAP
/// estimate (mode tracking is always on for the restoration apps).
pub fn run(iterations: usize, seed: u64) -> Vec<RestoreRow> {
    // Card values deliberately off the 8-level reconstruction grid so even
    // a perfect labeling leaves finite quantization PSNR.
    let clean = GrayImage::from_fn(40, 40, |x, _| if x < 20 { 0x28 } else { 0xC4 });
    let mut rng = StdRng::seed_from_u64(seed);
    let noisy = GrayImage::from_fn(40, 40, |x, y| {
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (f64::from(clean.get(x, y)) + z * 25.0).clamp(0.0, 255.0) as u8
    });
    let noisy_psnr = Restoration::psnr(&clean, &noisy);

    let engine = Engine::with_default_config();
    let mut rows = Vec::new();
    let configs = [
        ("truncated prior", RestorationConfig::default()),
        (
            "quadratic prior",
            RestorationConfig {
                truncation: None,
                ..RestorationConfig::default()
            },
        ),
    ];
    for (prior_name, config) in configs {
        let t = config.temperature;
        let app = Restoration::new(&noisy, config);
        let software = app.run(&engine, SoftmaxGibbs::new(), iterations, seed);
        rows.push(RestoreRow {
            setup: format!("{prior_name} / softmax-gibbs"),
            noisy_psnr,
            restored_psnr: Restoration::psnr(
                &clean,
                &app.labels_to_image(software.map_estimate.as_ref().expect("modes tracked")),
            ),
        });
        let hardware = app.run(
            &engine,
            RsuGSampler::new(EnergyQuantizer::new(8.0), t),
            iterations,
            seed,
        );
        rows.push(RestoreRow {
            setup: format!("{prior_name} / rsu-g"),
            noisy_psnr,
            restored_psnr: Restoration::psnr(
                &clean,
                &app.labels_to_image(hardware.map_estimate.as_ref().expect("modes tracked")),
            ),
        });
    }
    rows
}

/// Renders the grid.
pub fn render(rows: &[RestoreRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.setup.clone(),
                format!("{:.1}", r.noisy_psnr),
                format!("{:.1}", r.restored_psnr),
                format!("{:+.1}", r.restored_psnr - r.noisy_psnr),
            ]
        })
        .collect();
    let mut s = String::from("A7: image restoration PSNR (dB), noisy test card\n\n");
    s.push_str(&render_table(
        &["prior / sampler", "noisy", "restored", "gain"],
        &table,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_setup_improves_psnr() {
        for row in run(40, 3) {
            assert!(
                row.restored_psnr > row.noisy_psnr + 1.0,
                "{}: {:.1} -> {:.1}",
                row.setup,
                row.noisy_psnr,
                row.restored_psnr
            );
        }
    }

    #[test]
    fn rsu_restoration_tracks_software() {
        let rows = run(40, 4);
        let get = |needle: &str| {
            rows.iter()
                .find(|r| r.setup.contains(needle))
                .unwrap()
                .restored_psnr
        };
        let software = get("truncated prior / softmax");
        let hardware = get("truncated prior / rsu-g");
        assert!(
            (software - hardware).abs() < 3.0,
            "software {software:.1} dB vs RSU {hardware:.1} dB"
        );
    }
}
