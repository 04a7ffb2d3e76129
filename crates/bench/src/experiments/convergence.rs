//! A8: multi-chain convergence assessment (Gelman–Rubin R̂) and the
//! cycle-level accelerator simulation vs the analytic bound.

use crate::report::render_table;
use mogs_arch::accel_sim::{AccelSim, AccelSimConfig};
use mogs_arch::accelerator::Accelerator;
use mogs_arch::workload::{ImageSize, Workload};
use mogs_engine::{run_chains_on_engine, Engine, InferenceJob};
use mogs_gibbs::{SoftmaxGibbs, TemperatureSchedule};
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::synthetic;

/// Runs four independent segmentation chains at several lengths on one
/// engine and renders the R̂ trajectory.
///
/// # Panics
///
/// Panics if the engine refuses or fails a chain.
pub fn render_r_hat(seed: u64) -> String {
    let scene = synthetic::region_scene(24, 24, 5, 7.0, seed);
    let app = Segmentation::new(scene.image.clone(), SegmentationConfig::default());
    let engine = Engine::with_default_config();
    let mut rows = Vec::new();
    for iterations in [10usize, 20, 40, 80] {
        let job = InferenceJob::new(app.mrf().clone(), SoftmaxGibbs::new())
            .schedule(TemperatureSchedule::constant(1.0))
            .iterations(iterations)
            .burn_in(iterations / 4)
            .seed(seed);
        let result = run_chains_on_engine(&engine, job, 4).expect("well-formed multi-chain run");
        rows.push(vec![
            iterations.to_string(),
            format!("{:.3}", result.r_hat),
            if result.converged(1.1) {
                "converged".to_owned()
            } else {
                "mixing".to_owned()
            },
        ]);
    }
    let mut s = String::from("A8a: Gelman-Rubin R-hat over 4 independent segmentation chains\n\n");
    s.push_str(&render_table(&["iterations", "R-hat", "verdict"], &rows));
    s
}

/// Renders the cycle-level accelerator simulation against the analytic
/// DRAM bound for both paper workloads.
pub fn render_accel_sim() -> String {
    let sim = AccelSim::new(AccelSimConfig::paper_design());
    let bound = Accelerator::paper_design();
    let mut rows = Vec::new();
    for w in [
        Workload::segmentation(ImageSize::HD),
        Workload::motion(ImageSize::HD),
    ] {
        let report = sim.estimate(&w);
        let analytic = bound.execution_time(&w);
        rows.push(vec![
            w.app.name().to_owned(),
            format!("{:.4}", analytic),
            format!("{:.4}", report.seconds),
            format!("{:.1}%", 100.0 * (report.seconds / analytic - 1.0)),
            if report.dram_utilization >= 0.5 {
                "DRAM".to_owned()
            } else {
                "units".to_owned()
            },
        ]);
    }
    let mut s =
        String::from("A8b: cycle-level accelerator simulation vs the analytic DRAM bound (HD)\n\n");
    s.push_str(&render_table(
        &[
            "application",
            "bound (s)",
            "simulated (s)",
            "overhead",
            "binding resource",
        ],
        &rows,
    ));
    s
}

/// Renders the parallel-tempering study: a frustrated Potts model where a
/// plain cold chain freezes and a replica ladder keeps moving.
pub fn render_tempering(seed: u64) -> String {
    use mogs_gibbs::sweep::{colored_sweep, sweep_seed};
    use mogs_gibbs::tempering::{TemperedChains, TemperingConfig, CHUNKS};
    use mogs_mrf::energy::ZeroSingleton;
    use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};

    let mrf = MarkovRandomField::builder(Grid2D::new(16, 16), LabelSpace::scalar(4))
        .prior(SmoothnessPrior::potts(2.0))
        .singleton(ZeroSingleton)
        .build();
    let frustrated: Vec<Label> = (0..mrf.grid().len())
        .map(|i| Label::new((i % 4) as u8))
        .collect();
    let iterations = 50;

    // The plain chain is the ladder's coldest replica alone: the same
    // reference sweep at the same chunk count.
    let mut plain = frustrated.clone();
    for iteration in 0..iterations {
        let sweep = sweep_seed(seed, iteration);
        colored_sweep(&mrf, &mut plain, &SoftmaxGibbs::new(), 0.4, CHUNKS, sweep);
    }
    let plain_energy = mrf.total_energy(&plain);

    let config = TemperingConfig {
        seed,
        ..TemperingConfig::geometric_ladder(0.4, 4.0, 5)
    };
    let mut ladder = TemperedChains::new(&mrf, SoftmaxGibbs::new(), config);
    ladder.run(iterations);

    let rows = vec![
        vec![
            "plain chain at T=0.4".to_owned(),
            format!("{plain_energy:.0}"),
            "-".to_owned(),
        ],
        vec![
            "tempered ladder (5 replicas, 0.4..4.0)".to_owned(),
            format!("{:.0}", ladder.coldest_energy()),
            format!("{:.0}%", 100.0 * ladder.swap_acceptance()),
        ],
    ];
    let mut s = String::from(
        "A8c: parallel tempering on a frustrated 4-state Potts model \
         (50 iterations; lower final energy = better mixing)\n\n",
    );
    s.push_str(&render_table(
        &["sampler", "final energy", "swap acceptance"],
        &rows,
    ));
    s
}

/// Renders the coarse-to-fine pyramid study: accuracy per full-resolution
/// iteration budget, flat vs pyramid.
///
/// # Panics
///
/// Panics if the engine refuses or fails a job.
pub fn render_pyramid(seed: u64) -> String {
    use mogs_vision::metrics::label_accuracy;
    use mogs_vision::pyramid::{segment_coarse_to_fine, PyramidSchedule};

    let scene = synthetic::region_scene(48, 48, 5, 7.0, seed);
    let config = SegmentationConfig::default();
    let engine = Engine::with_default_config();
    let mut rows = Vec::new();
    for fine_iters in [4usize, 8, 16] {
        let flat_app = Segmentation::new(scene.image.clone(), config.clone());
        let flat = flat_app.run(&engine, SoftmaxGibbs::new(), fine_iters, seed);
        let flat_acc = label_accuracy(
            flat.map_estimate.as_ref().unwrap_or(&flat.labels),
            &scene.truth,
        );
        let schedule = PyramidSchedule {
            iterations: vec![20, 12, fine_iters],
        };
        let pyramid = segment_coarse_to_fine(
            &engine,
            &scene.image,
            &config,
            SoftmaxGibbs::new(),
            &schedule,
            seed,
        );
        let pyr_acc = label_accuracy(
            pyramid.map_estimate.as_ref().unwrap_or(&pyramid.labels),
            &scene.truth,
        );
        rows.push(vec![
            fine_iters.to_string(),
            format!("{:.1}%", flat_acc * 100.0),
            format!("{:.1}%", pyr_acc * 100.0),
        ]);
    }
    let mut s = String::from(
        "A8d: coarse-to-fine pyramid vs flat MCMC (same full-resolution \
         iteration budget; pyramid adds cheap quarter/half-resolution warmup)\n\n",
    );
    s.push_str(&render_table(
        &["full-res iterations", "flat accuracy", "pyramid accuracy"],
        &rows,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempering_report_shows_both_samplers() {
        let s = render_tempering(3);
        assert!(s.contains("tempered ladder"));
        assert!(s.contains("plain chain"));
    }

    #[test]
    fn pyramid_report_covers_budgets() {
        let s = render_pyramid(4);
        assert!(s.contains("16"));
        assert!(s.contains("pyramid accuracy"));
    }

    #[test]
    fn r_hat_report_converges_at_longer_lengths() {
        let s = render_r_hat(9);
        assert!(s.contains("converged"), "some length must converge:\n{s}");
    }

    #[test]
    fn accel_sim_report_names_binding_resources() {
        let s = render_accel_sim();
        assert!(s.contains("DRAM"));
    }
}
