//! Dense motion estimation end to end, plus the architecture models:
//! recover a translation with MCMC, then ask the calibrated GPU and
//! accelerator models what the same workload costs at paper scale.
//!
//! Run with: `cargo run --release --example motion_accelerator`

use mogs_arch::accelerator::Accelerator;
use mogs_arch::gpu::GpuModel;
use mogs_arch::kernel::KernelVariant;
use mogs_arch::workload::{ImageSize, Workload};
use mogs_engine::Engine;
use mogs_gibbs::SoftmaxGibbs;
use mogs_vision::metrics::mean_endpoint_error;
use mogs_vision::motion::{MotionConfig, MotionEstimation};
use mogs_vision::synthetic;

fn main() {
    // --- Functional: recover a (2, -1) pixel translation. -----------------
    let scene = synthetic::translated_pair(48, 48, 2, -1, 2.0, 7);
    let app = MotionEstimation::new(&scene.frame1, &scene.frame2, MotionConfig::default());
    let engine = Engine::with_default_config();
    let result = app.run(&engine, SoftmaxGibbs::new(), 60, 3);
    let flow = app.flow_field(result.map_estimate.as_ref().unwrap());
    println!(
        "recovered flow for a (2,-1) translation: mean endpoint error {:.3} px",
        mean_endpoint_error(&flow, scene.flow)
    );

    // --- Performance: the paper's evaluation at HD scale. -----------------
    let gpu = GpuModel::calibrated();
    let accelerator = Accelerator::paper_design();
    let w = Workload::motion(ImageSize::HD);
    println!("\ndense motion estimation, 1920x1080, 400 iterations, M = 49 labels:");
    for variant in [
        KernelVariant::Baseline,
        KernelVariant::OptimizedSingleton,
        KernelVariant::rsu(1),
        KernelVariant::rsu(4),
    ] {
        println!(
            "  {:<8}  {:>6.2} s   ({:>4.1}x over GPU){}",
            variant.name(),
            gpu.execution_time(&w, variant),
            gpu.speedup_over_baseline(&w, variant),
            if gpu.is_memory_bound(&w, variant) {
                "  [memory-bound]"
            } else {
                ""
            },
        );
    }
    println!(
        "  {:<8}  {:>6.2} s   ({:>4.1}x over GPU)  [{} RSU-G1 units at 336 GB/s]",
        "accel",
        accelerator.execution_time(&w),
        accelerator.speedup_over_gpu(&gpu, &w),
        accelerator.units_required(),
    );
    println!(
        "\nPaper reference (Table 2 / §8.2): GPU 7.17 s, Opt 3.35 s, RSU-G1 0.45 s, \
         RSU-G4 0.21 s, accelerator 54x over GPU."
    );
}
