//! Cross-commit golden: the final labels of one fixed-seed softmax engine
//! job, pinned by hash.
//!
//! `kernel_identity` compares the engine against the per-site reference
//! sweep, so a change that moves both together (a different weight
//! expression, a reordered sum, another inverse-CDF tail) passes it. This
//! hash was recorded before the softmax draw took fixed-point rows and
//! must not move without a reason stated in DESIGN.

use mogs_engine::prelude::*;
use mogs_mrf::fnv1a;
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::synthetic;

/// FNV-1a over the label bytes of a 64×64, M = 5 segmentation job on
/// the softmax backend: 4 chunks, 8 sweeps, seed `0x5EED_0035`.
const GOLDEN_LABELS_FNV: u64 = 0x71c7_fd98_620d_e2c3;

#[test]
fn softmax_segmentation_job_matches_the_recorded_labels() {
    let side = 64;
    let scene = synthetic::region_scene(side, side, 5, 6.0, 11);
    let app = Segmentation::new(scene.image, SegmentationConfig::default());
    let mrf = app.mrf().clone();
    assert_eq!(mrf.space().count(), 5);
    // The job must run on the fixed-point rows the softmax kernel takes.
    assert!(mrf.fixed_rows().is_some(), "field left the fixed-row path");
    let sampler =
        BackendSampler::try_new(Backend::Softmax, mrf.temperature()).expect("valid backend");
    let spec = InferenceJob::new(mrf.clone(), sampler)
        .threads(4)
        .seed(0x5EED_0035)
        .iterations(8)
        .record_energy(false)
        .initial(mrf.uniform_labeling())
        .build()
        .expect("valid spec");
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let out = engine.submit(spec).expect("engine running").wait();
    engine.shutdown();
    let bytes: Vec<u8> = out.labels.iter().map(|l| l.value()).collect();
    // A pin over a constant labeling would not notice most draw changes.
    assert!(bytes.iter().any(|&b| b != bytes[0]), "degenerate labeling");
    assert_eq!(
        fnv1a(&bytes),
        GOLDEN_LABELS_FNV,
        "softmax engine labels moved: {:#018x}",
        fnv1a(&bytes)
    );
}
