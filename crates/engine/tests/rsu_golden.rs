//! Cross-commit golden: the final labels of one fixed-seed RSU-G engine
//! job, pinned by hash.
//!
//! `kernel_identity` and the benchmark's first-job check compare the
//! engine against the per-site reference sweep, so a change that moves
//! both together (a new quantizer, a reordered RNG draw, a different
//! tournament) passes them. This hash was recorded before the RSU-G draw
//! was fused into one per-row pass and must not move without a reason
//! stated in DESIGN.

use mogs_engine::prelude::*;
use mogs_mrf::fnv1a;
use mogs_vision::motion::{flow_to_label, MotionConfig, MotionEstimation};
use mogs_vision::synthetic;

/// FNV-1a over the label bytes of a 48×48, M = 49 motion job on a
/// four-unit RSU-G pool: 4 chunks, 6 sweeps, seed `0x5EED_0025`.
const GOLDEN_LABELS_FNV: u64 = 0x1901_dc06_aa62_3362;

#[test]
fn rsu_pool_motion_job_matches_the_recorded_labels() {
    let side = 48;
    let scene = synthetic::translated_pair(side, side, 2, -1, 4.0, 7);
    let app = MotionEstimation::new(&scene.frame1, &scene.frame2, MotionConfig::default());
    let mrf = app.mrf().clone();
    assert_eq!(mrf.space().count(), 49);
    let sampler = BackendSampler::try_new(Backend::RsuG { replicas: 4 }, mrf.temperature())
        .expect("valid backend");
    let spec = InferenceJob::new(mrf, sampler)
        .threads(4)
        .seed(0x5EED_0025)
        .iterations(6)
        .record_energy(false)
        .initial(vec![flow_to_label(0, 0); side * side])
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
        "RSU-G engine labels moved: {:#018x}",
        fnv1a(&bytes)
    );
}
