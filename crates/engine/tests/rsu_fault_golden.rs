//! Cross-commit golden for the fault path: the final labels of one
//! fixed-seed RSU-G pool job that quarantines a unit and later fails
//! over to the exact backend, pinned by hash.
//!
//! `rsu_golden` pins a healthy pool, so it never reaches the health
//! monitor's rebalanced rotation, a faulted unit's draws or the mid-job
//! swap to softmax. This job does all three: unit 1 fires dark counts
//! from sweep 1 and is quarantined at the sweep-3 probe (three live
//! units rotate); units 2 and 3 go dead and stuck at sweep 4, serve two
//! sweeps, and are quarantined at the sweep-6 probe, which leaves one
//! live unit under a floor of three, so the job finishes on the exact
//! sampler. The hash was recorded before the RSU-G kernel gained its
//! fixed-point row entry and must not move without a reason stated in
//! DESIGN.

use mogs_engine::prelude::*;
use mogs_mrf::{fnv1a, Label};
use mogs_vision::motion::{flow_to_label, MotionConfig, MotionEstimation};
use mogs_vision::synthetic;

/// FNV-1a over the label bytes of a 40×40, M = 49 motion job on a
/// four-unit RSU-G pool: 4 chunks, 9 sweeps, seed `0x5EED_FA17`, probed
/// every third sweep under a three-unit floor.
const GOLDEN_LABELS_FNV: u64 = 0x6541_ad56_f680_108f;

#[test]
fn quarantine_then_failover_motion_job_matches_the_recorded_labels() {
    let side = 40;
    let scene = synthetic::translated_pair(side, side, 1, 2, 4.0, 11);
    let app = MotionEstimation::new(&scene.frame1, &scene.frame2, MotionConfig::default());
    let mrf = app.mrf().clone();
    assert_eq!(mrf.space().count(), 49);
    let sampler = BackendSampler::try_new(Backend::RsuG { replicas: 4 }, mrf.temperature())
        .expect("valid backend");
    let plan = FaultPlan::new(vec![
        FaultEvent {
            sweep: 1,
            unit: 1,
            fault: UnitFault::DarkCount { rate_per_ns: 0.5 },
        },
        FaultEvent {
            sweep: 4,
            unit: 2,
            fault: UnitFault::Dead,
        },
        FaultEvent {
            sweep: 4,
            unit: 3,
            fault: UnitFault::Stuck(Label::new(7)),
        },
    ]);
    let spec = InferenceJob::new(mrf, sampler)
        .threads(4)
        .seed(0x5EED_FA17)
        .iterations(9)
        .record_energy(false)
        .initial(vec![flow_to_label(0, 0); side * side])
        .fault_plan(plan)
        .health(HealthPolicy {
            probe_every: 3,
            min_live_units: 3,
            ..HealthPolicy::default()
        })
        .build()
        .expect("valid spec");
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let out = engine.submit(spec).expect("engine running").wait();
    let metrics = engine.metrics();
    engine.shutdown();
    // The job must really walk the path this file pins.
    assert_eq!(metrics.units_quarantined, 3);
    let degraded = out.degraded.expect("the pool must fail over");
    assert_eq!(degraded.units_lost, 3);
    assert_eq!(degraded.failed_over_at, 6);
    assert_eq!(out.iterations_run, 9);
    let bytes: Vec<u8> = out.labels.iter().map(|l| l.value()).collect();
    assert!(bytes.iter().any(|&b| b != bytes[0]), "degenerate labeling");
    assert_eq!(
        fnv1a(&bytes),
        GOLDEN_LABELS_FNV,
        "faulted RSU-G engine labels moved: {:#018x}",
        fnv1a(&bytes)
    );
}
