//! The coordinator's bring-up cache: a process reuses the stereo scene
//! and the verified partition of an earlier job, and the reuse changes
//! no output bit.
//!
//! The cache is process-wide, so every test holds `SERIAL` and builds
//! scenes no other test in this file builds: a hit or a miss observed
//! here is this test's own.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use mogs_engine::Backend;
use mogs_fleet::exec::BRING_UP_CACHE_ENTRIES;
use mogs_fleet::{
    bring_up, partition, run_fleet, run_in_process, stereo_scene, FleetConfig, Launcher,
};
use mogs_vision::job::{JobDescription, Workload};
use mogs_vision::stereo::StereoMatching;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn stereo(scene_seed: u64, threads: usize, seed: u64) -> JobDescription {
    JobDescription {
        workload: Workload::Stereo {
            width: 24,
            height: 18,
            disparity: 2,
            noise_sigma: 2.0,
            scene_seed,
        },
        backend: Backend::Softmax,
        iterations: 6,
        threads,
        seed,
        burn_in: 2,
    }
}

fn scene(scene_seed: u64) -> StereoMatching {
    stereo_scene(24, 18, 2, 2.0, scene_seed)
}

/// Where a scene's singleton table lives: a hit shares the table the
/// first build filled, a miss fills a new one. Callers keep the scenes
/// they compare alive, so a freed table's address is never reused.
fn table(app: &StereoMatching) -> *const f64 {
    app.mrf().singleton_table().expect("small field").as_ptr()
}

#[test]
fn a_second_job_on_a_cached_scene_equals_run_in_process_bit_for_bit() {
    let _serial = serial();
    let first = stereo(0xC0FF_EE01, 4, 11);
    let second = JobDescription {
        seed: 12,
        ..first.clone()
    };
    // `run_in_process` builds its scene fresh, so the reference never
    // shares the cached field it checks.
    let reference = run_in_process(&second).expect("engine runs");
    let mut config = FleetConfig::new(2);
    config.launcher = Launcher::Program(PathBuf::from(env!("CARGO_BIN_EXE_fleet-worker")));
    let before = scene(0xC0FF_EE01);
    let out = run_fleet(&first, &config).expect("first fleet job");
    assert!(out.bit_identical_to(&run_in_process(&first).expect("engine runs")));
    let out = run_fleet(&second, &config).expect("second fleet job");
    assert!(
        out.bit_identical_to(&reference),
        "a job brought up on the cached scene and partition must not move a bit"
    );
    let after = scene(0xC0FF_EE01);
    assert_eq!(table(&after), table(&before), "both jobs reused the scene");
}

#[test]
fn a_partition_hit_equals_a_fresh_partition_and_each_key_input_misses() {
    let _serial = serial();
    let spec = stereo(0xC0FF_EE02, 4, 1);
    let (_, structure, cached) = bring_up(&spec, 2).expect("brings up");
    let again = JobDescription {
        seed: 2,
        ..spec.clone()
    };
    let (_, _, hit) = bring_up(&again, 2).expect("brings up");
    assert!(
        Arc::ptr_eq(&cached, &hit),
        "the sampler seed is not in the key"
    );
    assert_eq!(*hit, partition(&structure, 2).expect("fresh partition"));

    for (spec, shards) in [(stereo(0xC0FF_EE02, 3, 1), 2), (spec.clone(), 3)] {
        let (_, structure, missed) = bring_up(&spec, shards).expect("brings up");
        assert!(!Arc::ptr_eq(&cached, &missed), "threads or shards changed");
        assert_eq!(*missed, partition(&structure, shards).expect("fresh"));
    }

    // A scene is keyed by every input; the partition by the shape alone.
    let held = scene(0xC0FF_EE02);
    assert_eq!(table(&scene(0xC0FF_EE02)), table(&held), "same scene");
    let others = [
        scene(0xC0FF_EE03),
        stereo_scene(25, 18, 2, 2.0, 0xC0FF_EE02),
        stereo_scene(24, 19, 2, 2.0, 0xC0FF_EE02),
        stereo_scene(24, 18, 3, 2.0, 0xC0FF_EE02),
        stereo_scene(24, 18, 2, 2.5, 0xC0FF_EE02),
    ];
    for other in &others {
        assert_ne!(
            table(other),
            table(&held),
            "every scene input is in the key"
        );
    }
    let (_, _, same_shape) = bring_up(&stereo(0xC0FF_EE03, 4, 1), 2).expect("brings up");
    assert!(Arc::ptr_eq(&cached, &same_shape));
}

#[test]
fn the_bound_evicts_the_oldest_entry() {
    let _serial = serial();
    let seeds: Vec<u64> = (0..=BRING_UP_CACHE_ENTRIES as u64)
        .map(|i| 0xE71C_7000 + i)
        .collect();
    let scenes: Vec<StereoMatching> = seeds.iter().map(|&s| scene(s)).collect();
    // The last build evicted the first; the rest still hit.
    for (&seed, held) in seeds.iter().zip(&scenes).skip(1) {
        assert_eq!(
            table(&scene(seed)),
            table(held),
            "scene {seed:#x} is cached"
        );
    }
    let rebuilt = scene(seeds[0]);
    assert_ne!(
        table(&rebuilt),
        table(&scenes[0]),
        "the oldest scene was evicted"
    );

    let demo = |threads| JobDescription {
        workload: Workload::Demo {
            width: 9,
            height: 7,
            labels: 3,
        },
        threads,
        ..stereo(0, 1, 1)
    };
    let parts: Vec<_> = (1..=BRING_UP_CACHE_ENTRIES + 1)
        .map(|threads| bring_up(&demo(threads), 1).expect("brings up").2)
        .collect();
    for (threads, part) in (1..=BRING_UP_CACHE_ENTRIES + 1).zip(&parts).skip(1) {
        let (_, _, again) = bring_up(&demo(threads), 1).expect("brings up");
        assert!(Arc::ptr_eq(part, &again), "{threads} threads still cached");
    }
    let (_, _, again) = bring_up(&demo(1), 1).expect("brings up");
    assert!(
        !Arc::ptr_eq(&parts[0], &again),
        "the oldest partition was evicted"
    );
}
