//! The fleet kill-ladder, end to end over real worker *processes*.
//!
//! Every rung spawns genuine `fleet-worker` binaries (the
//! `Launcher::Program` path — the same one production uses), runs a
//! full job, and holds the coordinator to the crate's core promise:
//! the output is **bit-identical** to a single-process engine run of
//! the same spec, no matter what dies along the way.
//!
//! Rungs, in escalating order of violence:
//!
//! 1. clean N-process run — the baseline bit-identity claim;
//! 2. one worker SIGKILLed mid-sweep, respawned — migration replays
//!    the boundary + phase log and nothing diverges;
//! 3. the same kill with respawn disabled — a survivor adopts the
//!    orphaned shard and the job completes `Degraded`, still
//!    bit-identical;
//! 4. rolling kills across several sweeps — repeated migration within
//!    budget;
//! 5. a kill with the migration budget at zero — the typed
//!    `FleetCollapse`, never a hang or a wrong answer;
//! 6. coordinator stop at a sweep boundary, then a *fresh* coordinator
//!    resuming from the durable checkpoint — the stitched run equals
//!    the uninterrupted one bit for bit;
//! 7. the same with the newest cut rotted — the resume falls back to
//!    the previous intact cut, still bit for bit;
//! 8. a store cut for another scene — a typed `Checkpoint` refusal,
//!    never a resumed run;
//! 9. a store reused by a second spec — its cuts supersede the first
//!    job's later ones, and its resume is bit for bit;
//! 10. a refused resume — refused before any worker is launched;
//! 11. a cut whose plane holds a label outside the space, under a valid
//!     checksum — a typed refusal before any shard is assigned;
//! 12. a stereo worker killed in the sweep's last phase, respawned and
//!     adopted — the longest replay, read off the mirror, still bit for
//!     bit.

use std::path::PathBuf;

use mogs_fleet::{
    run_fleet, run_in_process, BackendKind, ChaosPlan, FleetCheckpoint, FleetConfig, FleetError,
    FleetSpec, FleetStructure, KillAt, Launcher, Workload, COORD_KEY,
};

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fleet-worker"))
}

fn demo_spec() -> FleetSpec {
    FleetSpec {
        workload: Workload::Demo {
            width: 10,
            height: 8,
            labels: 4,
        },
        backend: BackendKind::Softmax,
        iterations: 8,
        threads: 2,
        seed: 0xFEE7_F1EE,
        burn_in: 3,
    }
}

fn rsu_spec() -> FleetSpec {
    FleetSpec {
        backend: BackendKind::Rsu { replicas: 4 },
        ..demo_spec()
    }
}

fn config(workers: usize) -> FleetConfig {
    let mut config = FleetConfig::new(workers);
    config.launcher = Launcher::Program(worker_bin());
    config
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mogs-fleet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn clean_three_process_run_is_bit_identical() {
    for spec in [demo_spec(), rsu_spec()] {
        let output = run_fleet(&spec, &config(3)).expect("fleet runs");
        let reference = run_in_process(&spec).expect("engine runs");
        assert_eq!(output.workers_spawned, 3);
        assert_eq!(output.migrations, 0);
        assert!(output.degraded.is_none());
        assert!(
            output.bit_identical_to(&reference),
            "clean 3-process run diverged from the engine: {spec:?}"
        );
    }
}

#[test]
fn kill_one_mid_sweep_migrates_and_stays_bit_identical() {
    // Both backends: the softmax reference path and the RSU pool.
    for spec in [demo_spec(), rsu_spec()] {
        let mut config = config(3);
        config.chaos = ChaosPlan {
            kills: vec![KillAt {
                sweep: 2,
                group: 1,
                worker: 1,
            }],
        };
        let output = run_fleet(&spec, &config).expect("fleet survives the kill");
        let reference = run_in_process(&spec).expect("engine runs");
        assert_eq!(output.migrations, 1, "exactly one migration");
        assert_eq!(output.workers_spawned, 4, "the dead worker was replaced");
        assert!(
            output.degraded.is_none(),
            "respawn capacity means no degradation"
        );
        assert!(
            output.bit_identical_to(&reference),
            "kill-one-mid-sweep diverged from the engine"
        );
    }
}

#[test]
fn kill_without_respawn_degrades_but_stays_bit_identical() {
    let spec = demo_spec();
    let mut config = config(3);
    config.respawn = false;
    config.chaos = ChaosPlan {
        kills: vec![KillAt {
            sweep: 3,
            group: 0,
            worker: 2,
        }],
    };
    let output = run_fleet(&spec, &config).expect("fleet degrades instead of dying");
    let reference = run_in_process(&spec).expect("engine runs");
    assert_eq!(output.migrations, 1);
    assert_eq!(output.workers_spawned, 3, "no replacement was launched");
    let degraded = output.degraded.expect("the job must report degradation");
    assert_eq!(degraded.failed_over_at, 3);
    assert_eq!(degraded.units_lost, 1);
    assert!(
        output.bit_identical_to(&reference),
        "adoption onto a survivor diverged from the engine"
    );
}

#[test]
fn rolling_kills_across_sweeps_stay_bit_identical() {
    let spec = demo_spec();
    let mut config = config(3);
    config.max_migrations = 4;
    config.chaos = ChaosPlan {
        kills: vec![
            KillAt {
                sweep: 1,
                group: 0,
                worker: 0,
            },
            KillAt {
                sweep: 3,
                group: 1,
                worker: 2,
            },
            KillAt {
                sweep: 5,
                group: 0,
                worker: 1,
            },
        ],
    };
    let output = run_fleet(&spec, &config).expect("fleet survives rolling kills");
    let reference = run_in_process(&spec).expect("engine runs");
    assert_eq!(output.migrations, 3);
    assert_eq!(output.workers_spawned, 6);
    assert!(
        output.bit_identical_to(&reference),
        "rolling kills diverged from the engine"
    );
}

#[test]
fn exhausted_migration_budget_is_a_typed_collapse() {
    let spec = demo_spec();
    let mut config = config(2);
    config.max_migrations = 0;
    config.chaos = ChaosPlan {
        kills: vec![KillAt {
            sweep: 1,
            group: 0,
            worker: 0,
        }],
    };
    let err = run_fleet(&spec, &config).expect_err("no budget means collapse");
    match err {
        FleetError::FleetCollapse {
            migrations,
            max_migrations,
            ..
        } => {
            assert_eq!(max_migrations, 0);
            assert!(migrations > max_migrations);
        }
        other => panic!("expected FleetCollapse, got {other:?}"),
    }
}

#[test]
fn coordinator_restart_resumes_from_checkpoints_bit_identically() {
    let spec = demo_spec();
    let dir = temp_dir("restart");
    let checkpoint = FleetCheckpoint {
        dir: dir.clone(),
        every_sweeps: 2,
        retain: 8,
    };

    // First coordinator: run to the sweep-4 boundary and stop.
    let mut first = config(3);
    first.checkpoint = Some(checkpoint.clone());
    first.stop_after_sweep = Some(4);
    let paused = run_fleet(&spec, &first).expect("first coordinator runs");
    assert!(!paused.finished, "the run must pause, not finish");
    assert_eq!(paused.iterations_run, 4);

    // Second coordinator: a fresh process image in production; here a
    // fresh config resuming from the durable store.
    let mut second = config(3);
    second.checkpoint = Some(checkpoint);
    second.resume = true;
    let resumed = run_fleet(&spec, &second).expect("second coordinator resumes");
    let reference = run_in_process(&spec).expect("engine runs");
    assert!(resumed.finished);
    assert_eq!(resumed.iterations_run, spec.iterations);
    assert!(
        resumed.bit_identical_to(&reference),
        "stop + resume across coordinators diverged from the uninterrupted engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_during_checkpointed_run_stays_bit_identical() {
    // Checkpoints on AND a mid-sweep kill: migration rebuilds the shard
    // from the in-memory boundary and phase log, never from the store,
    // and the cuts around it change no bit.
    let spec = demo_spec();
    let dir = temp_dir("kill-ckpt");
    let mut config = config(2);
    config.checkpoint = Some(FleetCheckpoint {
        dir: dir.clone(),
        every_sweeps: 2,
        retain: 4,
    });
    config.chaos = ChaosPlan {
        kills: vec![KillAt {
            sweep: 2,
            group: 0,
            worker: 0,
        }],
    };
    let output = run_fleet(&spec, &config).expect("fleet survives the kill with cuts on");
    let reference = run_in_process(&spec).expect("engine runs");
    assert_eq!(output.migrations, 1);
    assert!(
        output.bit_identical_to(&reference),
        "migration in a checkpointed run diverged from the engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_cut_falls_back_to_the_previous_one() {
    let spec = demo_spec();
    let dir = temp_dir("fallback");
    let checkpoint = FleetCheckpoint {
        dir: dir.clone(),
        every_sweeps: 2,
        retain: 8,
    };
    let mut first = config(3);
    first.checkpoint = Some(checkpoint.clone());
    first.stop_after_sweep = Some(4);
    let paused = run_fleet(&spec, &first).expect("first coordinator runs");
    assert_eq!(paused.iterations_run, 4);

    // Rot the sweep-4 cut: the store must fall back to the intact
    // sweep-2 cut, and nothing else may refuse the resume.
    let newest = dir.join(format!("{COORD_KEY}-00000004.ckpt"));
    let mut bytes = std::fs::read(&newest).expect("sweep-4 cut exists");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&newest, bytes).expect("rewrite the cut");

    let mut second = config(3);
    second.checkpoint = Some(checkpoint);
    second.resume = true;
    let resumed = run_fleet(&spec, &second).expect("resumes from the sweep-2 cut");
    let reference = run_in_process(&spec).expect("engine runs");
    assert!(resumed.finished);
    assert_eq!(resumed.iterations_run, spec.iterations);
    assert!(
        resumed.bit_identical_to(&reference),
        "resume from the previous cut diverged from the uninterrupted engine"
    );

    // A cut is one whole-plane file and nothing else.
    let files: Vec<String> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert!(!files.is_empty());
    assert!(
        files
            .iter()
            .all(|name| name.starts_with(&format!("{COORD_KEY}-"))),
        "a cut wrote more than the coordinator record: {files:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn stereo_spec(scene_seed: u64) -> FleetSpec {
    FleetSpec {
        workload: Workload::Stereo {
            width: 24,
            height: 18,
            disparity: 3,
            noise_sigma: 4.0,
            scene_seed,
        },
        backend: BackendKind::Softmax,
        iterations: 6,
        threads: 2,
        seed: 0x5CE4E,
        burn_in: 2,
    }
}

#[test]
fn resume_under_another_scene_is_refused() {
    // Same grid, labels, sampler seed and budget, so the state binding
    // agrees; only the rendered scene differs.
    let cut_for = stereo_spec(1);
    let other = stereo_spec(2);
    let dir = temp_dir("scene");
    let checkpoint = FleetCheckpoint {
        dir: dir.clone(),
        every_sweeps: 2,
        retain: 4,
    };
    let mut first = config(2);
    first.checkpoint = Some(checkpoint.clone());
    first.stop_after_sweep = Some(2);
    run_fleet(&cut_for, &first).expect("first coordinator runs");

    let mut second = config(2);
    second.checkpoint = Some(checkpoint);
    second.resume = true;
    match run_fleet(&other, &second) {
        Err(FleetError::Checkpoint { reason }) => {
            for digest in [cut_for.digest(), other.digest()] {
                let digest = format!("{digest:016x}");
                assert!(reason.contains(&digest), "{digest} not named: {reason}");
            }
        }
        Err(other) => panic!("expected a typed checkpoint refusal, got {other:?}"),
        Ok(output) => panic!(
            "another scene's store resumed ({} sweeps, finished: {})",
            output.iterations_run, output.finished
        ),
    }

    // The refusal leaves the store usable by the spec it was cut for.
    let resumed = run_fleet(&cut_for, &second).expect("the right spec resumes");
    let reference = run_in_process(&cut_for).expect("engine runs");
    assert!(
        resumed.bit_identical_to(&reference),
        "resume under the spec the store was cut for diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_spec_in_a_reused_store_resumes_bit_identically() {
    let dir = temp_dir("reused");
    let checkpoint = FleetCheckpoint {
        dir: dir.clone(),
        every_sweeps: 2,
        retain: 2,
    };
    // The first job runs to the end and leaves its late cuts behind.
    let mut first = config(2);
    first.checkpoint = Some(checkpoint.clone());
    run_fleet(&demo_spec(), &first).expect("first job runs");

    // A second spec under the same key: its sweep-2 and sweep-4 cuts
    // must not be pruned in favour of the first job's sweep-6 cut.
    let spec = FleetSpec {
        seed: 0x5EC0_ED04,
        ..demo_spec()
    };
    let mut second = config(2);
    second.checkpoint = Some(checkpoint.clone());
    second.stop_after_sweep = Some(4);
    let paused = run_fleet(&spec, &second).expect("second job runs");
    assert_eq!(paused.iterations_run, 4);

    let mut resumed = config(2);
    resumed.checkpoint = Some(checkpoint);
    resumed.resume = true;
    let resumed = run_fleet(&spec, &resumed).expect("the second spec resumes from its own cut");
    let reference = run_in_process(&spec).expect("engine runs");
    assert!(resumed.finished);
    assert!(
        resumed.bit_identical_to(&reference),
        "resume from a reused store diverged from the uninterrupted engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_refused_resume_launches_no_worker() {
    // A launcher that cannot start anything: a resume that got as far as
    // launching would fail with `Spawn`, after the retry backoff.
    let dir = temp_dir("refused");
    let mut config = FleetConfig::new(2);
    config.launcher = Launcher::Program(dir.join("no-such-worker"));
    config.checkpoint = Some(FleetCheckpoint {
        dir: dir.clone(),
        every_sweeps: 2,
        retain: 2,
    });
    config.resume = true;
    match run_fleet(&demo_spec(), &config) {
        Err(FleetError::Checkpoint { reason }) => {
            assert!(reason.contains("no coordinator checkpoint"), "{reason}");
        }
        other => panic!("expected a checkpoint refusal before any launch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resumed_cut_with_a_label_outside_the_space_is_refused() {
    let spec = demo_spec();
    let dir = temp_dir("range");
    let checkpoint = FleetCheckpoint {
        dir: dir.clone(),
        every_sweeps: 2,
        retain: 4,
    };
    let mut first = config(2);
    first.checkpoint = Some(checkpoint.clone());
    first.stop_after_sweep = Some(2);
    run_fleet(&spec, &first).expect("first coordinator runs");

    // Rewrite the cut with one label past the 4-label space, re-sealed
    // so the store's checksum and decoder accept it.
    let path = dir.join(format!("{COORD_KEY}-00000002.ckpt"));
    let mut cut = mogs_ckpt::decode(&std::fs::read(&path).expect("sweep-2 cut")).expect("intact");
    cut.state.labels[17] = 4;
    let bytes = mogs_ckpt::encode(&cut);
    assert!(
        mogs_ckpt::decode(&bytes).is_ok(),
        "the decoder checks no label range"
    );
    std::fs::write(&path, bytes).expect("rewrite the cut");

    let mut second = config(2);
    second.checkpoint = Some(checkpoint);
    second.resume = true;
    match run_fleet(&spec, &second) {
        Err(FleetError::Spec { reason }) => {
            assert!(reason.contains("label 4"), "{reason}");
        }
        Err(other) => panic!("expected a typed spec refusal, got {other:?}"),
        Ok(output) => panic!(
            "a cut with a label outside the space resumed ({} sweeps)",
            output.iterations_run
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_kill_in_the_last_phase_replays_every_completed_group() {
    let spec = stereo_spec(3);
    let groups = FleetStructure::of(&spec).expect("structure").group_count();
    let reference = run_in_process(&spec).expect("engine runs");
    for respawn in [true, false] {
        let mut config = config(3);
        config.respawn = respawn;
        config.chaos = ChaosPlan {
            kills: vec![KillAt {
                sweep: 3,
                group: groups - 1,
                worker: 1,
            }],
        };
        let output = run_fleet(&spec, &config).expect("fleet survives the kill");
        assert_eq!(output.migrations, 1, "respawn {respawn}");
        match output.degraded {
            None => assert!(respawn, "adoption must report degradation"),
            Some(degraded) => {
                assert!(!respawn, "a respawned fleet is not degraded");
                assert_eq!((degraded.failed_over_at, degraded.units_lost), (3, 1));
            }
        }
        assert!(
            output.bit_identical_to(&reference),
            "a last-phase kill diverged from the engine (respawn {respawn})"
        );
    }
}
