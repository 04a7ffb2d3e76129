//! A15: fleet kill-ladder — multi-process survival and bit-identity, as
//! a `repro` gate. Fleet speed is the benchmark's `fleet2` row
//! (`benchmark/`), not measured here.
//!
//! The `mogs-fleet` e2e suite proves the kill-ladder against spawned
//! `fleet-worker` binaries; this experiment is the always-on CI face of
//! the same contract, driven through `repro fleet`:
//!
//! * **clean rows** run an N-process fleet on both backends (TCP and
//!   Unix-socket transports) and require the output bit-identical —
//!   labels, MAP estimate, energy trace as raw IEEE-754 bits — to a
//!   single-process engine run of the same spec;
//! * **kill rows** SIGKILL a worker mid-sweep on both backends; the
//!   coordinator must migrate the shard (respawn, or adoption with a
//!   `Degraded` completion when respawn is off) and still match the
//!   engine bit for bit;
//! * the **rolling row** kills three workers across three sweeps within
//!   the migration budget;
//! * the **collapse row** kills with the budget at zero and requires the
//!   typed [`FleetError::FleetCollapse`] — never a hang or a wrong
//!   answer;
//! * the **restart row** stops the coordinator at a sweep boundary and
//!   resumes from the durable checkpoints with a fresh one.
//!
//! Chaos rows need real processes to kill, so [`run`] uses
//! [`Launcher::SelfExec`] — the `repro` binary re-executes itself as a
//! worker via [`mogs_fleet::maybe_run_worker`]. Hosts without that hook
//! (the unit test below) use [`run_with_launcher`] and an in-process
//! launcher, which skips the chaos rows.

use std::path::PathBuf;

use mogs_fleet::{
    run_fleet, run_in_process, BackendKind, ChaosPlan, FleetCheckpoint, FleetConfig, FleetError,
    FleetOutput, FleetSpec, KillAt, Launcher, TransportKind, Workload,
};

use crate::report::render_table;

/// One ladder row: a scenario, what happened, and whether it passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRow {
    /// Scenario id, e.g. `clean softmax/tcp` or `kill rsu`.
    pub scenario: String,
    /// Human-readable outcome detail.
    pub detail: String,
    /// Whether the scenario met its gate.
    pub pass: bool,
}

/// Everything `repro fleet` reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetLadder {
    /// Kill-ladder rows.
    pub rows: Vec<FleetRow>,
}

/// The demo ladder spec: small enough for CI, large enough that every
/// worker owns several chunks.
fn demo_spec(backend: BackendKind) -> FleetSpec {
    FleetSpec {
        workload: Workload::Demo {
            width: 10,
            height: 8,
            labels: 4,
        },
        backend,
        iterations: 8,
        threads: 2,
        seed: 0xFEE7_F1EE,
        burn_in: 3,
    }
}

fn config(workers: usize, launcher: &Launcher) -> FleetConfig {
    let mut config = FleetConfig::new(workers);
    config.launcher = launcher.clone();
    config
}

/// Bit-exact comparison against the single-process engine run.
fn identical(output: &FleetOutput, spec: &FleetSpec) -> Result<bool, String> {
    let reference = run_in_process(spec).map_err(|e| format!("engine reference: {e}"))?;
    Ok(output.bit_identical_to(&reference))
}

fn gate(scenario: &str, outcome: Result<String, String>) -> FleetRow {
    match outcome {
        Ok(detail) => FleetRow {
            scenario: scenario.to_string(),
            detail,
            pass: true,
        },
        Err(detail) => FleetRow {
            scenario: scenario.to_string(),
            detail,
            pass: false,
        },
    }
}

/// Runs the ladder with the self-exec launcher (the `repro` binary calls
/// [`mogs_fleet::maybe_run_worker`] first thing in `main`, so it can act
/// as its own worker).
#[must_use]
pub fn run(quick: bool) -> FleetLadder {
    run_with_launcher(quick, &Launcher::SelfExec)
}

/// Runs the ladder with an explicit launcher. An in-process launcher
/// cannot be SIGKILLed, so the chaos rows (kill, degrade, rolling,
/// collapse) are skipped for it; clean and restart rows always run.
#[must_use]
pub fn run_with_launcher(quick: bool, launcher: &Launcher) -> FleetLadder {
    let mut rows = Vec::new();

    // Clean rows: both backends, both transports.
    for (tag, spec, transport) in [
        (
            "clean softmax/tcp",
            demo_spec(BackendKind::Softmax),
            TransportKind::Tcp,
        ),
        (
            "clean rsu/unix",
            demo_spec(BackendKind::Rsu { replicas: 4 }),
            TransportKind::Unix,
        ),
    ] {
        let mut cfg = config(3, launcher);
        cfg.transport = transport;
        rows.push(gate(tag, clean_row(&spec, &cfg)));
    }

    let processes = !matches!(launcher, Launcher::InProcess);
    if processes {
        // Kill-one-mid-sweep on both backends: the acceptance gate.
        for (tag, spec) in [
            ("kill softmax", demo_spec(BackendKind::Softmax)),
            ("kill rsu", demo_spec(BackendKind::Rsu { replicas: 4 })),
        ] {
            rows.push(gate(tag, kill_row(&spec, launcher)));
        }
        rows.push(gate(
            "degrade (no spare)",
            degrade_row(&demo_spec(BackendKind::Softmax), launcher),
        ));
        if !quick {
            rows.push(gate(
                "rolling kills",
                rolling_row(&demo_spec(BackendKind::Softmax), launcher),
            ));
        }
        rows.push(gate(
            "collapse (budget 0)",
            collapse_row(&demo_spec(BackendKind::Softmax), launcher),
        ));
    }
    rows.push(gate(
        "coordinator restart",
        restart_row(&demo_spec(BackendKind::Softmax), launcher),
    ));
    FleetLadder { rows }
}

fn clean_row(spec: &FleetSpec, cfg: &FleetConfig) -> Result<String, String> {
    let output = run_fleet(spec, cfg).map_err(|e| format!("fleet failed: {e}"))?;
    if output.migrations != 0 || output.degraded.is_some() {
        return Err(format!(
            "unexpected churn: {} migration(s), degraded {:?}",
            output.migrations, output.degraded
        ));
    }
    if !identical(&output, spec)? {
        return Err("DIVERGED from the engine".to_string());
    }
    Ok(format!("{} workers: bit-identical", cfg.workers))
}

fn kill_row(spec: &FleetSpec, launcher: &Launcher) -> Result<String, String> {
    let mut cfg = config(3, launcher);
    cfg.chaos = ChaosPlan {
        kills: vec![KillAt {
            sweep: 2,
            group: 1,
            worker: 1,
        }],
    };
    let output = run_fleet(spec, &cfg).map_err(|e| format!("fleet failed: {e}"))?;
    if output.migrations != 1 {
        return Err(format!("{} migrations, wanted 1", output.migrations));
    }
    if !identical(&output, spec)? {
        return Err("DIVERGED after migration".to_string());
    }
    Ok(format!(
        "migrated 1 shard ({} spawns): bit-identical",
        output.workers_spawned
    ))
}

fn degrade_row(spec: &FleetSpec, launcher: &Launcher) -> Result<String, String> {
    let mut cfg = config(3, launcher);
    cfg.respawn = false;
    cfg.chaos = ChaosPlan {
        kills: vec![KillAt {
            sweep: 3,
            group: 0,
            worker: 2,
        }],
    };
    let output = run_fleet(spec, &cfg).map_err(|e| format!("fleet failed: {e}"))?;
    let Some(degraded) = output.degraded else {
        return Err("completed without reporting degradation".to_string());
    };
    if !identical(&output, spec)? {
        return Err("DIVERGED after adoption".to_string());
    }
    Ok(format!(
        "adopted at sweep {}, {} unit(s) lost: bit-identical",
        degraded.failed_over_at, degraded.units_lost
    ))
}

fn rolling_row(spec: &FleetSpec, launcher: &Launcher) -> Result<String, String> {
    let mut cfg = config(3, launcher);
    cfg.max_migrations = 4;
    cfg.chaos = ChaosPlan {
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
    let output = run_fleet(spec, &cfg).map_err(|e| format!("fleet failed: {e}"))?;
    if output.migrations != 3 {
        return Err(format!("{} migrations, wanted 3", output.migrations));
    }
    if !identical(&output, spec)? {
        return Err("DIVERGED under rolling kills".to_string());
    }
    Ok(format!(
        "3 kills, 3 migrations ({} spawns): bit-identical",
        output.workers_spawned
    ))
}

fn collapse_row(spec: &FleetSpec, launcher: &Launcher) -> Result<String, String> {
    let mut cfg = config(2, launcher);
    cfg.max_migrations = 0;
    cfg.chaos = ChaosPlan {
        kills: vec![KillAt {
            sweep: 1,
            group: 0,
            worker: 0,
        }],
    };
    match run_fleet(spec, &cfg) {
        Err(FleetError::FleetCollapse { max_migrations, .. }) => {
            Ok(format!("typed collapse at budget {max_migrations}"))
        }
        Err(other) => Err(format!("wrong error variant: {other}")),
        Ok(_) => Err("COMPLETED despite a kill with no migration budget".to_string()),
    }
}

fn restart_row(spec: &FleetSpec, launcher: &Launcher) -> Result<String, String> {
    let dir = scratch_dir("restart");
    let checkpoint = FleetCheckpoint {
        dir: dir.clone(),
        every_sweeps: 2,
        retain: 8,
    };
    let mut first = config(3, launcher);
    first.checkpoint = Some(checkpoint.clone());
    first.stop_after_sweep = Some(4);
    let paused = run_fleet(spec, &first).map_err(|e| format!("first coordinator: {e}"))?;
    if paused.finished || paused.iterations_run != 4 {
        return Err(format!(
            "stop_after_sweep misbehaved: finished={}, ran {}",
            paused.finished, paused.iterations_run
        ));
    }
    let mut second = config(3, launcher);
    second.checkpoint = Some(checkpoint);
    second.resume = true;
    let resumed = run_fleet(spec, &second).map_err(|e| format!("second coordinator: {e}"))?;
    let pass = resumed.finished && identical(&resumed, spec)?;
    let _ = std::fs::remove_dir_all(&dir);
    if pass {
        Ok("stopped at sweep 4, resumed: bit-identical".to_string())
    } else {
        Err("resumed run DIVERGED from the uninterrupted engine".to_string())
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mogs-repro-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Renders the ladder.
#[must_use]
pub fn render(result: &FleetLadder) -> String {
    let ladder: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.detail.clone(),
                if r.pass { "ok" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    format!(
        "A15: fleet kill-ladder (mogs-fleet)\n\n{}",
        render_table(&["scenario", "outcome", "gate"], &ladder)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test binary has no self-exec worker hook, so this covers the
    /// chaos-free rows with thread workers; the chaos rows run under
    /// `repro fleet` (and the `mogs-fleet` e2e suite covers them against
    /// real processes).
    #[test]
    fn in_process_ladder_is_all_green() {
        let result = run_with_launcher(true, &Launcher::InProcess);
        // 2 clean + 1 restart; chaos rows are skipped in-process.
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(row.pass, "{}: {}", row.scenario, row.detail);
        }
        assert!(render(&result).contains("fleet kill-ladder"));
    }
}
