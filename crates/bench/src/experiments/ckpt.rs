//! A14: durable checkpoint ladder — resume fidelity, corruption
//! rejection, and retention, as a `repro` gate.
//!
//! The crash-recovery integration test in `mogs-ckpt` proves the
//! SIGKILL story; this ladder is the always-on CI face of the same
//! contract, run in-process so it needs no child processes:
//!
//! * **resume rows** run the shared harness job to completion while
//!   checkpointing, then seat the mid-run checkpoint under a fresh spec
//!   and require the resumed output to be bit-identical (labels, MAP,
//!   energy trace as raw IEEE-754 bits) to the uninterrupted run — per
//!   backend, with and without an active fault plan;
//! * **corruption rows** mutate a sealed checkpoint file the three ways
//!   disk goes bad (truncation, bit flip, future format version), plus
//!   the file a pre-v2 build would have left behind, and require the
//!   typed rejection for each — loading never guesses;
//! * the **retention row** writes more checkpoints than the store's
//!   bound and requires exactly `retain` survivors on disk.

use std::path::{Path, PathBuf};

use mogs_ckpt::harness::{backend_from_arg, demo_spec, resume_one, run_one, DEMO_SWEEPS};
use mogs_ckpt::{decode, CheckpointStore};
use mogs_engine::{CheckpointPolicy, JobOutput};

use crate::report::render_table;

/// One ladder row: a scenario, what happened, and whether it passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptRow {
    /// Scenario id, e.g. `resume softmax/clean` or `corrupt truncated`.
    pub scenario: String,
    /// Human-readable outcome detail.
    pub detail: String,
    /// Whether the scenario met its gate.
    pub pass: bool,
}

/// Runs the ladder. Quick mode keeps one clean and one faulted resume
/// row (softmax and RSU-pool respectively); the full grid runs all four
/// backend × fault combinations. Corruption and retention rows always
/// run.
///
/// # Panics
///
/// Panics if the scratch directory under the system temp dir cannot be
/// created, or if the harness job fails to admit.
#[must_use]
pub fn run(quick: bool) -> Vec<CkptRow> {
    let dir = std::env::temp_dir().join(format!("mogs-repro-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let grid: &[(&str, bool)] = if quick {
        &[("softmax", false), ("rsu", true)]
    } else {
        &[
            ("softmax", false),
            ("softmax", true),
            ("rsu", false),
            ("rsu", true),
        ]
    };
    let mut rows: Vec<CkptRow> = grid
        .iter()
        .map(|&(backend, faulted)| resume_row(&dir, backend, faulted))
        .collect();
    rows.extend(corruption_rows(&dir));
    rows.push(retention_row(&dir));

    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// Bit-exact output comparison, float traces compared as raw bits.
fn bit_identical(resumed: &JobOutput, reference: &JobOutput) -> bool {
    let bits = |o: &JobOutput| -> Vec<u64> { o.energy_trace.iter().map(|e| e.to_bits()).collect() };
    resumed.labels == reference.labels
        && resumed.map_estimate == reference.map_estimate
        && bits(resumed) == bits(reference)
        && resumed.iterations_run == reference.iterations_run
        && resumed.degraded == reference.degraded
}

/// # Panics
///
/// Panics if the harness job cannot run or leaves no mid-run checkpoint.
fn resume_row(dir: &Path, backend: &str, faulted: bool) -> CkptRow {
    let kind = if faulted { "fault" } else { "clean" };
    let key = format!("resume-{backend}-{kind}");
    let store = CheckpointStore::open(dir, 1).expect("store opens");
    let writer = store.writer(&key, String::new());
    // One checkpoint, cut exactly mid-run: the resumed half re-runs the
    // larger part of the sweep budget.
    let policy = CheckpointPolicy::every(DEMO_SWEEPS / 2);
    let reference = run_one(demo_spec(
        backend_from_arg(backend),
        faulted,
        Some((policy, writer)),
        None,
    ));
    let (_, checkpoint) = store
        .latest(&key)
        .expect("latest reads")
        .expect("mid-run checkpoint written");
    let cursor = checkpoint.state.next_sweep;
    let resumed = resume_one(
        demo_spec(backend_from_arg(backend), faulted, None, None),
        &checkpoint.state,
    );
    let pass = bit_identical(&resumed, &reference);
    CkptRow {
        scenario: format!("resume {backend}/{kind}"),
        detail: format!(
            "sweep {cursor}/{DEMO_SWEEPS}: {}",
            if pass { "bit-identical" } else { "DIVERGED" }
        ),
        pass,
    }
}

/// Writes one genuine checkpoint file to mutate. Returns its bytes.
///
/// # Panics
///
/// Panics if the donor job cannot run or its checkpoint file is gone.
fn sealed_envelope(dir: &Path) -> Vec<u8> {
    let key = "corruption-donor";
    let store = CheckpointStore::open(dir, 1).expect("store opens");
    let writer = store.writer(key, "donor".to_string());
    let _ = run_one(demo_spec(
        backend_from_arg("softmax"),
        false,
        Some((CheckpointPolicy::every(DEMO_SWEEPS / 2), writer)),
        None,
    ));
    let (path, _) = store
        .latest(key)
        .expect("latest reads")
        .expect("donor checkpoint written");
    std::fs::read(path).expect("donor file reads")
}

/// # Panics
///
/// Panics if the donor file does not open with the v2 version field.
fn corruption_rows(dir: &Path) -> Vec<CkptRow> {
    let envelope = sealed_envelope(dir);
    // One flipped bit in the raw sections (the file's last byte): the
    // header stays valid, the checksum does not.
    let mut flipped = envelope.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let current = b"{\"version\":2";
    assert!(envelope.starts_with(current), "donor is a v2 file");
    let mut future = b"{\"version\":99".to_vec();
    future.extend_from_slice(&envelope[current.len()..]);
    // What the retired v1 format put on disk: same opening bytes, an
    // escaped-JSON payload string where v2 has its length field.
    let v1 = b"{\"version\":1,\"payload\":\"{\\\"meta\\\":\\\"donor\\\"}\",\
               \"checksum\":\"0123456789abcdef\"}"
        .to_vec();
    let cases = [
        (
            "truncated",
            envelope[..envelope.len() / 2].to_vec(),
            "truncated",
        ),
        ("bit-flip", flipped, "checksum-mismatch"),
        ("future version", future, "version-mismatch"),
        ("retired v1 file", v1, "version-mismatch"),
    ];
    cases
        .into_iter()
        .map(|(name, mutated, want)| {
            let outcome = decode(&mutated);
            let (pass, detail) = match outcome {
                Ok(_) => (false, "ACCEPTED corrupt envelope".to_string()),
                Err(err) => (
                    err.variant() == want,
                    format!("rejected: {}", err.variant()),
                ),
            };
            CkptRow {
                scenario: format!("corrupt {name}"),
                detail,
                pass,
            }
        })
        .collect()
}

/// # Panics
///
/// Panics if the scratch store cannot open or the job fails to run.
fn retention_row(dir: &Path) -> CkptRow {
    const RETAIN: usize = 3;
    let key = "retention";
    let store = CheckpointStore::open(dir, RETAIN).expect("store opens");
    let writer = store.writer(key, String::new());
    // every(4) over 36 sweeps cuts checkpoints at 4, 8, …, 32 — eight
    // writes against a bound of three.
    let written = DEMO_SWEEPS / 4 - 1;
    let _ = run_one(demo_spec(
        backend_from_arg("softmax"),
        false,
        Some((CheckpointPolicy::every(4), writer)),
        None,
    ));
    let kept = files_for_key(dir, key);
    CkptRow {
        scenario: "retention".to_string(),
        detail: format!("{kept}/{written} checkpoints on disk (bound {RETAIN})"),
        pass: kept == RETAIN,
    }
}

/// # Panics
///
/// Panics if the scratch directory cannot be listed.
fn files_for_key(dir: &Path, key: &str) -> usize {
    let prefix = format!("{key}-");
    std::fs::read_dir(dir)
        .expect("scratch dir lists")
        .filter_map(Result::ok)
        .filter(|e| {
            let name = PathBuf::from(e.file_name());
            name.to_string_lossy().starts_with(&prefix)
                && name.extension().is_some_and(|x| x == "ckpt")
        })
        .count()
}

/// Renders the ladder.
#[must_use]
pub fn render(rows: &[CkptRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.detail.clone(),
                if r.pass { "ok" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    let mut s = String::from("A14: durable checkpoint ladder (mogs-ckpt)\n\n");
    s.push_str(&render_table(&["scenario", "outcome", "gate"], &table));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ladder_is_all_green() {
        let rows = run(true);
        // 2 resume + 4 corruption + 1 retention.
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert!(row.pass, "{}: {}", row.scenario, row.detail);
        }
    }
}
