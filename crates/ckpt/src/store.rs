//! The durable checkpoint store: atomic writes, bounded retention, and
//! the recovery scan.
//!
//! One store owns one directory. Each job is filed under a caller-chosen
//! *key*; a capture at sweep cursor `k` lands in
//! `<key>-<k padded to 8 digits>.ckpt`, so lexicographic filename order
//! *is* progress order and "the latest checkpoint" needs no index file.
//! Writes are crash-safe by construction: the file is written to a
//! `.tmp` sibling and atomically renamed into place, so a reader (or a
//! recovery scan after a crash) only ever sees complete files — the
//! worst a mid-write kill leaves behind is a `.tmp` orphan, which every
//! scan ignores and the next successful save of that key sweeps up.
//!
//! Retention is bounded per key: a save at cursor `k` supersedes the
//! key's files past `k` (they were left by an earlier run under the same
//! key), and then the oldest checkpoints beyond `retain` are deleted, so
//! a long job costs O(retain) disk, not O(sweeps / cadence), and the
//! file a save returns is always the key's newest.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mogs_engine::{CheckpointWriter, JobState};

use crate::error::CkptError;
use crate::format::{decode, encode_parts, Checkpoint};

/// Filename suffix of a completed checkpoint.
const CKPT_EXT: &str = ".ckpt";
/// Suffix of an in-flight write; never read by scans.
const TMP_EXT: &str = ".ckpt.tmp";

/// A directory of checkpoints with per-key retention.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
}

/// One resumable job found by [`CheckpointStore::scan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScanEntry {
    /// The key the checkpoint was saved under (sanitized form).
    pub key: String,
    /// Path of the newest loadable checkpoint for the key.
    pub path: PathBuf,
    /// Its decoded contents.
    pub checkpoint: Checkpoint,
}

/// Everything a [`CheckpointStore::scan`] found.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// Newest loadable checkpoint per key, sorted by key.
    pub resumable: Vec<ScanEntry>,
    /// Files that exist but cannot be trusted, with the typed reason.
    /// A key appears in `resumable` as long as *any* of its files
    /// loads; its newer, corrupt siblings still show up here.
    pub rejected: Vec<(PathBuf, CkptError)>,
}

/// Why [`CheckpointStore::gc`] discarded a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcReason {
    /// A `.ckpt.tmp` write that never reached its atomic rename (the
    /// writer crashed mid-save) and has sat past the age bound.
    Orphan,
    /// A completed `.ckpt` file the decoder rejects — the same files
    /// [`CheckpointStore::scan`] reports in `rejected`. Corruption does
    /// not heal with time, so age is not consulted.
    Corrupt,
    /// A loadable checkpoint nobody resumed or pruned within the age
    /// bound (e.g. its job finished without [`CheckpointStore::remove`]).
    Stale,
}

impl GcReason {
    /// Stable label, as exported on the serve metrics endpoint.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            GcReason::Orphan => "orphan",
            GcReason::Corrupt => "corrupt",
            GcReason::Stale => "stale",
        }
    }
}

/// What one [`CheckpointStore::gc`] sweep discarded.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Every deleted file with the reason it was deleted.
    pub discarded: Vec<(PathBuf, GcReason)>,
}

impl GcReport {
    /// Deleted files with the given reason.
    #[must_use]
    pub fn count(&self, reason: GcReason) -> usize {
        self.discarded.iter().filter(|(_, r)| *r == reason).count()
    }

    /// Deleted files, all reasons.
    #[must_use]
    pub fn total(&self) -> usize {
        self.discarded.len()
    }
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory. `retain`
    /// bounds how many checkpoints each key keeps; zero is treated as
    /// one, since a store that keeps nothing cannot resume anything.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, CkptError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(io_error("create-dir"))?;
        Ok(CheckpointStore {
            dir,
            retain: retain.max(1),
        })
    }

    /// The directory this store owns.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The per-key retention bound.
    #[must_use]
    pub fn retain(&self) -> usize {
        self.retain
    }

    /// Persists one checkpoint under `key`, atomically, then prunes the
    /// key's history: files past this cursor (an earlier run's) and the
    /// oldest beyond the retention bound. Returns the final path.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the write or rename fails. Retention
    /// pruning is best-effort: a failed delete never fails the save.
    pub fn save(&self, key: &str, checkpoint: &Checkpoint) -> Result<PathBuf, CkptError> {
        self.save_parts(&sanitize_key(key), &checkpoint.meta, &checkpoint.state)
    }

    /// [`save`](Self::save) over borrowed parts and an already-sanitized
    /// key — the path the engine-facing writer takes every boundary.
    fn save_parts(&self, key: &str, meta: &str, state: &JobState) -> Result<PathBuf, CkptError> {
        let path = self
            .dir
            .join(format!("{key}-{:08}{CKPT_EXT}", state.next_sweep));
        let tmp = self
            .dir
            .join(format!("{key}-{:08}{TMP_EXT}", state.next_sweep));
        std::fs::write(&tmp, encode_parts(meta, state)).map_err(io_error("write"))?;
        std::fs::rename(&tmp, &path).map_err(io_error("rename"))?;
        self.prune(key, &path);
        Ok(path)
    }

    /// Loads and verifies one checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the file cannot be read, or any decode
    /// error from [`decode`](crate::decode).
    pub fn load(&self, path: &Path) -> Result<Checkpoint, CkptError> {
        decode(&std::fs::read(path).map_err(io_error("read"))?)
    }

    /// The newest loadable checkpoint for `key`, or `None` when the key
    /// has no files at all.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the directory cannot be listed, or the
    /// newest file's decode error when the key has files but none
    /// loads.
    pub fn latest(&self, key: &str) -> Result<Option<(PathBuf, Checkpoint)>, CkptError> {
        let key = sanitize_key(key);
        let mut files = self.files_for(&key)?;
        if files.is_empty() {
            return Ok(None);
        }
        // Newest first; fall back through older checkpoints so one
        // corrupted file does not strand a resumable job.
        files.reverse();
        let mut first_err = None;
        for path in files {
            match self.load(&path) {
                Ok(checkpoint) => return Ok(Some((path, checkpoint))),
                Err(err) => first_err = first_err.or(Some(err)),
            }
        }
        match first_err {
            Some(err) => Err(err),
            // Unreachable: `files` was checked non-empty above, so the
            // loop either returned a checkpoint or recorded an error.
            None => Ok(None),
        }
    }

    /// Walks the whole directory and reports, per key, the newest
    /// checkpoint that actually loads, plus every file that had to be
    /// rejected. This is the serve front-end's restart-recovery entry
    /// point.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the directory cannot be listed. Unreadable
    /// or corrupt *files* are reported in the result, not as an error.
    pub fn scan(&self) -> Result<ScanReport, CkptError> {
        let names = self.completed_names(|_| true)?;
        let mut report = ScanReport::default();
        let mut index = 0;
        while index < names.len() {
            let key = key_of(&names[index]).to_string();
            let mut group_end = index + 1;
            while group_end < names.len() && key_of(&names[group_end]) == key {
                group_end += 1;
            }
            // Newest first within the key's (sorted) group.
            let mut found = None;
            for name in names[index..group_end].iter().rev() {
                let path = self.dir.join(name);
                if found.is_some() {
                    break;
                }
                match self.load(&path) {
                    Ok(checkpoint) => {
                        found = Some(ScanEntry {
                            key: key.clone(),
                            path,
                            checkpoint,
                        });
                    }
                    Err(err) => report.rejected.push((path, err)),
                }
            }
            report.resumable.extend(found);
            index = group_end;
        }
        Ok(report)
    }

    /// Deletes every checkpoint filed under `key` (e.g. once its job
    /// completes and durability is no longer owed). Returns how many
    /// files were removed.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the directory cannot be listed or a
    /// delete fails.
    pub fn remove(&self, key: &str) -> Result<usize, CkptError> {
        let key = sanitize_key(key);
        let files = self.files_for(&key)?;
        let count = files.len();
        for path in files {
            std::fs::remove_file(&path).map_err(io_error("remove"))?;
        }
        Ok(count)
    }

    /// Garbage-collects the directory: deletes `.ckpt.tmp` orphans and
    /// loadable-but-never-collected checkpoints older than `max_age`
    /// (by filesystem mtime), plus undecodable `.ckpt` files at any age.
    /// Files filed under a `live` key — a job running now, whose files
    /// are its durable record — are left alone whatever their age.
    /// Deletion is best-effort — a file that cannot be removed is simply
    /// not counted — so a concurrent save or resume never turns into an
    /// error here.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the directory itself cannot be listed.
    pub fn gc(&self, max_age: std::time::Duration, live: &[String]) -> Result<GcReport, CkptError> {
        let now = std::time::SystemTime::now();
        let live: Vec<String> = live.iter().map(|key| sanitize_key(key)).collect();
        let entries = std::fs::read_dir(&self.dir).map_err(io_error("read-dir"))?;
        let mut report = GcReport::default();
        let discard = |path: PathBuf, reason: GcReason, report: &mut GcReport| {
            if std::fs::remove_file(&path).is_ok() {
                report.discarded.push((path, reason));
            }
        };
        for entry in entries {
            let entry = entry.map_err(io_error("read-dir"))?;
            let Some(name) = entry.file_name().to_str().map(str::to_string) else {
                continue;
            };
            let stem = name.strip_suffix(TMP_EXT).unwrap_or(&name);
            if live.iter().any(|key| key == key_of(stem)) {
                continue;
            }
            let path = entry.path();
            // mtime age; an unreadable mtime means "not provably old".
            let expired = entry
                .metadata()
                .and_then(|meta| meta.modified())
                .ok()
                .and_then(|mtime| now.duration_since(mtime).ok())
                .is_some_and(|age| age >= max_age);
            if name.ends_with(TMP_EXT) {
                if expired {
                    discard(path, GcReason::Orphan, &mut report);
                }
            } else if name.ends_with(CKPT_EXT) {
                if self.load(&path).is_err() {
                    discard(path, GcReason::Corrupt, &mut report);
                } else if expired {
                    discard(path, GcReason::Stale, &mut report);
                }
            }
        }
        report.discarded.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(report)
    }

    /// An engine-facing [`CheckpointWriter`] that files every captured
    /// state under `key` with `meta` attached, through this store's
    /// atomic-save-then-prune path.
    #[must_use]
    pub fn writer(&self, key: &str, meta: String) -> Arc<dyn CheckpointWriter> {
        Arc::new(StoreWriter {
            store: self.clone(),
            key: sanitize_key(key),
            meta,
        })
    }

    /// Names of the completed checkpoint files `keep` accepts, sorted —
    /// which groups them by key, oldest sweep first within a key.
    fn completed_names(&self, keep: impl Fn(&str) -> bool) -> Result<Vec<String>, CkptError> {
        let mut names: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(io_error("read-dir"))? {
            let entry = entry.map_err(io_error("read-dir"))?;
            if let Some(name) = entry.file_name().to_str() {
                if name.ends_with(CKPT_EXT) && !name.ends_with(TMP_EXT) && keep(name) {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// The key's completed checkpoint files in ascending (oldest-first)
    /// sweep order.
    fn files_for(&self, sanitized_key: &str) -> Result<Vec<PathBuf>, CkptError> {
        let names = self.completed_names(|name| key_of(name) == sanitized_key)?;
        Ok(names.into_iter().map(|name| self.dir.join(name)).collect())
    }

    /// Best-effort deletion, after a save to `newest`, of the key's files
    /// past it — they sort after it, so they hold later cursors of an
    /// earlier run — and of its oldest files beyond the retention bound.
    fn prune(&self, sanitized_key: &str, newest: &Path) {
        let Ok(files) = self.files_for(sanitized_key) else {
            return;
        };
        let kept = files
            .iter()
            .position(|path| path == newest)
            .map_or(files.len(), |at| at + 1);
        let evicted = kept.saturating_sub(self.retain);
        for path in files[..evicted].iter().chain(&files[kept..]) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Wraps an OS error from filesystem operation `op`.
fn io_error(op: &'static str) -> impl Fn(std::io::Error) -> CkptError {
    move |err| CkptError::Io {
        op,
        message: err.to_string(),
    }
}

/// Maps a caller key to filename-safe form: anything outside
/// `[A-Za-z0-9._-]` becomes `_`. Distinct keys can collide after
/// sanitization; callers that mint keys (the serve job store uses
/// `job-<id>`) already stay inside the safe set.
#[must_use]
pub fn sanitize_key(key: &str) -> String {
    let safe: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if safe.is_empty() {
        "_".to_string()
    } else {
        safe
    }
}

/// The key part of a checkpoint filename: the stem minus the trailing
/// `-<8 digits>` sweep cursor (kept whole when the suffix is absent,
/// e.g. for files created out-of-band).
fn key_of(name: &str) -> &str {
    let stem = name.strip_suffix(CKPT_EXT).unwrap_or(name);
    match stem.char_indices().rev().nth(8) {
        Some((cut, '-')) if stem[cut + 1..].bytes().all(|b| b.is_ascii_digit()) => &stem[..cut],
        _ => stem,
    }
}

/// [`CheckpointWriter`] adapter handed to the engine.
struct StoreWriter {
    store: CheckpointStore,
    key: String,
    meta: String,
}

impl CheckpointWriter for StoreWriter {
    fn write(&self, state: &JobState) -> Result<(), String> {
        self.store
            .save_parts(&self.key, &self.meta, state)
            .map(|_| ())
            .map_err(|err| err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_engine::StateBinding;

    /// What a v1 build left on disk.
    const V1_ENVELOPE: &str =
        "{\"version\":1,\"payload\":\"{}\",\"checksum\":\"0000000000000000\"}";

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mogs-ckpt-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn state_at(next_sweep: usize) -> JobState {
        JobState {
            binding: StateBinding {
                sites: 4,
                width: 2,
                height: 2,
                labels: 2,
                iterations: 16,
                burn_in: 0,
                threads: 1,
                seed: 11,
                fingerprint: 0x1234_5678_9ABC_DEF0,
                kernel: "softmax-gibbs".to_string(),
                track_modes: false,
                record_energy: true,
            },
            next_sweep,
            labels: vec![0, 1, 1, 0],
            energy_trace: vec![1.5; next_sweep],
            histograms: None,
            kernel_faults: Vec::new(),
            fault: None,
            sink_state: None,
        }
    }

    fn ckpt_at(next_sweep: usize) -> Checkpoint {
        Checkpoint {
            meta: format!("meta-{next_sweep}"),
            state: state_at(next_sweep),
        }
    }

    #[test]
    fn save_load_latest_round_trip() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir, 4).expect("open");
        let path = store.save("job-1", &ckpt_at(3)).expect("save");
        assert!(path.ends_with("job-1-00000003.ckpt"));
        assert_eq!(store.load(&path).expect("load"), ckpt_at(3));
        store.save("job-1", &ckpt_at(6)).expect("save");
        let (latest_path, latest) = store
            .latest("job-1")
            .expect("listable")
            .expect("has checkpoints");
        assert!(latest_path.ends_with("job-1-00000006.ckpt"));
        assert_eq!(latest, ckpt_at(6));
        assert!(store.latest("job-2").expect("listable").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_evicts_oldest_checkpoints() {
        let dir = temp_dir("retention");
        let store = CheckpointStore::open(&dir, 2).expect("open");
        for sweep in [1, 2, 3, 4, 5] {
            store.save("job-7", &ckpt_at(sweep)).expect("save");
        }
        let names: Vec<String> = {
            let mut v: Vec<String> = std::fs::read_dir(&dir)
                .expect("dir")
                .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
                .collect();
            v.sort();
            v
        };
        assert_eq!(
            names,
            vec![
                "job-7-00000004.ckpt".to_string(),
                "job-7-00000005.ckpt".to_string()
            ],
            "only the two newest survive"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_save_supersedes_an_earlier_runs_later_cursors() {
        let dir = temp_dir("supersede");
        let store = CheckpointStore::open(&dir, 2).expect("open");
        // An earlier run under the key got to sweep 29.
        store.save("job", &ckpt_at(28)).expect("save");
        store.save("job", &ckpt_at(29)).expect("save");
        // A new run under the same key starts over.
        for sweep in 1..=3 {
            let path = store.save("job", &ckpt_at(sweep)).expect("save");
            assert!(path.exists(), "sweep {sweep}: the saved file was deleted");
            let (latest_path, latest) = store
                .latest("job")
                .expect("listable")
                .expect("has checkpoints");
            assert_eq!(latest_path, path);
            assert_eq!(latest, ckpt_at(sweep));
        }
        assert_eq!(store.files_for("job").expect("listable").len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_reports_latest_per_key_and_rejects_corruption() {
        let dir = temp_dir("scan");
        let store = CheckpointStore::open(&dir, 8).expect("open");
        store.save("job-a", &ckpt_at(2)).expect("save");
        store.save("job-a", &ckpt_at(5)).expect("save");
        store.save("job-b", &ckpt_at(1)).expect("save");
        // Corrupt job-b's newest: a newer-but-corrupt file must land in
        // `rejected` while the older good one keeps the key resumable.
        let newer = dir.join("job-b-00000009.ckpt");
        std::fs::write(&newer, "garbage").expect("write corrupt");
        // So must a file left behind by a v1 build: refused as the wrong
        // version, never misparsed.
        let v1 = dir.join("job-a-00000007.ckpt");
        std::fs::write(&v1, V1_ENVELOPE).expect("write v1");
        // Leftover tmp files from a crash mid-write are invisible.
        std::fs::write(dir.join("job-c-00000001.ckpt.tmp"), "torn").expect("write tmp");
        let report = store.scan().expect("scan");
        let keys: Vec<(&str, usize)> = report
            .resumable
            .iter()
            .map(|e| (e.key.as_str(), e.checkpoint.state.next_sweep))
            .collect();
        assert_eq!(keys, vec![("job-a", 5), ("job-b", 1)]);
        let rejected: Vec<(&PathBuf, &str)> = report
            .rejected
            .iter()
            .map(|(path, err)| (path, err.variant()))
            .collect();
        assert_eq!(
            rejected,
            vec![(&v1, "version-mismatch"), (&newer, "malformed")]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_only_the_keys_files() {
        let dir = temp_dir("remove");
        let store = CheckpointStore::open(&dir, 8).expect("open");
        store.save("job-x", &ckpt_at(1)).expect("save");
        store.save("job-x", &ckpt_at(2)).expect("save");
        store.save("job-y", &ckpt_at(1)).expect("save");
        assert_eq!(store.remove("job-x").expect("remove"), 2);
        assert!(store.latest("job-x").expect("listable").is_none());
        assert!(store.latest("job-y").expect("listable").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_files_states_under_its_key() {
        let dir = temp_dir("writer");
        let store = CheckpointStore::open(&dir, 8).expect("open");
        let writer = store.writer("job/9", "request-body".to_string());
        writer.write(&state_at(4)).expect("write");
        let (_, checkpoint) = store
            .latest("job/9") // sanitized to job_9 on both sides
            .expect("listable")
            .expect("written");
        assert_eq!(checkpoint.meta, "request-body");
        assert_eq!(checkpoint.state, state_at(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_sweeps_orphans_corruption_and_stale_checkpoints() {
        use std::time::Duration;
        let dir = temp_dir("gc");
        let store = CheckpointStore::open(&dir, 8).expect("open");
        store.save("job-a", &ckpt_at(2)).expect("save");
        store.save("job-b", &ckpt_at(1)).expect("save");
        std::fs::write(dir.join("job-c-00000009.ckpt"), V1_ENVELOPE).expect("write v1");
        std::fs::write(dir.join("job-d-00000001.ckpt.tmp"), "torn").expect("write tmp");
        std::fs::write(dir.join("README"), "not a checkpoint").expect("write other");

        // A generous age bound: only the unreadable v1 file goes — fresh
        // checkpoints and a possibly in-flight tmp write survive, and
        // non-checkpoint files are never touched.
        let report = store.gc(Duration::from_secs(3600), &[]).expect("gc");
        assert_eq!(report.total(), 1);
        assert_eq!(report.count(GcReason::Corrupt), 1);
        assert_eq!(report.discarded[0].0, dir.join("job-c-00000009.ckpt"));
        assert!(store.latest("job-a").expect("listable").is_some());

        // Zero age: everything checkpoint-shaped is provably old, so the
        // stale checkpoints and the tmp orphan go too.
        let report = store.gc(Duration::ZERO, &[]).expect("gc");
        assert_eq!(report.count(GcReason::Stale), 2);
        assert_eq!(report.count(GcReason::Orphan), 1);
        assert_eq!(report.count(GcReason::Corrupt), 0);
        assert!(store.latest("job-a").expect("listable").is_none());
        assert!(dir.join("README").exists(), "foreign files are not gc'd");
        assert_eq!(GcReason::Stale.as_str(), "stale");
        assert_eq!(GcReason::Orphan.as_str(), "orphan");
        assert_eq!(GcReason::Corrupt.as_str(), "corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_spares_live_keys_whatever_their_age() {
        use std::time::Duration;
        let dir = temp_dir("gc-live");
        let store = CheckpointStore::open(&dir, 8).expect("open");
        store.save("job-1", &ckpt_at(1)).expect("save");
        store.save("job-2", &ckpt_at(1)).expect("save");
        std::fs::write(dir.join("job-1-00000002.ckpt.tmp"), "in flight").expect("write tmp");
        let report = store
            .gc(Duration::ZERO, &["job-1".to_string()])
            .expect("gc");
        assert_eq!(report.total(), 1, "{report:?}");
        assert_eq!(report.discarded[0].0, dir.join("job-2-00000001.ckpt"));
        assert!(store.latest("job-1").expect("listable").is_some());
        assert!(dir.join("job-1-00000002.ckpt.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_sanitize_and_filenames_parse_back() {
        assert_eq!(sanitize_key("job-1"), "job-1");
        assert_eq!(sanitize_key("a/b c"), "a_b_c");
        assert_eq!(sanitize_key(""), "_");
        assert_eq!(key_of("job-1-00000003.ckpt"), "job-1");
        assert_eq!(key_of("weird.ckpt"), "weird");
        assert_eq!(key_of("no-digits-here.ckpt"), "no-digits-here");
    }
}
