//! Engine observability: lock-free counters and latency histograms.
//!
//! Workers and the scheduler record into atomics; [`EngineMetrics::snapshot`]
//! reads them without stopping the engine and packages the result as a
//! serde-serializable [`MetricsSnapshot`] (served on `/metrics` by
//! `mogs-serve`, read by the benchmark's `--trace 1` layer table).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Number of power-of-two latency buckets (covers 1 µs .. ~2200 s).
const BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram over microseconds.
///
/// `record` is a single relaxed fetch-add per bucket plus two for the
/// count/total — cheap enough for per-sweep recording. Quantiles are
/// interpolated inside their power-of-two bucket and clamped to the
/// largest sample, so they are accurate to the bucket width and never
/// exceed `max_us`.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        // Bucket i holds samples with us < 2^(i+1); index by bit length.
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Reads the histogram into a plain snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        let total_us = self.total_us.load(Ordering::Relaxed);
        let max_us = self.max_us.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            let rank = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0;
            for (i, &c) in buckets.iter().enumerate() {
                if c > 0 && seen + c >= rank {
                    // Bucket i holds [2^(i-1), 2^i - 1] (bucket 0 holds 0,
                    // the last bucket is open-ended): interpolate by the
                    // rank's position inside it, never past the largest
                    // sample actually seen.
                    let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                    let hi = if i == BUCKETS - 1 {
                        max_us
                    } else {
                        ((1u64 << i) - 1).min(max_us)
                    };
                    let within = (rank - seen) as f64 / c as f64;
                    let span = hi.saturating_sub(lo) as f64;
                    return (lo + (within * span) as u64).min(max_us);
                }
                seen += c;
            }
            // Empty histogram, or a snapshot racing a `record`.
            max_us
        };
        HistogramSnapshot {
            count,
            total_us,
            mean_us: if count == 0 {
                0.0
            } else {
                total_us as f64 / count as f64
            },
            p50_us: quantile(0.50),
            p90_us: quantile(0.90),
            p99_us: quantile(0.99),
            max_us,
            buckets,
        }
    }
}

/// A point-in-time copy of one [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub total_us: u64,
    /// Mean sample, microseconds.
    pub mean_us: f64,
    /// Median estimate, microseconds (interpolated within its bucket).
    pub p50_us: u64,
    /// 90th-percentile estimate, microseconds.
    pub p90_us: u64,
    /// 99th-percentile estimate, microseconds.
    pub p99_us: u64,
    /// Largest recorded sample, microseconds.
    pub max_us: u64,
    /// Raw log₂ bucket counts (bucket `i` holds samples `< 2^(i+1)` µs).
    pub buckets: Vec<u64>,
}

/// Shared counters the engine's scheduler and workers record into.
#[derive(Debug)]
pub struct EngineMetrics {
    started: Instant,
    /// Jobs accepted into the submission queue.
    pub jobs_submitted: AtomicU64,
    /// Jobs rejected by `try_submit` because the queue was full.
    pub jobs_rejected: AtomicU64,
    /// Jobs denied at admission (failed the schedule audit, label-space
    /// check, or labeling validation) before any plane was built.
    pub jobs_denied: AtomicU64,
    /// Jobs that ran to their full iteration budget.
    pub jobs_completed: AtomicU64,
    /// Jobs that ended early through their cancellation handle.
    pub jobs_cancelled: AtomicU64,
    /// Jobs stopped at a sweep boundary by a diagnostics sink's
    /// convergence verdict.
    pub jobs_early_stopped: AtomicU64,
    /// Jobs that ended in a typed failure (worker panic past the retry
    /// budget, watchdog timeout, or an RSU-pool collapse with no exact
    /// fallback).
    pub jobs_failed: AtomicU64,
    /// Jobs failed by [`EngineError::WorkerPanicked`] specifically.
    ///
    /// [`EngineError::WorkerPanicked`]: crate::EngineError::WorkerPanicked
    pub jobs_panicked: AtomicU64,
    /// Jobs whose RSU pool collapsed under the live-unit floor and fell
    /// over to the exact softmax backend mid-flight.
    pub jobs_failed_over: AtomicU64,
    /// Panicked phases re-dispatched under the retry budget.
    pub phase_retries: AtomicU64,
    /// RSU units quarantined by the between-sweep health monitor.
    pub units_quarantined: AtomicU64,
    /// Checkpoints durably written at sweep boundaries.
    pub checkpoints_written: AtomicU64,
    /// Jobs admitted from a checkpointed state through `Engine::resume`.
    pub checkpoints_restored: AtomicU64,
    /// Jobs whose admission reused their grid shape's cached, already
    /// verified schedule and neighbour tables.
    pub admissions_shared: AtomicU64,
    /// Full sweeps (every site updated once) across all jobs.
    pub sweeps_completed: AtomicU64,
    /// Individual site updates across all jobs.
    pub site_updates: AtomicU64,
    /// Gauge: jobs waiting in the submission queue, written each time
    /// the scheduler takes a job from it.
    pub queue_depth: AtomicU64,
    /// High-water mark of the submission queue depth over the engine's
    /// lifetime (how close the bounded queue came to backpressure).
    pub queue_depth_hwm: AtomicU64,
    /// Gauge: jobs currently being swept.
    pub active_jobs: AtomicU64,
    /// Wall time per completed job.
    pub job_wall_time: LatencyHistogram,
    /// Wall time per sweep (includes task-queue waits).
    pub sweep_latency: LatencyHistogram,
    /// Wall time per phase (one independent group's fan-out, dispatch to
    /// drain — the engine's barrier granularity).
    pub phase_latency: LatencyHistogram,
    /// Capture to landed write per successful checkpoint (state capture,
    /// the next phase's dispatch, serialize + durable store), recorded
    /// by the worker that writes it before the next sweep's first chunk.
    pub checkpoint_write_us: LatencyHistogram,
}

impl EngineMetrics {
    /// Creates zeroed metrics with the uptime clock started now.
    pub fn new() -> Self {
        EngineMetrics {
            started: Instant::now(),
            jobs_submitted: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_denied: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_early_stopped: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
            jobs_failed_over: AtomicU64::new(0),
            phase_retries: AtomicU64::new(0),
            units_quarantined: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            checkpoints_restored: AtomicU64::new(0),
            admissions_shared: AtomicU64::new(0),
            sweeps_completed: AtomicU64::new(0),
            site_updates: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            active_jobs: AtomicU64::new(0),
            job_wall_time: LatencyHistogram::new(),
            sweep_latency: LatencyHistogram::new(),
            phase_latency: LatencyHistogram::new(),
            checkpoint_write_us: LatencyHistogram::new(),
        }
    }

    /// Reads every counter into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let uptime = self.started.elapsed();
        let secs = uptime.as_secs_f64().max(f64::MIN_POSITIVE);
        let sweeps = self.sweeps_completed.load(Ordering::Relaxed);
        let updates = self.site_updates.load(Ordering::Relaxed);
        MetricsSnapshot {
            uptime_ms: uptime.as_millis().min(u128::from(u64::MAX)) as u64,
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_denied: self.jobs_denied.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            jobs_early_stopped: self.jobs_early_stopped.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_panicked: self.jobs_panicked.load(Ordering::Relaxed),
            jobs_failed_over: self.jobs_failed_over.load(Ordering::Relaxed),
            phase_retries: self.phase_retries.load(Ordering::Relaxed),
            units_quarantined: self.units_quarantined.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            checkpoints_restored: self.checkpoints_restored.load(Ordering::Relaxed),
            admissions_shared: self.admissions_shared.load(Ordering::Relaxed),
            sweeps_completed: sweeps,
            site_updates: updates,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
            active_jobs: self.active_jobs.load(Ordering::Relaxed),
            sweeps_per_sec: sweeps as f64 / secs,
            site_updates_per_sec: updates as f64 / secs,
            job_wall_time: self.job_wall_time.snapshot(),
            sweep_latency: self.sweep_latency.snapshot(),
            phase_latency: self.phase_latency.snapshot(),
            checkpoint_write_us: self.checkpoint_write_us.snapshot(),
        }
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics::new()
    }
}

/// A point-in-time copy of all engine counters, serializable to JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Milliseconds since the engine started.
    pub uptime_ms: u64,
    /// Jobs accepted into the submission queue.
    pub jobs_submitted: u64,
    /// Jobs rejected by `try_submit` (queue full).
    pub jobs_rejected: u64,
    /// Jobs denied at admission by the audit gate.
    pub jobs_denied: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs cancelled before completion.
    pub jobs_cancelled: u64,
    /// Jobs early-stopped by a diagnostics sink's convergence verdict.
    pub jobs_early_stopped: u64,
    /// Jobs that ended in a typed failure.
    pub jobs_failed: u64,
    /// Jobs failed by a worker panic past the retry budget.
    pub jobs_panicked: u64,
    /// Jobs that failed over to the exact backend mid-flight.
    pub jobs_failed_over: u64,
    /// Panicked phases re-dispatched under the retry budget.
    pub phase_retries: u64,
    /// RSU units quarantined by the health monitor.
    pub units_quarantined: u64,
    /// Checkpoints durably written at sweep boundaries.
    pub checkpoints_written: u64,
    /// Jobs admitted from a checkpointed state.
    pub checkpoints_restored: u64,
    /// Jobs admitted on their grid shape's cached, verified schedule.
    pub admissions_shared: u64,
    /// Full sweeps across all jobs.
    pub sweeps_completed: u64,
    /// Site updates across all jobs.
    pub site_updates: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// Most jobs ever waiting in the queue at once.
    pub queue_depth_hwm: u64,
    /// Jobs currently active.
    pub active_jobs: u64,
    /// Cumulative sweeps per second of engine uptime.
    pub sweeps_per_sec: f64,
    /// Cumulative site updates per second of engine uptime.
    pub site_updates_per_sec: f64,
    /// Per-job wall-time distribution.
    pub job_wall_time: HistogramSnapshot,
    /// Per-sweep wall-time distribution.
    pub sweep_latency: HistogramSnapshot,
    /// Per-phase (group fan-out dispatch→drain) wall-time distribution.
    pub phase_latency: HistogramSnapshot,
    /// Per-checkpoint-write wall-time distribution.
    pub checkpoint_write_us: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_quantiles_bound_samples() {
        let h = LatencyHistogram::new();
        for us in [3u64, 5, 9, 100, 1000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.total_us, 1117);
        assert_eq!(s.max_us, 1000);
        assert!(s.p50_us >= 9, "median bound {} too small", s.p50_us);
        assert!(s.p99_us >= 1000, "p99 bound {} too small", s.p99_us);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn quantiles_interpolate_within_the_bucket_and_never_exceed_max() {
        // Reporting bucket upper bounds gave p50 = 262 ms for jobs whose
        // slowest sample was 137 ms.
        let h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(Duration::from_micros(120_000));
        }
        h.record(Duration::from_micros(137_000));
        let s = h.snapshot();
        // Rank 6 of the 10 samples in [65536, 131071]: 0.6 of the way up.
        assert_eq!(s.p50_us, 65_536 + 39_321);
        assert_eq!(s.p90_us, 131_071);
        // The top bucket's ceiling is the observed max, not 262143.
        assert_eq!(s.p99_us, 137_000);
        assert_eq!(s.max_us, 137_000);

        let single = LatencyHistogram::new();
        single.record(Duration::from_micros(1000));
        let s = single.snapshot();
        assert_eq!((s.p50_us, s.p90_us, s.p99_us), (1000, 1000, 1000));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.mean_us, 0.0);
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let m = EngineMetrics::new();
        m.jobs_submitted.fetch_add(3, Ordering::Relaxed);
        m.site_updates.fetch_add(1024, Ordering::Relaxed);
        m.sweep_latency.record(Duration::from_micros(42));
        let snap = m.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"jobs_submitted\":3"), "json: {json}");
        assert!(json.contains("\"site_updates\":1024"), "json: {json}");
        let back: MetricsSnapshot = serde::json::from_str(&json).expect("round trip");
        assert_eq!(back.jobs_submitted, 3);
        assert_eq!(back.sweep_latency.count, 1);
    }

    #[test]
    fn snapshot_exports_denials_hwm_and_phase_latency() {
        let m = EngineMetrics::new();
        m.jobs_denied.fetch_add(2, Ordering::Relaxed);
        m.queue_depth_hwm.fetch_max(9, Ordering::Relaxed);
        m.jobs_early_stopped.fetch_add(1, Ordering::Relaxed);
        m.phase_latency.record(Duration::from_micros(17));
        let json = m.snapshot().to_json();
        assert!(json.contains("\"jobs_denied\":2"), "json: {json}");
        assert!(json.contains("\"queue_depth_hwm\":9"), "json: {json}");
        assert!(json.contains("\"jobs_early_stopped\":1"), "json: {json}");
        let back: MetricsSnapshot = serde::json::from_str(&json).expect("round trip");
        assert_eq!(back.phase_latency.count, 1);
        assert!(back.phase_latency.p99_us >= 17);
    }

    #[test]
    fn snapshot_exports_fault_counters() {
        let m = EngineMetrics::new();
        m.jobs_failed.fetch_add(4, Ordering::Relaxed);
        m.jobs_panicked.fetch_add(1, Ordering::Relaxed);
        m.jobs_failed_over.fetch_add(2, Ordering::Relaxed);
        m.phase_retries.fetch_add(3, Ordering::Relaxed);
        m.units_quarantined.fetch_add(7, Ordering::Relaxed);
        let json = m.snapshot().to_json();
        assert!(json.contains("\"jobs_failed\":4"), "json: {json}");
        assert!(json.contains("\"jobs_panicked\":1"), "json: {json}");
        assert!(json.contains("\"jobs_failed_over\":2"), "json: {json}");
        assert!(json.contains("\"phase_retries\":3"), "json: {json}");
        assert!(json.contains("\"units_quarantined\":7"), "json: {json}");
        let back: MetricsSnapshot = serde::json::from_str(&json).expect("round trip");
        assert_eq!(back.units_quarantined, 7);
        assert_eq!(back.jobs_failed_over, 2);
    }

    #[test]
    fn snapshot_exports_checkpoint_counters() {
        let m = EngineMetrics::new();
        m.checkpoints_written.fetch_add(5, Ordering::Relaxed);
        m.checkpoints_restored.fetch_add(2, Ordering::Relaxed);
        m.checkpoint_write_us.record(Duration::from_micros(250));
        let json = m.snapshot().to_json();
        assert!(json.contains("\"checkpoints_written\":5"), "json: {json}");
        assert!(json.contains("\"checkpoints_restored\":2"), "json: {json}");
        let back: MetricsSnapshot = serde::json::from_str(&json).expect("round trip");
        assert_eq!(back.checkpoints_written, 5);
        assert_eq!(back.checkpoints_restored, 2);
        assert_eq!(back.checkpoint_write_us.count, 1);
        assert!(back.checkpoint_write_us.p99_us >= 250);
    }
}
