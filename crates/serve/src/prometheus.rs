//! Prometheus text-format (version 0.0.4) encoder for the engine and
//! serve metric families.
//!
//! The engine keeps its latency histograms in log₂ microsecond buckets
//! indexed by bit length: bucket `i` counts samples strictly below
//! `2^i` µs (and at least `2^(i-1)`). Since every sample is an integer
//! number of microseconds, the cumulative count through bucket `i` is
//! exactly the Prometheus bound `le = (2^i - 1) / 1e6` seconds — the
//! encoder converts per-bucket counts to running totals, emits
//! buckets through the last occupied one, and closes with the mandatory
//! `+Inf` bucket, `_sum` (seconds), and `_count`. This is what carries
//! the engine's `phase_latency` histogram (previously JSON-only) into
//! scrapeable form.
//!
//! Encoding choices are pinned by unit tests below; the
//! [`validate_exposition`] checker is exported so integration tests can
//! assert any `/metrics` body is well-formed without a real Prometheus
//! parser in the tree.

use mogs_engine::{HistogramSnapshot, MetricsSnapshot};

use crate::metrics::ServeMetricsSnapshot;
use crate::store::StoreSnapshot;
use crate::tenant::TenantSnapshot;

/// Renders every metric family the server exposes.
pub fn encode_metrics(
    engine: &MetricsSnapshot,
    serve: &ServeMetricsSnapshot,
    tenants: &[TenantSnapshot],
    store: StoreSnapshot,
) -> String {
    let mut out = String::with_capacity(8 * 1024);
    encode_engine(&mut out, engine);
    encode_serve(&mut out, serve, tenants, store);
    out
}

fn encode_engine(out: &mut String, m: &MetricsSnapshot) {
    counter(
        out,
        "mogs_engine_jobs_submitted_total",
        "Jobs accepted into the submission queue.",
        m.jobs_submitted,
    );
    counter(
        out,
        "mogs_engine_jobs_rejected_total",
        "Jobs refused by try_submit because the queue was full.",
        m.jobs_rejected,
    );
    counter(
        out,
        "mogs_engine_jobs_denied_total",
        "Jobs denied at admission validation.",
        m.jobs_denied,
    );
    counter(
        out,
        "mogs_engine_jobs_completed_total",
        "Jobs that ran their full iteration budget.",
        m.jobs_completed,
    );
    counter(
        out,
        "mogs_engine_jobs_cancelled_total",
        "Jobs ended through their cancellation handle.",
        m.jobs_cancelled,
    );
    counter(
        out,
        "mogs_engine_jobs_early_stopped_total",
        "Jobs stopped by a diagnostics sink's convergence verdict.",
        m.jobs_early_stopped,
    );
    counter(
        out,
        "mogs_engine_jobs_failed_total",
        "Jobs ended in a typed engine failure.",
        m.jobs_failed,
    );
    counter(
        out,
        "mogs_engine_jobs_panicked_total",
        "Jobs failed by a worker panic past the retry budget.",
        m.jobs_panicked,
    );
    counter(
        out,
        "mogs_engine_jobs_failed_over_total",
        "Jobs that fell over to the exact backend mid-flight.",
        m.jobs_failed_over,
    );
    counter(
        out,
        "mogs_engine_phase_retries_total",
        "Panicked phases re-dispatched under the retry budget.",
        m.phase_retries,
    );
    counter(
        out,
        "mogs_engine_units_quarantined_total",
        "RSU units quarantined by the health monitor.",
        m.units_quarantined,
    );
    counter(
        out,
        "mogs_engine_sweeps_completed_total",
        "Full sweeps across all jobs.",
        m.sweeps_completed,
    );
    counter(
        out,
        "mogs_engine_site_updates_total",
        "Individual site updates across all jobs.",
        m.site_updates,
    );
    gauge(
        out,
        "mogs_engine_queue_depth",
        "Jobs waiting in the submission queue.",
        m.queue_depth as f64,
    );
    gauge(
        out,
        "mogs_engine_queue_depth_hwm",
        "Submission-queue high-water mark over the engine's lifetime.",
        m.queue_depth_hwm as f64,
    );
    gauge(
        out,
        "mogs_engine_active_jobs",
        "Jobs currently being swept.",
        m.active_jobs as f64,
    );
    gauge(
        out,
        "mogs_engine_uptime_seconds",
        "Engine uptime.",
        m.uptime_ms as f64 / 1e3,
    );
    gauge(
        out,
        "mogs_engine_sweeps_per_sec",
        "Sweep throughput over the engine's lifetime.",
        m.sweeps_per_sec,
    );
    gauge(
        out,
        "mogs_engine_site_updates_per_sec",
        "Site-update throughput over the engine's lifetime.",
        m.site_updates_per_sec,
    );
    histogram(
        out,
        "mogs_engine_job_wall_time_seconds",
        "Wall time per completed job.",
        &m.job_wall_time,
    );
    histogram(
        out,
        "mogs_engine_sweep_latency_seconds",
        "Wall time per sweep, task-queue waits included.",
        &m.sweep_latency,
    );
    histogram(
        out,
        "mogs_engine_phase_latency_seconds",
        "Wall time per sweep phase (one colored group).",
        &m.phase_latency,
    );
    counter(
        out,
        "mogs_engine_checkpoints_written_total",
        "Durable sweep-boundary checkpoints handed to a writer.",
        m.checkpoints_written,
    );
    counter(
        out,
        "mogs_engine_checkpoints_restored_total",
        "Jobs admitted through resume from a captured state.",
        m.checkpoints_restored,
    );
    counter(
        out,
        "mogs_engine_admissions_shared_total",
        "Jobs admitted on their grid shape's cached, already verified schedule.",
        m.admissions_shared,
    );
    histogram(
        out,
        "mogs_engine_checkpoint_write_seconds",
        "Wall time per checkpoint from capture to landed write, on the worker that runs the next sweep's first chunk.",
        &m.checkpoint_write_us,
    );
}

fn encode_serve(
    out: &mut String,
    serve: &ServeMetricsSnapshot,
    tenants: &[TenantSnapshot],
    store: StoreSnapshot,
) {
    counter(
        out,
        "mogs_serve_connections_accepted_total",
        "TCP connections accepted.",
        serve.connections_accepted,
    );
    counter(
        out,
        "mogs_serve_http_requests_total",
        "HTTP requests parsed and routed.",
        serve.requests_total,
    );
    counter(
        out,
        "mogs_serve_responses_4xx_total",
        "Responses with a 4xx status.",
        serve.responses_4xx,
    );
    counter(
        out,
        "mogs_serve_responses_5xx_total",
        "Responses with a 5xx status.",
        serve.responses_5xx,
    );
    histogram(
        out,
        "mogs_serve_request_latency_seconds",
        "Request wall time, parse to response flush.",
        &serve.request_latency,
    );
    gauge(
        out,
        "mogs_serve_jobs_live",
        "Jobs queued or running in the store.",
        store.live as f64,
    );
    gauge(
        out,
        "mogs_serve_jobs_retained",
        "Terminal jobs retained for polling.",
        store.terminal as f64,
    );
    counter(
        out,
        "mogs_serve_jobs_evicted_total",
        "Terminal jobs evicted by the retention cap.",
        store.evicted,
    );
    family(
        out,
        "mogs_serve_checkpoints_discarded_total",
        "Checkpoint files deleted by the startup GC sweep, by reason.",
        "counter",
    );
    for (reason, count) in &serve.checkpoints_discarded {
        series(
            out,
            "mogs_serve_checkpoints_discarded_total",
            &[("reason", reason.as_str())],
            *count as f64,
        );
    }

    family(
        out,
        "mogs_serve_requests_total",
        "HTTP requests attributed to a tenant.",
        "counter",
    );
    for t in tenants {
        series(
            out,
            "mogs_serve_requests_total",
            &[("tenant", &t.name)],
            t.requests_total as f64,
        );
    }
    family(
        out,
        "mogs_serve_jobs_rejected_quota_total",
        "Submissions refused by the tenant's own quota (429).",
        "counter",
    );
    for t in tenants {
        series(
            out,
            "mogs_serve_jobs_rejected_quota_total",
            &[("tenant", &t.name)],
            t.rejected_quota as f64,
        );
    }
    family(
        out,
        "mogs_serve_jobs_rejected_backpressure_total",
        "Submissions refused by engine backpressure or the batch reserve (503).",
        "counter",
    );
    for t in tenants {
        series(
            out,
            "mogs_serve_jobs_rejected_backpressure_total",
            &[("tenant", &t.name)],
            t.rejected_backpressure as f64,
        );
    }
    family(
        out,
        "mogs_serve_jobs_in_flight",
        "Jobs queued or running per tenant.",
        "gauge",
    );
    for t in tenants {
        series(
            out,
            "mogs_serve_jobs_in_flight",
            &[("tenant", &t.name), ("priority", t.priority.name())],
            t.in_flight as f64,
        );
    }
}

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, help, "counter");
    series(out, name, &[], value as f64);
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    family(out, name, help, "gauge");
    series(out, name, &[], value);
}

fn series(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (key, val)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{key}=\"{}\"", escape_label(val)));
        }
        out.push('}');
    }
    out.push_str(&format!(" {}\n", number(value)));
}

/// Converts one engine log₂-µs histogram to Prometheus form: cumulative
/// `_bucket` lines with exact second bounds, through the last occupied
/// bucket, then `+Inf`, `_sum`, `_count`.
fn histogram(out: &mut String, name: &str, help: &str, snap: &HistogramSnapshot) {
    family(out, name, help, "histogram");
    let last = snap
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (i, &count) in snap.buckets.iter().take(last).enumerate() {
        cumulative += count;
        // The engine indexes by bit length: bucket i holds integer-µs
        // samples in [2^(i-1), 2^i - 1] (bucket 0 holds exactly 0), so
        // the cumulative count through bucket i is the count of samples
        // <= 2^i - 1 — an exact Prometheus bound, not an approximation.
        let le = ((1u128 << i) - 1) as f64 / 1e6;
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            number(le)
        ));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
    out.push_str(&format!(
        "{name}_sum {}\n{name}_count {}\n",
        number(snap.total_us as f64 / 1e6),
        snap.count
    ));
}

/// Formats a float the Prometheus parser accepts, preferring integers
/// without a trailing `.0`.
fn number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Checks that `text` is well-formed Prometheus text format: every
/// non-comment line is `name[{labels}] value`, every series was
/// declared by a `# TYPE` line, histogram buckets are cumulative, and
/// each histogram's `+Inf` bucket equals its `_count`.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    // Histogram name -> (last cumulative, last le, inf, count).
    let mut hist: HashMap<String, (u64, f64, Option<u64>, Option<u64>)> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.splitn(3, ' ');
            match (words.next(), words.next(), words.next()) {
                (Some("HELP"), Some(_), Some(_)) => {}
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown TYPE `{kind}`"));
                    }
                    types.insert(name.to_string(), kind.to_string());
                }
                _ => return Err(format!("line {n}: malformed comment `{line}`")),
            }
            continue;
        }
        let (series_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no value on `{line}`"))?;
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {n}: unparseable value `{value_part}`"))?;
        let (name, labels) = match series_part.split_once('{') {
            None => (series_part, None),
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, Some(labels))
            }
        };
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {n}: invalid metric name `{name}`"));
        }
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| types.get(*base).is_some_and(|k| k == "histogram"))
            .unwrap_or(name);
        if !types.contains_key(base) {
            return Err(format!("line {n}: series `{name}` has no TYPE declaration"));
        }
        if types.get(base).is_some_and(|k| k == "histogram") {
            let entry = hist
                .entry(base.to_string())
                .or_insert((0, f64::NEG_INFINITY, None, None));
            if name.ends_with("_bucket") {
                let le_raw = labels
                    .and_then(|l| l.strip_prefix("le=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("line {n}: bucket without an le label"))?;
                let le = if le_raw == "+Inf" {
                    f64::INFINITY
                } else {
                    le_raw
                        .parse()
                        .map_err(|_| format!("line {n}: unparseable le `{le_raw}`"))?
                };
                let cumulative = value as u64;
                if le <= entry.1 {
                    return Err(format!("line {n}: bucket bounds not increasing"));
                }
                if cumulative < entry.0 {
                    return Err(format!("line {n}: bucket counts not cumulative"));
                }
                entry.0 = cumulative;
                entry.1 = le;
                if le.is_infinite() {
                    entry.2 = Some(cumulative);
                }
            } else if name.ends_with("_count") {
                entry.3 = Some(value as u64);
            }
        }
    }
    for (name, (_, _, inf, count)) in &hist {
        let inf = inf.ok_or_else(|| format!("histogram `{name}` has no +Inf bucket"))?;
        let count = count.ok_or_else(|| format!("histogram `{name}` has no _count"))?;
        if inf != count {
            return Err(format!(
                "histogram `{name}`: +Inf bucket {inf} != _count {count}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_engine::LatencyHistogram;
    use std::time::Duration;

    fn sample_histogram() -> HistogramSnapshot {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(1)); // bucket 1 (us=1, bit length 1)
        h.record(Duration::from_micros(3)); // bucket 2
        h.record(Duration::from_micros(3)); // bucket 2
        h.record(Duration::from_micros(900)); // bucket 10
        h.snapshot()
    }

    #[test]
    fn histogram_text_is_pinned() {
        let mut out = String::new();
        histogram(
            &mut out,
            "mogs_engine_phase_latency_seconds",
            "Wall time per sweep phase (one colored group).",
            &sample_histogram(),
        );
        let expected = "\
# HELP mogs_engine_phase_latency_seconds Wall time per sweep phase (one colored group).
# TYPE mogs_engine_phase_latency_seconds histogram
mogs_engine_phase_latency_seconds_bucket{le=\"0\"} 0
mogs_engine_phase_latency_seconds_bucket{le=\"0.000001\"} 1
mogs_engine_phase_latency_seconds_bucket{le=\"0.000003\"} 3
mogs_engine_phase_latency_seconds_bucket{le=\"0.000007\"} 3
mogs_engine_phase_latency_seconds_bucket{le=\"0.000015\"} 3
mogs_engine_phase_latency_seconds_bucket{le=\"0.000031\"} 3
mogs_engine_phase_latency_seconds_bucket{le=\"0.000063\"} 3
mogs_engine_phase_latency_seconds_bucket{le=\"0.000127\"} 3
mogs_engine_phase_latency_seconds_bucket{le=\"0.000255\"} 3
mogs_engine_phase_latency_seconds_bucket{le=\"0.000511\"} 3
mogs_engine_phase_latency_seconds_bucket{le=\"0.001023\"} 4
mogs_engine_phase_latency_seconds_bucket{le=\"+Inf\"} 4
mogs_engine_phase_latency_seconds_sum 0.000907
mogs_engine_phase_latency_seconds_count 4
";
        assert_eq!(out, expected);
        validate_exposition(&out).expect("pinned output must validate");
    }

    #[test]
    fn checkpoint_histogram_text_is_pinned() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(120)); // bucket 7 (bit length of 120)
        h.record(Duration::from_micros(2)); // bucket 2
        let mut out = String::new();
        histogram(
            &mut out,
            "mogs_engine_checkpoint_write_seconds",
            "Wall time per checkpoint capture-and-write, on the sweep path.",
            &h.snapshot(),
        );
        let expected = "\
# HELP mogs_engine_checkpoint_write_seconds Wall time per checkpoint capture-and-write, on the sweep path.
# TYPE mogs_engine_checkpoint_write_seconds histogram
mogs_engine_checkpoint_write_seconds_bucket{le=\"0\"} 0
mogs_engine_checkpoint_write_seconds_bucket{le=\"0.000001\"} 0
mogs_engine_checkpoint_write_seconds_bucket{le=\"0.000003\"} 1
mogs_engine_checkpoint_write_seconds_bucket{le=\"0.000007\"} 1
mogs_engine_checkpoint_write_seconds_bucket{le=\"0.000015\"} 1
mogs_engine_checkpoint_write_seconds_bucket{le=\"0.000031\"} 1
mogs_engine_checkpoint_write_seconds_bucket{le=\"0.000063\"} 1
mogs_engine_checkpoint_write_seconds_bucket{le=\"0.000127\"} 2
mogs_engine_checkpoint_write_seconds_bucket{le=\"+Inf\"} 2
mogs_engine_checkpoint_write_seconds_sum 0.000122
mogs_engine_checkpoint_write_seconds_count 2
";
        assert_eq!(out, expected);
        validate_exposition(&out).expect("pinned output must validate");
    }

    #[test]
    fn empty_histogram_still_closes_with_inf_sum_count() {
        let mut out = String::new();
        histogram(
            &mut out,
            "x_seconds",
            "h.",
            &LatencyHistogram::new().snapshot(),
        );
        assert!(out.contains("x_seconds_bucket{le=\"+Inf\"} 0\n"), "{out}");
        assert!(out.contains("x_seconds_sum 0\n"), "{out}");
        assert!(out.contains("x_seconds_count 0\n"), "{out}");
        validate_exposition(&out).expect("valid");
    }

    #[test]
    fn full_exposition_validates_and_includes_both_layers() {
        use crate::metrics::ServeMetrics;
        use crate::store::StoreSnapshot;
        use crate::tenant::{TenantQuota, TenantRegistry};

        let engine = mogs_engine::EngineMetrics::new().snapshot();
        let serve = {
            let m = ServeMetrics::new();
            m.record_request(200, Duration::from_micros(42));
            m.record_request(429, Duration::from_micros(7));
            m.snapshot()
        };
        let registry = TenantRegistry::new();
        registry.register("acme", TenantQuota::default());
        registry.register("beta\"co", TenantQuota::default());
        registry.record_request("acme");
        let text = encode_metrics(
            &engine,
            &serve,
            &registry.snapshot(),
            StoreSnapshot {
                live: 1,
                terminal: 2,
                evicted: 3,
            },
        );
        validate_exposition(&text).expect("full exposition must validate");
        // The satellite series: phase latency histogram + queue HWM.
        assert!(
            text.contains("# TYPE mogs_engine_phase_latency_seconds histogram"),
            "{text}"
        );
        assert!(text.contains("mogs_engine_queue_depth_hwm 0\n"));
        // The checkpoint families ride the same engine snapshot.
        assert!(text.contains("mogs_engine_checkpoints_written_total 0\n"));
        assert!(text.contains("mogs_engine_checkpoints_restored_total 0\n"));
        assert!(
            text.contains("# TYPE mogs_engine_checkpoint_write_seconds histogram"),
            "{text}"
        );
        // Serve-layer per-tenant series, with escaped label values.
        assert!(text.contains("mogs_serve_requests_total{tenant=\"acme\"} 1\n"));
        assert!(text.contains("tenant=\"beta\\\"co\""));
        assert!(text.contains("mogs_serve_jobs_rejected_quota_total{tenant=\"acme\"} 0\n"));
        assert!(text.contains("mogs_serve_jobs_evicted_total 3\n"));
    }

    #[test]
    fn shared_admissions_render_as_a_counter() {
        let m = mogs_engine::EngineMetrics::new();
        m.admissions_shared
            .fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        let mut out = String::new();
        encode_engine(&mut out, &m.snapshot());
        validate_exposition(&out).expect("exposition must validate");
        let expected = "\
# HELP mogs_engine_admissions_shared_total Jobs admitted on their grid shape's cached, already verified schedule.
# TYPE mogs_engine_admissions_shared_total counter
mogs_engine_admissions_shared_total 3
";
        assert!(
            out.contains(expected),
            "missing shared-admission family in:\n{out}"
        );
    }

    #[test]
    fn checkpoint_gc_labels_are_pinned() {
        use crate::metrics::ServeMetrics;
        use crate::store::StoreSnapshot;
        use mogs_ckpt::{GcReason, GcReport};

        let metrics = ServeMetrics::new();
        metrics.record_gc(&GcReport {
            discarded: vec![
                ("a.ckpt.tmp".into(), GcReason::Orphan),
                ("b.ckpt".into(), GcReason::Stale),
                ("c.ckpt".into(), GcReason::Stale),
            ],
        });
        let text = encode_metrics(
            &mogs_engine::EngineMetrics::new().snapshot(),
            &metrics.snapshot(),
            &[],
            StoreSnapshot {
                live: 0,
                terminal: 0,
                evicted: 0,
            },
        );
        validate_exposition(&text).expect("exposition must validate");
        // The per-reason label set is pinned: exactly these three series,
        // in this order, with these label strings.
        let expected = "\
# HELP mogs_serve_checkpoints_discarded_total Checkpoint files deleted by the startup GC sweep, by reason.
# TYPE mogs_serve_checkpoints_discarded_total counter
mogs_serve_checkpoints_discarded_total{reason=\"orphan\"} 1
mogs_serve_checkpoints_discarded_total{reason=\"corrupt\"} 0
mogs_serve_checkpoints_discarded_total{reason=\"stale\"} 2
";
        assert!(
            text.contains(expected),
            "missing pinned GC family in:\n{text}"
        );
    }

    #[test]
    fn validator_rejects_non_cumulative_buckets() {
        let bad = "\
# HELP h h.
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_bucket{le=\"0.2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 1
h_count 5
";
        assert!(validate_exposition(bad).is_err());
    }

    #[test]
    fn validator_rejects_inf_count_mismatch() {
        let bad = "\
# HELP h h.
# TYPE h histogram
h_bucket{le=\"+Inf\"} 4
h_sum 1
h_count 5
";
        assert!(validate_exposition(bad).is_err());
    }

    #[test]
    fn validator_rejects_undeclared_series() {
        assert!(validate_exposition("orphan 1\n").is_err());
    }
}
