//! Drives one workload through one run and turns what it saw into the
//! named metrics.
//!
//! End-to-end metrics only ever come from an untraced pass. With
//! `--trace 1` the window is split: an untraced pass (the base the
//! tracing overhead is measured against), then a traced pass of the
//! same loop, then the layer probes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::spec::{
    Host, Sizes, END_TO_END, JOBS_PER_S, JOB_LATENCY_P50_MS, JOB_LATENCY_TAIL_MS, PER_LAYER,
    SETUP_S, SITE_UPDATES_PER_S,
};
use crate::stats::{latency_p50, latency_tail, median, summary, Summary, Tail};
use crate::trace::{self_times, spans_json, NameTotals, Tracer};
use crate::workloads::{self, out_dir, Pass, Shape};

/// Span names that only give the trace its shape; time inside them but
/// outside any layer call is what the trace leaves unattributed.
const ROOT: &str = "traced-run";
const PASS: &str = "pass";
const PROBES: &str = "probes";
/// Cheap set-ups repeat until their time budget is spent, up to this.
const MAX_SETUPS: usize = 40;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// Everything one run of one workload produced.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub shape: Shape,
    pub host: Host,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every end-to-end metric, from the untraced pass.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Every per-layer metric; empty without `--trace 1`.
    pub per_layer: Vec<(&'static str, f64)>,
    pub jobs: usize,
    pub job_rate: Summary,
    pub tail: Tail,
    /// Batches the throughput and tail medians are taken over.
    pub batches: usize,
    pub setups: Summary,
    pub wall_s: f64,
    /// Self-time table of the traced pass, with its wall time.
    pub self_times: Option<(BTreeMap<&'static str, NameTotals>, u64)>,
}

impl Report {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct Measured {
    values: Vec<(&'static str, f64)>,
    job_rate: Summary,
    /// The first batch's tail rule, with the median over batches as value.
    tail: Tail,
    batches: usize,
}

/// A run is cut into this many batches of consecutive jobs at most,
/// each of at least [`BATCH_JOBS`] jobs. Throughput and the latency
/// tail are taken per batch and reported as the median over batches, so
/// a stall of the host that hits a minority of batches does not decide
/// the run.
const MAX_BATCHES: usize = 9;
const BATCH_JOBS: usize = 30;

fn end_to_end(shape: &Shape, pass: &Pass, setup_s: f64) -> Measured {
    let mut jobs = pass.jobs.clone();
    jobs.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_ms).collect();
    let n = jobs.len();

    let batches = (n / BATCH_JOBS).clamp(1, MAX_BATCHES);
    let mut tails = Vec::new();
    let mut batch_rates = Vec::new();
    let mut batch_started_s = 0.0;
    for k in 0..batches {
        let range = k * n / batches..(k + 1) * n / batches;
        let Some(last) = jobs[range.clone()].last() else {
            continue;
        };
        tails.push(latency_tail(&latencies[range.clone()]));
        batch_rates.push(range.len() as f64 / (last.done_s - batch_started_s));
        batch_started_s = last.done_s;
    }
    let jobs_per_s = median(&batch_rates);
    let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let tail = Tail {
        value: median(&tail_values),
        ..tails.first().copied().unwrap_or_default()
    };

    // One submitter: the rate of a job is its work over its latency,
    // and the workload's rate is the median job's. Several concurrent
    // clients: only the aggregate is a rate of the system.
    let job_rates: Vec<f64> = latencies
        .iter()
        .map(|ms| shape.updates_per_job() / (ms / 1e3))
        .collect();
    let job_rate = summary(&job_rates);
    let site_updates_per_s = if shape.clients == 1 {
        job_rate.median
    } else {
        shape.updates_per_job() * jobs_per_s
    };
    Measured {
        values: vec![
            (SITE_UPDATES_PER_S, site_updates_per_s),
            (JOBS_PER_S, jobs_per_s),
            (JOB_LATENCY_P50_MS, latency_p50(&latencies)),
            (JOB_LATENCY_TAIL_MS, tail.value),
            (SETUP_S, setup_s),
        ],
        job_rate,
        tail,
        batches: tails.len(),
    }
}

fn value(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Layer metrics computed from other metrics. Each is skipped (left 0)
/// when the workload never entered the layers it is made of.
fn derive(
    layer: &mut BTreeMap<&'static str, f64>,
    e2e: &[(&'static str, f64)],
    shape: &Shape,
    workers: usize,
) {
    let get =
        |layer: &BTreeMap<&'static str, f64>, name: &str| layer.get(name).copied().unwrap_or(0.0);
    let rate = value(e2e, SITE_UPDATES_PER_S);
    let p50_ms = value(e2e, JOB_LATENCY_P50_MS);

    let reference = get(layer, "gibbs.reference_updates_per_s");
    if reference > 0.0 {
        layer.insert("engine.speedup_vs_reference", rate / reference);
    }
    let hot_loop = get(layer, "engine.hot_loop_ns_per_update");
    if hot_loop > 0.0 {
        layer.insert(
            "engine.gather_publish_ns_per_update",
            hot_loop - get(layer, "gibbs.kernel_draw_ns_per_update"),
        );
        layer.insert(
            "engine.parallel_efficiency",
            rate / (workers as f64 * 1e9 / hot_loop),
        );
    }
    let direct = get(layer, "serve.direct_job_ms");
    if direct > 0.0 {
        layer.insert("serve.http_and_poll_overhead_ms", p50_ms - direct);
    }
    let requests = get(layer, "serve.requests");
    if requests > 0.0 {
        layer.insert(
            "serve.useful_request_ratio",
            3.0 * get(layer, "trace.jobs") / requests,
        );
    }
    let compute = get(layer, "fleet.compute_ms_per_sweep");
    if compute > 0.0 && shape.sweeps > 1 {
        // T_1 is the 1-sweep fleet run, which is this workload's set-up.
        let per_sweep = (p50_ms - 1e3 * value(e2e, SETUP_S)) / (shape.sweeps - 1) as f64;
        layer.insert("fleet.per_sweep_ms", per_sweep);
        layer.insert("fleet.exchange_ms_per_sweep", per_sweep - compute);
    }
    let in_process = get(layer, "fleet.in_process_updates_per_s");
    if in_process > 0.0 {
        layer.insert("fleet.efficiency", rate / in_process);
    }
}

/// Runs one workload once.
///
/// # Errors
///
/// An unknown workload name, or a set-up or reference computation that
/// failed before anything could be measured.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let host = Host::detect();
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let mut workload = workloads::build(&args.workload, args.seed, sizes, host)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;

    let mut setup_samples = Vec::new();
    let setup_budget = Duration::from_millis(sizes.setup_budget_ms);
    let setups_started = Instant::now();
    while setup_samples.len() < sizes.setup_reps
        || (setups_started.elapsed() < setup_budget && setup_samples.len() < MAX_SETUPS)
    {
        let started = Instant::now();
        if let Err(why) = workload.setup() {
            workload.teardown();
            return Err(why);
        }
        setup_samples.push(started.elapsed().as_secs_f64());
    }
    let setups = summary(&setup_samples);
    let shape = workload.shape();
    let checked = workload.prepare_checks();
    let mut layer_values = match checked {
        Ok(values) => values,
        Err(why) => {
            workload.teardown();
            return Err(why);
        }
    };

    let window = Duration::from_secs(args.seconds);
    let off = Tracer::new(false);
    let untraced_window = if args.trace { window / 2 } else { window };
    let pass = workload.measure(untraced_window, &off);
    let measured = end_to_end(&shape, &pass, setups.median);

    let mut attempted = pass.attempted;
    let mut failed = pass.failed;
    let mut failures = pass.failures.clone();
    let mut per_layer = Vec::new();
    let mut table = None;
    if args.trace {
        let tracer = Tracer::new(true);
        let mut traced = Pass::default();
        tracer.span(ROOT, || {
            traced = tracer.span(PASS, || workload.measure(window - untraced_window, &tracer));
            let probed = tracer.span(PROBES, || workload.probes(&tracer));
            layer_values.extend(probed);
        });
        attempted += traced.attempted;
        failed += traced.failed;
        failures.extend(traced.failures.iter().cloned());
        layer_values.extend(traced.layer.iter().copied());

        let spans = tracer.take_spans();
        let totals = self_times(&spans);
        let root_ns = totals.get(ROOT).map_or(0, |t| t.total_ns);
        let unattributed: u64 = [ROOT, PASS, PROBES]
            .iter()
            .filter_map(|name| totals.get(name))
            .map(|t| t.self_ns)
            .sum();
        let traced_rate = value(
            &end_to_end(&shape, &traced, setups.median).values,
            SITE_UPDATES_PER_S,
        );
        let untraced_rate = value(&measured.values, SITE_UPDATES_PER_S);

        let mut layer: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        for (name, v) in layer_values {
            if let Some(slot) = layer.get_mut(name) {
                *slot = v;
            }
        }
        layer.insert("trace.jobs", traced.jobs.len() as f64);
        layer.insert("trace.spans", spans.len() as f64);
        layer.insert(
            "trace.failed_share",
            failed as f64 / attempted.max(1) as f64,
        );
        layer.insert(
            "trace.unattributed_share",
            unattributed as f64 / root_ns.max(1) as f64,
        );
        if untraced_rate > 0.0 {
            layer.insert("trace.overhead_share", 1.0 - traced_rate / untraced_rate);
        }
        derive(&mut layer, &measured.values, &shape, host.workers);
        per_layer = PER_LAYER.iter().map(|m| (m.name, layer[m.name])).collect();

        if !args.quick {
            let dir = out_dir();
            let written = std::fs::create_dir_all(&dir).and_then(|()| {
                std::fs::write(
                    dir.join(format!("trace-{}.json", args.workload)),
                    spans_json(&args.workload, &spans),
                )
            });
            if let Err(err) = written {
                failures.push(format!("trace file not written: {err}"));
            }
        }
        table = Some((totals, root_ns));
    }
    workload.teardown();

    let jobs = pass.jobs.len();
    // Every end-to-end metric must be a real measurement: a run that
    // verified no job has nothing to report and is not correct.
    let correct = failed == 0 && jobs > 0 && measured.values.iter().all(|(_, v)| *v > 0.0);
    Ok(Report {
        workload: args.workload.clone(),
        seed: args.seed,
        shape,
        host,
        correct,
        attempted: attempted.max(1),
        failed,
        failures,
        end_to_end: measured.values,
        per_layer,
        jobs,
        job_rate: measured.job_rate,
        tail: measured.tail,
        batches: measured.batches,
        setups,
        wall_s: pass.wall_s,
        self_times: table,
    })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The human-readable account of a run.
pub fn render(report: &Report, trace: bool) -> String {
    let s = &report.shape;
    let mut out = format!(
        "workload {}  seed {}  sites {} labels {} sweeps/job {} chunks {} backend {}  \
         clients {} workers {} (nproc {})\n",
        report.workload,
        report.seed,
        s.sites,
        s.labels,
        s.sweeps,
        s.chunks,
        s.backend,
        s.clients,
        report.host.workers,
        report.host.nproc
    );
    out.push_str(&format!(
        "  measured {:.2} s, {} jobs verified; failed_share {} ({} of {} operations)\n",
        report.wall_s,
        report.jobs,
        report.failed_share(),
        report.failed,
        report.attempted
    ));
    for why in &report.failures {
        out.push_str(&format!("  FAILED: {why}\n"));
    }
    if trace {
        if let Some((totals, root_ns)) = &report.self_times {
            // Client threads run side by side, so self times can add up
            // to more than the wall: shares are of their own sum.
            let sum: u64 = totals.values().map(|t| t.self_ns).sum();
            out.push_str(&format!(
                "  self time by span (duration minus what child spans cover), traced wall {:.1} ms:\n",
                *root_ns as f64 / 1e6
            ));
            let mut rows: Vec<_> = totals.iter().collect();
            rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
            for (name, t) in rows {
                out.push_str(&format!(
                    "    {name:<24} calls {:>8}  self {:>10.3} ms  {:>5.1}%\n",
                    t.calls,
                    t.self_ns as f64 / 1e6,
                    100.0 * t.self_ns as f64 / sum.max(1) as f64
                ));
            }
            out.push_str(&format!(
                "    ({ROOT}, {PASS} and {PROBES} self time is the unattributed residual)\n"
            ));
        }
        for (name, v) in &report.per_layer {
            out.push_str(&format!("  {name:<38} {v:>16.4} {}\n", unit_of(name)));
        }
    } else {
        for (name, v) in &report.end_to_end {
            out.push_str(&format!("  {name:<22} {v:>16.4} {}\n", unit_of(name)));
        }
        out.push_str(&format!(
            "  per-job rate quartiles {:.4e} / {:.4e} / {:.4e} 1/s over {} jobs\n",
            report.job_rate.q1, report.job_rate.median, report.job_rate.q3, report.job_rate.n
        ));
        out.push_str(&format!(
            "  tail is p{:.1} of a batch ({} of its {} samples lie beyond it), median over {} batches of consecutive jobs\n",
            report.tail.percentile, report.tail.beyond, report.tail.n, report.batches
        ));
        out.push_str(&format!(
            "  setup_s quartiles {:.4} / {:.4} / {:.4} s over {} set-ups\n",
            report.setups.q1, report.setups.median, report.setups.q3, report.setups.n
        ));
    }
    out
}

/// The one JSON object the acceptance driver reads off the last line.
pub fn result_line(report: &Report, trace: bool) -> String {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                serde::json::to_string(v),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    )
}
