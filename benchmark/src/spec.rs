//! The benchmark's tables: which metrics, which workloads, which sizes.
//!
//! `BENCHMARK.json` at the repo root repeats the metric and workload
//! tables for the acceptance driver; the test at the end of this file
//! holds the two equal, and `tests/smoke.rs` holds the program's output
//! to them.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const SITE_UPDATES_PER_S: &str = "site_updates_per_s";
pub const JOBS_PER_S: &str = "jobs_per_s";
pub const JOB_LATENCY_P50_MS: &str = "job_latency_p50_ms";
pub const JOB_LATENCY_TAIL_MS: &str = "job_latency_tail_ms";

/// Every bound is the contract's ceiling, 25%. The issue that defined
/// this benchmark asked for 5/10/15/20%, and allowed widening a bound to
/// the measured run-to-run spread: on the reference host (2 shared
/// vCPUs) ten-seed spreads reach 10% for throughput and 15% for latency
/// on `serve-small`, and the host itself shifts speed by tens of percent
/// for minutes at a time (see benchmark/README.md, "Measured spread").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: SITE_UPDATES_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: JOBS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: JOB_LATENCY_P50_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: JOB_LATENCY_TAIL_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of a single layer, measured from the benchmark's own code
/// by timing calls into the layer's public functions. No bound: a layer
/// metric explains an end-to-end change, it does not gate one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload prints every one of these under `--trace 1`; a layer
/// a workload never enters reads 0.
pub const PER_LAYER: [PerLayer; 46] = [
    layer("gibbs.kernel_draw_ns_per_update", "ns", Better::Lower),
    layer("gibbs.reference_updates_per_s", "1/s", Better::Higher),
    layer("engine.speedup_vs_reference", "ratio", Better::Higher),
    layer("engine.hot_loop_ns_per_update", "ns", Better::Lower),
    layer("engine.gather_publish_ns_per_update", "ns", Better::Lower),
    layer("engine.parallel_efficiency", "ratio", Better::Higher),
    layer("engine.prepare_ms", "ms", Better::Lower),
    layer("audit.certificate_us", "us", Better::Lower),
    layer("engine.site_updates", "count", Better::Higher),
    layer("engine.jobs_failed", "count", Better::Lower),
    layer("engine.phase_retries", "count", Better::Lower),
    layer("engine.queue_depth_hwm", "count", Better::Lower),
    layer("engine.checkpoints_written", "count", Better::Higher),
    layer("vision.model_build_ms", "ms", Better::Lower),
    layer("serve.http_parse_us", "us", Better::Lower),
    layer("serve.spec_parse_us", "us", Better::Lower),
    layer("serve.route_submit_us", "us", Better::Lower),
    layer("serve.route_poll_us", "us", Better::Lower),
    layer("serve.result_encode_us", "us", Better::Lower),
    layer("serve.direct_job_ms", "ms", Better::Lower),
    layer("serve.http_and_poll_overhead_ms", "ms", Better::Lower),
    layer("serve.requests", "count", Better::Lower),
    layer("serve.responses_2xx", "count", Better::Higher),
    layer("serve.responses_429", "count", Better::Lower),
    layer("serve.responses_503", "count", Better::Lower),
    layer("serve.transport_errors", "count", Better::Lower),
    layer("serve.reconnects", "count", Better::Lower),
    layer("serve.useful_request_ratio", "ratio", Better::Higher),
    layer("ckpt.resume_ms", "ms", Better::Lower),
    layer("ckpt.bytes_per_checkpoint", "bytes", Better::Lower),
    layer("ckpt.encode_us", "us", Better::Lower),
    layer("ckpt.save_us", "us", Better::Lower),
    layer("ckpt.load_decode_us", "us", Better::Lower),
    layer("fleet.partition_us", "us", Better::Lower),
    layer("fleet.wire_bytes_per_phase", "bytes", Better::Lower),
    layer("fleet.wire_codec_us_per_phase", "us", Better::Lower),
    layer("fleet.per_sweep_ms", "ms", Better::Lower),
    layer("fleet.compute_ms_per_sweep", "ms", Better::Lower),
    layer("fleet.exchange_ms_per_sweep", "ms", Better::Lower),
    layer("fleet.in_process_updates_per_s", "1/s", Better::Higher),
    layer("fleet.efficiency", "ratio", Better::Higher),
    layer("trace.failed_share", "ratio", Better::Lower),
    layer("trace.unattributed_share", "ratio", Better::Lower),
    layer("trace.overhead_share", "ratio", Better::Lower),
    layer("trace.spans", "count", Better::Lower),
    layer("trace.jobs", "count", Better::Higher),
];

/// A named workload and the one-line reason it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SEG_LARGE: &str = "seg-large";
pub const MOTION_RSU: &str = "motion-rsu";
pub const SEG_CKPT: &str = "seg-ckpt";
pub const SERVE_SMALL: &str = "serve-small";
pub const FLEET2: &str = "fleet2";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: SEG_LARGE,
        why: "320x320 M=5 softmax jobs: few labels, so gather/publish and the phase barrier dominate; bypasses serve, ckpt, fleet",
    },
    WorkloadSpec {
        name: MOTION_RSU,
        why: "128x128 M=49 RSU-G jobs: ~10x the draw cost per site, so the kernel and RSU pool dominate and gather is a small share",
    },
    WorkloadSpec {
        name: SEG_CKPT,
        why: "seg-large's field checkpointed every sweep, then load-and-resume cycles: the only workload where mogs-ckpt works",
    },
    WorkloadSpec {
        name: SERVE_SMALL,
        why: "32x32 jobs over HTTP from closed-loop keep-alive clients: ~4 ms of sampling per job, so what surrounds sampling dominates; bypasses kernel and gather changes",
    },
    WorkloadSpec {
        name: FLEET2,
        why: "256x192 stereo on a self-exec TCP fleet: the only workload where fleet wire, coordinator star and barrier work",
    },
];

/// Problem sizes. `full` is what every quoted number comes from;
/// `quick` is the smoke size and never writes a result file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub seg_side: usize,
    pub seg_sweeps: usize,
    pub motion_side: usize,
    pub motion_sweeps: usize,
    /// Deterministic chunk count of the engine workloads.
    pub engine_chunks: usize,
    pub serve_side: usize,
    pub serve_sweeps: usize,
    pub fleet_width: usize,
    pub fleet_height: usize,
    pub fleet_sweeps: usize,
    pub fleet_chunks: usize,
    /// Set-up is repeated at least this often, and until it has taken
    /// `setup_budget_ms` in all; `setup_s` is the median.
    pub setup_reps: usize,
    pub setup_budget_ms: u64,
}

impl Sizes {
    pub const fn full() -> Self {
        Sizes {
            seg_side: 320,
            seg_sweeps: 30,
            motion_side: 128,
            motion_sweeps: 30,
            engine_chunks: 8,
            serve_side: 32,
            serve_sweeps: 60,
            fleet_width: 256,
            fleet_height: 192,
            fleet_sweeps: 16,
            fleet_chunks: 4,
            setup_reps: 5,
            setup_budget_ms: 1500,
        }
    }

    pub const fn quick() -> Self {
        Sizes {
            seg_side: 48,
            seg_sweeps: 6,
            motion_side: 24,
            motion_sweeps: 4,
            engine_chunks: 8,
            serve_side: 16,
            serve_sweeps: 10,
            fleet_width: 48,
            fleet_height: 32,
            fleet_sweeps: 4,
            fleet_chunks: 4,
            setup_reps: 2,
            setup_budget_ms: 0,
        }
    }
}

/// Parallelism the benchmark uses, recorded with every result: engine
/// workers, HTTP clients and fleet workers are each `min(nproc, 4)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    pub workers: usize,
}

impl Host {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Host {
            nproc,
            workers: nproc.min(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Workload {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct Bounded {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct Unbounded {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(Deserialize)]
    struct BenchmarkJson {
        run_seconds: u64,
        workloads: Vec<Workload>,
        end_to_end: Vec<Bounded>,
        per_layer: Vec<Unbounded>,
    }

    #[test]
    fn benchmark_json_repeats_these_tables_exactly() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: BenchmarkJson = serde::json::from_str(&text).expect("BENCHMARK.json parses");

        assert_eq!(json.run_seconds, crate::RUN_SECONDS);
        let workloads: Vec<_> = json.workloads.iter().map(|w| (&*w.name, &*w.why)).collect();
        let expected: Vec<_> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<_> = json
            .end_to_end
            .iter()
            .map(|m| (&*m.name, &*m.unit, &*m.better, m.bound))
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str(), m.bound))
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<_> = json
            .per_layer
            .iter()
            .map(|m| (&*m.name, &*m.unit, &*m.better))
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect();
        assert_eq!(per_layer, expected);
    }
}
