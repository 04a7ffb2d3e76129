//! The result record: one full set of runs, every workload repeated on
//! consecutive seeds, each metric as median + quartiles + n over the
//! runs, with the host it was measured on. `compare` reads two of them.

use std::path::PathBuf;
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::harness::Report;
use crate::spec::{Host, END_TO_END, PER_LAYER};
use crate::stats::summary;
use crate::workloads::out_dir;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    pub name: String,
    pub unit: String,
    /// Runs the quartiles are taken over.
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// One value per run, in seed order.
    pub values: Vec<f64>,
}

impl MetricRow {
    /// Quartile distance as a share of the median — the run-to-run
    /// spread the acceptance rule holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRow {
    pub name: String,
    pub sites: usize,
    pub labels: usize,
    pub sweeps_per_job: usize,
    pub chunks: usize,
    pub clients: usize,
    pub backend: String,
    /// Verified jobs in each run's untraced pass.
    pub jobs: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricRow>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostRow {
    pub nproc: usize,
    /// Engine workers, HTTP clients and fleet workers actually used.
    pub workers: usize,
    pub rustc: String,
    pub commit: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    pub seed: u64,
    pub seconds: u64,
    pub repeats: usize,
    pub quick: bool,
    pub host: HostRow,
    pub workloads: Vec<WorkloadRow>,
}

/// First line a tool prints, or `unknown` when it cannot be run (the
/// acceptance checkout is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Record {
    pub fn start(seed: u64, seconds: u64, repeats: usize, quick: bool) -> Self {
        let host = Host::detect();
        Record {
            seed,
            seconds,
            repeats,
            quick,
            host: HostRow {
                nproc: host.nproc,
                workers: host.workers,
                rustc: tool_line("rustc", &["--version"]),
                commit: tool_line("git", &["rev-parse", "HEAD"]),
            },
            workloads: Vec::new(),
        }
    }

    /// Folds one workload's runs into the record.
    pub fn add(&mut self, name: &str, reports: &[Report]) {
        let Some(first) = reports.first() else {
            return;
        };
        let named = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        let metrics = named
            .filter_map(|(metric, unit)| {
                let values: Vec<f64> = reports
                    .iter()
                    .flat_map(|r| r.end_to_end.iter().chain(&r.per_layer))
                    .filter(|(n, _)| *n == metric)
                    .map(|(_, v)| *v)
                    .collect();
                (!values.is_empty()).then(|| {
                    let s = summary(&values);
                    MetricRow {
                        name: metric.to_string(),
                        unit: unit.to_string(),
                        n: s.n,
                        q1: s.q1,
                        median: s.median,
                        q3: s.q3,
                        values,
                    }
                })
            })
            .collect();
        self.workloads.push(WorkloadRow {
            name: name.to_string(),
            sites: first.shape.sites,
            labels: first.shape.labels,
            sweeps_per_job: first.shape.sweeps,
            chunks: first.shape.chunks,
            clients: first.shape.clients,
            backend: first.shape.backend.to_string(),
            jobs: reports.iter().map(|r| r.jobs).collect(),
            attempted: reports.iter().map(|r| r.attempted).sum(),
            failed: reports.iter().map(|r| r.failed).sum(),
            metrics,
        });
    }

    /// The end-to-end table over all runs: median, quartiles, spread
    /// against the bound.
    pub fn render(&self) -> String {
        let mut out = format!(
            "\nresult record: seed {} x {} runs of {} s, nproc {} workers {}, {}, commit {}\n",
            self.seed,
            self.repeats,
            self.seconds,
            self.host.nproc,
            self.host.workers,
            self.host.rustc,
            self.host.commit
        );
        out.push_str(&format!(
            "{:<12} {:<22} {:>14} {:>14} {:>14} {:>3} {:>8} {:>6}\n",
            "workload", "metric", "median", "q1", "q3", "n", "spread", "bound"
        ));
        for w in &self.workloads {
            for bound in END_TO_END {
                let Some(m) = w.metrics.iter().find(|m| m.name == bound.name) else {
                    continue;
                };
                out.push_str(&format!(
                    "{:<12} {:<22} {:>14.4} {:>14.4} {:>14.4} {:>3} {:>7.2}% {:>5.0}%\n",
                    w.name,
                    m.name,
                    m.median,
                    m.q1,
                    m.q3,
                    m.n,
                    100.0 * m.spread(),
                    100.0 * bound.bound
                ));
            }
            out.push_str(&format!(
                "{:<12} failed_share {} ({} of {} operations)\n",
                w.name,
                w.failed as f64 / w.attempted.max(1) as f64,
                w.failed,
                w.attempted
            ));
        }
        out
    }

    /// Writes `benchmark/out/result-<seed>.json`.
    ///
    /// # Errors
    ///
    /// The directory or file could not be written.
    pub fn write(&self) -> Result<PathBuf, String> {
        let dir = out_dir();
        let path = dir.join(format!("result-{}.json", self.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, serde::json::to_string(self)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    /// Reads a record back.
    ///
    /// # Errors
    ///
    /// The file is missing or is not a result record.
    pub fn read(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde::json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }
}
