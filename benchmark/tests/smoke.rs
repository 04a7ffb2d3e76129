//! Runs the benchmark in `--quick` mode, untraced and traced, and holds
//! its output to `BENCHMARK.json`: every workload and metric named
//! there appears with its unit, nothing unnamed appears, names are
//! plain, and no operation failed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::de::Parser;
use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct Named {
    name: String,
    unit: String,
}

#[derive(Debug, Deserialize)]
struct WorkloadEntry {
    name: String,
    why: String,
}

#[derive(Debug, Deserialize)]
struct BenchmarkJson {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<WorkloadEntry>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

/// One result line: `correct`, `attempted`, `failed`, and each metric's
/// `(value, unit)`.
#[derive(Debug)]
struct ResultLine {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn parse_result_line(line: &str) -> ResultLine {
    let bad = |what: &str| -> ! { panic!("{what} in result line: {line}") };
    let mut p = Parser::new(line);
    let mut out = ResultLine {
        correct: false,
        attempted: 0.0,
        failed: 0.0,
        metrics: BTreeMap::new(),
    };
    let mut keys = Vec::new();
    p.expect_char('{').unwrap_or_else(|_| bad("no object"));
    loop {
        let key = p.parse_string().unwrap_or_else(|_| bad("bad key"));
        p.expect_char(':').unwrap_or_else(|_| bad("no colon"));
        match key.as_str() {
            "correct" => out.correct = p.parse_bool().unwrap_or_else(|_| bad("bad bool")),
            "attempted" => out.attempted = p.parse_number().unwrap_or_else(|_| bad("bad number")),
            "failed" => out.failed = p.parse_number().unwrap_or_else(|_| bad("bad number")),
            "metrics" => {
                p.expect_char('{')
                    .unwrap_or_else(|_| bad("metrics is no object"));
                loop {
                    let name = p.parse_string().unwrap_or_else(|_| bad("bad metric name"));
                    p.expect_char(':').unwrap_or_else(|_| bad("no colon"));
                    p.expect_char('{')
                        .unwrap_or_else(|_| bad("metric is no object"));
                    let (mut value, mut unit) = (None, None);
                    loop {
                        let field = p.parse_string().unwrap_or_else(|_| bad("bad field"));
                        p.expect_char(':').unwrap_or_else(|_| bad("no colon"));
                        match field.as_str() {
                            "value" => value = p.parse_number().ok(),
                            "unit" => unit = p.parse_string().ok(),
                            _ => bad("unexpected metric field"),
                        }
                        if !p.consume_char(',') {
                            break;
                        }
                    }
                    p.expect_char('}')
                        .unwrap_or_else(|_| bad("metric not closed"));
                    let (Some(value), Some(unit)) = (value, unit) else {
                        bad("metric without value and unit")
                    };
                    out.metrics.insert(name, (value, unit));
                    if !p.consume_char(',') {
                        break;
                    }
                }
                p.expect_char('}')
                    .unwrap_or_else(|_| bad("metrics not closed"));
            }
            _ => bad("unexpected key"),
        }
        keys.push(key);
        if !p.consume_char(',') {
            break;
        }
    }
    p.expect_char('}')
        .unwrap_or_else(|_| bad("object not closed"));
    keys.sort();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{line}"
    );
    out
}

fn plain(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

/// Runs every workload once in quick mode and returns, per workload,
/// its parsed result line.
fn quick_run(trace: &str) -> BTreeMap<String, ResultLine> {
    let output = Command::new(env!("CARGO_BIN_EXE_mogs-benchmark"))
        .current_dir(repo_root())
        .args(["run", "--quick", "--seed", "1", "--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut results = BTreeMap::new();
    let mut current = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("workload ") {
            current = rest.split_whitespace().next().map(str::to_string);
        } else if line.starts_with('{') {
            let name = current
                .take()
                .expect("a result line follows a workload header");
            results.insert(name, parse_result_line(line));
        }
    }
    results
}

#[test]
fn quick_run_prints_what_benchmark_json_names() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec: BenchmarkJson = serde::json::from_str(&text).expect("BENCHMARK.json parses");

    assert!(!spec.command.is_empty());
    assert_eq!(spec.paths, ["benchmark"]);
    assert!((1..=60).contains(&spec.run_seconds));
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    for w in &spec.workloads {
        assert!(plain(&w.name), "workload name {:?}", w.name);
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
    }
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(plain(&m.name), "metric name {:?}", m.name);
    }

    for (trace, named) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
        let results = quick_run(trace);
        let ran: Vec<&String> = results.keys().collect();
        let mut wanted: Vec<&String> = spec.workloads.iter().map(|w| &w.name).collect();
        wanted.sort();
        assert_eq!(ran, wanted, "workloads run under --trace {trace}");
        for (workload, result) in &results {
            assert!(result.correct, "{workload} --trace {trace} is not correct");
            assert!(result.attempted >= 1.0);
            assert_eq!(result.failed, 0.0, "{workload}: failed_share must be 0");
            let printed: Vec<(&String, &String)> =
                result.metrics.iter().map(|(n, (_, u))| (n, u)).collect();
            let mut expected: Vec<(&String, &String)> =
                named.iter().map(|m| (&m.name, &m.unit)).collect();
            expected.sort();
            assert_eq!(printed, expected, "{workload} --trace {trace}");
            if trace == "0" {
                for (name, (value, _)) in &result.metrics {
                    assert!(*value > 0.0, "{workload}: {name} must never be 0");
                }
            }
        }
    }

    // Quick mode is a smoke test: it must leave no result record.
    let leftovers: Vec<_> = std::fs::read_dir(root.join("benchmark").join("out"))
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("result-1."))
                .collect()
        })
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "quick mode wrote {leftovers:?}");
}
