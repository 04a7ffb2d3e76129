//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage: `repro <experiment> [--quick] [--graph] [out_dir]`, or
//! `repro all [--quick] [--graph] [out_dir]`.
//!
//! `--quick` shrinks the problem sizes where an experiment supports it
//! (currently `faults`) so its survival gate runs in CI time.
//!
//! `--graph` extends `audit` with the general-graph certificate corpus
//! (random sparse, disconnected, star, clique, grids-as-2-coloring):
//! each topology is greedy-colored, the resulting `ScheduleCertificate`
//! is re-verified by the independent checker, and the certificate must
//! survive a JSON round-trip.
//!
//! Experiments (see DESIGN.md §5 for the index):
//!
//! | id | paper artifact |
//! |---|---|
//! | `table1` | cycles to sample Exp/Normal/Gamma |
//! | `table2` | application execution times |
//! | `table3` | RSU-G1 power |
//! | `table4` | RSU-G1 area |
//! | `fig7` | prototype 50×67 segmentation (writes PGMs with out_dir) |
//! | `fig8` | RSU speedups over GPU baselines |
//! | `proto-ratio` | §7 ratio parameterization sweep |
//! | `accel` | §8.2 discrete-accelerator analysis |
//! | `ablate-precision` | A1: quantization-fidelity sweep |
//! | `ablate-circuits` | A2: RET-circuit replication |
//! | `quality` | A3: solution quality per sampler |
//! | `wearout` | A4: photobleaching lifetime |
//! | `width-sweep` | A5: RSU-Gk width trade-offs |
//! | `energy` | A6: energy per inference run |
//! | `restore` | A7: image restoration quality |
//! | `converge` | A8: multi-chain R-hat + cycle-level accelerator sim |
//! | `anneal` | A9: temperature-schedule ablation |
//! | `diag` | A11: streaming diagnostics + early stop on all workloads (writes JSON + PGM maps with out_dir) |
//! | `diag-overhead` | A11: sink overhead (bare vs NullSink vs full diagnostics) |
//! | `audit` | schedule-interference audit of every vision workload |
//! | `faults` | A12: fault injection, quarantine, and failover on every vision workload |
//!
//! A10 and A13–A15 (engine, serving, checkpoint and fleet contracts) have
//! no subcommand: their crates' test suites and the benchmark package
//! hold them (DESIGN §5 names each holder).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

use mogs_bench::experiments::{
    ablation, anneal, audit, convergence, diag, energy, faults, fig7, paper_tables, proto_ratio,
    quality, restore, table1, wearout,
};
use mogs_bench::report::render_table;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const EXPERIMENTS: [&str; 21] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig7",
    "fig8",
    "proto-ratio",
    "accel",
    "ablate-precision",
    "ablate-circuits",
    "quality",
    "wearout",
    "width-sweep",
    "energy",
    "restore",
    "converge",
    "anneal",
    "diag",
    "diag-overhead",
    "audit",
    "faults",
];

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = {
        let before = args.len();
        args.retain(|a| a != "--quick");
        args.len() != before
    };
    let graph = {
        let before = args.len();
        args.retain(|a| a != "--graph");
        args.len() != before
    };
    let Some(experiment) = args.first() else {
        eprintln!("usage: repro <experiment|all> [--quick] [--graph] [out_dir]");
        eprintln!("experiments: {}", EXPERIMENTS.join(", "));
        return ExitCode::FAILURE;
    };
    let out_dir: Option<PathBuf> = args.get(1).map(PathBuf::from);
    if experiment == "all" {
        for id in EXPERIMENTS {
            println!("==================== {id} ====================");
            if let Err(e) = run(id, quick, graph, out_dir.as_deref()) {
                eprintln!("{id} failed: {e}");
                return ExitCode::FAILURE;
            }
            println!();
        }
        if let Some(dir) = &out_dir {
            println!("artifacts written under {}", dir.display());
        }
        return ExitCode::SUCCESS;
    }
    match run(experiment, quick, graph, out_dir.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{experiment} failed: {e}");
            eprintln!("experiments: {}", EXPERIMENTS.join(", "));
            ExitCode::FAILURE
        }
    }
}

fn run(experiment: &str, quick: bool, graph: bool, out_dir: Option<&Path>) -> Result<(), String> {
    let emit = |text: String| -> Result<(), String> {
        println!("{text}");
        if let Some(dir) = out_dir {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            std::fs::write(dir.join(format!("{experiment}.txt")), text)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    match experiment {
        "table1" => {
            let rows = table1::measure(1_000_000);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.distribution.to_owned(),
                        format!("{:.1}", r.ns_per_sample),
                        format!("{:.0}", r.cycles),
                        format!("{:.0}", r.paper_cycles),
                    ]
                })
                .collect();
            println!("Table 1: cycles to sample (this machine, converted at 2.5 GHz nominal)\n");
            println!(
                "{}",
                render_table(
                    &["distribution", "ns/sample", "cycles", "paper (E5-2640)"],
                    &table
                )
            );
        }
        "table2" => emit(paper_tables::render_table2())?,
        "table3" => emit(paper_tables::render_table3())?,
        "table4" => emit(paper_tables::render_table4())?,
        "fig8" => emit(paper_tables::render_fig8())?,
        "accel" => emit(paper_tables::render_accelerator())?,
        "fig7" => {
            let result = fig7::run(out_dir, 7).map_err(|e| e.to_string())?;
            println!("{}", fig7::render(&result));
            if let Some(dir) = out_dir {
                println!("PGMs written to {}", dir.display());
            }
        }
        "proto-ratio" => {
            let points = proto_ratio::run(60_000, 42);
            emit(proto_ratio::render(&points))?;
        }
        "ablate-precision" => {
            // A representative 5-label conditional-energy vector at the
            // segmentation design point.
            let energies = [0.0, 8.0, 16.0, 24.0, 40.0];
            let points = ablation::precision_sweep(&energies, 24.0, 60_000, 1);
            emit(ablation::render_precision(&points))?;
        }
        "ablate-circuits" => emit(ablation::render_replicas())?,
        "quality" => {
            let cells = quality::run(60, 5);
            emit(quality::render(&cells))?;
        }
        "wearout" => emit(wearout::render(&wearout::sweep()))?,
        "width-sweep" => emit(ablation::render_width_sweep())?,
        "energy" => emit(energy::render())?,
        "restore" => {
            let rows = restore::run(50, 3);
            emit(restore::render(&rows))?;
        }
        "converge" => {
            let mut text = convergence::render_r_hat(9);
            text.push('\n');
            text.push_str(&convergence::render_accel_sim());
            text.push('\n');
            text.push_str(&convergence::render_tempering(3));
            text.push('\n');
            text.push_str(&convergence::render_pyramid(4));
            emit(text)?;
        }
        "anneal" => {
            let rows = anneal::run(80, 7);
            emit(anneal::render(&rows))?;
        }
        "diag" => {
            let rows = diag::run(out_dir, 2016).map_err(|e| e.to_string())?;
            emit(diag::render(&rows))?;
            // Non-convergence on the hard workloads is a finding, not a
            // failure; segmentation converging early within tolerance is
            // the pinned acceptance check.
            let seg = rows
                .iter()
                .find(|r| r.workload == "segmentation")
                .ok_or("segmentation row missing")?;
            if !seg.converged || seg.stopped_sweeps >= seg.fixed_sweeps {
                return Err("segmentation failed to early-stop".to_owned());
            }
            if seg.energy_gap_pct >= 0.5 {
                return Err(format!(
                    "segmentation energy gap {:.3}% exceeds 0.5%",
                    seg.energy_gap_pct
                ));
            }
        }
        "diag-overhead" => {
            let result = diag::overhead(96, 8, 2016);
            emit(diag::render_overhead(&result))?;
            // Lenient CI gate: the bound leaves room for a shared
            // runner's timing noise.
            if result.null_overhead_pct > 10.0 {
                return Err(format!(
                    "NullSink overhead {:.2}% exceeds the 10% CI bound",
                    result.null_overhead_pct
                ));
            }
        }
        "audit" => {
            let rows = audit::run(7);
            let mut text = audit::render(&rows);
            let dirty = rows.iter().filter(|r| !r.clean()).count();
            let mut graph_dirty = 0usize;
            if graph {
                let graph_rows = audit::run_graph(7);
                graph_dirty = graph_rows.iter().filter(|r| !r.clean()).count();
                text.push_str("\n\n");
                text.push_str(&audit::render_graph(&graph_rows));
            }
            emit(text)?;
            if dirty > 0 {
                return Err(format!("{dirty} workload schedule(s) failed the audit"));
            }
            if graph_dirty > 0 {
                return Err(format!(
                    "{graph_dirty} general-graph certificate(s) failed verification"
                ));
            }
        }
        "faults" => {
            let iterations = if quick { 8 } else { 16 };
            let rows = faults::run(iterations, 2016);
            emit(faults::render(&rows))?;
            // The survival contract: every (workload, scenario) job must
            // end Completed or Degraded — a typed failure or a hang under
            // injected device faults fails the gate.
            let dead: Vec<String> = rows
                .iter()
                .filter(|r| !r.survived())
                .map(|r| format!("{}/{} → {}", r.workload, r.scenario, r.outcome))
                .collect();
            if !dead.is_empty() {
                return Err(format!("jobs did not survive faults: {}", dead.join(", ")));
            }
            if !faults::zero_fault_bit_identity(2016) {
                return Err("an empty fault plane perturbed the labeling".to_owned());
            }
            println!("zero-fault bit-identity: ok");
        }
        other => return Err(format!("unknown experiment '{other}'")),
    }
    Ok(())
}
