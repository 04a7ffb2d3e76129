//! The repo's one benchmark.
//!
//! ```text
//! mogs-benchmark run --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! mogs-benchmark run --seed <n> [--repeats <n>] [--seconds <n>] [--trace <0|1>] [--quick]
//! mogs-benchmark compare <a.json> <b.json>
//! ```
//!
//! With `--workload` it runs that workload once and ends its standard
//! output with one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). Without, it runs every workload `--repeats` times on
//! seeds `seed, seed+1, ...` and writes `benchmark/out/result-<seed>.json`,
//! the record `compare` reads. See `benchmark/README.md`.

mod compare;
mod harness;
mod record;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{render, result_line, run, RunArgs};

/// The measured window when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json`.
const RUN_SECONDS: u64 = 15;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    repeats: Option<usize>,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeats: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got `{s}`"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = Some(number(value()?)?),
            "--repeats" => cli.repeats = Some(number(value()?)?.max(1) as usize),
            "--trace" => cli.trace = number(value()?)? != 0,
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let cli = parse_run(args)?;
    let seconds = cli
        .seconds
        .unwrap_or(if cli.quick { 1 } else { RUN_SECONDS });
    // One named workload is one run whose result line ends the output;
    // no name is a full set, which ends in the result record.
    let full_set = cli.workload.is_none();
    let repeats = cli
        .repeats
        .unwrap_or(if cli.quick || !full_set { 1 } else { 5 });
    let workloads: Vec<String> = match cli.workload {
        Some(name) => vec![name],
        None => spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect(),
    };

    let mut all_correct = true;
    let mut record = record::Record::start(cli.seed, seconds, repeats, cli.quick);
    for workload in workloads {
        let mut reports = Vec::new();
        for repeat in 0..repeats {
            let report = run(&RunArgs {
                workload: workload.clone(),
                seed: cli.seed + repeat as u64,
                seconds,
                trace: cli.trace,
                quick: cli.quick,
            })?;
            print!("{}", render(&report, cli.trace));
            println!("{}", result_line(&report, cli.trace));
            all_correct &= report.correct;
            reports.push(report);
        }
        record.add(&workload, &reports);
    }
    if full_set {
        print!("{}", record.render());
        if !cli.quick {
            let path = record.write()?;
            println!("result record written to {}", path.display());
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    // A fleet worker re-executes this binary; it must speak the worker
    // protocol and nothing else.
    match mogs_fleet::maybe_run_worker() {
        Ok(true) => return ExitCode::SUCCESS,
        Ok(false) => {}
        Err(_) => return ExitCode::FAILURE,
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => run_command(rest),
        Some((command, rest)) if command == "compare" => match rest {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare wants two result records".to_string()),
        },
        _ => Err(
            "usage: mogs-benchmark run [--workload <name>] [--seed <n>] [--seconds <n>] \
                  [--trace <0|1>] [--repeats <n>] [--quick] | compare <a.json> <b.json>"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("mogs-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
