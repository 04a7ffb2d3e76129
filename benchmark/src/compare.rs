//! `compare <a.json> <b.json>`: one table a reviewer can read. Per
//! (metric, workload): both medians, the relative change with its base,
//! the bound, and a verdict.

use crate::record::{MetricRow, Record, WorkloadRow};
use crate::spec::{Better, END_TO_END, SETUP_S};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the base by more than the bound.
    Worse,
    /// Better than the base by more than the base's own spread.
    Better,
    WithinBound,
    /// A side's run-to-run spread (quartile distance over median)
    /// exceeds the bound, so the bound cannot be resolved.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one row and how much worse `b` is than `a`, as a
/// share of `a`'s median (negative when it is better). `spread_gated` is
/// false for `setup_s` alone: the acceptance rule holds its medians to
/// the bound but not its spread.
pub fn judge(
    a: &MetricRow,
    b: &MetricRow,
    better: Better,
    bound: f64,
    spread_gated: bool,
) -> (Verdict, f64) {
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    let verdict = if spread_gated && (a.spread() > bound || b.spread() > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && -worse_by > a.spread() {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by)
}

fn row<'a>(workload: &'a WorkloadRow, metric: &str) -> Option<&'a MetricRow> {
    workload.metrics.iter().find(|m| m.name == metric)
}

/// Prints the table. `Ok(true)` when no row is `worse` or `unresolved`.
///
/// # Errors
///
/// Either file is missing or is not a result record.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let a = Record::read(a_path)?;
    let b = Record::read(b_path)?;
    println!(
        "base a = {a_path} (commit {}, {} runs)   b = {b_path} (commit {}, {} runs)",
        a.host.commit, a.repeats, b.host.commit, b.repeats
    );
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "b vs a", "a spread", "b spread", "bound"
    );
    let mut clean = true;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<12} missing from {b_path}", wa.name);
            clean = false;
            continue;
        };
        for metric in END_TO_END {
            let (Some(ma), Some(mb)) = (row(wa, metric.name), row(wb, metric.name)) else {
                continue;
            };
            let (verdict, worse_by) =
                judge(ma, mb, metric.better, metric.bound, metric.name != SETUP_S);
            clean &= !matches!(verdict, Verdict::Worse | Verdict::Unresolved);
            let signed = match metric.better {
                Better::Lower => worse_by,
                Better::Higher => -worse_by,
            };
            println!(
                "{:<12} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                wa.name,
                metric.name,
                ma.median,
                mb.median,
                100.0 * signed,
                100.0 * ma.spread(),
                100.0 * mb.spread(),
                100.0 * metric.bound,
                verdict.as_str()
            );
        }
        if wa.failed + wb.failed > 0 {
            println!(
                "{:<12} failed operations: a {} of {}, b {} of {}",
                wa.name, wa.failed, wa.attempted, wb.failed, wb.attempted
            );
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(q1: f64, median: f64, q3: f64) -> MetricRow {
        MetricRow {
            name: "m".to_string(),
            unit: "ms".to_string(),
            n: 10,
            q1,
            median,
            q3,
            values: Vec::new(),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = row(99.0, 100.0, 101.0);
        let judge_lower = |b: &MetricRow| judge(&base, b, Better::Lower, 0.10, true).0;
        assert_eq!(judge_lower(&row(119.0, 120.0, 121.0)), Verdict::Worse);
        assert_eq!(judge_lower(&row(104.0, 105.0, 106.0)), Verdict::WithinBound);
        assert_eq!(judge_lower(&row(89.0, 90.0, 91.0)), Verdict::Better);
        // A side noisier than the bound resolves nothing.
        let noisy = row(80.0, 100.0, 120.0);
        assert_eq!(judge_lower(&noisy), Verdict::Unresolved);
        assert_eq!(
            judge(&base, &noisy, Better::Lower, 0.10, false).0,
            Verdict::WithinBound
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&base, &row(79.0, 80.0, 81.0), Better::Higher, 0.10, true).0,
            Verdict::Worse
        );
    }
}
