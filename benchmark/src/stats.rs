//! Order statistics over raw samples. Nothing here interpolates a
//! histogram: every quantile is computed from the samples themselves.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method), so spreads printed here are the ones the
/// acceptance driver computes. Fewer than two samples collapse to the
/// single value.
pub fn summary(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return Summary {
            n,
            q1: x,
            median: x,
            q3: x,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        q1: quartile(1),
        median: quartile(2),
        q3: quartile(3),
    }
}

/// Median of the samples (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    summary(values).median
}

/// Nearest-rank percentile `p` in `(0, 100]` of already sorted samples.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The latency tail of one batch of samples: the highest percentile
/// that still has at least ten samples beyond it, capped at p90 so that
/// a batch of hundreds and a batch of dozens report a comparable
/// statistic, and never below the median. `beyond` says how many
/// samples really lie past it; under ten means the batch was too small
/// to have a tail.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tail {
    pub value: f64,
    /// Which percentile `value` is, in percent.
    pub percentile: f64,
    /// Samples strictly beyond `value`'s rank.
    pub beyond: usize,
    pub n: usize,
}

/// Nearest-rank median: an actual sample, never an interpolation.
pub fn latency_p50(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        0.0
    } else {
        nearest_rank(&v, 50.0)
    }
}

pub fn latency_tail(samples: &[f64]) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return Tail::default();
    }
    let p90_rank = ((0.9 * n as f64).ceil() as usize).clamp(1, n);
    let p50_rank = ((0.5 * n as f64).ceil() as usize).clamp(1, n);
    let rank = p90_rank.min(n.saturating_sub(10)).max(p50_rank);
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&values);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        let tail = latency_tail(&few);
        assert_eq!(latency_p50(&few), 15.0);
        assert_eq!((tail.value, tail.beyond), (20.0, 10));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = latency_tail(&many);
        assert_eq!((tail.value, tail.beyond), (900.0, 100));
        // Too few samples for a tail: it falls back to the median.
        let tail = latency_tail(&[4.0, 9.0, 11.0]);
        assert_eq!((tail.value, tail.beyond), (9.0, 1));
    }
}
