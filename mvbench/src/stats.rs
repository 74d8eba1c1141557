//! Sample summaries: the one percentile rule every timing in a
//! `mv-bench/1` document is reported with.

/// Percentile of ascending `sorted` samples, `q` in `[0, 1]`: the sample
/// at rank `round((n - 1) q)`, the rule `crates/bench` uses for its
/// commit-latency percentiles. Empty input yields 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, q)],
    }
}

/// Index of the `q` percentile among `n > 0` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    (((n - 1) as f64 * q).round() as usize).min(n - 1)
}

/// The mean of `samples` without the slowest `trim` share of them
/// (rounded down, so a few samples lose none). Host interrupts and
/// preemption land in those few; every other sample, however slow its
/// kind of work, counts in proportion to how often it occurs. Empty
/// input yields 0.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s.truncate(s.len() - (s.len() as f64 * trim) as usize);
    match s.len() {
        0 => 0.0,
        n => s.iter().sum::<f64>() / n as f64,
    }
}

/// Median, tail percentile and sample count of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median (mean of the two middle samples for even counts).
    pub median: f64,
    /// The highest of p99.9, p99, p95, p90, p75 and p50 that has at
    /// least ten samples beyond it; p50 when none has.
    pub pct: f64,
    /// The sample at that percentile.
    pub pct_value: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarizes `samples` (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let median = match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    };
    let pct = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n > 0 && n - 1 - rank(n, p / 100.0) >= 10)
        .unwrap_or(50.0);
    Summary {
        median,
        pct,
        pct_value: percentile(&s, pct / 100.0),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounded_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 51.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!((sum.pct, sum.pct_value, sum.n), (99.0, 990.0, 1000));
        assert_eq!(sum.median, 500.5);
        assert_eq!(summarize(&s[..100]).pct, 90.0);
        assert_eq!(summarize(&s[..5]).pct, 50.0);
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).median, 2.0);
    }

    #[test]
    fn trimmed_mean_drops_only_the_slowest_share() {
        let mut s: Vec<f64> = (1..=99).map(f64::from).collect();
        s.push(1e6);
        assert_eq!(trimmed_mean(&s, 0.01), 50.0);
        assert_eq!(trimmed_mean(&[4.0, 2.0, 9.0], 0.01), 5.0);
        assert_eq!(trimmed_mean(&[], 0.01), 0.0);
    }
}
