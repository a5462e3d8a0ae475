//! Order statistics used by the report: medians, quartiles and the rule
//! for which tail percentile a sample supports.

/// Median, quartiles and sample count of a set of host timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Second quartile.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Summarise `values` (at least one). Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the PR driver applies across runs; a single sample is its own
/// quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarise");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Summary { median: v[0], q1: v[0], q3: v[0], n };
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary { median: q(2), q1: q(1), q3: q(3), n }
}

/// Median of `values` (at least one).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The `p`-quantile (0 < p < 1) of `sorted` by nearest rank — but only
/// when at least ten samples lie beyond it. A percentile with fewer than
/// ten samples above it is an order statistic of the few slowest
/// operations, not an estimate of the tail, so `None` is returned and the
/// caller reports the metric as unsupported at this sample size.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    assert!(p > 0.0 && p < 1.0, "percentile out of range");
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = summarize(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([10,20,30,40], n=4) == [12.5, 25.0, 37.5]
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = summarize(&[3.5]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (3.5, 3.5, 3.5, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        // rank 990, ten samples beyond: supported.
        assert_eq!(percentile(&v, 0.99), Some(990));
        // 999 samples: rank 990, nine beyond: not supported.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // p50 of twenty samples has ten beyond; of nineteen it does not.
        assert_eq!(percentile(&v[..20], 0.5), Some(10));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }
}
