//! Exact order statistics over stored latency samples.
//!
//! Gated latencies are computed from every sample a run took, not from a
//! log-bucketed histogram: one bucket step of `ycsb::Histogram` is already
//! 6.25 %, which is wider than the run-to-run spread worth detecting.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` % of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of a small set of floats (e.g. repeated set-up times).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency samples of one operation kind, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

/// Exact summary of a [`Samples`] set, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// 50th percentile.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
}

impl Samples {
    /// Empty set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Self { ns: Vec::with_capacity(n) }
    }

    /// Add one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Both sample sets as one.
    pub fn merged(&self, other: &Samples) -> Samples {
        Samples { ns: [self.ns.as_slice(), other.ns.as_slice()].concat() }
    }

    /// Sort once and read the order statistics.
    pub fn summary(&self) -> Summary {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let us = |p: f64| percentile(&sorted, p).map_or(0.0, |ns| ns as f64 / 1000.0);
        Summary { n: sorted.len(), p50_us: us(50.0), p90_us: us(90.0), p99_us: us(99.0) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), Some(5));
        assert_eq!(percentile(&v, 90.0), Some(9));
        assert_eq!(percentile(&v, 99.0), Some(10));
        assert_eq!(percentile(&v, 100.0), Some(10));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7], 99.0), Some(7));
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90));
        assert_eq!(percentile(&hundred, 99.0), Some(99));
    }

    #[test]
    fn summary_is_order_independent_and_exact() {
        let mut s = Samples::default();
        for ns in [9_000u64, 1_000, 5_000, 3_000, 7_000, 2_000, 8_000, 4_000, 6_000, 10_000] {
            s.push(ns);
        }
        let sum = s.summary();
        assert_eq!(sum.n, 10);
        assert_eq!(sum.p50_us, 5.0);
        assert_eq!(sum.p90_us, 9.0);
        assert_eq!(sum.p99_us, 10.0);
        assert_eq!(Samples::default().summary(), Summary::default());
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
