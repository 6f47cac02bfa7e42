//! Empirical CDFs for the paper's figures.

use crate::stream::Merge;
use std::collections::BTreeMap;

/// An exact empirical cumulative distribution over `u64` samples, stored
/// as value→count.
///
/// Memory is O(distinct values) rather than O(samples): campaign samples
/// (spans in days, windows in seconds at day granularity) repeat heavily.
/// Fractions are an integer count over the total and quantiles are
/// nearest-rank, so results do not depend on insertion order or on how
/// samples were split across merged shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cdf {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Cdf {
    /// Empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from samples (any order).
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> Self {
        let mut c = Self::new();
        for s in samples {
            c.add(s);
        }
        c
    }

    /// Add one sample.
    pub fn add(&mut self, value: u64) {
        self.add_n(value, 1);
    }

    /// Add `n` samples of `value`.
    pub fn add_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Count of samples ≤ `x`.
    pub fn count_le(&self, x: u64) -> usize {
        self.counts.range(..=x).map(|(_, c)| *c as usize).sum()
    }

    /// Fraction of samples ≤ `x` (the CDF value). 0.0 for empty.
    pub fn fraction_le(&self, x: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_le(x) as f64 / self.total as f64
    }

    /// Fraction of samples ≥ `x` (the survival function at x).
    pub fn fraction_ge(&self, x: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_ge(x) as f64 / self.total as f64
    }

    /// Count of samples ≥ `x`.
    pub fn count_ge(&self, x: u64) -> usize {
        self.counts.range(x..).map(|(_, c)| *c as usize).sum()
    }

    /// Quantile (0.0..=1.0) by nearest-rank. None if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64)
            .max(1)
            .min(self.total);
        let mut cumulative = 0;
        for (&value, &count) in &self.counts {
            cumulative += count;
            if cumulative >= rank {
                return Some(value);
            }
        }
        unreachable!("rank <= total")
    }

    /// Median by nearest rank.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// The CDF evaluated at each breakpoint: `(x, fraction ≤ x)` rows —
    /// the series a figure plots.
    pub fn series(&self, breakpoints: &[u64]) -> Vec<(u64, f64)> {
        breakpoints
            .iter()
            .map(|&x| (x, self.fraction_le(x)))
            .collect()
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }
}

impl Merge for Cdf {
    fn merge(&mut self, other: Cdf) {
        for (value, count) in other.counts {
            self.add_n(value, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_on_small_set() {
        let c = Cdf::from_samples(vec![1, 2, 2, 3, 10]);
        assert_eq!(c.len(), 5);
        assert!((c.fraction_le(0) - 0.0).abs() < 1e-12);
        assert!((c.fraction_le(1) - 0.2).abs() < 1e-12);
        assert!((c.fraction_le(2) - 0.6).abs() < 1e-12);
        assert!((c.fraction_le(100) - 1.0).abs() < 1e-12);
        assert!((c.fraction_ge(2) - 0.8).abs() < 1e-12);
        assert!((c.fraction_ge(11) - 0.0).abs() < 1e-12);
        assert_eq!(c.count_ge(3), 2);
        assert_eq!(c.count_le(2), 3);
        assert_eq!((c.min(), c.max()), (Some(1), Some(10)));
    }

    #[test]
    fn quantiles_and_median() {
        let c = Cdf::from_samples(vec![10, 20, 30, 40, 50]);
        assert_eq!(c.median(), Some(30));
        assert_eq!(c.quantile(0.0), Some(10));
        assert_eq!(c.quantile(1.0), Some(50));
        assert_eq!(c.quantile(0.2), Some(10));
        assert_eq!(c.quantile(0.21), Some(20));
        let even = Cdf::from_samples(vec![1, 2, 3, 4]);
        assert_eq!(even.median(), Some(2), "nearest rank");
        // Repeated values: rank 5 of 10 lands inside the run of 7s.
        let repeats = Cdf::from_samples(vec![1u64, 2, 2, 3, 10, 0, 7, 7, 7, 100]);
        assert_eq!(repeats.median(), Some(3));
        assert_eq!(repeats.quantile(0.75), Some(7));
        assert_eq!(repeats.quantile(0.9), Some(10));
    }

    #[test]
    fn empty_cdf_behaviour() {
        let c = Cdf::from_samples(vec![]);
        assert!(c.is_empty());
        assert_eq!(c, Cdf::new());
        assert_eq!(c.fraction_le(5), 0.0);
        assert_eq!(c.fraction_ge(5), 0.0);
        assert_eq!(c.median(), None);
        assert_eq!(c.min(), None);
        assert_eq!(c.series(&[1, 2]), vec![(1, 0.0), (2, 0.0)]);
    }

    #[test]
    fn monotone_nondecreasing_series() {
        let c = Cdf::from_samples(vec![5, 1, 9, 2, 2, 7, 100, 0]);
        let series = c.series(&[0, 1, 2, 3, 5, 7, 9, 50, 100, 1000]);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be monotone: {series:?}");
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn le_and_ge_partition() {
        let c = Cdf::from_samples(vec![1, 3, 3, 8]);
        for x in 0..10 {
            let le = c.fraction_le(x);
            let gt = 1.0 - le;
            let ge_next = c.fraction_ge(x + 1);
            assert!((gt - ge_next).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn merge_is_addition() {
        let mut a = Cdf::from_samples([1, 2, 3]);
        let b = Cdf::from_samples([3, 4]);
        a.merge(b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.count_ge(3), 3);
        assert_eq!(a.median(), Some(3));
        assert_eq!(a, Cdf::from_samples([4, 3, 3, 2, 1]));
    }
}
