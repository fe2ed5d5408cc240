//! Streaming estimators for the Monte-Carlo experiments.
//!
//! The empirical-detection experiments need three things: running means with
//! honest standard errors (Welford's algorithm), binomial proportion
//! estimates with confidence intervals that behave near 0 and 1 (Wilson),
//! and cheap integer histograms for multiplicity spectra.

/// Welford streaming mean/variance accumulator.
///
/// ```
/// use redundancy_stats::RunningMoments;
/// let mut m = RunningMoments::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { m.push(x); }
/// assert_eq!(m.mean(), 2.5);
/// assert!((m.sample_variance() - 5.0/3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningMoments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningMoments {
    /// New empty accumulator.
    pub fn new() -> Self {
        RunningMoments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator (Chan's parallel update), so per-thread
    /// accumulators combine exactly.
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sample_variance() / self.n as f64).sqrt()
        }
    }

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Exact moments of non-negative integer observations.
///
/// Observations below `2^32` cannot overflow the sums.  Keeps the count, `Σx` and `Σx²` as integers, so pushes and merges
/// commute exactly: any fold order yields the same accumulator and
/// bit-identical derived statistics.  That is what a
/// [`run_trials`](crate::parallel::run_trials) accumulator needs, since
/// which chunks land in which partial follows thread scheduling — an f64
/// [`RunningMoments`] merge there is not associative.  Mean and variance
/// are derived at read time.
///
/// ```
/// use redundancy_stats::CountMoments;
/// let mut m = CountMoments::new();
/// for x in [1, 2, 3, 4] { m.push(x); }
/// assert_eq!(m.mean(), 2.5);
/// assert!((m.sample_variance() - 5.0/3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountMoments {
    n: u64,
    sum: u128,
    sum_sq: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl CountMoments {
    /// New empty accumulator.
    pub fn new() -> Self {
        CountMoments::default()
    }

    /// Add an observation.
    pub fn push(&mut self, x: u64) {
        let wide = u128::from(x);
        self.n += 1;
        self.sum += wide;
        self.sum_sq += wide * wide;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Merge another accumulator; exact and order-insensitive.
    pub fn merge(&mut self, other: &CountMoments) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    ///
    /// The numerator `n·Σx² − (Σx)²` is computed exactly in integers
    /// whenever it fits in `u128`, and in f64 beyond that.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = u128::from(self.n);
        let numerator = match (n.checked_mul(self.sum_sq), self.sum.checked_mul(self.sum)) {
            (Some(a), Some(b)) => (a - b) as f64,
            _ => {
                let mean = self.mean();
                (self.sum_sq as f64 - self.sum as f64 * mean) * self.n as f64
            }
        };
        numerator / (self.n as f64 * (self.n - 1) as f64)
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sample_variance() / self.n as f64).sqrt()
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        self.max
    }
}

/// Binomial proportion estimator with Wilson score intervals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Proportion {
    successes: u64,
    trials: u64,
}

impl Proportion {
    /// New empty estimator.
    pub fn new() -> Self {
        Proportion::default()
    }

    /// Record one Bernoulli outcome.
    pub fn push(&mut self, success: bool) {
        self.trials += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Record a batch.
    pub fn push_batch(&mut self, successes: u64, trials: u64) {
        assert!(successes <= trials, "successes exceed trials");
        self.successes += successes;
        self.trials += trials;
    }

    /// Merge another estimator.
    pub fn merge(&mut self, other: &Proportion) {
        self.successes += other.successes;
        self.trials += other.trials;
    }

    /// Number of successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Point estimate `successes / trials` (0 when empty).
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Wilson score interval at `z` standard deviations (z = 1.96 ≈ 95 %).
    ///
    /// Well-behaved at the boundaries, unlike the normal-approximation
    /// interval — important here because detection probabilities near 1 are
    /// exactly where the paper's guarantees live.
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let phat = self.estimate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (phat + z2 / (2.0 * n)) / denom;
        let half = z * ((phat * (1.0 - phat) + z2 / (4.0 * n)) / n).sqrt() / denom;
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// True if `value` lies within the Wilson interval at `z`.
    pub fn consistent_with(&self, value: f64, z: f64) -> bool {
        let (lo, hi) = self.wilson_interval(z);
        (lo..=hi).contains(&value)
    }
}

/// Fixed-bin histogram over small non-negative integers (e.g. task
/// multiplicities or copies-held counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record an observation of `value`, growing bins as needed.
    pub fn record(&mut self, value: usize) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
    }

    /// Record `weight` observations of `value`.
    pub fn record_n(&mut self, value: usize, weight: u64) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += weight;
        self.total += weight;
    }

    /// Count in bin `value` (0 if never observed).
    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Empirical frequency of `value`.
    pub fn frequency(&self, value: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// Mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as f64 * c as f64)
            .sum::<f64>()
            / self.total as f64
    }

    /// Largest recorded value, if any.
    pub fn max_value(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Merge another histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_basic() {
        let mut m = RunningMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.standard_error(), 0.0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
    }

    #[test]
    fn count_moments_basic() {
        let mut m = CountMoments::new();
        assert_eq!((m.count(), m.mean(), m.standard_error()), (0, 0.0, 0.0));
        assert_eq!((m.min(), m.max()), (None, None));
        for x in [2, 4, 4, 4, 5, 5, 7, 9] {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert_eq!(m.mean(), 5.0);
        assert_eq!(m.sample_variance(), 32.0 / 7.0);
        assert_eq!((m.min(), m.max()), (Some(2), Some(9)));
    }

    #[test]
    fn count_moments_merge_is_exact_in_any_order() {
        let data: Vec<u64> = (0..200u64).map(|i| (i * 7919) % 53).collect();
        let mut whole = CountMoments::new();
        for &x in &data {
            whole.push(x);
        }
        // Fold the same chunks in two different orders.
        let chunks: Vec<CountMoments> = data
            .chunks(17)
            .map(|c| {
                let mut m = CountMoments::new();
                c.iter().for_each(|&x| m.push(x));
                m
            })
            .collect();
        let mut forward = CountMoments::new();
        chunks.iter().for_each(|c| forward.merge(c));
        let mut backward = CountMoments::new();
        chunks.iter().rev().for_each(|c| backward.merge(c));
        assert_eq!(forward, whole);
        assert_eq!(backward, whole);
        assert_eq!(backward.mean().to_bits(), whole.mean().to_bits());
        let mut empty = CountMoments::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn count_moments_variance_falls_back_to_f64_past_u128() {
        // n·Σx² = 2^128 no longer fits; the f64 form still gives 0.
        let mut m = CountMoments::new();
        m.push(1 << 63);
        m.push(1 << 63);
        assert_eq!(m.mean(), (1u64 << 63) as f64);
        assert_eq!(m.sample_variance(), 0.0);
    }

    #[test]
    fn moments_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningMoments::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-10);
    }

    #[test]
    fn moments_merge_with_empty() {
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.mean(), 3.0);
        let empty = RunningMoments::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn proportion_estimate_and_interval() {
        let mut p = Proportion::new();
        for i in 0..100 {
            p.push(i < 30);
        }
        assert_eq!(p.successes(), 30);
        assert_eq!(p.trials(), 100);
        assert!((p.estimate() - 0.3).abs() < 1e-12);
        let (lo, hi) = p.wilson_interval(1.96);
        assert!(lo < 0.3 && 0.3 < hi);
        assert!(lo > 0.2 && hi < 0.41, "({lo},{hi})");
        assert!(p.consistent_with(0.3, 1.96));
        assert!(!p.consistent_with(0.6, 1.96));
    }

    #[test]
    fn proportion_boundaries() {
        let mut p = Proportion::new();
        assert_eq!(p.wilson_interval(1.96), (0.0, 1.0));
        p.push_batch(10, 10);
        let (lo, hi) = p.wilson_interval(1.96);
        assert!(hi <= 1.0 && lo > 0.6);
        let mut q = Proportion::new();
        q.push_batch(0, 10);
        let (lo2, hi2) = q.wilson_interval(1.96);
        assert!(lo2 >= 0.0 && hi2 < 0.35);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn proportion_batch_validates() {
        Proportion::new().push_batch(5, 3);
    }

    #[test]
    fn proportion_merge() {
        let mut a = Proportion::new();
        a.push_batch(3, 10);
        let mut b = Proportion::new();
        b.push_batch(7, 10);
        a.merge(&b);
        assert_eq!(a.estimate(), 0.5);
    }

    #[test]
    fn histogram_counts_and_stats() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(3);
        h.record_n(0, 2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(7), 0);
        assert_eq!(h.frequency(1), 0.4);
        assert_eq!(h.max_value(), Some(3));
        assert!((h.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_and_empty() {
        let empty = Histogram::new();
        assert_eq!(empty.max_value(), None);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.frequency(0), 0.0);
        let mut a = Histogram::new();
        a.record(2);
        let mut b = Histogram::new();
        b.record(5);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(5), 1);
    }
}
