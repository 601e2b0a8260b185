//! Streaming descriptive statistics and histograms.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Numerically stable streaming mean/variance (Welford's algorithm) with
/// min/max tracking.
///
/// ```
/// use vardelay_stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.push(x); }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-15);
/// assert!((s.sample_sd() - (5.0f64/3.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// An accumulator holding `count` observations with mean and
    /// central moment sums `[mean, m2, m3, m4]` and extremes `min` and
    /// `max` — the fields a lane-parallel fold of [`pebay_step`] keeps
    /// in rows, turned back into the accumulator [`RunningStats::push`]
    /// would have built from the same observations.
    pub fn from_parts(count: u64, moments: [f64; 4], min: f64, max: f64) -> Self {
        let [mean, m2, m3, m4] = moments;
        RunningStats {
            count,
            mean,
            m2,
            m3,
            m4,
            min,
            max,
        }
    }

    /// Adds one observation (Pébay's single-pass update through the 4th
    /// central moment).
    pub fn push(&mut self, x: f64) {
        let n1 = self.count as f64;
        self.count += 1;
        let n = self.count as f64;
        [self.mean, self.m2, self.m3, self.m4] =
            pebay_step(n1, n, x, [self.mean, self.m2, self.m3, self.m4]);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction,
    /// Pébay's pairwise formulas).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let m4 = self.m4
            + other.m4
            + delta2 * delta2 * n1 * n2 * (n1 * n1 - n1 * n2 + n2 * n2) / (n * n * n)
            + 6.0 * delta2 * (n1 * n1 * other.m2 + n2 * n2 * self.m2) / (n * n)
            + 4.0 * delta * (n1 * other.m3 - n2 * self.m3) / n;
        let m3 = self.m3
            + other.m3
            + delta * delta2 * n1 * n2 * (n1 - n2) / (n * n)
            + 3.0 * delta * (n1 * other.m2 - n2 * self.m2) / n;
        let m2 = self.m2 + other.m2 + delta2 * n1 * n2 / n;
        self.mean += delta * n2 / n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Unbiased sample standard deviation.
    #[inline]
    pub fn sample_sd(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation `sd/mean` (the paper's σ/μ variability).
    #[inline]
    pub fn variability(&self) -> f64 {
        self.sample_sd() / self.mean
    }

    /// Sample skewness `g1 = (m3/n) / (m2/n)^(3/2)` — the primary
    /// diagnostic of the paper's Gaussian approximation: the exact max of
    /// Gaussians is right-skewed, and `g1` measures how much a Gaussian
    /// fit misses. Returns 0 for fewer than three observations or zero
    /// variance.
    pub fn skewness(&self) -> f64 {
        if self.count < 3 || self.m2 <= 0.0 {
            return 0.0;
        }
        let n = self.count as f64;
        (self.m3 / n) / (self.m2 / n).powf(1.5)
    }

    /// Excess kurtosis `g2 = (m4/n)/(m2/n)^2 - 3` (0 for a Gaussian).
    /// Returns 0 for fewer than four observations or zero variance.
    pub fn excess_kurtosis(&self) -> f64 {
        if self.count < 4 || self.m2 <= 0.0 {
            return 0.0;
        }
        let n = self.count as f64;
        (self.m4 / n) / (self.m2 / n).powi(2) - 3.0
    }

    /// Minimum observation (`+inf` when empty).
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// One observation `x` folded into the mean and central moment sums
/// `[mean, m2, m3, m4]` of `n1` earlier observations, `n = n1 + 1`
/// (P. Pébay, SAND2008-6212) — the one body of [`RunningStats::push`]
/// and of the v3 kernel's lane-parallel statistics fold, so both round
/// every step alike. Inlined so a vectorized caller's tier compiles it.
#[inline(always)]
pub fn pebay_step(n1: f64, n: f64, x: f64, moments: [f64; 4]) -> [f64; 4] {
    let [mean, m2, m3, m4] = moments;
    let delta = x - mean;
    let delta_n = delta / n;
    let delta_n2 = delta_n * delta_n;
    let term1 = delta * delta_n * n1;
    [
        mean + delta_n,
        m2 + term1,
        m3 + (term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2),
        m4 + (term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2
            - 4.0 * delta_n * m3),
    ]
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.6} sd={:.6} min={:.6} max={:.6}",
            self.count,
            self.mean,
            self.sample_sd(),
            self.min,
            self.max
        )
    }
}

/// A fixed-range equal-width histogram.
///
/// ```
/// use vardelay_stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [1.0, 1.5, 7.2, 9.9, -3.0, 12.0] { h.push(x); }
/// assert_eq!(h.underflow(), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.counts()[0], 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Merges another histogram over the **same range and binning** —
    /// integer count addition, so merging is exact and order-independent
    /// (unlike floating-point moment merges). This is what lets the sweep
    /// engine stream histograms through its block accumulators without
    /// weakening its determinism contract.
    ///
    /// # Panics
    ///
    /// Panics if the ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "histogram layout mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Lower edge of the range.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the range.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Bin counts.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of values below the range.
    #[inline]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of values at/above the upper edge.
    #[inline]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Total in-range count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Normalized density value of bin `i` (integrates to ~1 over the range).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the histogram is empty.
    pub fn density(&self, i: usize) -> f64 {
        let total = self.total();
        assert!(total > 0, "density of an empty histogram");
        self.counts[i] as f64 / (total as f64 * self.bin_width())
    }
}

impl Extend<f64> for Histogram {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.731).sin() * 10.0 + 5.0)
            .collect();
        let s: RunningStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() as f64 - 1.0);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| f64::from(i) * 0.1).collect();
        let mut a: RunningStats = xs[..200].iter().copied().collect();
        let b: RunningStats = xs[200..].iter().copied().collect();
        a.merge(&b);
        let full: RunningStats = xs.iter().copied().collect();
        assert_eq!(a.count(), full.count());
        assert!((a.mean() - full.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - full.sample_variance()).abs() < 1e-9);
        assert_eq!(a.min(), full.min());
        assert_eq!(a.max(), full.max());
    }

    #[test]
    fn higher_moments_match_two_pass() {
        let xs: Vec<f64> = (0..2000)
            .map(|i| {
                let t = i as f64 * 0.017;
                t.sin() * 3.0 + (t * 1.7).cos().powi(3) * 2.0
            })
            .collect();
        let s: RunningStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let m2 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m3 = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        let skew = m3 / m2.powf(1.5);
        let kurt = m4 / (m2 * m2) - 3.0;
        assert!(
            (s.skewness() - skew).abs() < 1e-9,
            "{} vs {skew}",
            s.skewness()
        );
        assert!(
            (s.excess_kurtosis() - kurt).abs() < 1e-9,
            "{} vs {kurt}",
            s.excess_kurtosis()
        );
    }

    #[test]
    fn merged_higher_moments_match_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 97) as f64 * 0.3).collect();
        let mut a: RunningStats = xs[..300].iter().copied().collect();
        let b: RunningStats = xs[300..].iter().copied().collect();
        a.merge(&b);
        let full: RunningStats = xs.iter().copied().collect();
        assert!((a.skewness() - full.skewness()).abs() < 1e-9);
        assert!((a.excess_kurtosis() - full.excess_kurtosis()).abs() < 1e-9);
    }

    #[test]
    fn gaussian_samples_have_small_skew_and_kurtosis() {
        use crate::normal::Normal;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let d = Normal::new(10.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let s: RunningStats = d.sample_n(&mut rng, 100_000).into_iter().collect();
        assert!(s.skewness().abs() < 0.03, "skew {}", s.skewness());
        assert!(
            s.excess_kurtosis().abs() < 0.06,
            "kurt {}",
            s.excess_kurtosis()
        );
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0].iter().copied().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn histogram_bins_and_density() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.extend((0..100).map(|i| f64::from(i) * 0.1)); // uniform over [0,10)
        assert_eq!(h.total(), 100);
        for i in 0..10 {
            assert_eq!(h.counts()[i], 10);
            assert!((h.density(i) - 0.1).abs() < 1e-12);
        }
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
    }
}
