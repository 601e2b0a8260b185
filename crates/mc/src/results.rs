//! Monte-Carlo configuration and result containers.

use serde::{Deserialize, Serialize};
use vardelay_stats::{
    cap_phi, effective_sample_size, weighted_fraction_ci, Histogram, Quantiles, RunningStats,
};

/// Optional fixed-range histogram attached to a block accumulator.
///
/// Streaming moments lose the distribution's *shape*; a fixed-range
/// histogram (bounds chosen up front, e.g. from the analytic model)
/// recovers it without retaining samples. Bin counts merge by integer
/// addition, so the histogram is exact and order-independent — it never
/// weakens the block-merge determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSpec {
    /// Lower edge (ps).
    pub lo: f64,
    /// Upper edge (ps).
    pub hi: f64,
    /// Number of equal-width bins.
    pub bins: usize,
}

/// Monte-Carlo run configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct McConfig {
    /// Number of trials (dies simulated).
    pub trials: usize,
    /// Base RNG seed; each worker derives its own stream from it.
    pub seed: u64,
    /// Worker threads (1 = sequential).
    pub threads: usize,
}

impl McConfig {
    /// A configuration suitable for the paper's experiments
    /// (10 000 trials, 4 threads).
    pub fn standard(seed: u64) -> Self {
        McConfig {
            trials: 10_000,
            seed,
            threads: 4,
        }
    }

    /// A small/fast configuration for tests and examples.
    pub fn quick(trials: usize, seed: u64) -> Self {
        McConfig {
            trials,
            seed,
            threads: 1,
        }
    }

    /// Validated thread count (at least 1).
    pub fn effective_threads(&self) -> usize {
        self.threads.max(1)
    }
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig::standard(0)
    }
}

/// A yield estimate with a binomial (Wilson) 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct YieldEstimate {
    /// Point estimate `Pr{delay <= target}` in `[0, 1]`.
    pub value: f64,
    /// Lower bound of the 95% Wilson interval.
    pub lo: f64,
    /// Upper bound of the 95% Wilson interval.
    pub hi: f64,
    /// Number of trials behind the estimate.
    pub trials: usize,
}

impl YieldEstimate {
    /// Computes the Wilson interval for `successes` out of `trials`.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `successes > trials`.
    pub fn from_counts(successes: usize, trials: usize) -> Self {
        assert!(trials > 0, "yield estimate requires at least one trial");
        assert!(successes <= trials, "successes cannot exceed trials");
        let n = trials as f64;
        let p = successes as f64 / n;
        let z = 1.959_963_984_540_054; // 97.5th percentile
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
        YieldEstimate {
            value: p,
            lo: (center - half).max(0.0),
            hi: (center + half).min(1.0),
            trials,
        }
    }

    /// Whether the interval contains a reference probability.
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo && p <= self.hi
    }
}

/// Running importance-sampling sums for the weighted tail estimator.
///
/// Tracked per block when a reweighted trial plan (statistical
/// blockade) is active: total weight, total squared weight, and the
/// same sums restricted to *failing* trials (`delay > target`) for each
/// yield target. Sums merge by addition, so the weighted estimator
/// inherits the block-merge determinism contract unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WeightedTail {
    sum_w: f64,
    sum_w2: f64,
    fail_w: Vec<f64>,
    fail_w2: Vec<f64>,
}

impl WeightedTail {
    fn new(targets: usize) -> Self {
        WeightedTail {
            sum_w: 0.0,
            sum_w2: 0.0,
            fail_w: vec![0.0; targets],
            fail_w2: vec![0.0; targets],
        }
    }
}

/// Streaming statistics of a block of pipeline Monte-Carlo trials —
/// the unit of work the sweep engine fans out across workers.
///
/// Unlike [`McResult`] no samples are retained, so a block is O(stages)
/// memory regardless of trial count and cheap to send between threads.
/// [`PipelineBlockStats::merge`] combines disjoint blocks. Merging is
/// deterministic for a fixed merge tree (same partition, same order),
/// which is the property the sweep engine's reproducibility relies on;
/// a different partition agrees only to floating-point accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineBlockStats {
    pipeline: RunningStats,
    stage_stats: Vec<RunningStats>,
    targets: Vec<f64>,
    successes: Vec<u64>,
    histogram: Option<Histogram>,
    weighted: Option<WeightedTail>,
}

impl PipelineBlockStats {
    /// An empty accumulator for a pipeline with `stages` stages and
    /// yield counted at each of `targets` (ps).
    pub fn new(stages: usize, targets: &[f64]) -> Self {
        PipelineBlockStats {
            pipeline: RunningStats::new(),
            stage_stats: vec![RunningStats::new(); stages],
            targets: targets.to_vec(),
            successes: vec![0; targets.len()],
            histogram: None,
            weighted: None,
        }
    }

    /// Enables the weighted (importance-sampling) tail accumulator.
    ///
    /// Blocks fed by a reweighted trial plan call
    /// [`PipelineBlockStats::record_weighted`] and read yields back via
    /// [`PipelineBlockStats::weighted_yield_estimate`].
    pub fn with_weighted_tail(mut self) -> Self {
        self.weighted = Some(WeightedTail::new(self.targets.len()));
        self
    }

    /// Adds a fixed-range histogram of the pipeline delay.
    ///
    /// # Panics
    ///
    /// Panics if the spec's range is empty or `bins == 0`.
    pub fn with_histogram(mut self, spec: HistogramSpec) -> Self {
        self.histogram = Some(Histogram::new(spec.lo, spec.hi, spec.bins));
        self
    }

    /// An empty accumulator with this block's exact configuration —
    /// stage count, targets, and histogram range/binning — so the result
    /// can always be [`PipelineBlockStats::merge`]d back into `self`.
    /// This is how the v3 kernel builds its per-lane accumulators.
    pub fn fresh_like(&self) -> Self {
        PipelineBlockStats {
            pipeline: RunningStats::new(),
            stage_stats: vec![RunningStats::new(); self.stage_stats.len()],
            targets: self.targets.clone(),
            successes: vec![0; self.successes.len()],
            histogram: self
                .histogram
                .as_ref()
                .map(|h| Histogram::new(h.lo(), h.hi(), h.counts().len())),
            weighted: self
                .weighted
                .as_ref()
                .map(|_| WeightedTail::new(self.targets.len())),
        }
    }

    /// Folds one trial into the block.
    ///
    /// # Panics
    ///
    /// Panics if `stage_delays` has the wrong length.
    pub fn record(&mut self, stage_delays: &[f64], pipeline_delay: f64) {
        assert_eq!(
            stage_delays.len(),
            self.stage_stats.len(),
            "stage count mismatch"
        );
        self.pipeline.push(pipeline_delay);
        for (acc, &d) in self.stage_stats.iter_mut().zip(stage_delays) {
            acc.push(d);
        }
        for (ok, &t) in self.successes.iter_mut().zip(&self.targets) {
            *ok += u64::from(pipeline_delay <= t);
        }
        if let Some(h) = &mut self.histogram {
            h.push(pipeline_delay);
        }
    }

    /// Folds one *weighted* trial into the block.
    ///
    /// The unweighted moments, success counts, and histogram are updated
    /// exactly as [`PipelineBlockStats::record`] does — they describe
    /// the *sampled* (e.g. mean-shifted) distribution — while the
    /// importance weight `w` feeds the reweighted tail sums that
    /// estimate the unshifted yields.
    ///
    /// # Panics
    ///
    /// Panics if the weighted tail accumulator was not enabled.
    pub fn record_weighted(&mut self, stage_delays: &[f64], pipeline_delay: f64, w: f64) {
        self.record(stage_delays, pipeline_delay);
        let tail = self
            .weighted
            .as_mut()
            .expect("record_weighted requires with_weighted_tail");
        tail.sum_w += w;
        tail.sum_w2 += w * w;
        for (i, &t) in self.targets.iter().enumerate() {
            if pipeline_delay > t {
                tail.fail_w[i] += w;
                tail.fail_w2[i] += w * w;
            }
        }
    }

    /// Merges a block of later trials into this one.
    ///
    /// # Panics
    ///
    /// Panics if the blocks have different stage counts or targets.
    pub fn merge(&mut self, other: &PipelineBlockStats) {
        assert_eq!(
            self.stage_stats.len(),
            other.stage_stats.len(),
            "stage count mismatch"
        );
        assert_eq!(self.targets, other.targets, "target mismatch");
        self.pipeline.merge(&other.pipeline);
        for (acc, s) in self.stage_stats.iter_mut().zip(&other.stage_stats) {
            acc.merge(s);
        }
        for (acc, s) in self.successes.iter_mut().zip(&other.successes) {
            *acc += s;
        }
        match (&mut self.histogram, &other.histogram) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("histogram configuration mismatch"),
        }
        match (&mut self.weighted, &other.weighted) {
            (Some(a), Some(b)) => {
                a.sum_w += b.sum_w;
                a.sum_w2 += b.sum_w2;
                for (acc, s) in a.fail_w.iter_mut().zip(&b.fail_w) {
                    *acc += s;
                }
                for (acc, s) in a.fail_w2.iter_mut().zip(&b.fail_w2) {
                    *acc += s;
                }
            }
            (None, None) => {}
            _ => panic!("weighted-tail configuration mismatch"),
        }
    }

    /// Number of recorded trials.
    pub fn trials(&self) -> u64 {
        self.pipeline.count()
    }

    /// Streaming statistics of the pipeline delay `max_i SD_i`.
    pub fn pipeline(&self) -> &RunningStats {
        &self.pipeline
    }

    /// Streaming statistics of each stage delay.
    pub fn stage_stats(&self) -> &[RunningStats] {
        &self.stage_stats
    }

    /// The yield targets (ps) counted during recording.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// The streamed pipeline-delay histogram, when one was configured.
    pub fn histogram(&self) -> Option<&Histogram> {
        self.histogram.as_ref()
    }

    /// Yield estimate (with Wilson interval) at target index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or no trials were recorded.
    pub fn yield_estimate(&self, i: usize) -> YieldEstimate {
        YieldEstimate::from_counts(self.successes[i] as usize, self.trials() as usize)
    }

    /// Whether the weighted tail accumulator is enabled.
    pub fn has_weighted_tail(&self) -> bool {
        self.weighted.is_some()
    }

    /// Reweighted (importance-sampling) yield estimate at target `i`:
    /// `1 - p_fail` under the unnormalized unbiased estimator
    /// `p_fail = (sum of failing weights) / trials`, with a 95%
    /// interval from the sample variance of the weighted indicator.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, no trials were recorded, or the
    /// weighted tail accumulator was not enabled.
    pub fn weighted_yield_estimate(&self, i: usize) -> YieldEstimate {
        assert!(
            self.trials() > 0,
            "yield estimate requires at least one trial"
        );
        let tail = self
            .weighted
            .as_ref()
            .expect("weighted_yield_estimate requires with_weighted_tail");
        let (p_fail, hw) =
            weighted_fraction_ci(self.trials() as f64, tail.fail_w[i], tail.fail_w2[i]);
        let value = 1.0 - p_fail;
        YieldEstimate {
            value,
            lo: (value - hw).max(0.0),
            hi: (value + hw).min(1.0),
            trials: self.trials() as usize,
        }
    }

    /// 95% half-width of the yield estimate at target `i`, *before* the
    /// interval is clamped to `[0, 1]` — the quantity a CI-driven
    /// verification loop compares against its tolerance (clamping would
    /// understate the uncertainty of near-0/near-1 yields and stop the
    /// loop too early). Routes through the weighted estimator when the
    /// weighted tail is enabled, else the binomial normal approximation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn yield_half_width(&self, i: usize) -> f64 {
        let n = self.trials() as f64;
        match &self.weighted {
            Some(t) => weighted_fraction_ci(n, t.fail_w[i], t.fail_w2[i]).1,
            None => {
                // All weights are 1, so the weighted formula reduces to
                // the unweighted binomial half-width Z·√(p(1−p)/n).
                let fails = (self.trials() - self.successes[i]) as f64;
                weighted_fraction_ci(n, fails, fails).1
            }
        }
    }

    /// Kish effective sample size of the recorded trials: equals the
    /// raw trial count when no weighted tail is active (all weights 1).
    pub fn effective_samples(&self) -> f64 {
        match &self.weighted {
            Some(t) => effective_sample_size(t.sum_w, t.sum_w2),
            None => self.trials() as f64,
        }
    }
}

/// Samples plus derived statistics from a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct McResult {
    samples: Vec<f64>,
    stats: RunningStats,
}

impl McResult {
    /// Wraps a sample vector.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn new(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "MC result requires samples");
        let stats = samples.iter().copied().collect();
        McResult { samples, stats }
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another result into this one (parallel reduction).
    ///
    /// Samples are concatenated in call order and the streaming moments
    /// are combined with Pébay's pairwise formulas. The merged moments
    /// agree with a single sequential pass to floating-point accuracy
    /// (~1e-13 relative), and folding partials in a *fixed* order is
    /// exactly reproducible — which is why the sweep engine fixes both
    /// its block size and its merge order.
    pub fn merge(&mut self, other: &McResult) {
        self.samples.extend_from_slice(&other.samples);
        self.stats.merge(&other.stats);
    }

    /// Streaming moments (mean, sd, min, max).
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.stats.sample_sd()
    }

    /// σ/μ variability.
    pub fn variability(&self) -> f64 {
        self.stats.variability()
    }

    /// Empirical quantiles (sorts a copy on each call — cache if hot).
    pub fn quantiles(&self) -> Quantiles {
        Quantiles::new(&self.samples)
    }

    /// Histogram over the sample range.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn histogram(&self, bins: usize) -> Histogram {
        Histogram::auto(&self.samples, bins)
    }

    /// Monte-Carlo yield at a target delay, with confidence interval.
    pub fn yield_at(&self, target: f64) -> YieldEstimate {
        let ok = self.samples.iter().filter(|&&x| x <= target).count();
        YieldEstimate::from_counts(ok, self.samples.len())
    }

    /// The yield a Gaussian fit of the samples would predict — used to
    /// quantify the Gaussian-approximation error (paper §2.4).
    pub fn gaussian_yield_at(&self, target: f64) -> f64 {
        cap_phi((target - self.mean()) / self.sd())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_interval_sane() {
        let y = YieldEstimate::from_counts(80, 100);
        assert!((y.value - 0.8).abs() < 1e-12);
        assert!(y.lo < 0.8 && y.hi > 0.8);
        assert!(y.hi - y.lo < 0.2);
        assert!(y.contains(0.8));
        // Extremes stay in [0,1].
        let y0 = YieldEstimate::from_counts(0, 50);
        assert!(y0.lo >= 0.0);
        let y1 = YieldEstimate::from_counts(50, 50);
        assert!(y1.hi <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn wilson_rejects_zero_trials() {
        let _ = YieldEstimate::from_counts(0, 0);
    }

    #[test]
    fn result_statistics() {
        let r = McResult::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((r.mean() - 3.0).abs() < 1e-12);
        let y = r.yield_at(3.0);
        assert!((y.value - 0.6).abs() < 1e-12);
        assert_eq!(r.histogram(5).total(), 5);
        assert!((r.quantiles().median() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_yield_close_for_symmetric_samples() {
        let xs: Vec<f64> = (0..10_001).map(|i| (i as f64 - 5000.0) / 1000.0).collect();
        let r = McResult::new(xs);
        // Uniform, but symmetric: at the mean both estimates give ~0.5.
        assert!((r.gaussian_yield_at(0.0) - 0.5).abs() < 1e-6);
        assert!((r.yield_at(0.0).value - 0.5).abs() < 1e-3);
    }
}
