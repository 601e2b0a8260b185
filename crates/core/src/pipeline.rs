//! The pipeline delay model: `T_P = max_i SD_i` (eqs. 3–6).

use serde::{Deserialize, Serialize};
use vardelay_stats::{max_of, CorrelationMatrix, MultivariateNormal, Normal, NormalFill};

use crate::error::CoreError;
use crate::stage::StageDelay;
use crate::yield_model;

/// A pipeline of Gaussian stage delays with a correlation matrix.
///
/// This is the paper's central object: everything — delay distribution,
/// yield, design-space reasoning — derives from `(μᵢ, σᵢ, ρᵢⱼ)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    stages: Vec<StageDelay>,
    correlation: CorrelationMatrix,
}

impl Pipeline {
    /// Creates a pipeline model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if `stages` is empty or the correlation
    /// dimension does not match.
    pub fn new(stages: Vec<StageDelay>, correlation: CorrelationMatrix) -> Result<Self, CoreError> {
        if stages.is_empty() {
            return Err(CoreError::EmptyPipeline);
        }
        if correlation.dim() != stages.len() {
            return Err(CoreError::DimensionMismatch {
                stages: stages.len(),
                corr_dim: correlation.dim(),
            });
        }
        Ok(Pipeline {
            stages,
            correlation,
        })
    }

    /// Convenience constructor for independent stages.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyPipeline`] if `stages` is empty.
    pub fn independent(stages: Vec<StageDelay>) -> Result<Self, CoreError> {
        let n = stages.len();
        Self::new(stages, CorrelationMatrix::identity(n))
    }

    /// Convenience constructor for equi-correlated stages.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if `stages` is empty or `rho` is out of range.
    pub fn equicorrelated(stages: Vec<StageDelay>, rho: f64) -> Result<Self, CoreError> {
        let n = stages.len();
        let corr = CorrelationMatrix::uniform(n, rho)
            .map_err(|_| CoreError::InvalidProbability { value: rho })?;
        Self::new(stages, corr)
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The stages.
    pub fn stages(&self) -> &[StageDelay] {
        &self.stages
    }

    /// The correlation matrix.
    pub fn correlation(&self) -> &CorrelationMatrix {
        &self.correlation
    }

    /// The overall pipeline delay distribution `T_P = max_i SD_i`
    /// approximated as a Gaussian via Clark's recursion (eqs. 4–6),
    /// processing stages in increasing order of mean (§2.4).
    pub fn delay_distribution(&self) -> Normal {
        let vars: Vec<Normal> = self.stages.iter().map(StageDelay::as_normal).collect();
        max_of(&vars, &self.correlation)
    }

    /// Jensen's lower bound on the mean pipeline delay (eq. 3):
    /// `E[T_P] >= max_i μᵢ`.
    pub fn jensen_lower_bound(&self) -> f64 {
        self.stages
            .iter()
            .map(StageDelay::mean)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Yield at a target delay using the Gaussian approximation of `T_P`
    /// (eq. 9) — valid for correlated stages.
    pub fn yield_at(&self, target_ps: f64) -> f64 {
        yield_model::yield_gaussian(&self.delay_distribution(), target_ps)
    }

    /// Exact yield for **independent** stages (eq. 8):
    /// `Π_i Φ((T − μᵢ)/σᵢ)`.
    ///
    /// The correlation matrix is ignored; this is only meaningful when the
    /// stages are (close to) independent — the caller chooses the model, as
    /// in the paper.
    pub fn yield_independent_exact(&self, target_ps: f64) -> f64 {
        let vars: Vec<Normal> = self.stages.iter().map(StageDelay::as_normal).collect();
        yield_model::yield_independent(&vars, target_ps)
    }

    /// The target delay achieving a given yield under the Gaussian
    /// approximation (inverse of [`Self::yield_at`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidProbability`] if `y` is outside `(0, 1)`.
    // Kept: crates/core/tests/properties.rs calls it.
    pub fn target_for_yield(&self, y: f64) -> Result<f64, CoreError> {
        if !(y > 0.0 && y < 1.0) {
            return Err(CoreError::InvalidProbability { value: y });
        }
        Ok(self.delay_distribution().quantile(y))
    }

    /// Monte-Carlo estimate of each stage's *criticality* — the probability
    /// that stage `i` is the slowest — by sampling the joint stage-delay
    /// distribution with the v1 scalar normal fill. Deterministic given
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or the correlation matrix is not PSD.
    // Kept: crates/core/tests/properties.rs calls it.
    pub fn criticality_probabilities(&self, trials: usize, seed: u64) -> Vec<f64> {
        self.criticality_probabilities_with(NormalFill::Scalar, trials, seed)
    }

    /// [`Pipeline::criticality_probabilities`] with the v3 kernel's
    /// inverse-CDF normal fill.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or the correlation matrix is not PSD.
    // Kept: perfbench's criticality probe calls it.
    pub fn criticality_probabilities_v3(&self, trials: usize, seed: u64) -> Vec<f64> {
        self.criticality_probabilities_with(NormalFill::InvCdf, trials, seed)
    }

    /// The criticality estimator under any trial kernel's normal `fill`.
    /// Each fill is its own deterministic byte stream given `seed`; win
    /// counts are integers, so no lane fold applies.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or the correlation matrix is not PSD.
    pub fn criticality_probabilities_with(
        &self,
        fill: NormalFill,
        trials: usize,
        seed: u64,
    ) -> Vec<f64> {
        Self::shared_criticality_probabilities(std::slice::from_ref(self), fill, trials, seed)
            .pop()
            .expect("one pipeline in, one estimate out")
    }

    /// [`Pipeline::criticality_probabilities_with`] for several pipelines
    /// of one stage count, scored against the same draws: entry `k` is
    /// byte-identical to `pipelines[k].criticality_probabilities_with(fill,
    /// trials, seed)`, at the cost of one normal fill for all of them.
    /// The draws come in blocks of 256 trials (see
    /// [`MultivariateNormal::argmax_wins`] for why the blocks reproduce a
    /// per-trial loop's bytes).
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`, the stage counts differ, or a correlation
    /// matrix is not PSD.
    pub fn shared_criticality_probabilities(
        pipelines: &[Pipeline],
        fill: NormalFill,
        trials: usize,
        seed: u64,
    ) -> Vec<Vec<f64>> {
        assert!(trials > 0, "need at least one trial");
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mvns: Vec<MultivariateNormal> = pipelines
            .iter()
            .map(|p| {
                let means: Vec<f64> = p.stages.iter().map(StageDelay::mean).collect();
                let sds: Vec<f64> = p.stages.iter().map(StageDelay::sd).collect();
                MultivariateNormal::from_correlation(&means, &sds, &p.correlation)
                    .expect("stage correlation matrix must be PSD")
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        MultivariateNormal::argmax_wins(&mvns, fill, trials, &mut rng)
            .into_iter()
            .map(|wins| wins.into_iter().map(|w| w as f64 / trials as f64).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(mu: f64, s: f64) -> StageDelay {
        StageDelay::from_moments(mu, s).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            Pipeline::independent(vec![]),
            Err(CoreError::EmptyPipeline)
        ));
        let e = Pipeline::new(vec![sd(1.0, 0.1)], CorrelationMatrix::identity(2));
        assert!(matches!(e, Err(CoreError::DimensionMismatch { .. })));
    }

    #[test]
    fn jensen_bound_holds() {
        let p =
            Pipeline::independent(vec![sd(200.0, 5.0), sd(195.0, 8.0), sd(198.0, 3.0)]).unwrap();
        let d = p.delay_distribution();
        assert!(d.mean() >= p.jensen_lower_bound());
        assert_eq!(p.jensen_lower_bound(), 200.0);
    }

    #[test]
    fn single_stage_pipeline_is_its_stage() {
        let p = Pipeline::independent(vec![sd(150.0, 4.0)]).unwrap();
        let d = p.delay_distribution();
        assert_eq!(d.mean(), 150.0);
        assert_eq!(d.sd(), 4.0);
        assert!((p.yield_at(150.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gaussian_vs_exact_yield_close_when_independent() {
        let p = Pipeline::independent(vec![
            sd(198.0, 3.0),
            sd(200.0, 4.0),
            sd(196.0, 5.0),
            sd(199.0, 3.5),
        ])
        .unwrap();
        for t in [202.0, 205.0, 210.0] {
            let exact = p.yield_independent_exact(t);
            let approx = p.yield_at(t);
            assert!(
                (exact - approx).abs() < 0.03,
                "t={t}: exact {exact} approx {approx}"
            );
        }
    }

    #[test]
    fn perfectly_correlated_yield_is_slowest_stage_yield() {
        let p =
            Pipeline::equicorrelated(vec![sd(190.0, 10.0), sd(200.0, 10.0), sd(195.0, 10.0)], 1.0)
                .unwrap();
        let y = p.yield_at(210.0);
        let slowest = sd(200.0, 10.0).yield_at(210.0);
        assert!((y - slowest).abs() < 1e-9);
    }

    #[test]
    fn target_for_yield_roundtrip() {
        let p = Pipeline::equicorrelated(vec![sd(200.0, 5.0), sd(202.0, 6.0)], 0.4).unwrap();
        let t = p.target_for_yield(0.9).unwrap();
        assert!((p.yield_at(t) - 0.9).abs() < 1e-9);
        assert!(p.target_for_yield(1.5).is_err());
    }

    #[test]
    fn criticality_sums_to_one_and_favors_slow_stage() {
        let p =
            Pipeline::independent(vec![sd(190.0, 5.0), sd(205.0, 5.0), sd(195.0, 5.0)]).unwrap();
        let c = p.criticality_probabilities(20_000, 3);
        let total: f64 = c.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(c[1] > 0.8, "slow stage dominates: {c:?}");
        assert!(c[1] > c[0] && c[1] > c[2]);
    }

    #[test]
    fn criticality_v3_is_deterministic_and_agrees_with_v1() {
        let p =
            Pipeline::independent(vec![sd(190.0, 5.0), sd(205.0, 5.0), sd(195.0, 5.0)]).unwrap();
        let v1 = p.criticality_probabilities(20_000, 3);
        let v3 = p.criticality_probabilities_v3(20_000, 3);
        assert_eq!(v3, p.criticality_probabilities_v3(20_000, 3));
        assert_ne!(v1, v3, "the kernels must be distinct streams");
        let total: f64 = v3.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Different stream, same distribution: win fractions agree to MC
        // accuracy (binomial sd at n = 20k is under 0.004).
        for (a, b) in v1.iter().zip(&v3) {
            assert!((a - b).abs() < 0.02, "v1 {a} vs v3 {b}");
        }
    }

    /// The per-trial estimator the block counter replaced, kept here as
    /// the byte reference: one fill and one `sample_into` per trial, then
    /// a strict-`>` argmax scan.
    fn per_trial_reference(p: &Pipeline, fill: NormalFill, trials: usize, seed: u64) -> Vec<f64> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use vardelay_stats::DrawOverlay;
        let means: Vec<f64> = p.stages().iter().map(StageDelay::mean).collect();
        let sds: Vec<f64> = p.stages().iter().map(StageDelay::sd).collect();
        let mvn = MultivariateNormal::from_correlation(&means, &sds, p.correlation()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wins = vec![0usize; p.stage_count()];
        let (mut z, mut x) = (Vec::new(), Vec::new());
        for _ in 0..trials {
            mvn.sample_into(fill, &DrawOverlay::IDENTITY, &mut rng, &mut z, &mut x);
            let (mut argmax, mut best) = (0usize, f64::NEG_INFINITY);
            for (i, &v) in x.iter().enumerate() {
                if v > best {
                    best = v;
                    argmax = i;
                }
            }
            wins[argmax] += 1;
        }
        wins.into_iter().map(|w| w as f64 / trials as f64).collect()
    }

    #[test]
    fn block_estimator_matches_the_per_trial_loop() {
        let fills = [NormalFill::Scalar, NormalFill::InvCdf];
        for dim in [1, 2, 3, 4, 5, 9, 17] {
            let pipelines = [
                // Distinct means and sds, partly correlated.
                Pipeline::equicorrelated(
                    (0..dim)
                        .map(|i| sd(200.0 + (i * 7 % 5) as f64, 3.0 + 0.5 * i as f64))
                        .collect(),
                    0.3,
                )
                .unwrap(),
                // Singular ρ = 1 with equal means: the sds order the
                // stages by the sign of the one shared normal.
                Pipeline::equicorrelated(
                    (0..dim).map(|i| sd(200.0, 2.0 + i as f64)).collect(),
                    1.0,
                )
                .unwrap(),
                // Equal means and sds at ρ = 1: every trial is an exact
                // tie, which the first stage wins.
                Pipeline::equicorrelated(vec![sd(200.0, 4.0); dim], 1.0).unwrap(),
                // Equal means, independent: ties in the means only.
                Pipeline::independent(vec![sd(200.0, 4.0); dim]).unwrap(),
            ];
            for fill in fills {
                for trials in [1, 15, 16, 17, 255, 256, 257, 20_000] {
                    // The flow's trial count, on the two tie-free cases
                    // only (it dominates the test's run time).
                    let pipelines = &pipelines[..if trials == 20_000 { 2 } else { 4 }];
                    let seed = 0xC817 ^ (dim * 100_003 + trials) as u64;
                    let want: Vec<Vec<f64>> = pipelines
                        .iter()
                        .map(|p| per_trial_reference(p, fill, trials, seed))
                        .collect();
                    let ctx = format!("{fill:?}, dim {dim}, {trials} trials");
                    for (p, want) in pipelines.iter().zip(&want) {
                        let got = p.criticality_probabilities_with(fill, trials, seed);
                        assert_eq!(&got, want, "{ctx}");
                    }
                    // Shared draws score each pipeline as its own call.
                    let shared =
                        Pipeline::shared_criticality_probabilities(pipelines, fill, trials, seed);
                    assert_eq!(shared, want, "{ctx}");
                    if dim > 1 && pipelines.len() > 2 {
                        assert_eq!(want[2][0], 1.0, "{ctx}: ties go to the first stage");
                    }
                }
            }
        }
    }

    /// The premise of sharing one criticality estimate per stage model
    /// across optimization runs: a pipeline's wins in a batch are its
    /// wins estimated alone, bit for bit, whatever else the batch holds
    /// and in whatever order.
    #[test]
    fn batched_criticality_never_depends_on_the_rest_of_the_batch() {
        use vardelay_stats::SymMatrix;
        for ns in 2..=8 {
            let stages = |skew: f64| -> Vec<StageDelay> {
                (0..ns)
                    .map(|i| {
                        sd(
                            200.0 + skew * ((i * 5 % 7) as f64 - 3.0),
                            3.0 + 0.4 * i as f64,
                        )
                    })
                    .collect()
            };
            let decay = SymMatrix::from_fn(ns, |i, j| 0.6f64.powi(i.abs_diff(j) as i32));
            let pipelines = [
                Pipeline::independent(stages(1.0)).unwrap(),
                Pipeline::equicorrelated(stages(0.5), 0.3).unwrap(),
                Pipeline::equicorrelated(stages(2.0), 0.7).unwrap(),
                Pipeline::new(stages(0.0), CorrelationMatrix::from_matrix(decay).unwrap()).unwrap(),
            ];
            for fill in [NormalFill::Scalar, NormalFill::InvCdf] {
                let (trials, seed) = (2_600, 0xC817);
                let alone: Vec<Vec<f64>> = pipelines
                    .iter()
                    .map(|p| p.criticality_probabilities_with(fill, trials, seed))
                    .collect();
                let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
                    v.iter()
                        .map(|c| c.iter().map(|x| x.to_bits()).collect())
                        .collect()
                };
                let ctx = format!("{fill:?}, {ns} stages");
                let batch =
                    Pipeline::shared_criticality_probabilities(&pipelines, fill, trials, seed);
                assert_eq!(bits(&batch), bits(&alone), "{ctx}");
                let mut reversed = pipelines.to_vec();
                reversed.reverse();
                let mut back =
                    Pipeline::shared_criticality_probabilities(&reversed, fill, trials, seed);
                back.reverse();
                assert_eq!(bits(&back), bits(&alone), "{ctx}, reversed batch");
                let pair =
                    Pipeline::shared_criticality_probabilities(&pipelines[2..], fill, trials, seed);
                assert_eq!(bits(&pair), bits(&alone[2..]), "{ctx}, sub-batch");
            }
        }
    }
}
