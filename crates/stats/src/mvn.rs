//! Multivariate normal sampling.

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::correlation::CorrelationMatrix;
use crate::draw::{DrawOverlay, NormalFill};
use crate::matrix::{Cholesky, MatrixError, SymMatrix};

/// Error constructing a [`MultivariateNormal`].
#[derive(Debug, Clone, PartialEq)]
pub enum MvnError {
    /// Mean vector length does not match the covariance dimension.
    DimensionMismatch {
        /// Mean length.
        mean_len: usize,
        /// Covariance dimension.
        cov_dim: usize,
    },
    /// The covariance matrix could not be factorized.
    Factorization(MatrixError),
}

impl fmt::Display for MvnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MvnError::DimensionMismatch { mean_len, cov_dim } => write!(
                f,
                "mean length {mean_len} does not match covariance dimension {cov_dim}"
            ),
            MvnError::Factorization(e) => write!(f, "covariance factorization failed: {e}"),
        }
    }
}

impl std::error::Error for MvnError {}

/// Trials per normal fill of [`MultivariateNormal::argmax_wins`].
const ARGMAX_BLOCK: usize = 256;

/// Trials scored side by side, dim-major, by the argmax counter.
const LANES: usize = 16;

/// A multivariate normal distribution `N(mean, cov)` ready for sampling.
///
/// The covariance is Cholesky-factorized once at construction; each sample
/// costs one `L z` transform. Singular PSD covariances (e.g. perfectly
/// correlated pipeline stages) are supported.
///
/// ```
/// use vardelay_stats::{CorrelationMatrix, MultivariateNormal};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let corr = CorrelationMatrix::uniform(3, 0.8)?;
/// let mvn = MultivariateNormal::from_correlation(
///     &[200.0, 210.0, 205.0], &[5.0, 6.0, 4.0], &corr)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = mvn.sample(&mut rng);
/// assert_eq!(x.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultivariateNormal {
    mean: Vec<f64>,
    chol: Cholesky,
}

impl MultivariateNormal {
    /// Builds from a mean vector and covariance matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MvnError`] on dimension mismatch or a non-PSD covariance.
    pub fn new(mean: &[f64], cov: &SymMatrix) -> Result<Self, MvnError> {
        if mean.len() != cov.dim() {
            return Err(MvnError::DimensionMismatch {
                mean_len: mean.len(),
                cov_dim: cov.dim(),
            });
        }
        let chol = cov.cholesky(0.0).map_err(MvnError::Factorization)?;
        Ok(MultivariateNormal {
            mean: mean.to_vec(),
            chol,
        })
    }

    /// Builds from per-variable means, standard deviations, and a
    /// correlation matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MvnError`] on dimension mismatch or non-PSD correlation.
    pub fn from_correlation(
        mean: &[f64],
        sds: &[f64],
        corr: &CorrelationMatrix,
    ) -> Result<Self, MvnError> {
        if mean.len() != corr.dim() || sds.len() != corr.dim() {
            return Err(MvnError::DimensionMismatch {
                mean_len: mean.len(),
                cov_dim: corr.dim(),
            });
        }
        let cov = corr.to_covariance(sds);
        Self::new(mean, &cov)
    }

    /// The dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The mean vector.
    #[inline]
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Draws one correlated sample vector (scalar fill, no overlay).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let (mut z, mut out) = (Vec::new(), Vec::new());
        self.sample_into(
            NormalFill::Scalar,
            &DrawOverlay::IDENTITY,
            rng,
            &mut z,
            &mut out,
        );
        out
    }

    /// Allocation-free correlated sampler: fills `z` with iid normals
    /// through `fill`, applies the trial plan's `overlay` (leading-dim
    /// overrides and sign, then the mean shift of the first normal), and
    /// writes `mean + L z` into `out`. Returns the trial's importance
    /// weight (`1.0` unless the overlay shifts). Both buffers are resized
    /// on first use, so a loop that reuses them allocates nothing.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        fill: NormalFill,
        overlay: &DrawOverlay<'_>,
        rng: &mut R,
        z: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> f64 {
        z.resize(self.dim(), 0.0);
        out.resize(self.dim(), 0.0);
        fill.fill(rng, z);
        overlay.apply(z);
        let weight = z.first_mut().map_or(1.0, |z0| overlay.shift_weight(z0));
        self.chol.transform_into(z, out);
        for (yi, mi) in out.iter_mut().zip(&self.mean) {
            *yi += mi;
        }
        weight
    }

    /// Draws `trials` standard-normal vectors of the common dimension of
    /// `mvns` and counts, for each distribution, how often each dim holds
    /// the maximum of `mean + L z` (the first index on a tie). Every
    /// distribution scores the same draws, so `wins[k]` equals a call
    /// with `mvns[k]` alone.
    ///
    /// The counts are exactly those of a per-trial loop that fills one
    /// trial's `z` through `fill`, maps it with
    /// [`MultivariateNormal::sample_into`] and takes the strict-`>`
    /// argmax, because:
    ///
    /// * one fill of 256 rows × dim consumes the stream in the same order
    ///   and produces the same values as one fill per row;
    /// * 16 rows at a time are transposed to dim-major lanes and each
    ///   output is computed in `transform_into`'s per-element order: the
    ///   first product, `+=` the rest in `j` order, then `+ mean`. The
    ///   `sum` there starts from `-0.0`, which leaves the first product's
    ///   bits unchanged;
    /// * the lane argmax starts from `-inf` at index 0 and moves only on a
    ///   strict `>`, as the per-trial scan does.
    ///
    /// # Panics
    ///
    /// Panics if the distributions differ in dimension or have dim 0.
    pub fn argmax_wins<R: Rng + ?Sized>(
        mvns: &[MultivariateNormal],
        fill: NormalFill,
        trials: usize,
        rng: &mut R,
    ) -> Vec<Vec<usize>> {
        let Some(dim) = mvns.first().map(MultivariateNormal::dim) else {
            return Vec::new();
        };
        assert!(dim > 0, "argmax needs at least one dimension");
        assert!(
            mvns.iter().all(|m| m.dim() == dim),
            "argmax_wins needs distributions of one dimension"
        );
        let mut wins = vec![vec![0usize; dim]; mvns.len()];
        let mut z = vec![0.0; ARGMAX_BLOCK * dim];
        let mut lanes = vec![[0.0; LANES]; dim];
        let mut left = trials;
        while left > 0 {
            let rows = left.min(ARGMAX_BLOCK);
            left -= rows;
            let block = &mut z[..rows * dim];
            fill.fill(rng, block);
            for group in block.chunks(LANES * dim) {
                for (lane, row) in group.chunks_exact(dim).enumerate() {
                    for (l, &v) in lanes.iter_mut().zip(row) {
                        l[lane] = v;
                    }
                }
                // Lanes past the group's rows hold stale draws; their
                // argmax is computed and never counted.
                let n = group.len() / dim;
                for (mvn, w) in mvns.iter().zip(&mut wins) {
                    for &a in &mvn.argmax_lanes(&lanes)[..n] {
                        w[a] += 1;
                    }
                }
            }
        }
        wins
    }

    /// The argmax of `mean + L z` for each of the 16 lanes of the
    /// dim-major draws `lanes`, branch-free.
    #[inline]
    fn argmax_lanes(&self, lanes: &[[f64; LANES]]) -> [usize; LANES] {
        let mut best = [f64::NEG_INFINITY; LANES];
        let mut arg = [0usize; LANES];
        for (i, &mi) in self.mean.iter().enumerate() {
            let y = self.chol.transform_row_lanes(i, lanes);
            for ((y, b), a) in y.iter().zip(&mut best).zip(&mut arg) {
                let x = y + mi;
                let gt = x > *b;
                *b = if gt { x } else { *b };
                *a = if gt { i } else { *a };
            }
        }
        arg
    }

    /// Draws `n` samples, returned row-wise.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Draws `n` samples of `max_i X_i` — the Monte-Carlo estimate of the
    /// pipeline-delay distribution used to validate Clark's approximation.
    pub fn sample_max_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                self.sample(rng)
                    .into_iter()
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }
}

/// A `SampleStats` summary of empirical mean/sd per dimension plus the
/// empirical correlation — diagnostics used by tests and the harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleStats {
    /// Per-dimension sample means.
    pub mean: Vec<f64>,
    /// Per-dimension sample standard deviations.
    pub sd: Vec<f64>,
}

/// Computes per-dimension mean and standard deviation of row-wise samples.
///
/// # Panics
///
/// Panics if `samples` is empty or rows are ragged.
pub fn sample_stats(samples: &[Vec<f64>]) -> SampleStats {
    assert!(!samples.is_empty(), "need at least one sample");
    let d = samples[0].len();
    let n = samples.len() as f64;
    let mut mean = vec![0.0; d];
    for s in samples {
        assert_eq!(s.len(), d, "ragged sample rows");
        for (m, x) in mean.iter_mut().zip(s) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0; d];
    for s in samples {
        for ((v, x), m) in var.iter_mut().zip(s).zip(&mean) {
            *v += (x - m) * (x - m);
        }
    }
    let sd = var.iter().map(|v| (v / (n - 1.0)).sqrt()).collect();
    SampleStats { mean, sd }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dimensions_validated() {
        let corr = CorrelationMatrix::identity(2);
        assert!(matches!(
            MultivariateNormal::from_correlation(&[0.0], &[1.0, 1.0], &corr),
            Err(MvnError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn samples_match_moments_and_correlation() {
        let corr = CorrelationMatrix::uniform(3, 0.6).unwrap();
        let mvn =
            MultivariateNormal::from_correlation(&[10.0, 20.0, 30.0], &[1.0, 2.0, 3.0], &corr)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let xs = mvn.sample_n(&mut rng, 100_000);
        let st = sample_stats(&xs);
        for (got, want) in st.mean.iter().zip([10.0, 20.0, 30.0]) {
            assert!((got - want).abs() < 0.05, "mean {got} vs {want}");
        }
        for (got, want) in st.sd.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 0.05, "sd {got} vs {want}");
        }
        // Empirical correlation of dims 0 and 1.
        let m0 = st.mean[0];
        let m1 = st.mean[1];
        let cov01: f64 =
            xs.iter().map(|s| (s[0] - m0) * (s[1] - m1)).sum::<f64>() / (xs.len() as f64 - 1.0);
        let rho = cov01 / (st.sd[0] * st.sd[1]);
        assert!((rho - 0.6).abs() < 0.02, "rho {rho}");
    }

    /// The historical sampler body: draw, transform, add the mean.
    fn reference(mvn: &MultivariateNormal, fill: NormalFill, rng: &mut StdRng) -> Vec<f64> {
        let mut z = vec![0.0; mvn.dim()];
        fill.fill(rng, &mut z);
        let mut y = mvn.chol.transform(&z);
        for (yi, mi) in y.iter_mut().zip(&mvn.mean) {
            *yi += mi;
        }
        y
    }

    #[test]
    fn sample_into_matches_sample_bit_for_bit() {
        let corr = CorrelationMatrix::uniform(3, 0.4).unwrap();
        let mvn = MultivariateNormal::from_correlation(&[1.0, 2.0, 3.0], &[0.5, 1.0, 2.0], &corr)
            .unwrap();
        let mut r1 = StdRng::seed_from_u64(17);
        let mut r2 = StdRng::seed_from_u64(17);
        let mut r3 = StdRng::seed_from_u64(17);
        let (mut z, mut out) = (Vec::new(), Vec::new());
        for _ in 0..50 {
            let want = mvn.sample(&mut r1);
            mvn.sample_into(
                NormalFill::Scalar,
                &DrawOverlay::IDENTITY,
                &mut r2,
                &mut z,
                &mut out,
            );
            assert_eq!(want, out);
            let z3: Vec<f64> = (0..3)
                .map(|_| crate::normal::sample_standard_normal(&mut r3))
                .collect();
            let mut y = mvn.chol.transform(&z3);
            for (yi, mi) in y.iter_mut().zip(&mvn.mean) {
                *yi += mi;
            }
            assert_eq!(want, y);
        }
    }

    #[test]
    fn inv_cdf_sampler_matches_moments() {
        let corr = CorrelationMatrix::uniform(2, 0.7).unwrap();
        let mvn = MultivariateNormal::from_correlation(&[5.0, -5.0], &[2.0, 3.0], &corr).unwrap();
        let mut rng = StdRng::seed_from_u64(0x52);
        let (mut z, mut out) = (Vec::new(), Vec::new());
        let mut xs = Vec::new();
        for _ in 0..60_000 {
            mvn.sample_into(
                NormalFill::InvCdf,
                &DrawOverlay::IDENTITY,
                &mut rng,
                &mut z,
                &mut out,
            );
            xs.push(out.clone());
        }
        let st = sample_stats(&xs);
        assert!((st.mean[0] - 5.0).abs() < 0.03, "mean {:?}", st.mean);
        assert!((st.mean[1] - -5.0).abs() < 0.05, "mean {:?}", st.mean);
        assert!((st.sd[0] - 2.0).abs() < 0.03, "sd {:?}", st.sd);
        assert!((st.sd[1] - 3.0).abs() < 0.05, "sd {:?}", st.sd);
        let cov: f64 = xs
            .iter()
            .map(|s| (s[0] - st.mean[0]) * (s[1] - st.mean[1]))
            .sum::<f64>()
            / (xs.len() as f64 - 1.0);
        let rho = cov / (st.sd[0] * st.sd[1]);
        assert!((rho - 0.7).abs() < 0.02, "rho {rho}");
    }

    #[test]
    fn plan_sampler_with_identity_mods_matches_plain_bit_for_bit() {
        let corr = CorrelationMatrix::uniform(3, 0.5).unwrap();
        let mvn = MultivariateNormal::from_correlation(&[1.0, 2.0, 3.0], &[0.5, 1.0, 2.0], &corr)
            .unwrap();
        let (mut z, mut b) = (Vec::new(), Vec::new());
        for fill in [NormalFill::Scalar, NormalFill::InvCdf] {
            for seed in 0..20u64 {
                let mut r1 = StdRng::seed_from_u64(seed);
                let mut r2 = StdRng::seed_from_u64(seed);
                let a = reference(&mvn, fill, &mut r1);
                let w = mvn.sample_into(fill, &DrawOverlay::IDENTITY, &mut r2, &mut z, &mut b);
                assert_eq!(w, 1.0);
                assert_eq!(a, b, "{fill:?}");
            }
        }
    }

    #[test]
    fn plan_sampler_reflects_and_shifts() {
        let corr = CorrelationMatrix::uniform(2, 0.3).unwrap();
        let mvn = MultivariateNormal::from_correlation(&[10.0, 20.0], &[1.0, 2.0], &corr).unwrap();
        let (mut z, mut a, mut b) = (Vec::new(), Vec::new(), Vec::new());
        let overlay = |sign, lead, shift| DrawOverlay { sign, lead, shift };
        let fill = NormalFill::Scalar;
        // Antithetic reflection symmetry: the reflected draw mirrors the
        // original around the mean, exactly.
        let mut r1 = StdRng::seed_from_u64(77);
        let mut r2 = StdRng::seed_from_u64(77);
        mvn.sample_into(fill, &overlay(1.0, &[], 0.0), &mut r1, &mut z, &mut a);
        mvn.sample_into(fill, &overlay(-1.0, &[], 0.0), &mut r2, &mut z, &mut b);
        for ((x, y), m) in a.iter().zip(&b).zip([10.0, 20.0]) {
            assert!(((x - m) + (y - m)).abs() < 1e-12, "{x} and {y} around {m}");
        }
        // Lead override pins the first normal.
        let lead = [1.5, -0.5];
        let mut r = StdRng::seed_from_u64(5);
        mvn.sample_into(fill, &overlay(1.0, &lead, 0.0), &mut r, &mut z, &mut a);
        let mut r = StdRng::seed_from_u64(5);
        let w = mvn.sample_into(fill, &overlay(1.0, &lead, 2.0), &mut r, &mut z, &mut b);
        // Shift moves z0 by 2 sigmas through the Cholesky first column
        // and carries the likelihood ratio of the pre-shift normal.
        assert!((w - crate::strata::mean_shift_weight(2.0, 1.5)).abs() < 1e-12);
        assert!(b[0] > a[0]);
    }

    #[test]
    fn perfectly_correlated_samples_move_together() {
        let corr = CorrelationMatrix::uniform(2, 1.0).unwrap();
        let mvn = MultivariateNormal::from_correlation(&[0.0, 0.0], &[1.0, 1.0], &corr).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let s = mvn.sample(&mut rng);
            assert!((s[0] - s[1]).abs() < 1e-9, "{s:?}");
        }
    }

    #[test]
    fn sample_max_is_at_least_each_component_marginal() {
        let corr = CorrelationMatrix::identity(4);
        let mvn =
            MultivariateNormal::from_correlation(&[100.0, 100.0, 100.0, 100.0], &[1.0; 4], &corr)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let maxes = mvn.sample_max_n(&mut rng, 20_000);
        let mean = maxes.iter().sum::<f64>() / maxes.len() as f64;
        // E[max of 4 iid std normals] ~ 1.0294; shifted by 100.
        assert!((mean - 101.029).abs() < 0.05, "mean of max {mean}");
    }
}
