//! Clark's moment-matching approximation for the maximum of correlated
//! Gaussian random variables.
//!
//! C. E. Clark, *"The Greatest of a Finite Set of Random Variables"*,
//! Operations Research 9(2), 1961 — reference \[8\] of the paper. The paper's
//! eqs. (4)–(6) are implemented verbatim:
//!
//! * [`max_pair`] / [`max_pair_moments`] — first two moments of
//!   `max(X1, X2)` for correlated Gaussians (eq. 5).
//! * [`correlation_with_max`] — correlation of a third Gaussian with the
//!   pairwise max (eq. 6), needed to chain the operator.
//! * [`max_of`] — the N-way recursion of eq. (4): variables are sorted by
//!   increasing mean (the ordering the paper uses to minimize modeling
//!   error, §2.4) and folded pairwise.

use crate::correlation::CorrelationMatrix;
use crate::normal::{cap_phi, phi, Normal};

/// Relative threshold below which `a = sqrt(var1 + var2 - 2*cov)` is
/// treated as zero, i.e. the two inputs are (numerically) the same random
/// variable up to a mean shift and the max is taken exactly. Scaled by the
/// input standard deviations so near-perfect correlations produced by
/// round-off (e.g. `rho = 1 - 1e-16` from a covariance/variance division)
/// land in the exact branch; the approximation error introduced is
/// `O(a·phi(0))`, i.e. below `1e-7` of the inputs' scale.
const DEGENERATE_A_REL: f64 = 1e-7;

/// Full set of intermediate quantities from a pairwise Clark max.
///
/// Exposing the intermediates (`a`, `alpha`, tail probabilities) follows
/// C-INTERMEDIATE: downstream code (e.g. error analysis in the experiment
/// harness) reuses them without recomputation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxPairMoments {
    /// `E[max(X1, X2)]`.
    pub mean: f64,
    /// `Var[max(X1, X2)]` (clamped at 0 against round-off).
    pub variance: f64,
    /// `a = sqrt(sd1^2 + sd2^2 - 2 rho sd1 sd2)`.
    pub a: f64,
    /// `alpha = (mu1 - mu2) / a` (`+inf`/`-inf` in the degenerate case).
    pub alpha: f64,
    /// `Phi(alpha)` — the probability that `X1` is the larger variable.
    pub p_first_larger: f64,
}

impl MaxPairMoments {
    /// The resulting Gaussian approximation `N(mean, variance)`.
    ///
    /// # Panics
    ///
    /// Never panics: `mean` and `variance` are finite by construction.
    pub fn to_normal(&self) -> Normal {
        Normal::new(self.mean, self.variance.max(0.0).sqrt())
            .expect("Clark moments are finite by construction")
    }
}

/// First two moments of `max(X1, X2)` for jointly Gaussian `X1`, `X2`
/// with correlation `rho` (paper eq. 5).
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]`.
///
/// ```
/// use vardelay_stats::{Normal, clark::max_pair_moments};
/// let x1 = Normal::new(0.0, 1.0)?;
/// let x2 = Normal::new(0.0, 1.0)?;
/// let m = max_pair_moments(x1, x2, 0.0);
/// // E[max of two iid standard normals] = 1/sqrt(pi).
/// assert!((m.mean - 0.5641895835477563).abs() < 1e-12);
/// # Ok::<(), vardelay_stats::NormalError>(())
/// ```
pub fn max_pair_moments(x1: Normal, x2: Normal, rho: f64) -> MaxPairMoments {
    assert!(
        (-1.0..=1.0).contains(&rho),
        "correlation must be in [-1, 1], got {rho}"
    );
    let (m1, s1) = (x1.mean(), x1.sd());
    let (m2, s2) = (x2.mean(), x2.sd());
    let a2 = (s1 * s1 + s2 * s2 - 2.0 * rho * s1 * s2).max(0.0);
    let a = a2.sqrt();

    if a < DEGENERATE_A_REL * (s1 + s2).max(f64::MIN_POSITIVE) {
        // The difference X1 - X2 is (numerically) deterministic: the max is
        // exactly the input with the larger mean.
        let (mean, sd, alpha) = if m1 >= m2 {
            (m1, s1, f64::INFINITY)
        } else {
            (m2, s2, f64::NEG_INFINITY)
        };
        return MaxPairMoments {
            mean,
            variance: sd * sd,
            a,
            alpha,
            p_first_larger: if m1 >= m2 { 1.0 } else { 0.0 },
        };
    }

    let alpha = (m1 - m2) / a;
    let cdf_a = cap_phi(alpha);
    let cdf_ma = cap_phi(-alpha);
    let pdf_a = phi(alpha);

    // eq. (5): first and second raw moments.
    let nu1 = m1 * cdf_a + m2 * cdf_ma + a * pdf_a;
    let nu2 = (m1 * m1 + s1 * s1) * cdf_a + (m2 * m2 + s2 * s2) * cdf_ma + (m1 + m2) * a * pdf_a;
    let variance = (nu2 - nu1 * nu1).max(0.0);

    MaxPairMoments {
        mean: nu1,
        variance,
        a,
        alpha,
        p_first_larger: cdf_a,
    }
}

/// Gaussian approximation of `max(X1, X2)` (paper eq. 5).
///
/// Convenience wrapper over [`max_pair_moments`].
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]`.
pub fn max_pair(x1: Normal, x2: Normal, rho: f64) -> Normal {
    max_pair_moments(x1, x2, rho).to_normal()
}

/// Correlation of a third Gaussian `X3` with `max(X1, X2)` (paper eq. 6).
///
/// `rho13`/`rho23` are the correlations of `X3` with `X1`/`X2`, and `m` is
/// the pairwise result from [`max_pair_moments`] on `(X1, X2)`.
///
/// Returns 0 when the max is (numerically) deterministic.
pub fn correlation_with_max(
    x1: Normal,
    x2: Normal,
    m: &MaxPairMoments,
    rho13: f64,
    rho23: f64,
) -> f64 {
    let sd_max = m.variance.max(0.0).sqrt();
    if sd_max < DEGENERATE_A_REL * (x1.sd() + x2.sd()).max(f64::MIN_POSITIVE) {
        return 0.0;
    }
    let cdf_a = cap_phi(m.alpha);
    let cdf_ma = cap_phi(-m.alpha);
    let raw = (x1.sd() * rho13 * cdf_a + x2.sd() * rho23 * cdf_ma) / sd_max;
    raw.clamp(-1.0, 1.0)
}

/// Gaussian approximation of `max(X_1, ..., X_n)` for jointly Gaussian
/// variables with the given correlation matrix (paper eq. 4).
///
/// The variables are folded two at a time. Following §2.4 of the paper, they
/// are processed in **increasing order of mean**, which empirically minimizes
/// the approximation error of re-Gaussianizing each pairwise max. After each
/// fold, the correlation of every remaining variable with the partial max is
/// updated with eq. (6).
///
/// # Panics
///
/// Panics if `vars` is empty or its length differs from the dimension of
/// `corr`.
///
/// ```
/// use vardelay_stats::{Normal, CorrelationMatrix, max_of};
/// let stages: Vec<Normal> = (0..5)
///     .map(|_| Normal::new(200.0, 10.0))
///     .collect::<Result<_, _>>()?;
/// let corr = CorrelationMatrix::uniform(5, 0.0)?;
/// let pipe = max_of(&stages, &corr);
/// // Max of 5 iid stages is clearly above any single stage mean.
/// assert!(pipe.mean() > 205.0 && pipe.mean() < 220.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn max_of(vars: &[Normal], corr: &CorrelationMatrix) -> Normal {
    // Sort indices by increasing mean (paper's error-minimizing ordering).
    let mut order: Vec<usize> = (0..vars.len()).collect();
    order.sort_by(|&i, &j| {
        vars[i]
            .mean()
            .partial_cmp(&vars[j].mean())
            .expect("finite means")
    });
    max_of_with_order(vars, corr, &order)
}

/// Like [`max_of`] but folding the variables in the caller-supplied order.
///
/// Exposed for ablation studies of the paper's §2.4 claim that processing
/// variables in increasing order of mean minimizes the modeling error —
/// pass a different permutation and compare against Monte-Carlo.
///
/// # Panics
///
/// Panics if `vars` is empty, the correlation dimension differs, or
/// `order` is not a permutation of `0..vars.len()`.
pub fn max_of_with_order(vars: &[Normal], corr: &CorrelationMatrix, order: &[usize]) -> Normal {
    assert!(!vars.is_empty(), "max_of requires at least one variable");
    assert_eq!(
        vars.len(),
        corr.dim(),
        "correlation matrix dimension {} does not match variable count {}",
        corr.dim(),
        vars.len()
    );
    {
        let mut seen = vec![false; vars.len()];
        assert_eq!(order.len(), vars.len(), "order must cover every variable");
        for &i in order {
            assert!(i < vars.len() && !seen[i], "order must be a permutation");
            seen[i] = true;
        }
    }
    if vars.len() == 1 {
        return vars[0];
    }

    // Remaining variables in processing order, plus their correlation with
    // the running partial max.
    let ordered: Vec<Normal> = order.iter().map(|&i| vars[i]).collect();

    // rho_with_partial[k] = corr(ordered[k], partial_max) for k not yet folded.
    let mut partial = ordered[0];
    let mut rho_with_partial: Vec<f64> = (1..ordered.len())
        .map(|k| corr.get(order[0], order[k]))
        .collect();

    for step in 1..ordered.len() {
        let x2 = ordered[step];
        let rho = rho_with_partial[step - 1];
        let m = max_pair_moments(partial, x2, rho);

        // Update correlations of all later variables with the new partial max
        // before overwriting `partial` (eq. 6 needs both inputs).
        for k in (step + 1)..ordered.len() {
            let rho_k_partial = rho_with_partial[k - 1];
            let rho_k_x2 = corr.get(order[step], order[k]);
            rho_with_partial[k - 1] =
                correlation_with_max(partial, x2, &m, rho_k_partial, rho_k_x2);
        }
        partial = m.to_normal();
    }
    partial
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::CorrelationMatrix;
    use crate::normal::sample_standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(mu: f64, sd: f64) -> Normal {
        Normal::new(mu, sd).unwrap()
    }

    #[test]
    fn iid_standard_pair_matches_closed_form() {
        let m = max_pair_moments(n(0.0, 1.0), n(0.0, 1.0), 0.0);
        // E[max] = 1/sqrt(pi) for iid standard normals.
        assert!((m.mean - 1.0 / std::f64::consts::PI.sqrt()).abs() < 1e-12);
        // Var[max] = 1 - 1/pi for iid standard normals.
        assert!((m.variance - (1.0 - 1.0 / std::f64::consts::PI)).abs() < 1e-12);
    }

    #[test]
    fn perfectly_correlated_equal_sigma_is_exact_max_of_means() {
        let m = max_pair_moments(n(5.0, 2.0), n(3.0, 2.0), 1.0);
        assert!((m.mean - 5.0).abs() < 1e-12);
        assert!((m.variance - 4.0).abs() < 1e-12);
        assert_eq!(m.p_first_larger, 1.0);
    }

    #[test]
    fn dominated_variable_changes_nothing() {
        // X2 is 20 sigma below X1: max ≈ X1 exactly.
        let m = max_pair_moments(n(100.0, 1.0), n(60.0, 1.0), 0.0);
        assert!((m.mean - 100.0).abs() < 1e-9);
        assert!((m.variance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_is_symmetric_in_arguments() {
        let a = n(10.0, 2.0);
        let b = n(12.0, 3.0);
        let m1 = max_pair_moments(a, b, 0.4);
        let m2 = max_pair_moments(b, a, 0.4);
        assert!((m1.mean - m2.mean).abs() < 1e-12);
        assert!((m1.variance - m2.variance).abs() < 1e-12);
    }

    #[test]
    fn mean_of_max_exceeds_max_of_means() {
        // Jensen (paper eq. 3): E[max] >= max(E[..]).
        let m = max_pair_moments(n(10.0, 2.0), n(9.5, 2.0), 0.2);
        assert!(m.mean >= 10.0);
    }

    #[test]
    #[should_panic(expected = "correlation must be in")]
    fn rejects_bad_rho() {
        let _ = max_pair_moments(n(0.0, 1.0), n(0.0, 1.0), 1.5);
    }

    #[test]
    fn pairwise_against_monte_carlo() {
        let x1 = n(100.0, 8.0);
        let x2 = n(104.0, 5.0);
        let rho = 0.35;
        let m = max_pair_moments(x1, x2, rho);

        let mut rng = StdRng::seed_from_u64(7);
        let trials = 400_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..trials {
            let z1 = sample_standard_normal(&mut rng);
            let zc = sample_standard_normal(&mut rng);
            let z2 = rho * z1 + (1.0 - rho * rho).sqrt() * zc;
            let v = (100.0 + 8.0 * z1).max(104.0 + 5.0 * z2);
            sum += v;
            sum2 += v * v;
        }
        let mc_mean = sum / trials as f64;
        let mc_var = sum2 / trials as f64 - mc_mean * mc_mean;
        assert!(
            (m.mean - mc_mean).abs() < 0.05,
            "mean: clark {} vs mc {}",
            m.mean,
            mc_mean
        );
        assert!(
            (m.variance.sqrt() - mc_var.sqrt()).abs() < 0.08,
            "sd: clark {} vs mc {}",
            m.variance.sqrt(),
            mc_var.sqrt()
        );
    }

    #[test]
    fn correlation_with_max_limits() {
        let x1 = n(0.0, 1.0);
        let x2 = n(-30.0, 1.0); // dominated
        let m = max_pair_moments(x1, x2, 0.0);
        // max ≈ x1, so corr(x3, max) ≈ rho13.
        let r = correlation_with_max(x1, x2, &m, 0.7, -0.2);
        assert!((r - 0.7).abs() < 1e-6, "got {r}");
    }

    #[test]
    fn max_of_single_variable_is_identity() {
        let v = [n(3.0, 0.5)];
        let c = CorrelationMatrix::identity(1);
        let m = max_of(&v, &c);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.sd(), 0.5);
    }

    #[test]
    fn max_of_iid_grows_with_n_and_variance_shrinks() {
        // E[max] grows ~ sqrt(2 ln n); Var[max] decreases with n.
        let mut prev_mean = f64::NEG_INFINITY;
        let mut prev_var = f64::INFINITY;
        for count in [2usize, 4, 8, 16, 32] {
            let vars: Vec<Normal> = (0..count).map(|_| n(0.0, 1.0)).collect();
            let c = CorrelationMatrix::identity(count);
            let m = max_of(&vars, &c);
            assert!(m.mean() > prev_mean, "mean should grow with n");
            assert!(m.variance() < prev_var, "variance should shrink with n");
            prev_mean = m.mean();
            prev_var = m.variance();
        }
    }

    #[test]
    fn max_of_perfectly_correlated_equals_slowest_stage() {
        // Inter-die-only variation: all stages move together, the pipeline
        // delay is exactly the slowest stage's distribution.
        let vars = [n(190.0, 20.0), n(200.0, 20.0), n(185.0, 20.0)];
        let c = CorrelationMatrix::uniform(3, 1.0).unwrap();
        let m = max_of(&vars, &c);
        assert!((m.mean() - 200.0).abs() < 1e-9);
        assert!((m.sd() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn max_of_independent_matches_exact_cdf_product() {
        // For independent stages the exact yield is prod Phi((t-mu)/sd)
        // (paper eq. 8); Clark's Gaussian approximation of the max should
        // produce a CDF close to it near the body of the distribution.
        let vars = [n(200.0, 4.0), n(198.0, 3.0), n(202.0, 5.0), n(195.0, 6.0)];
        let c = CorrelationMatrix::identity(4);
        let approx = max_of(&vars, &c);
        for t in [200.0, 205.0, 210.0, 215.0] {
            let exact: f64 = vars.iter().map(|v| v.cdf(t)).product();
            let got = approx.cdf(t);
            // Clark's re-Gaussianization carries an inherent body error of a
            // few percent for 4 independent variables (paper Fig. 3a).
            assert!(
                (exact - got).abs() < 0.04,
                "t={t}: exact {exact} vs clark {got}"
            );
        }
    }

    #[test]
    fn max_of_against_correlated_monte_carlo() {
        let vars = [n(100.0, 6.0), n(102.0, 4.0), n(98.0, 8.0), n(101.0, 5.0)];
        let rho = 0.5;
        let c = CorrelationMatrix::uniform(4, rho).unwrap();
        let analytic = max_of(&vars, &c);

        // Equi-correlated sampling: X_i = sqrt(rho) * g + sqrt(1-rho) * z_i.
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 300_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..trials {
            let g = sample_standard_normal(&mut rng);
            let mut mx = f64::NEG_INFINITY;
            for v in &vars {
                let z = sample_standard_normal(&mut rng);
                let x = v.mean() + v.sd() * (rho.sqrt() * g + (1.0 - rho).sqrt() * z);
                mx = mx.max(x);
            }
            sum += mx;
            sum2 += mx * mx;
        }
        let mc_mean = sum / trials as f64;
        let mc_sd = (sum2 / trials as f64 - mc_mean * mc_mean).sqrt();
        // Paper reports < 0.2% mean error and < 3% sd error in this regime.
        assert!(
            ((analytic.mean() - mc_mean) / mc_mean).abs() < 0.002,
            "mean: {} vs {}",
            analytic.mean(),
            mc_mean
        );
        assert!(
            ((analytic.sd() - mc_sd) / mc_sd).abs() < 0.05,
            "sd: {} vs {}",
            analytic.sd(),
            mc_sd
        );
    }
}
