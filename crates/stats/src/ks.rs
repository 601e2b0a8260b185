//! Kolmogorov–Smirnov goodness-of-fit utilities.
//!
//! Used by the experiment harness to quantify how closely the analytical
//! (Clark-approximated) pipeline-delay distribution matches Monte-Carlo
//! samples — the validation of §2.4 / Fig. 2 of the paper.

use crate::normal::Normal;

/// One-sample Kolmogorov–Smirnov statistic of `samples` against a reference
/// CDF `cdf`.
///
/// Returns `D = sup_x |F_n(x) - F(x)|`.
///
/// # Panics
///
/// Panics if `samples` is empty or contains NaN.
pub fn ks_statistic<F: Fn(f64) -> f64>(samples: &[f64], cdf: F) -> f64 {
    assert!(!samples.is_empty(), "KS statistic of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    d
}

/// KS statistic against a [`Normal`] reference.
///
/// # Panics
///
/// Panics if `samples` is empty.
// Kept: tests/distribution_fit.rs calls it.
pub fn ks_against_normal(samples: &[f64], dist: &Normal) -> f64 {
    ks_statistic(samples, |x| dist.cdf(x))
}

/// Approximate p-value for the one-sample KS statistic `d` at sample size
/// `n`, via the asymptotic Kolmogorov distribution
/// `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²)` with Stephens' small-sample
/// correction.
// Kept: the KS API stays whole for tests/distribution_fit.rs.
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    let nf = n as f64;
    let lambda = (nf.sqrt() + 0.12 + 0.11 / nf.sqrt()) * d;
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::Normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ks_of_own_samples_is_small() {
        let d = Normal::new(5.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let xs = d.sample_n(&mut rng, 20_000);
        let ks = ks_against_normal(&xs, &d);
        assert!(ks < 0.015, "KS {ks}");
        assert!(ks_p_value(ks, xs.len()) > 0.01);
    }

    #[test]
    fn ks_detects_wrong_mean() {
        let d = Normal::new(5.0, 2.0).unwrap();
        let shifted = Normal::new(6.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let xs = d.sample_n(&mut rng, 5_000);
        let ks = ks_against_normal(&xs, &shifted);
        assert!(ks > 0.1, "KS {ks} should flag the shift");
        assert!(ks_p_value(ks, xs.len()) < 1e-6);
    }

    #[test]
    fn ks_statistic_exact_small_case() {
        // Single sample at the median of U(0,1)-like cdf.
        let d = ks_statistic(&[0.5], |x| x.clamp(0.0, 1.0));
        assert!((d - 0.5).abs() < 1e-12);
    }
}
