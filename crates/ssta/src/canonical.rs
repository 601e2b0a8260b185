//! First-order canonical delay form.
//!
//! Every timing quantity is `d = μ + Σ_k a_k X_k + b Z` where the `X_k`
//! are *shared* independent standard-normal factors (factor 0 is the
//! inter-die variable; factors 1.. are an orthogonalized spatial-region
//! basis) and `Z` is a private standard normal. Two quantities correlate
//! exactly through their shared coefficients:
//!
//! * `Var[d]   = Σ a_k² + b²`
//! * `Cov[d,e] = Σ a_k · e.a_k`
//!
//! Addition is exact. The max operator matches the first two moments with
//! Clark's formulas and tilts the shared coefficients by the tightness
//! probability `Φ(α)` (the standard canonical-SSTA max), putting any
//! residual variance into the private term.

use serde::{Deserialize, Serialize};
use vardelay_stats::clark::max_pair_moments;
use vardelay_stats::{cap_phi, Normal};

/// A Gaussian timing quantity in canonical form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CanonicalDelay {
    mean: f64,
    /// Sensitivities to the shared factors (all canonical delays in one
    /// analysis share the same factor basis and length).
    shared: Vec<f64>,
    /// Standard deviation of the private independent part (>= 0).
    indep: f64,
}

impl CanonicalDelay {
    /// A deterministic value with `factors` shared-factor slots.
    pub fn constant(mean: f64, factors: usize) -> Self {
        CanonicalDelay {
            mean,
            shared: vec![0.0; factors],
            indep: 0.0,
        }
    }

    /// Builds from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if `indep < 0` or any value is non-finite.
    pub fn new(mean: f64, shared: Vec<f64>, indep: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite");
        assert!(
            indep.is_finite() && indep >= 0.0,
            "independent sd must be finite and non-negative"
        );
        assert!(
            shared.iter().all(|a| a.is_finite()),
            "shared sensitivities must be finite"
        );
        CanonicalDelay {
            mean,
            shared,
            indep,
        }
    }

    /// The mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Shared-factor sensitivities.
    #[inline]
    pub fn shared(&self) -> &[f64] {
        &self.shared
    }

    /// Private (independent) standard deviation.
    #[inline]
    pub fn indep(&self) -> f64 {
        self.indep
    }

    /// Number of shared factors.
    #[inline]
    pub fn factor_count(&self) -> usize {
        self.shared.len()
    }

    /// Total variance.
    pub fn variance(&self) -> f64 {
        self.shared.iter().map(|a| a * a).sum::<f64>() + self.indep * self.indep
    }

    /// Total standard deviation.
    #[inline]
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Covariance with another canonical delay (through shared factors).
    ///
    /// # Panics
    ///
    /// Panics if factor counts differ.
    pub fn covariance(&self, other: &CanonicalDelay) -> f64 {
        assert_eq!(
            self.shared.len(),
            other.shared.len(),
            "canonical delays must share one factor basis"
        );
        self.shared
            .iter()
            .zip(&other.shared)
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Correlation with another canonical delay (0 if either is
    /// deterministic).
    pub fn correlation(&self, other: &CanonicalDelay) -> f64 {
        let denom = self.sd() * other.sd();
        if denom <= 0.0 {
            return 0.0;
        }
        (self.covariance(other) / denom).clamp(-1.0, 1.0)
    }

    /// The marginal Gaussian `N(mean, sd²)`.
    pub fn to_normal(&self) -> Normal {
        Normal::new(self.mean, self.sd()).expect("canonical moments are finite")
    }

    /// Exact sum `self + other` (shared parts add coefficient-wise;
    /// private variances add).
    ///
    /// # Panics
    ///
    /// Panics if factor counts differ.
    pub fn add(&self, other: &CanonicalDelay) -> CanonicalDelay {
        assert_eq!(
            self.shared.len(),
            other.shared.len(),
            "canonical delays must share one factor basis"
        );
        CanonicalDelay {
            mean: self.mean + other.mean,
            shared: self
                .shared
                .iter()
                .zip(&other.shared)
                .map(|(a, b)| a + b)
                .collect(),
            indep: (self.indep * self.indep + other.indep * other.indep).sqrt(),
        }
    }

    /// Adds an independent Gaussian term (mean `m`, sd `s`).
    ///
    /// # Panics
    ///
    /// Panics if `s < 0`.
    pub fn add_independent(&self, m: f64, s: f64) -> CanonicalDelay {
        assert!(s >= 0.0, "sd must be non-negative");
        CanonicalDelay {
            mean: self.mean + m,
            shared: self.shared.clone(),
            indep: (self.indep * self.indep + s * s).sqrt(),
        }
    }

    /// Clark max in canonical form.
    ///
    /// Moments come from Clark's formulas with the exact input correlation;
    /// shared coefficients are tilted by the tightness probability
    /// `t = Φ(α)`: `a_k = t·self.a_k + (1−t)·other.a_k`. Residual variance
    /// (Clark variance minus the tilted shared variance) goes to the
    /// private term; if the tilted shared variance alone exceeds the Clark
    /// variance (rare, strongly-correlated corner), the shared vector is
    /// scaled down to preserve the total variance.
    ///
    /// # Panics
    ///
    /// Panics if factor counts differ.
    pub fn max(&self, other: &CanonicalDelay) -> CanonicalDelay {
        let mut out = self.clone();
        out.max_assign(other);
        out
    }

    /// In-place Clark max `self = max(self, other)` — the allocation-free
    /// form of [`CanonicalDelay::max`], bit-identical to it (the tilt
    /// writes each shared coefficient from its own index only).
    ///
    /// # Panics
    ///
    /// Panics if factor counts differ.
    pub fn max_assign(&mut self, other: &CanonicalDelay) {
        assert_eq!(
            self.shared.len(),
            other.shared.len(),
            "canonical delays must share one factor basis"
        );
        let rho = self.correlation(other);
        let m = max_pair_moments(self.to_normal(), other.to_normal(), rho);
        let t = if m.alpha.is_infinite() {
            if m.alpha > 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            cap_phi(m.alpha)
        };
        for (a, b) in self.shared.iter_mut().zip(&other.shared) {
            *a = t * *a + (1.0 - t) * b;
        }
        let shared_var: f64 = self.shared.iter().map(|a| a * a).sum();
        self.indep = if shared_var <= m.variance {
            (m.variance - shared_var).sqrt()
        } else {
            // Scale shared down to match the total variance exactly.
            let scale = (m.variance / shared_var).sqrt();
            for a in &mut self.shared {
                *a *= scale;
            }
            0.0
        };
        self.mean = m.mean;
    }

    /// In-place exact sum `self += other` — the allocation-free form of
    /// [`CanonicalDelay::add`], bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if factor counts differ.
    pub fn add_assign(&mut self, other: &CanonicalDelay) {
        assert_eq!(
            self.shared.len(),
            other.shared.len(),
            "canonical delays must share one factor basis"
        );
        self.mean += other.mean;
        for (a, b) in self.shared.iter_mut().zip(&other.shared) {
            *a += b;
        }
        self.indep = (self.indep * self.indep + other.indep * other.indep).sqrt();
    }

    /// Capacity-reusing copy (the `Vec::clone_from` a derived `Clone`
    /// does not provide): overwrites `self` with `other` without
    /// allocating when the factor counts already match.
    pub fn copy_from(&mut self, other: &CanonicalDelay) {
        self.mean = other.mean;
        self.indep = other.indep;
        self.shared.clear();
        self.shared.extend_from_slice(&other.shared);
    }

    /// Overwrites `self` with a zeroed `factors`-slot canonical delay of
    /// mean `mean` and private sd `indep`, returning the shared slice
    /// for the caller to fill — the in-place counterpart of
    /// [`CanonicalDelay::new`] used by the incremental gate-delay path.
    pub(crate) fn assign_parts(&mut self, mean: f64, indep: f64, factors: usize) -> &mut [f64] {
        self.mean = mean;
        self.indep = indep;
        self.shared.clear();
        self.shared.resize(factors, 0.0);
        &mut self.shared
    }

    /// Max over a non-empty iterator of canonical delays.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty.
    pub fn max_of<'a, I: IntoIterator<Item = &'a CanonicalDelay>>(items: I) -> CanonicalDelay {
        let mut it = items.into_iter();
        let first = it.next().expect("max_of requires at least one input");
        it.fold(first.clone(), |acc, x| acc.max(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cd(mean: f64, shared: &[f64], indep: f64) -> CanonicalDelay {
        CanonicalDelay::new(mean, shared.to_vec(), indep)
    }

    #[test]
    fn variance_and_covariance() {
        let a = cd(10.0, &[3.0, 4.0], 0.0);
        assert!((a.sd() - 5.0).abs() < 1e-12);
        let b = cd(0.0, &[1.0, 0.0], 2.0);
        assert!((a.covariance(&b) - 3.0).abs() < 1e-12);
        let rho = a.correlation(&b);
        assert!((rho - 3.0 / (5.0 * 5.0_f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn add_is_exact() {
        let a = cd(10.0, &[1.0, 2.0], 3.0);
        let b = cd(5.0, &[-1.0, 1.0], 4.0);
        let s = a.add(&b);
        assert_eq!(s.mean(), 15.0);
        assert_eq!(s.shared(), &[0.0, 3.0]);
        assert!((s.indep() - 5.0).abs() < 1e-12);
        // Var[a+b] = Var[a] + Var[b] + 2Cov[a,b].
        let want = a.variance() + b.variance() + 2.0 * a.covariance(&b);
        assert!((s.variance() - want).abs() < 1e-9);
    }

    #[test]
    fn perfectly_correlated_sum_doubles_sd() {
        let a = cd(1.0, &[2.0], 0.0);
        let s = a.add(&a);
        assert!((s.sd() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn independent_sum_adds_in_quadrature() {
        let a = cd(1.0, &[0.0], 3.0);
        let s = a.add(&a);
        assert!((s.sd() - 18.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn max_preserves_clark_moments() {
        let a = cd(100.0, &[4.0], 3.0); // sd 5
        let b = cd(102.0, &[2.0], 2.0); // sd ~2.83, correlated with a
        let rho = a.correlation(&b);
        let clark = max_pair_moments(a.to_normal(), b.to_normal(), rho);
        let m = a.max(&b);
        assert!((m.mean() - clark.mean).abs() < 1e-12);
        assert!((m.variance() - clark.variance).abs() < 1e-9);
    }

    #[test]
    fn max_of_dominated_input_is_identity() {
        let a = cd(100.0, &[1.0], 1.0);
        let b = cd(10.0, &[1.0], 1.0);
        let m = a.max(&b);
        assert!((m.mean() - 100.0).abs() < 1e-9);
        assert!((m.sd() - a.sd()).abs() < 1e-9);
        // Tilt fully toward a.
        assert!((m.shared()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_of_folds_many() {
        let items: Vec<CanonicalDelay> =
            (0..6).map(|i| cd(100.0 + i as f64, &[1.0], 2.0)).collect();
        let m = CanonicalDelay::max_of(&items);
        assert!(m.mean() >= 105.0);
    }

    #[test]
    fn constant_has_zero_variance() {
        let c = CanonicalDelay::constant(7.0, 3);
        assert_eq!(c.variance(), 0.0);
        assert_eq!(c.factor_count(), 3);
    }

    #[test]
    #[should_panic(expected = "share one factor basis")]
    fn mismatched_bases_rejected() {
        let a = CanonicalDelay::constant(0.0, 2);
        let b = CanonicalDelay::constant(0.0, 3);
        let _ = a.add(&b);
    }
}
