//! The permissible (μ, σ) design space per stage (eqs. 10–13, Fig. 4).
//!
//! For a yield target `P_D` at delay `T_TARGET`, §2.5 derives nested
//! bounds on the mean and standard deviation any single stage may have:
//!
//! * **Relaxed upper bound** (eq. 11) — assume every other stage passes
//!   with probability 1: `μ + σ·Φ⁻¹(P_D) ≤ T`. Outside this line no
//!   pipeline containing the stage can ever meet the target.
//! * **Equality bound** (eq. 12) — `Ns` uncorrelated, equal stages:
//!   `μ + σ·Φ⁻¹(P_D^(1/Ns)) ≤ T`; tightens as `Ns` grows.
//! * **Realizable curves** (eq. 13) — an inverter-chain stage's (μ, σ) are
//!   linked: `μ = N_L·μ_g`, `σ² = N_L·σ_g²`, so
//!   `σ(μ) = σ_g·sqrt(μ/μ_g)`; minimum- and maximum-size inverters give
//!   the two edges of the realizable band.
//! * **Minimum bounds** — the minimum allowable logic depth puts a floor
//!   under μ (and hence σ).

use serde::{Deserialize, Serialize};

/// The admissibility bounds for one stage of a pipeline with a yield
/// target (eqs. 10–12).
///
/// ```
/// use vardelay_core::design_space::DesignSpace;
/// let ds = DesignSpace::new(200.0, 0.9)?;
/// // On the relaxed bound, mu + sigma*Phi^-1(0.9) == 200.
/// let s = ds.relaxed_sigma_bound(190.0);
/// assert!((190.0 + s * 1.2815515655446004 - 200.0).abs() < 1e-9);
/// # Ok::<(), vardelay_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignSpace {
    target_ps: f64,
    yield_target: f64,
}

impl DesignSpace {
    /// Creates the design space for a target delay and pipeline yield.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidProbability`] if
    /// `yield_target` is outside `(0, 1)`.
    pub fn new(target_ps: f64, yield_target: f64) -> Result<Self, crate::CoreError> {
        if !(yield_target > 0.0 && yield_target < 1.0) {
            return Err(crate::CoreError::InvalidProbability {
                value: yield_target,
            });
        }
        Ok(DesignSpace {
            target_ps,
            yield_target,
        })
    }

    /// Target delay (ps).
    pub fn target_ps(&self) -> f64 {
        self.target_ps
    }

    /// Pipeline yield target `P_D`.
    pub fn yield_target(&self) -> f64 {
        self.yield_target
    }

    /// Eq. (11): the relaxed σ bound at mean `mu`:
    /// `σ ≤ (T − μ)/Φ⁻¹(P_D)` (0 if the mean is already infeasible).
    pub fn relaxed_sigma_bound(&self, mu_ps: f64) -> f64 {
        crate::yield_model::max_sigma_for_yield(mu_ps, self.target_ps, self.yield_target)
    }

    /// Eq. (12): the equality σ bound at mean `mu` for `ns` uncorrelated
    /// equal stages: `σ ≤ (T − μ)/Φ⁻¹(P_D^(1/Ns))`.
    ///
    /// # Panics
    ///
    /// Panics if `ns == 0`.
    pub fn equality_sigma_bound(&self, mu_ps: f64, ns: usize) -> f64 {
        let y = crate::yield_model::stage_yield_target(self.yield_target, ns);
        crate::yield_model::max_sigma_for_yield(mu_ps, self.target_ps, y)
    }

    /// The eq.-12 per-stage yield allocation `P_D^(1/Ns)` of this
    /// space's pipeline yield target — what an optimization campaign
    /// budgets each of `ns` stages before any global feedback runs.
    ///
    /// # Panics
    ///
    /// Panics if `ns == 0`.
    pub fn stage_allocation(&self, ns: usize) -> f64 {
        crate::yield_model::stage_yield_target(self.yield_target, ns)
    }

    /// Whether a stage with moments `(mu, sigma)` is admissible under the
    /// equality bound for `ns` stages.
    ///
    /// # Panics
    ///
    /// Panics if `ns == 0`.
    pub fn is_admissible(&self, mu_ps: f64, sigma_ps: f64, ns: usize) -> bool {
        sigma_ps <= self.equality_sigma_bound(mu_ps, ns)
    }
}

/// A realizable (μ, σ) curve for inverter-chain stages (eq. 13):
/// given the per-gate moments of a *fixed-size* inverter, varying the logic
/// depth traces `σ(μ) = σ_g · sqrt(μ / μ_g)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RealizableCurve {
    mu_gate_ps: f64,
    sigma_gate_ps: f64,
}

impl RealizableCurve {
    /// Creates the curve from a single gate's delay moments.
    ///
    /// # Panics
    ///
    /// Panics unless both moments are positive.
    pub fn new(mu_gate_ps: f64, sigma_gate_ps: f64) -> Self {
        assert!(
            mu_gate_ps > 0.0 && sigma_gate_ps > 0.0,
            "gate moments must be positive"
        );
        RealizableCurve {
            mu_gate_ps,
            sigma_gate_ps,
        }
    }

    /// Per-gate mean delay.
    pub fn mu_gate_ps(&self) -> f64 {
        self.mu_gate_ps
    }

    /// Per-gate delay sd.
    pub fn sigma_gate_ps(&self) -> f64 {
        self.sigma_gate_ps
    }

    /// σ at a stage mean `mu` (eq. 13).
    ///
    /// # Panics
    ///
    /// Panics if `mu_ps < 0`.
    pub fn sigma_at(&self, mu_ps: f64) -> f64 {
        assert!(mu_ps >= 0.0, "mean must be non-negative");
        self.sigma_gate_ps * (mu_ps / self.mu_gate_ps).sqrt()
    }
}

/// The full Fig. 4 picture: admissibility bounds plus the realizable band
/// between minimum-size and maximum-size inverter curves and a minimum
/// logic depth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RealizableRegion {
    /// Curve for minimum-size inverters (upper σ edge — smaller devices
    /// are more variable).
    pub min_size: RealizableCurve,
    /// Curve for maximum-size inverters (lower σ edge).
    pub max_size: RealizableCurve,
    /// Minimum allowable logic depth.
    pub min_depth: usize,
}

impl RealizableRegion {
    /// The μ floor implied by the minimum logic depth: `min_depth`
    /// gates of the faster (larger) device.
    pub fn mu_floor(&self) -> f64 {
        self.min_depth as f64 * self.max_size.mu_gate_ps().min(self.min_size.mu_gate_ps())
    }

    /// Whether `(mu, sigma)` lies inside the realizable band (between the
    /// two sizing curves, at or beyond the minimum depth).
    pub fn contains(&self, mu_ps: f64, sigma_ps: f64) -> bool {
        if mu_ps < self.mu_floor() {
            return false;
        }
        let lo = self.max_size.sigma_at(mu_ps);
        let hi = self.min_size.sigma_at(mu_ps);
        sigma_ps >= lo && sigma_ps <= hi
    }

    /// Samples both edges of the band over a μ range, for plotting:
    /// returns `(mu, sigma_lo, sigma_hi)` triplets.
    ///
    /// # Panics
    ///
    /// Panics if `points == 0` or `mu_hi <= mu_lo`.
    pub fn sample_band(&self, mu_lo: f64, mu_hi: f64, points: usize) -> Vec<(f64, f64, f64)> {
        assert!(points > 0, "need at least one sample point");
        assert!(mu_hi > mu_lo, "empty mu range");
        (0..points)
            .map(|i| {
                let mu = mu_lo + (mu_hi - mu_lo) * i as f64 / (points.max(2) - 1) as f64;
                (mu, self.max_size.sigma_at(mu), self.min_size.sigma_at(mu))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_nest_correctly() {
        // More stages => stricter per-stage bound (Fig. 4: n2 curve below
        // n1 for n2 > n1); both below the relaxed bound.
        let ds = DesignSpace::new(200.0, 0.8).unwrap();
        let mu = 180.0;
        let relaxed = ds.relaxed_sigma_bound(mu);
        let e2 = ds.equality_sigma_bound(mu, 2);
        let e8 = ds.equality_sigma_bound(mu, 8);
        assert!(e8 < e2, "{e8} !< {e2}");
        assert!(e2 < relaxed, "{e2} !< {relaxed}");
    }

    #[test]
    fn stage_allocation_matches_yield_model() {
        let ds = DesignSpace::new(200.0, 0.8).unwrap();
        let y = ds.stage_allocation(4);
        assert!((y.powi(4) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn admissibility_check() {
        let ds = DesignSpace::new(200.0, 0.8).unwrap();
        assert!(ds.is_admissible(180.0, 1.0, 4));
        assert!(!ds.is_admissible(199.9, 10.0, 4));
    }

    #[test]
    fn realizable_curve_sqrt_scaling() {
        let c = RealizableCurve::new(10.0, 1.0);
        assert!((c.sigma_at(160.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn region_band_membership() {
        // Min-size gates: slower-per-gate? No — min-size gates at equal
        // load are slower AND more variable. Use mu_g 12/sd 1.5 (min) vs
        // mu_g 10/sd 0.5 (max size).
        let region = RealizableRegion {
            min_size: RealizableCurve::new(12.0, 1.5),
            max_size: RealizableCurve::new(10.0, 0.5),
            min_depth: 3,
        };
        // At mu = 120: band between 0.5*sqrt(12)=1.73 and 1.5*sqrt(10)=4.74.
        assert!(region.contains(120.0, 3.0));
        assert!(!region.contains(120.0, 0.5));
        assert!(!region.contains(120.0, 6.0));
        // Below the minimum-depth floor.
        assert!(!region.contains(15.0, 2.0));
        let band = region.sample_band(100.0, 200.0, 11);
        assert_eq!(band.len(), 11);
        for (_, lo, hi) in band {
            assert!(lo < hi);
        }
    }

    #[test]
    fn invalid_yield_rejected() {
        assert!(DesignSpace::new(200.0, 1.0).is_err());
        assert!(DesignSpace::new(200.0, 0.0).is_err());
    }
}
