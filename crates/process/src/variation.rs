//! Process-variation configuration: the three components of §2.1.
//!
//! * **Inter-die** — one shared shift per die; moves every stage delay in
//!   the same direction and makes stage delays perfectly correlated.
//! * **Random intra-die** — independent per device (random dopant
//!   fluctuation \[6\]); makes stage delays uncorrelated and averages out
//!   along deep logic paths.
//! * **Systematic intra-die** — spatially correlated across the die
//!   (lithography-driven W/L/Tox gradients \[1\]); partially correlates
//!   nearby stages.

use serde::{Deserialize, Serialize};

/// Standard deviations of the threshold-voltage variation components.
///
/// Constructors take millivolts (the unit the paper quotes, e.g.
/// "σVthInter = 40mV" in Fig. 5); accessors return volts for use in delay
/// models.
///
/// ```
/// use vardelay_process::VariationConfig;
/// let v = VariationConfig::combined(20.0, 35.0, 15.0);
/// assert!((v.sigma_vth_inter_v() - 0.020).abs() < 1e-12);
/// assert!(v.has_systematic());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationConfig {
    sigma_inter_v: f64,
    sigma_rand_v: f64,
    sigma_sys_v: f64,
    /// Spatial correlation length of the systematic component, as a
    /// fraction of the die edge (0.5 = correlation decays to 1/e across
    /// half the die).
    correlation_length: f64,
}

impl VariationConfig {
    const DEFAULT_CORR_LENGTH: f64 = 0.5;

    /// No variation at all — the deterministic corner.
    pub fn none() -> Self {
        Self::combined(0.0, 0.0, 0.0)
    }

    /// Only random intra-die variation (Fig. 2(a), Fig. 5 "Only Random").
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    pub fn random_only(sigma_rand_mv: f64) -> Self {
        Self::combined(0.0, sigma_rand_mv, 0.0)
    }

    /// Only inter-die variation (Fig. 2(b), Fig. 5 "Only Inter-die").
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    pub fn inter_only(sigma_inter_mv: f64) -> Self {
        Self::combined(sigma_inter_mv, 0.0, 0.0)
    }

    /// All three components (Fig. 2(c)).
    ///
    /// # Panics
    ///
    /// Panics if any value is negative or not finite.
    pub fn combined(sigma_inter_mv: f64, sigma_rand_mv: f64, sigma_sys_mv: f64) -> Self {
        for (label, v) in [
            ("inter", sigma_inter_mv),
            ("rand", sigma_rand_mv),
            ("sys", sigma_sys_mv),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "sigma_{label} must be finite and non-negative, got {v}"
            );
        }
        VariationConfig {
            sigma_inter_v: sigma_inter_mv * 1e-3,
            sigma_rand_v: sigma_rand_mv * 1e-3,
            sigma_sys_v: sigma_sys_mv * 1e-3,
            correlation_length: Self::DEFAULT_CORR_LENGTH,
        }
    }

    /// The paper's default scenario for model verification: moderate
    /// inter-die, RDF-dominated random intra-die, and a systematic
    /// component (Fig. 2(c), Table I "inter + intra").
    pub fn nominal_sub100nm() -> Self {
        Self::combined(20.0, 35.0, 15.0)
    }

    /// σVth of the inter-die component (V).
    #[inline]
    pub fn sigma_vth_inter_v(&self) -> f64 {
        self.sigma_inter_v
    }

    /// σVth of the random intra-die component at minimum device size (V).
    #[inline]
    pub fn sigma_vth_rand_v(&self) -> f64 {
        self.sigma_rand_v
    }

    /// σVth of the systematic (spatially correlated) component (V).
    #[inline]
    pub fn sigma_vth_sys_v(&self) -> f64 {
        self.sigma_sys_v
    }

    /// Spatial correlation length (fraction of the die edge).
    #[inline]
    pub fn correlation_length(&self) -> f64 {
        self.correlation_length
    }

    /// Whether any inter-die variation is configured.
    #[inline]
    pub fn has_inter(&self) -> bool {
        self.sigma_inter_v > 0.0
    }

    /// Whether any random intra-die variation is configured.
    #[inline]
    pub fn has_random(&self) -> bool {
        self.sigma_rand_v > 0.0
    }

    /// Whether any systematic intra-die variation is configured.
    #[inline]
    pub fn has_systematic(&self) -> bool {
        self.sigma_sys_v > 0.0
    }
}

impl Default for VariationConfig {
    fn default() -> Self {
        Self::nominal_sub100nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_flags() {
        let r = VariationConfig::random_only(35.0);
        assert!(r.has_random() && !r.has_inter() && !r.has_systematic());
        let i = VariationConfig::inter_only(40.0);
        assert!(i.has_inter() && !i.has_random());
        assert!((i.sigma_vth_inter_v() - 0.040).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_sigma() {
        let _ = VariationConfig::random_only(-1.0);
    }
}
