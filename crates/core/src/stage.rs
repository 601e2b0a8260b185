//! Stage-delay distributions.
//!
//! Eq. (1): `SD_i = T_C-Q + T_comb,i + T_setup`. A [`StageDelay`] is the
//! Gaussian distribution of one stage's total delay; it can be built
//! directly from moments (the common case, when an SSTA or Monte-Carlo
//! engine supplies them) or from the three components.

use serde::{Deserialize, Serialize};
use vardelay_stats::{Normal, NormalError};

/// The delay distribution of one pipeline stage (ps).
///
/// ```
/// use vardelay_core::StageDelay;
/// let sd = StageDelay::from_moments(200.0, 5.0)?;
/// assert_eq!(sd.mean(), 200.0);
/// assert!((sd.variability() - 0.025).abs() < 1e-12);
/// # Ok::<(), vardelay_stats::NormalError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageDelay {
    dist: Normal,
}

impl StageDelay {
    /// Builds from mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`NormalError`] for non-finite mean or invalid sd.
    pub fn from_moments(mean_ps: f64, sd_ps: f64) -> Result<Self, NormalError> {
        Ok(StageDelay {
            dist: Normal::new(mean_ps, sd_ps)?,
        })
    }

    /// Wraps an existing [`Normal`].
    pub fn from_normal(dist: Normal) -> Self {
        StageDelay { dist }
    }

    /// The underlying distribution.
    #[inline]
    pub fn as_normal(&self) -> Normal {
        self.dist
    }

    /// Mean delay (ps).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.dist.mean()
    }

    /// Delay standard deviation (ps).
    #[inline]
    pub fn sd(&self) -> f64 {
        self.dist.sd()
    }

    /// σ/μ variability.
    #[inline]
    pub fn variability(&self) -> f64 {
        self.dist.variability()
    }

    /// Probability this stage alone meets `target` (its marginal yield).
    #[inline]
    pub fn yield_at(&self, target_ps: f64) -> f64 {
        self.dist.cdf(target_ps)
    }
}

impl From<Normal> for StageDelay {
    fn from(dist: Normal) -> Self {
        StageDelay { dist }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yield_is_cdf() {
        let sd = StageDelay::from_moments(200.0, 5.0).unwrap();
        assert!((sd.yield_at(200.0) - 0.5).abs() < 1e-12);
        assert!(sd.yield_at(215.0) > 0.99);
    }

    #[test]
    fn invalid_moments_rejected() {
        assert!(StageDelay::from_moments(f64::NAN, 1.0).is_err());
        assert!(StageDelay::from_moments(1.0, -2.0).is_err());
    }
}
