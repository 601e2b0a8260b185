//! Validated correlation matrices and domain-specific builders.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::matrix::{MatrixError, SymMatrix};

/// Error constructing a [`CorrelationMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub enum CorrelationError {
    /// An off-diagonal entry was outside `[-1, 1]`.
    EntryOutOfRange {
        /// Row index.
        i: usize,
        /// Column index.
        j: usize,
        /// Offending value.
        value: f64,
    },
    /// A diagonal entry differed from 1.
    DiagonalNotOne {
        /// Index on the diagonal.
        i: usize,
        /// Offending value.
        value: f64,
    },
    /// Underlying matrix problem (dimension mismatch etc.).
    Matrix(MatrixError),
}

impl fmt::Display for CorrelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorrelationError::EntryOutOfRange { i, j, value } => {
                write!(f, "correlation ({i},{j}) = {value} outside [-1, 1]")
            }
            CorrelationError::DiagonalNotOne { i, value } => {
                write!(f, "diagonal entry ({i},{i}) = {value}, must be 1")
            }
            CorrelationError::Matrix(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CorrelationError {}

impl From<MatrixError> for CorrelationError {
    fn from(e: MatrixError) -> Self {
        CorrelationError::Matrix(e)
    }
}

/// A validated correlation matrix: symmetric, unit diagonal, entries in
/// `[-1, 1]`.
///
/// Positive semi-definiteness is *not* checked at construction (it would
/// require a factorization); samplers that need it perform a Cholesky with
/// jitter and will surface a [`MatrixError::NotPositiveDefinite`] if the
/// matrix is genuinely indefinite.
///
/// ```
/// use vardelay_stats::CorrelationMatrix;
/// let c = CorrelationMatrix::uniform(4, 0.5)?;
/// assert_eq!(c.get(0, 0), 1.0);
/// assert_eq!(c.get(1, 3), 0.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationMatrix {
    inner: SymMatrix,
}

impl CorrelationMatrix {
    /// The identity matrix — fully independent variables.
    pub fn identity(n: usize) -> Self {
        CorrelationMatrix {
            inner: SymMatrix::identity(n),
        }
    }

    /// Equi-correlated matrix: every off-diagonal entry equals `rho`.
    ///
    /// This is the paper's model for inter-die-dominated variation
    /// (`rho -> 1`) through fully random intra-die variation (`rho = 0`).
    ///
    /// # Errors
    ///
    /// Returns an error if `rho` is outside `[-1, 1]`. (Note: for `n > 2`,
    /// `rho` must also be `>= -1/(n-1)` to be PSD; that is reported lazily
    /// by the sampler's factorization.)
    pub fn uniform(n: usize, rho: f64) -> Result<Self, CorrelationError> {
        if !(-1.0..=1.0).contains(&rho) || rho.is_nan() {
            return Err(CorrelationError::EntryOutOfRange {
                i: 0,
                j: 1,
                value: rho,
            });
        }
        Ok(CorrelationMatrix {
            inner: SymMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { rho }),
        })
    }

    /// Builds from an arbitrary symmetric matrix, validating diagonal and
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`CorrelationError`] on any invalid entry.
    pub fn from_matrix(m: SymMatrix) -> Result<Self, CorrelationError> {
        for i in 0..m.dim() {
            let d = m.get(i, i);
            if (d - 1.0).abs() > 1e-9 {
                return Err(CorrelationError::DiagonalNotOne { i, value: d });
            }
            for j in (i + 1)..m.dim() {
                let v = m.get(i, j);
                if !(-1.0..=1.0).contains(&v) || v.is_nan() {
                    return Err(CorrelationError::EntryOutOfRange { i, j, value: v });
                }
            }
        }
        Ok(CorrelationMatrix { inner: m })
    }

    /// Builds the correlation matrix implied by a covariance matrix.
    ///
    /// # Errors
    ///
    /// Returns an error if any diagonal entry of `cov` is non-positive.
    // Kept: crates/stats/tests/properties.rs calls it.
    pub fn from_covariance(cov: &SymMatrix) -> Result<Self, CorrelationError> {
        let n = cov.dim();
        for i in 0..n {
            if cov.get(i, i) <= 0.0 {
                return Err(CorrelationError::DiagonalNotOne {
                    i,
                    value: cov.get(i, i),
                });
            }
        }
        let m = SymMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                (cov.get(i, j) / (cov.get(i, i) * cov.get(j, j)).sqrt()).clamp(-1.0, 1.0)
            }
        });
        Ok(CorrelationMatrix { inner: m })
    }

    /// The dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.inner.dim()
    }

    /// Correlation between variables `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.inner.get(i, j)
    }

    /// Scales into a covariance matrix given per-variable standard
    /// deviations: `cov_ij = rho_ij * sd_i * sd_j`.
    ///
    /// # Panics
    ///
    /// Panics if `sds.len() != dim()`.
    pub fn to_covariance(&self, sds: &[f64]) -> SymMatrix {
        assert_eq!(sds.len(), self.dim(), "sd vector length mismatch");
        SymMatrix::from_fn(self.dim(), |i, j| self.get(i, j) * sds[i] * sds[j])
    }
}

impl fmt::Display for CorrelationMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_builds_and_validates() {
        let c = CorrelationMatrix::uniform(3, 0.25).unwrap();
        assert_eq!(c.dim(), 3);
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 2), 0.25);
        assert!(CorrelationMatrix::uniform(3, 1.5).is_err());
    }

    #[test]
    fn from_matrix_rejects_bad_diag_and_range() {
        let bad_diag = SymMatrix::from_rows(2, &[0.9, 0.0, 0.0, 1.0]).unwrap();
        assert!(matches!(
            CorrelationMatrix::from_matrix(bad_diag),
            Err(CorrelationError::DiagonalNotOne { i: 0, .. })
        ));
        let bad_entry = SymMatrix::from_rows(2, &[1.0, 1.2, 1.2, 1.0]).unwrap();
        assert!(matches!(
            CorrelationMatrix::from_matrix(bad_entry),
            Err(CorrelationError::EntryOutOfRange { .. })
        ));
    }

    #[test]
    fn covariance_roundtrip() {
        let c = CorrelationMatrix::uniform(2, 0.4).unwrap();
        let cov = c.to_covariance(&[2.0, 5.0]);
        assert!((cov.get(0, 1) - 4.0).abs() < 1e-14);
        let back = CorrelationMatrix::from_covariance(&cov).unwrap();
        assert!((back.get(0, 1) - 0.4).abs() < 1e-14);
    }
}
