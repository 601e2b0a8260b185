//! Small dense symmetric matrices with Cholesky factorization.
//!
//! Correlation/covariance matrices in this workspace are small (one entry per
//! pipeline stage or spatial region), so a simple row-major dense
//! representation is the right tool — no linear-algebra dependency needed.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Error from symmetric-matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix (or input data) had inconsistent dimensions.
    DimensionMismatch {
        /// Expected number of elements/dimension.
        expected: usize,
        /// Actual number provided.
        actual: usize,
    },
    /// Cholesky factorization failed: the matrix is not positive definite
    /// (beyond the tolerance used for the diagonal).
    NotPositiveDefinite {
        /// Index of the pivot where factorization broke down.
        pivot: usize,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            MatrixError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense symmetric `n x n` matrix stored row-major.
///
/// Only the full storage is kept (not packed triangular) for simplicity;
/// the symmetry invariant is enforced by the mutators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Creates the `n x n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        SymMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a symmetric matrix from a full row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `data.len() != n * n`.
    /// Asymmetric input is symmetrized by averaging `(a_ij + a_ji)/2`.
    // Kept: crates/stats/tests/properties.rs and the correlation tests call it.
    pub fn from_rows(n: usize, data: &[f64]) -> Result<Self, MatrixError> {
        if data.len() != n * n {
            return Err(MatrixError::DimensionMismatch {
                expected: n * n,
                actual: data.len(),
            });
        }
        let mut m = SymMatrix {
            n,
            data: data.to_vec(),
        };
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (m.data[i * n + j] + m.data[j * n + i]);
                m.data[i * n + j] = avg;
                m.data[j * n + i] = avg;
            }
        }
        Ok(m)
    }

    /// Builds a matrix by evaluating `f(i, j)` for every `i <= j`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = f(i, j);
                m.data[i * n + j] = v;
                m.data[j * n + i] = v;
            }
        }
        m
    }

    /// The dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j]
    }

    /// Sets elements `(i, j)` and `(j, i)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Lower-triangular Cholesky factor `L` with `L L^T = A`.
    ///
    /// A small non-negative `jitter` is added to the diagonal before
    /// factorization; pass `0.0` for a strict factorization. This is the
    /// standard remedy for correlation matrices that are PSD-but-singular
    /// (e.g. perfectly correlated stages, rho = 1).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotPositiveDefinite`] if a pivot is negative
    /// beyond tolerance.
    pub fn cholesky(&self, jitter: f64) -> Result<Cholesky, MatrixError> {
        let n = self.n;
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            for i in j..n {
                let mut sum = self.data[i * n + j];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    // Tolerate tiny negative pivots from round-off on
                    // singular PSD matrices by flooring at zero.
                    if sum < -1e-9 * (1.0 + self.data[j * n + j].abs()) {
                        return Err(MatrixError::NotPositiveDefinite { pivot: j });
                    }
                    l[j * n + j] = sum.max(0.0).sqrt();
                } else {
                    let d = l[j * n + j];
                    l[i * n + j] = if d > 0.0 { sum / d } else { 0.0 };
                }
            }
        }
        Ok(Cholesky { n, l })
    }
}

impl fmt::Display for SymMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{:10.5} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Lower-triangular Cholesky factor of a symmetric PSD matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

impl Cholesky {
    /// The dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element `L[i][j]` (zero above the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.l[i * self.n + j]
    }

    /// Row `i` of `L` up to and including the diagonal (`i + 1` entries),
    /// in the `j` order [`Cholesky::transform_into`] sums it in.
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.l[i * self.n..=i * self.n + i]
    }

    /// Element `i` of `L z` for `W` vectors at once, stored lane-major
    /// (`z[j][lane]`): each lane gets [`Cholesky::transform_into`]'s bits
    /// — the first product, then `+=` in `j` order (its `f64` sum starts
    /// from `-0.0`, which keeps the first product's bits).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim()` or `z` has fewer than `i + 1` rows.
    #[inline(always)]
    pub fn transform_row_lanes<const W: usize>(&self, i: usize, z: &[[f64; W]]) -> [f64; W] {
        let (l0, rest) = self.row(i).split_first().expect("row has a diagonal");
        let mut y = [0.0; W];
        for (y, z) in y.iter_mut().zip(&z[0]) {
            *y = l0 * z;
        }
        for (lij, zj) in rest.iter().zip(&z[1..=i]) {
            for (y, z) in y.iter_mut().zip(zj) {
                *y += lij * z;
            }
        }
        y
    }

    /// Computes `y = L z`, transforming iid standard normals `z` into
    /// correlated variates.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != dim()`.
    // Kept: the mvn tests call it.
    pub fn transform(&self, z: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.transform_into(z, &mut y);
        y
    }

    /// Computes `y = L z` into a caller-provided buffer — the
    /// allocation-free variant of [`Cholesky::transform`] used by
    /// Monte-Carlo hot paths. Summation order is identical to
    /// `transform`, so the two produce bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != dim()` or `y.len() != dim()`.
    pub fn transform_into(&self, z: &[f64], y: &mut [f64]) {
        assert_eq!(z.len(), self.n, "vector length mismatch");
        assert_eq!(y.len(), self.n, "output length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = (0..=i).map(|j| self.l[i * self.n + j] * z[j]).sum();
        }
    }

    /// Reconstructs `L L^T` (mainly for testing/diagnostics).
    // Kept: crates/stats/tests/properties.rs calls it.
    pub fn reconstruct(&self) -> SymMatrix {
        SymMatrix::from_fn(self.n, |i, j| {
            (0..=i.min(j))
                .map(|k| self.l[i * self.n + k] * self.l[j * self.n + k])
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_cholesky_is_identity() {
        let a = SymMatrix::identity(4);
        let c = a.cholesky(0.0).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((c.get(i, j) - want).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn cholesky_reconstructs() {
        // A = B B^T for random-ish B is SPD.
        let a = SymMatrix::from_rows(3, &[4.0, 2.0, 0.6, 2.0, 5.0, 1.2, 0.6, 1.2, 3.0]).unwrap();
        let c = a.cholesky(0.0).unwrap();
        let r = c.reconstruct();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (r.get(i, j) - a.get(i, j)).abs() < 1e-12,
                    "({i},{j}): {} vs {}",
                    r.get(i, j),
                    a.get(i, j)
                );
            }
        }
    }

    #[test]
    fn singular_psd_matrix_factors_with_zero_pivot() {
        // Perfectly correlated 2x2 correlation matrix (rank 1).
        let a = SymMatrix::from_rows(2, &[1.0, 1.0, 1.0, 1.0]).unwrap();
        let c = a.cholesky(0.0).unwrap();
        let r = c.reconstruct();
        assert!((r.get(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = SymMatrix::from_rows(2, &[1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            a.cholesky(0.0),
            Err(MatrixError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn from_rows_symmetrizes() {
        let a = SymMatrix::from_rows(2, &[1.0, 0.2, 0.4, 1.0]).unwrap();
        assert!((a.get(0, 1) - 0.3).abs() < 1e-15);
        assert_eq!(a.get(0, 1), a.get(1, 0));
    }

    #[test]
    fn dimension_mismatch_detected() {
        assert!(matches!(
            SymMatrix::from_rows(2, &[1.0, 0.0, 0.0]),
            Err(MatrixError::DimensionMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn transform_applies_lower_triangle() {
        let a = SymMatrix::from_rows(2, &[1.0, 0.5, 0.5, 1.0]).unwrap();
        let c = a.cholesky(0.0).unwrap();
        let y = c.transform(&[1.0, 0.0]);
        assert!((y[0] - 1.0).abs() < 1e-14);
        assert!((y[1] - 0.5).abs() < 1e-14);
    }
}
