//! Spatial-correlation model for systematic intra-die variation.
//!
//! The die is divided into a grid of regions. Gates in the same region share
//! one systematic ΔVth; values in different regions are correlated with an
//! exponential distance decay `ρ(d) = exp(-d / λ)` where `λ` is the
//! correlation length (both in units of the die edge). This is the standard
//! grid model for spatially-correlated W/L/Tox variation \[1\].

use serde::{Deserialize, Serialize};
use vardelay_stats::matrix::{Cholesky, SymMatrix};

/// A point on the die in normalized coordinates (`0..=1` on both axes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiePosition {
    /// Horizontal coordinate, 0 (left edge) to 1 (right edge).
    pub x: f64,
    /// Vertical coordinate, 0 (bottom) to 1 (top).
    pub y: f64,
}

impl DiePosition {
    /// Creates a position, clamping coordinates into `[0, 1]`.
    pub fn new(x: f64, y: f64) -> Self {
        DiePosition {
            x: x.clamp(0.0, 1.0),
            y: y.clamp(0.0, 1.0),
        }
    }

    /// Euclidean distance to another position (die-edge units).
    pub fn distance(&self, other: &DiePosition) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A `rows x cols` grid of spatially-correlated regions covering the die.
///
/// ```
/// use vardelay_process::SpatialGrid;
/// use vardelay_process::spatial::DiePosition;
///
/// let g = SpatialGrid::new(4, 4, 0.5);
/// let r = g.region_of(DiePosition::new(0.9, 0.1));
/// assert!(r < g.region_count());
/// // Adjacent regions are more correlated than distant ones.
/// assert!(g.region_correlation(0, 1) > g.region_correlation(0, 15));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialGrid {
    rows: usize,
    cols: usize,
    correlation_length: f64,
}

impl SpatialGrid {
    /// Creates a grid with the given correlation length (fraction of the
    /// die edge).
    ///
    /// # Panics
    ///
    /// Panics if `rows`/`cols` are zero or `correlation_length <= 0`.
    pub fn new(rows: usize, cols: usize, correlation_length: f64) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        assert!(
            correlation_length > 0.0 && correlation_length.is_finite(),
            "correlation length must be positive"
        );
        SpatialGrid {
            rows,
            cols,
            correlation_length,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of regions.
    pub fn region_count(&self) -> usize {
        self.rows * self.cols
    }

    /// The correlation length (die-edge units).
    pub fn correlation_length(&self) -> f64 {
        self.correlation_length
    }

    /// Region index containing a die position.
    pub fn region_of(&self, pos: DiePosition) -> usize {
        let col = ((pos.x * self.cols as f64) as usize).min(self.cols - 1);
        let row = ((pos.y * self.rows as f64) as usize).min(self.rows - 1);
        row * self.cols + col
    }

    /// Center position of region `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn region_center(&self, r: usize) -> DiePosition {
        assert!(r < self.region_count(), "region index out of range");
        let row = r / self.cols;
        let col = r % self.cols;
        DiePosition::new(
            (col as f64 + 0.5) / self.cols as f64,
            (row as f64 + 0.5) / self.rows as f64,
        )
    }

    /// Correlation between two regions: `exp(-dist / λ)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn region_correlation(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 1.0;
        }
        let d = self.region_center(a).distance(&self.region_center(b));
        (-d / self.correlation_length).exp()
    }

    /// Full region-to-region correlation matrix.
    pub fn correlation_matrix(&self) -> SymMatrix {
        SymMatrix::from_fn(self.region_count(), |i, j| self.region_correlation(i, j))
    }

    /// Builds a reusable correlator (factorizes the region correlation
    /// matrix once).
    pub fn correlator(&self) -> SpatialCorrelator {
        SpatialCorrelator::new(self)
    }
}

/// Caches the Cholesky factor of a grid's region correlation matrix so
/// correlated region values can be generated per Monte-Carlo trial at
/// `O(n^2)` instead of refactorizing.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialCorrelator {
    chol: Cholesky,
}

impl SpatialCorrelator {
    /// Factorizes the grid's correlation matrix (with a tiny jitter so
    /// strongly-correlated grids remain factorizable).
    pub fn new(grid: &SpatialGrid) -> Self {
        let chol = grid
            .correlation_matrix()
            .cholesky(1e-10)
            .expect("exp-decay correlation matrices are PSD");
        SpatialCorrelator { chol }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.chol.dim()
    }

    /// Transforms iid standard normals (one per region) into correlated
    /// region values with unit marginal variance, written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` or `out.len()` differ from `region_count()`.
    pub fn correlate_into(&self, z: &[f64], out: &mut [f64]) {
        self.chol.transform_into(z, out);
    }

    /// [`SpatialCorrelator::correlate_into`] for `W` vectors at once,
    /// stored lane-major (`z[region][lane]`, `out[region][lane]`); each
    /// lane gets the bits `correlate_into` gives its own vector.
    ///
    /// # Panics
    ///
    /// Panics if `z` or `out` has fewer than `region_count()` rows.
    pub fn correlate_lanes<const W: usize>(&self, z: &[[f64; W]], out: &mut [[f64; W]]) {
        for (i, y) in out[..self.region_count()].iter_mut().enumerate() {
            *y = self.chol.transform_row_lanes(i, z);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vardelay_stats::normal::sample_standard_normal;

    #[test]
    fn region_lookup_covers_die() {
        let g = SpatialGrid::new(3, 5, 0.5);
        assert_eq!(g.region_count(), 15);
        assert_eq!(g.region_of(DiePosition::new(0.0, 0.0)), 0);
        assert_eq!(g.region_of(DiePosition::new(1.0, 1.0)), 14);
        // Out-of-range coordinates are clamped, not panicking.
        assert_eq!(g.region_of(DiePosition::new(2.0, -1.0)), 4);
    }

    #[test]
    fn correlation_decays_with_distance() {
        let g = SpatialGrid::new(1, 8, 0.3);
        let r01 = g.region_correlation(0, 1);
        let r07 = g.region_correlation(0, 7);
        assert!(r01 > r07);
        assert!(r01 < 1.0 && r07 > 0.0);
    }

    #[test]
    fn correlate_produces_expected_empirical_correlation() {
        let g = SpatialGrid::new(1, 4, 0.5);
        let corr = g.correlator();
        let want01 = g.region_correlation(0, 1);
        let mut rng = StdRng::seed_from_u64(21);
        let n = 100_000;
        let (mut s0, mut s1, mut s01, mut q0, mut q1) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let mut v = [0.0; 4];
        for _ in 0..n {
            let z: Vec<f64> = (0..4).map(|_| sample_standard_normal(&mut rng)).collect();
            corr.correlate_into(&z, &mut v);
            s0 += v[0];
            s1 += v[1];
            s01 += v[0] * v[1];
            q0 += v[0] * v[0];
            q1 += v[1] * v[1];
        }
        let nf = n as f64;
        let (m0, m1) = (s0 / nf, s1 / nf);
        let cov = s01 / nf - m0 * m1;
        let sd0 = (q0 / nf - m0 * m0).sqrt();
        let sd1 = (q1 / nf - m1 * m1).sqrt();
        let rho = cov / (sd0 * sd1);
        assert!((rho - want01).abs() < 0.01, "rho {rho} want {want01}");
        assert!((sd0 - 1.0).abs() < 0.01, "unit marginal variance");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_grid() {
        let _ = SpatialGrid::new(0, 3, 0.5);
    }
}
