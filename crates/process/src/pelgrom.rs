//! Pelgrom-law scaling of random threshold-voltage mismatch with device
//! size.
//!
//! Pelgrom's law: `σVth ∝ 1 / sqrt(W · L)`. In this workspace gate sizes are
//! expressed as a unitless factor `x` multiplying the minimum device width
//! (length fixed at minimum), so the random σVth of a gate sized `x` is
//! `σVth(x) = σVth_min / sqrt(x)`.
//!
//! This is the physical mechanism behind the sizing algorithm's leverage:
//! upsizing a gate both speeds it up (more drive) and makes it *less
//! variable*, at an area cost.

/// Random σVth (V) of a device sized `x` times minimum width.
///
/// # Panics
///
/// Panics unless `x > 0`.
///
/// ```
/// use vardelay_process::pelgrom_sigma;
/// let s1 = pelgrom_sigma(0.035, 1.0);
/// let s4 = pelgrom_sigma(0.035, 4.0);
/// assert!((s4 - s1 / 2.0).abs() < 1e-12);
/// ```
#[inline]
pub fn pelgrom_sigma(sigma_min_v: f64, x: f64) -> f64 {
    assert!(x > 0.0, "size factor must be positive, got {x}");
    sigma_min_v / x.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_decreasing_in_size() {
        let mut prev = f64::INFINITY;
        for i in 1..=10 {
            let s = pelgrom_sigma(0.05, f64::from(i));
            assert!(s < prev);
            prev = s;
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_size() {
        let _ = pelgrom_sigma(0.035, 0.0);
    }
}
