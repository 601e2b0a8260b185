//! Cell library: gate kinds bound to a technology's electrical parameters.
//!
//! The library is the single place where logical-effort structure
//! ([`GateKind`]) meets the technology's time scale and variation
//! parameters ([`Technology`]), producing the per-gate nominal delay,
//! area, and random-σVth numbers consumed by the timing engines.

use serde::{Deserialize, Serialize};
use vardelay_process::{pelgrom_sigma, Technology};

use crate::gate::GateKind;

/// A cell library: [`GateKind`] parameters scaled by a [`Technology`].
///
/// ```
/// use vardelay_circuit::{CellLibrary, GateKind};
/// use vardelay_process::Technology;
///
/// let lib = CellLibrary::new(Technology::bptm70());
/// // FO1 inverter delay equals the technology's unit delay
/// // (p = 1 parasitic + 1 effort unit => 2 tau/2 = tau at the calibration).
/// let d = lib.nominal_delay(GateKind::Inv, 1.0, 1.0);
/// assert!(d > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    tech: Technology,
    /// Time unit: `tau` such that the FO1 inverter (p=1, gh=1) has the
    /// technology's FO1 delay.
    tau_ps: f64,
}

impl CellLibrary {
    /// Binds the library to a technology.
    pub fn new(tech: Technology) -> Self {
        // FO1 inverter: d = tau * (p + g*h) = tau * (1 + 1) => tau = fo1/2.
        let tau_ps = tech.tau_fo1_ps() / 2.0;
        CellLibrary { tech, tau_ps }
    }

    /// The bound technology.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The library time unit τ (ps).
    pub fn tau_ps(&self) -> f64 {
        self.tau_ps
    }

    /// Nominal (variation-free) delay of a gate: `τ (p + g C_L / x)` (ps).
    ///
    /// # Panics
    ///
    /// Panics if `size <= 0` or `c_load < 0`.
    pub fn nominal_delay(&self, kind: GateKind, size: f64, c_load: f64) -> f64 {
        assert!(size > 0.0, "size must be positive");
        assert!(c_load >= 0.0, "load must be non-negative");
        self.tau_ps * (kind.parasitic() + kind.logical_effort() * c_load / size)
    }

    /// Input capacitance of a gate (min-inverter units): `x · g`.
    ///
    /// # Panics
    ///
    /// Panics if `size <= 0`.
    pub fn input_cap(&self, kind: GateKind, size: f64) -> f64 {
        assert!(size > 0.0, "size must be positive");
        size * kind.logical_effort()
    }

    /// Cell area (normalized units): `x · area_unit(kind)`.
    ///
    /// # Panics
    ///
    /// Panics if `size <= 0`.
    pub fn area(&self, kind: GateKind, size: f64) -> f64 {
        assert!(size > 0.0, "size must be positive");
        size * kind.area_unit()
    }

    /// Random σVth (V) of a gate, Pelgrom-scaled by its size *and* its
    /// cell area (wider cells integrate more dopant randomness away).
    ///
    /// # Panics
    ///
    /// Panics if `size <= 0`.
    pub fn sigma_vth_random(&self, kind: GateKind, size: f64, sigma_min_v: f64) -> f64 {
        if sigma_min_v == 0.0 {
            return 0.0;
        }
        pelgrom_sigma(sigma_min_v, size * kind.mismatch_area())
    }

    /// Fractional delay sensitivity per volt of Vth shift (technology
    /// constant `α / (Vdd − Vth0)`).
    pub fn delay_vth_sensitivity(&self) -> f64 {
        self.tech.delay_vth_sensitivity()
    }

    /// Exact (alpha-power) slowdown factor for a threshold shift `dvth`:
    /// `d(dvth)/d(0) = (od / (od − dvth))^α`.
    ///
    /// The Monte-Carlo engine uses this nonlinear form; the SSTA engine
    /// uses the linearization `1 + s·dvth`. Their difference is exactly the
    /// Gaussian-assumption error the paper discusses.
    ///
    /// # Panics
    ///
    /// Panics if the shift pushes the threshold past the supply.
    pub fn vth_slowdown_factor(&self, dvth: f64) -> f64 {
        let od = self.tech.overdrive();
        assert!(dvth < od, "threshold shift {dvth} V reaches the supply");
        (od / (od - dvth)).powf(self.tech.alpha())
    }

    /// The **v3-kernel** scalar slowdown factor: same quantity as
    /// [`CellLibrary::vth_slowdown_factor`] evaluated through the frozen
    /// fused polynomial kernels of
    /// [`vardelay_process::slowdown_factor_approx_fma`] (relative error
    /// below `2e-7` over the certified range, exact `powf` fallback
    /// outside it), element-wise identical to
    /// [`CellLibrary::vth_slowdown_factors_v3_shift_into`] on a
    /// one-element slice. Not bit-identical to the exact form —
    /// selecting it is a kernel-contract change, not a drop-in swap.
    ///
    /// # Panics
    ///
    /// Panics if the shift pushes the threshold past the supply.
    #[inline]
    pub fn vth_slowdown_factor_v3(&self, dvth: f64) -> f64 {
        vardelay_process::slowdown_factor_approx_fma(self.tech.overdrive(), self.tech.alpha(), dvth)
    }

    /// Shift-major v3 slowdown factors for a whole stage's
    /// `gates × lanes` block in one call:
    /// `out[i] = slowdown_factor_approx_fma(shift[i])`, bit-identical
    /// per element, evaluated through
    /// [`vardelay_process::slowdown_factors_shift_approx_into`]. The
    /// caller builds `shift = shared + sigma·z` while transposing the
    /// per-trial normal rows, which amortizes the polynomial pass's
    /// range scans and call overhead over the whole stage.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn vth_slowdown_factors_v3_shift_into(&self, shift: &[f64], out: &mut [f64]) {
        vardelay_process::slowdown_factors_shift_approx_into(
            self.tech.overdrive(),
            self.tech.alpha(),
            shift,
            out,
        );
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        CellLibrary::new(Technology::bptm70())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> CellLibrary {
        CellLibrary::new(Technology::bptm70())
    }

    #[test]
    fn fo1_calibration() {
        let l = lib();
        // FO1: min inverter driving an identical inverter => C_L = 1.
        let d = l.nominal_delay(GateKind::Inv, 1.0, 1.0);
        assert!((d - l.tech().tau_fo1_ps()).abs() < 1e-12);
    }

    #[test]
    fn upsizing_reduces_effort_delay_not_parasitic() {
        let l = lib();
        let d1 = l.nominal_delay(GateKind::Nand2, 1.0, 4.0);
        let d2 = l.nominal_delay(GateKind::Nand2, 2.0, 4.0);
        let parasitic = l.tau_ps() * GateKind::Nand2.parasitic();
        assert!(d2 < d1);
        assert!(d2 > parasitic, "parasitic floor remains");
    }

    #[test]
    fn slowdown_factor_matches_linearization_for_small_shift() {
        let l = lib();
        let s = l.delay_vth_sensitivity();
        for dvth in [-0.01, 0.01] {
            let exact = l.vth_slowdown_factor(dvth);
            let lin = 1.0 + s * dvth;
            assert!(((exact - lin) / exact).abs() < 0.002, "dvth {dvth}");
        }
    }

    #[test]
    fn v3_slowdown_tracks_exact_form() {
        let l = lib();
        let mut dvth = -0.25;
        while dvth <= 0.25 {
            let exact = l.vth_slowdown_factor(dvth);
            let v3 = l.vth_slowdown_factor_v3(dvth);
            assert!(((v3 - exact) / exact).abs() < 2e-7, "dvth {dvth}");
            dvth += 1e-3;
        }
    }

    #[test]
    fn sigma_scales_with_cell_mismatch_area() {
        let l = lib();
        let s_inv = l.sigma_vth_random(GateKind::Inv, 1.0, 0.035);
        let s_nand = l.sigma_vth_random(GateKind::Nand2, 1.0, 0.035);
        assert!(s_nand < s_inv, "bigger cell, less RDF");
        assert_eq!(l.sigma_vth_random(GateKind::Inv, 1.0, 0.0), 0.0);
    }
}
