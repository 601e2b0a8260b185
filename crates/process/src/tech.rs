//! Technology parameter sets.
//!
//! The paper uses Berkeley Predictive Technology Model (BPTM) 70nm devices
//! \[9\]. We capture the handful of electrical parameters that determine
//! gate-delay statistics in an alpha-power-law world: supply voltage,
//! nominal threshold, the velocity-saturation exponent α, and a
//! fanout-4-style unit inverter delay that sets the absolute time scale.

use serde::{Deserialize, Serialize};

/// A CMOS technology node's electrical parameters.
///
/// All voltages are in volts, times in picoseconds, and geometry factors are
/// unitless multiples of the minimum device.
///
/// ```
/// use vardelay_process::Technology;
/// let t = Technology::bptm70();
/// assert_eq!(t.node_nm(), 70);
/// assert!(t.vdd() > t.vth0());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Technology {
    name: String,
    node_nm: u32,
    vdd: f64,
    vth0: f64,
    alpha: f64,
    /// Delay of a minimum inverter driving one identical inverter (FO1), ps.
    tau_fo1_ps: f64,
    /// Pelgrom mismatch coefficient for σVth at minimum device size, volts.
    sigma_vth_rand_min_v: f64,
    /// Area of a minimum-size inverter in arbitrary normalized units.
    inv_area_unit: f64,
}

impl Technology {
    /// BPTM-70nm-like preset matching the paper's experimental setup.
    ///
    /// The absolute time scale (`tau_fo1_ps`) is calibrated so a
    /// logic-depth-8 inverter-chain stage plus flip-flop overhead lands near
    /// the paper's ~200 ps stage delay (Table I).
    pub fn bptm70() -> Self {
        Technology {
            name: "bptm70".to_owned(),
            node_nm: 70,
            vdd: 0.9,
            vth0: 0.20,
            alpha: 1.3,
            tau_fo1_ps: 8.0,
            sigma_vth_rand_min_v: 0.035,
            inv_area_unit: 1.0,
        }
    }

    /// A 100nm-like node with milder variation, for cross-node comparisons.
    pub fn generic100() -> Self {
        Technology {
            name: "generic100".to_owned(),
            node_nm: 100,
            vdd: 1.2,
            vth0: 0.26,
            alpha: 1.4,
            tau_fo1_ps: 12.0,
            sigma_vth_rand_min_v: 0.022,
            inv_area_unit: 1.0,
        }
    }

    /// A 45nm-like node with harsher variation, for trend extrapolation.
    pub fn generic45() -> Self {
        Technology {
            name: "generic45".to_owned(),
            node_nm: 45,
            vdd: 0.8,
            vth0: 0.22,
            alpha: 1.25,
            tau_fo1_ps: 5.0,
            sigma_vth_rand_min_v: 0.050,
            inv_area_unit: 1.0,
        }
    }

    /// Technology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature size in nanometers.
    pub fn node_nm(&self) -> u32 {
        self.node_nm
    }

    /// Supply voltage (V).
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Nominal threshold voltage (V).
    pub fn vth0(&self) -> f64 {
        self.vth0
    }

    /// Alpha-power-law exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// FO1 delay of a minimum inverter (ps) — the absolute time scale.
    pub fn tau_fo1_ps(&self) -> f64 {
        self.tau_fo1_ps
    }

    /// Random σVth of a minimum-size device (V).
    pub fn sigma_vth_rand_min_v(&self) -> f64 {
        self.sigma_vth_rand_min_v
    }

    /// Area of a minimum inverter (normalized units).
    pub fn inv_area_unit(&self) -> f64 {
        self.inv_area_unit
    }

    /// Gate overdrive `Vdd - Vth0` (V).
    #[inline]
    pub fn overdrive(&self) -> f64 {
        self.vdd - self.vth0
    }

    /// First-order fractional delay sensitivity to a Vth shift, per volt:
    /// `(1/d) * dd/dVth = alpha / (Vdd - Vth0)`.
    ///
    /// From the alpha-power law `d ∝ Vdd / (Vdd - Vth)^alpha`.
    #[inline]
    pub fn delay_vth_sensitivity(&self) -> f64 {
        self.alpha / self.overdrive()
    }
}

impl Default for Technology {
    fn default() -> Self {
        Technology::bptm70()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for t in [
            Technology::bptm70(),
            Technology::generic100(),
            Technology::generic45(),
        ] {
            assert!(t.vdd() > t.vth0());
            assert!(t.alpha() >= 1.0);
            assert!(t.tau_fo1_ps() > 0.0);
            assert!(t.delay_vth_sensitivity() > 0.0);
        }
    }

    #[test]
    fn sensitivity_formula() {
        let t = Technology::bptm70();
        assert!((t.delay_vth_sensitivity() - 1.3 / 0.7).abs() < 1e-12);
    }

    #[test]
    fn smaller_nodes_have_more_mismatch() {
        assert!(
            Technology::generic45().sigma_vth_rand_min_v()
                > Technology::bptm70().sigma_vth_rand_min_v()
        );
        assert!(
            Technology::bptm70().sigma_vth_rand_min_v()
                > Technology::generic100().sigma_vth_rand_min_v()
        );
    }
}
