//! Gate-level power model.
//!
//! §4 of the paper states its flow is "targeted to optimize area (hence,
//! power)": in a sized netlist both dynamic and leakage power scale with
//! the device widths the sizer controls. This module makes that
//! relationship explicit so optimization reports can quote power as well
//! as area:
//!
//! * **Dynamic**: `P_dyn ∝ Σᵢ αᵢ · C_in(i) · Vdd² · f` — switching energy
//!   per gate, proportional to its input capacitance (i.e. `size ·
//!   logical_effort`) times an activity factor.
//! * **Leakage**: `P_leak ∝ Σᵢ size_i · area_unit(i) · I_off(Vth)` with the
//!   exponential subthreshold dependence `I_off ∝ exp(−Vth / (n·v_T))` —
//!   which is why inter-die Vth shifts also make *power* a distribution,
//!   the flip side of the paper's delay story.

use serde::{Deserialize, Serialize};
use vardelay_process::Technology;

use crate::netlist::Netlist;

/// Subthreshold slope factor times thermal voltage (V), typical ~ n·26mV.
const SUBTHRESHOLD_NVT: f64 = 0.040;

/// Power evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerParams {
    /// Clock frequency (GHz) for dynamic power.
    pub freq_ghz: f64,
    /// Average switching-activity factor per gate (0..1).
    pub activity: f64,
    /// Leakage current of a minimum-width device at nominal Vth, in
    /// arbitrary normalized units (1.0 = one minimum inverter's leakage).
    pub leak_unit: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams {
            freq_ghz: 2.0,
            activity: 0.15,
            leak_unit: 1.0,
        }
    }
}

/// A power breakdown (normalized units — consistent across designs, which
/// is all the optimization comparisons need).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Dynamic (switching) component.
    pub dynamic: f64,
    /// Leakage component at nominal Vth.
    pub leakage: f64,
}

impl PowerReport {
    /// Total power.
    pub fn total(&self) -> f64 {
        self.dynamic + self.leakage
    }
}

/// Evaluates the power of a netlist in a technology.
///
/// ```
/// use vardelay_circuit::generators::inverter_chain;
/// use vardelay_circuit::power::{power_of, PowerParams};
/// use vardelay_process::Technology;
///
/// let tech = Technology::bptm70();
/// let small = power_of(&inverter_chain(8, 1.0), &tech, &PowerParams::default(), 0.0);
/// let big = power_of(&inverter_chain(8, 4.0), &tech, &PowerParams::default(), 0.0);
/// assert!(big.total() > small.total());
/// ```
pub fn power_of(
    netlist: &Netlist,
    tech: &Technology,
    params: &PowerParams,
    dvth: f64,
) -> PowerReport {
    let vdd2 = tech.vdd() * tech.vdd();
    let mut dynamic = 0.0;
    let mut leakage = 0.0;
    for g in netlist.gates() {
        let cin = g.size * g.kind.logical_effort();
        dynamic += params.activity * cin * vdd2 * params.freq_ghz;
        let width = g.size * g.kind.area_unit();
        leakage += params.leak_unit * width * (-(tech.vth0() + dvth) / SUBTHRESHOLD_NVT).exp();
    }
    PowerReport { dynamic, leakage }
}

/// Total power of a staged pipeline (sum over stage netlists).
///
/// ```
/// use vardelay_circuit::power::{pipeline_power, PowerParams};
/// use vardelay_circuit::{LatchParams, StagedPipeline};
/// use vardelay_process::Technology;
///
/// let p = StagedPipeline::inverter_grid(4, 8, 1.0, LatchParams::ideal());
/// let r = pipeline_power(&p, &Technology::bptm70(), &PowerParams::default(), 0.0);
/// assert!(r.total() > 0.0);
/// ```
pub fn pipeline_power(
    pipeline: &crate::pipeline::StagedPipeline,
    tech: &Technology,
    params: &PowerParams,
    dvth: f64,
) -> PowerReport {
    let mut dynamic = 0.0;
    let mut leakage = 0.0;
    for stage in pipeline.stages() {
        let r = power_of(stage, tech, params, dvth);
        dynamic += r.dynamic;
        leakage += r.leakage;
    }
    PowerReport { dynamic, leakage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::inverter_chain;

    #[test]
    fn power_scales_with_size() {
        let tech = Technology::bptm70();
        let p = PowerParams::default();
        let a = power_of(&inverter_chain(10, 1.0), &tech, &p, 0.0);
        let b = power_of(&inverter_chain(10, 2.0), &tech, &p, 0.0);
        assert!((b.dynamic - 2.0 * a.dynamic).abs() < 1e-9);
        assert!((b.leakage - 2.0 * a.leakage).abs() < 1e-9 * a.leakage.max(1e-30));
    }

    #[test]
    fn fast_dies_leak_more() {
        let tech = Technology::bptm70();
        let p = PowerParams::default();
        let nominal = power_of(&inverter_chain(5, 1.0), &tech, &p, 0.0);
        let fast = power_of(&inverter_chain(5, 1.0), &tech, &p, -0.040);
        let slow = power_of(&inverter_chain(5, 1.0), &tech, &p, 0.040);
        assert!(fast.leakage > nominal.leakage);
        assert!(slow.leakage < nominal.leakage);
        // One n*vT of shift = e-fold change.
        assert!((fast.leakage / nominal.leakage - std::f64::consts::E).abs() < 1e-9);
        // Dynamic power unaffected by Vth.
        assert!((fast.dynamic - nominal.dynamic).abs() < 1e-12);
    }
}
