//! Alpha-power-law gate delay model and its variation sensitivities.
//!
//! The Sakurai–Newton alpha-power law gives the drain current of a
//! velocity-saturated MOSFET as `I ∝ (W/L)(Vdd - Vth)^α`, hence a gate
//! delay of
//!
//! ```text
//! d = k · C_load · Vdd / ( x · (Vdd - Vth)^α )
//! ```
//!
//! where `x` is the drive-strength (size) factor. Linearizing around the
//! nominal threshold gives the fractional sensitivity
//! `∂d/∂Vth / d = α / (Vdd - Vth)`, the quantity that converts σVth into
//! σdelay throughout the workspace.

use serde::{Deserialize, Serialize};
use vardelay_stats::batch::{
    exp_approx_fma, exp_approx_fma_raw, ln_one_minus_ratio_fma_raw, LN_ONE_MINUS_MAX_R,
};

use crate::tech::Technology;

/// Shift-major **fused** slowdown factors for the v3 wide kernel's
/// stage pass:
/// `out[i] = slowdown_factor_approx_fma(od, alpha, shift[i])`,
/// bit-identical per element. The caller has already combined each
/// lane's die-level ΔVth with its gate's Pelgrom term
/// (`shift = shared + sigma·z`), which lets one call cover a whole
/// stage's `gates × lanes` block instead of one call per gate. The
/// polynomial chains are fused (`mul_add`), which is correctly rounded
/// on every target, so the hoisted-range fast path and the element-wise
/// scalar fallback produce identical bits for in-range elements (batch
/// granularity cannot reach the results).
///
/// # Panics
///
/// Panics if the slice lengths differ, `od <= 0`, or (in the fallback)
/// an element's shift reaches the supply.
pub fn slowdown_factors_shift_approx_into(od: f64, alpha: f64, shift: &[f64], out: &mut [f64]) {
    assert!(od > 0.0, "overdrive must be positive");
    assert!(shift.len() == out.len(), "slice length mismatch");
    if fast_path_shift_dispatch(od, alpha, shift, out) {
        return;
    }
    // Some element left the certified range: `out` holds intermediate
    // values, so recompute everything element-wise from `shift`
    // (in-range elements produce the same bits either way).
    for (o, &sh) in out.iter_mut().zip(shift) {
        *o = slowdown_factor_approx_fma(od, alpha, sh);
    }
}

/// The **v3-kernel** alpha-power slowdown factor
/// `(od / (od - dvth))^alpha = exp(-alpha · ln(1 - dvth/od))`, evaluated
/// through the frozen fused polynomial kernels of `vardelay_stats::batch`
/// ([`ln_one_minus_ratio_fma_raw`] then [`exp_approx_fma`]) instead of
/// `powf` — the element-wise reference (and out-of-range fallback) of
/// [`slowdown_factors_shift_approx_into`].
///
/// Under the v1 kernel every gate of every trial pays one `powf`; this
/// replaces it with one division plus two fixed polynomial chains whose
/// coefficients are frozen in source. The combined relative error stays
/// below `2e-7` over the certified `|dvth/od| <= 0.6` range — far inside
/// which every paper variation mix lives (6σ of total ΔVth against the
/// 0.7 V BPTM-70nm overdrive is `r ≈ 0.39`). Beyond the certified range
/// the function falls back to the exact `powf` form, so extreme custom
/// technologies stay correct; the fallback is itself a pure function,
/// so determinism is unaffected.
///
/// # Panics
///
/// Panics if `dvth >= od` (the gate would not switch) or `od <= 0`.
#[inline]
pub fn slowdown_factor_approx_fma(od: f64, alpha: f64, dvth: f64) -> f64 {
    assert!(od > 0.0, "overdrive must be positive");
    assert!(dvth < od, "threshold shift {dvth} V reaches the supply");
    // Range test and series argument both avoid forming r = dvth/od:
    // the wide pipeline spends one division per element this way, and
    // the scalar reference must follow the identical schedule to stay
    // bit-interchangeable with it.
    if dvth.abs() > LN_ONE_MINUS_MAX_R * od {
        return (od / (od - dvth)).powf(alpha);
    }
    let x = -alpha * ln_one_minus_ratio_fma_raw(dvth, od);
    if x.abs() > vardelay_stats::batch::EXP_APPROX_MAX_X {
        return (od / (od - dvth)).powf(alpha);
    }
    exp_approx_fma(x)
}

/// The certified-range pipeline of
/// [`slowdown_factors_shift_approx_into`], as **one** sweep: each
/// element runs the whole div → ln → exp chain speculatively through
/// the `_raw` (uncheck­ed) kernels while a branchless flag accumulates
/// both range tests; out-of-range elements produce junk that the
/// `false` return tells the caller to discard wholesale. In-range
/// elements see the exact same operation sequence as the scalar
/// reference, so bits are unchanged.
#[inline(always)]
fn fast_path_shift(od: f64, alpha: f64, shift: &[f64], out: &mut [f64]) -> bool {
    #[inline(always)]
    fn one(od: f64, alpha: f64, sh: f64, o: &mut f64, ok: &mut bool) {
        *ok &= sh.abs() <= LN_ONE_MINUS_MAX_R * od;
        let x = -alpha * ln_one_minus_ratio_fma_raw(sh, od);
        *ok &= x.abs() <= vardelay_stats::batch::EXP_APPROX_MAX_X;
        *o = exp_approx_fma_raw(x);
    }
    // Walk the two halves of the slice in lock-step so every iteration
    // carries two independent div → ln → exp chains: the chains are
    // latency-bound, and pairing them roughly doubles what the
    // out-of-order core can overlap. Identical per-element operations,
    // so the bits match the straight-line walk exactly.
    let mut ok = true;
    let n = out.len();
    let half = n / 2;
    let (o_lo, o_hi) = out.split_at_mut(half);
    let (s_lo, s_hi) = shift.split_at(half);
    for ((ol, &sl), (oh, &sh2)) in o_lo.iter_mut().zip(s_lo).zip(o_hi.iter_mut().zip(s_hi)) {
        one(od, alpha, sl, ol, &mut ok);
        one(od, alpha, sh2, oh, &mut ok);
    }
    if n % 2 == 1 {
        one(od, alpha, s_hi[half], &mut o_hi[half], &mut ok);
    }
    ok
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn fast_path_shift_avx(od: f64, alpha: f64, shift: &[f64], out: &mut [f64]) -> bool {
    fast_path_shift(od, alpha, shift, out)
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn fast_path_shift_dispatch(od: f64, alpha: f64, shift: &[f64], out: &mut [f64]) -> bool {
    if std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: both features were just detected at runtime.
        unsafe { fast_path_shift_avx(od, alpha, shift, out) }
    } else {
        fast_path_shift(od, alpha, shift, out)
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn fast_path_shift_dispatch(od: f64, alpha: f64, shift: &[f64], out: &mut [f64]) -> bool {
    fast_path_shift(od, alpha, shift, out)
}

/// Alpha-power-law delay evaluator bound to a [`Technology`].
///
/// ```
/// use vardelay_process::{AlphaPowerDelay, Technology};
/// let m = AlphaPowerDelay::new(Technology::bptm70());
/// let d_nom = m.gate_delay(1.0, 1.0, 0.0);
/// // A +50 mV Vth shift slows the gate down.
/// assert!(m.gate_delay(1.0, 1.0, 0.050) > d_nom);
/// // Doubling drive at fixed load halves delay.
/// assert!((m.gate_delay(2.0, 1.0, 0.0) - d_nom / 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlphaPowerDelay {
    tech: Technology,
    /// Proportionality constant chosen so `gate_delay(1, 1, 0)` equals the
    /// technology's FO1 delay.
    k: f64,
}

impl AlphaPowerDelay {
    /// Binds the model to a technology, calibrating the constant so that a
    /// minimum inverter driving a unit load at nominal Vth has exactly the
    /// technology's FO1 delay.
    pub fn new(tech: Technology) -> Self {
        // d(1, 1, 0) = k * 1 * vdd / (vdd - vth0)^alpha  ==  tau_fo1
        let k = tech.tau_fo1_ps() * tech.overdrive().powf(tech.alpha()) / tech.vdd();
        AlphaPowerDelay { tech, k }
    }

    /// The bound technology.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// Gate delay (ps) at drive factor `x`, normalized load `c_load`
    /// (in units of a minimum inverter's input capacitance), and
    /// threshold shift `dvth` (V).
    ///
    /// # Panics
    ///
    /// Panics if `x <= 0`, `c_load < 0`, or the shifted threshold reaches
    /// the supply (the gate would not switch).
    pub fn gate_delay(&self, x: f64, c_load: f64, dvth: f64) -> f64 {
        assert!(x > 0.0, "drive factor must be positive");
        assert!(c_load >= 0.0, "load must be non-negative");
        let vth = self.tech.vth0() + dvth;
        let od = self.tech.vdd() - vth;
        assert!(
            od > 0.0,
            "threshold shift {dvth} V pushes Vth past the supply"
        );
        self.k * c_load * self.tech.vdd() / (x * od.powf(self.tech.alpha()))
    }

    /// Nominal gate delay (ps) — no threshold shift.
    #[inline]
    pub fn nominal_delay(&self, x: f64, c_load: f64) -> f64 {
        self.gate_delay(x, c_load, 0.0)
    }

    /// First-order (linearized) delay under a threshold shift:
    /// `d ≈ d_nom · (1 + s · dvth)` with `s = α/(Vdd − Vth0)`.
    ///
    /// This is the model the SSTA engine uses; [`Self::gate_delay`] is the
    /// "exact" nonlinear evaluation the Monte-Carlo engine uses, so the two
    /// engines diverge exactly where the paper's Gaussian assumption does.
    #[inline]
    pub fn linearized_delay(&self, x: f64, c_load: f64, dvth: f64) -> f64 {
        self.nominal_delay(x, c_load) * (1.0 + self.tech.delay_vth_sensitivity() * dvth)
    }

    /// Absolute delay sensitivity `∂d/∂Vth` (ps per volt) at nominal.
    #[inline]
    pub fn delay_sensitivity_abs(&self, x: f64, c_load: f64) -> f64 {
        self.nominal_delay(x, c_load) * self.tech.delay_vth_sensitivity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AlphaPowerDelay {
        AlphaPowerDelay::new(Technology::bptm70())
    }

    #[test]
    fn calibrated_to_fo1() {
        let m = model();
        assert!((m.nominal_delay(1.0, 1.0) - m.tech().tau_fo1_ps()).abs() < 1e-12);
    }

    #[test]
    fn delay_scales_with_load_and_inverse_drive() {
        let m = model();
        let d = m.nominal_delay(1.0, 1.0);
        assert!((m.nominal_delay(1.0, 3.0) - 3.0 * d).abs() < 1e-12);
        assert!((m.nominal_delay(4.0, 1.0) - d / 4.0).abs() < 1e-12);
    }

    #[test]
    fn linearization_matches_exact_to_first_order() {
        let m = model();
        for dvth in [-0.02, -0.01, 0.01, 0.02] {
            let exact = m.gate_delay(1.0, 1.0, dvth);
            let lin = m.linearized_delay(1.0, 1.0, dvth);
            // Second-order error: |exact - lin| = O(dvth^2).
            let rel = ((exact - lin) / exact).abs();
            assert!(rel < 0.01, "dvth={dvth}: rel error {rel}");
        }
    }

    #[test]
    fn higher_vth_slows_gate() {
        let m = model();
        assert!(m.gate_delay(1.0, 1.0, 0.05) > m.gate_delay(1.0, 1.0, 0.0));
        assert!(m.gate_delay(1.0, 1.0, -0.05) < m.gate_delay(1.0, 1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "past the supply")]
    fn rejects_vth_beyond_supply() {
        let m = model();
        let _ = m.gate_delay(1.0, 1.0, 1.0);
    }

    #[test]
    fn slowdown_approx_pinned_over_reachable_overdrive_range() {
        // The v3 kernel's per-gate transcendental must stay within 2e-7
        // relative error everywhere a paper variation mix can reach. The
        // largest mix (20/35/15 mV inter/random/systematic) has total
        // sigma ~43 mV; +/-6 sigma is ~0.26 V of ΔVth against the 0.7 V
        // BPTM-70nm overdrive (r ~ 0.37). We sweep half again past that
        // (|dvth| <= 0.40 V, r <= 0.58) over the workspace's alpha range.
        let od = Technology::bptm70().overdrive();
        let mut max_rel: f64 = 0.0;
        for alpha in [1.0, 1.25, 1.3, 1.4, 2.0] {
            let mut dvth = -0.40;
            while dvth <= 0.40 {
                let exact = (od / (od - dvth)).powf(alpha);
                let approx = slowdown_factor_approx_fma(od, alpha, dvth);
                max_rel = max_rel.max(((approx - exact) / exact).abs());
                dvth += 1e-4;
            }
        }
        assert!(max_rel < 2e-7, "max rel error {max_rel:.3e}");
    }

    #[test]
    fn slowdown_approx_falls_back_to_exact_outside_certified_range() {
        // Beyond |r| = 0.6 (or when alpha·|ln(1-r)| leaves the
        // exp_approx_fma domain) the function must return powf's bits exactly.
        let od = Technology::bptm70().overdrive();
        for (alpha, dvth) in [(1.3, 0.45), (1.3, -0.45), (5.0, 0.35), (10.0, -0.30)] {
            let exact = (od / (od - dvth)).powf(alpha);
            assert_eq!(slowdown_factor_approx_fma(od, alpha, dvth), exact);
        }
    }

    #[test]
    #[should_panic(expected = "reaches the supply")]
    fn slowdown_approx_rejects_shift_at_supply() {
        let _ = slowdown_factor_approx_fma(0.7, 1.3, 0.7);
    }

    #[test]
    fn shift_slowdown_matches_fma_scalar_bit_for_bit() {
        // The v3 shift form must reproduce its fused scalar reference
        // exactly, including through the fallback.
        let (od, alpha) = (0.7, 1.3);
        let shift: Vec<f64> = (0..48).map(|i| -0.25 + 0.01 * i as f64).collect();
        let mut out = vec![0.0; 48];
        slowdown_factors_shift_approx_into(od, alpha, &shift, &mut out);
        for (i, &got) in out.iter().enumerate() {
            let want = slowdown_factor_approx_fma(od, alpha, shift[i]);
            assert_eq!(got, want, "element {i}");
        }

        // Ragged width (partial final pass) and fallback: one wild
        // element forces the scalar path, in-range elements keep their
        // bits.
        let mut sh_wild = shift[..11].to_vec();
        sh_wild[4] = 0.55; // |r| > 0.6 against od = 0.7
        let mut out_wild = vec![0.0; 11];
        slowdown_factors_shift_approx_into(od, alpha, &sh_wild, &mut out_wild);
        for (i, &got) in out_wild.iter().enumerate() {
            let want = slowdown_factor_approx_fma(od, alpha, sh_wild[i]);
            assert_eq!(got, want, "fallback element {i}");
        }
        assert_eq!(out_wild[2], out[2], "element bits are width-independent");
    }
}
