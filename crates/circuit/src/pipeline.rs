//! Structural pipelines: stage netlists, latch parameters, die placement.
//!
//! The paper's stage delay (eq. 1) is
//! `SD_i = T_C-Q + T_comb,i + T_setup`: combinational logic between
//! latches plus the latch overhead. [`StagedPipeline`] carries the stage
//! netlists, the latch timing model, and each stage's position on the die
//! (which determines how strongly the systematic variation correlates the
//! stages).

use serde::{Deserialize, Serialize};
use vardelay_process::spatial::DiePosition;

use crate::netlist::Netlist;

/// Latch (flip-flop) timing parameters — the paper uses transmission-gate
/// master–slave flip-flops characterized by SPICE; we carry their mean
/// clock-to-Q / setup and a variability fraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatchParams {
    /// Mean clock-to-Q delay (ps).
    pub tcq_ps: f64,
    /// Mean setup time (ps).
    pub tsetup_ps: f64,
    /// Standard deviation of the latch overhead as a fraction of its mean
    /// (applied to `tcq + tsetup` jointly, independent per stage).
    pub sigma_fraction: f64,
}

impl LatchParams {
    /// A transmission-gate master–slave flip-flop in the BPTM-70nm-like
    /// technology: 5 ps clock-to-Q, 3 ps setup, 4% variability.
    pub fn tg_msff_70nm() -> Self {
        LatchParams {
            tcq_ps: 5.0,
            tsetup_ps: 3.0,
            sigma_fraction: 0.04,
        }
    }

    /// An ideal (zero-overhead, deterministic) latch — isolates the
    /// combinational statistics in experiments.
    pub fn ideal() -> Self {
        LatchParams {
            tcq_ps: 0.0,
            tsetup_ps: 0.0,
            sigma_fraction: 0.0,
        }
    }

    /// Total mean latch overhead `T_C-Q + T_setup` (ps).
    #[inline]
    pub fn overhead_ps(&self) -> f64 {
        self.tcq_ps + self.tsetup_ps
    }

    /// Standard deviation of the latch overhead (ps).
    #[inline]
    pub fn overhead_sigma_ps(&self) -> f64 {
        self.overhead_ps() * self.sigma_fraction
    }
}

impl Default for LatchParams {
    fn default() -> Self {
        LatchParams::tg_msff_70nm()
    }
}

/// A pipeline as a sequence of combinational stages separated by latches.
///
/// ```
/// use vardelay_circuit::generators::inverter_chain;
/// use vardelay_circuit::{LatchParams, StagedPipeline};
///
/// let stages = (0..5).map(|_| inverter_chain(8, 1.0)).collect();
/// let p = StagedPipeline::new("5x8", stages, LatchParams::tg_msff_70nm());
/// assert_eq!(p.stage_count(), 5);
/// assert_eq!(p.total_gates(), 40);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagedPipeline {
    name: String,
    stages: Vec<Netlist>,
    latch: LatchParams,
    positions: Vec<DiePosition>,
}

impl StagedPipeline {
    /// Creates a pipeline with stages laid out evenly along the die's
    /// horizontal axis (stage 0 at the left edge).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(name: &str, stages: Vec<Netlist>, latch: LatchParams) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        let n = stages.len();
        let positions = (0..n)
            .map(|i| DiePosition::new((i as f64 + 0.5) / n as f64, 0.5))
            .collect();
        StagedPipeline {
            name: name.to_owned(),
            stages,
            latch,
            positions,
        }
    }

    /// A homogeneous pipeline of `ns` inverter-chain stages of depth `nl`
    /// — the paper's `ns × nl` configurations (§2.4, Fig. 5).
    ///
    /// # Panics
    ///
    /// Panics if `ns == 0` or `nl == 0`.
    pub fn inverter_grid(ns: usize, nl: usize, size: f64, latch: LatchParams) -> Self {
        assert!(ns > 0 && nl > 0, "need positive stage count and depth");
        let stages = (0..ns)
            .map(|_| crate::generators::inverter_chain(nl, size))
            .collect();
        Self::new(&format!("{ns}x{nl}"), stages, latch)
    }

    /// The pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The stage netlists.
    pub fn stages(&self) -> &[Netlist] {
        &self.stages
    }

    /// Replaces a stage netlist.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_stage(&mut self, i: usize, stage: Netlist) {
        self.stages[i] = stage;
    }

    /// Latch parameters.
    pub fn latch(&self) -> LatchParams {
        self.latch
    }

    /// Die positions per stage.
    pub fn positions(&self) -> &[DiePosition] {
        &self.positions
    }

    /// Total gate count over all stages.
    pub fn total_gates(&self) -> usize {
        self.stages.iter().map(Netlist::gate_count).sum()
    }

    /// Total combinational area over all stages.
    pub fn total_area(&self) -> f64 {
        self.stages.iter().map(Netlist::area).sum()
    }

    /// Per-stage areas.
    pub fn stage_areas(&self) -> Vec<f64> {
        self.stages.iter().map(Netlist::area).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::inverter_chain;

    #[test]
    fn inverter_grid_profile() {
        let p = StagedPipeline::inverter_grid(5, 8, 1.0, LatchParams::ideal());
        assert_eq!(p.stage_count(), 5);
        assert_eq!(p.total_gates(), 40);
        assert_eq!(p.name(), "5x8");
        assert!((p.total_area() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn positions_spread_across_die() {
        let p = StagedPipeline::inverter_grid(4, 2, 1.0, LatchParams::ideal());
        let xs: Vec<f64> = p.positions().iter().map(|p| p.x).collect();
        assert!(xs[0] < xs[1] && xs[1] < xs[2] && xs[2] < xs[3]);
        assert!(xs[0] > 0.0 && xs[3] < 1.0);
    }

    #[test]
    fn latch_overhead_math() {
        let l = LatchParams::tg_msff_70nm();
        assert!((l.overhead_ps() - 8.0).abs() < 1e-12);
        assert!((l.overhead_sigma_ps() - 0.32).abs() < 1e-12);
        assert_eq!(LatchParams::ideal().overhead_sigma_ps(), 0.0);
    }

    #[test]
    fn stage_replacement() {
        let mut p = StagedPipeline::new(
            "t",
            vec![inverter_chain(3, 1.0), inverter_chain(3, 1.0)],
            LatchParams::ideal(),
        );
        p.set_stage(1, inverter_chain(5, 2.0));
        assert_eq!(p.stages()[1].gate_count(), 5);
        let mut s0 = p.stages()[0].clone();
        s0.scale_sizes(3.0);
        p.set_stage(0, s0);
        assert!((p.stages()[0].area() - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        let _ = StagedPipeline::new("e", vec![], LatchParams::ideal());
    }
}
