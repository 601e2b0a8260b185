//! The backend contract: how a prepared scenario turns trial blocks
//! into statistics.
//!
//! The sweep runner is backend-generic. Everything scheduling-related —
//! the fixed block partition, counter-based per-trial seeds, in-order
//! merging — lives in [`crate::run`]; everything simulation-related
//! lives behind [`Simulator`]. A backend receives the trial range and
//! the scenario's content-hash ID, derives each trial's RNG stream with
//! [`crate::seed::trial_seed`], and folds results into a
//! [`PipelineBlockStats`]. Because seeds are a pure function of
//! `(scenario_id, trial_index)`, any backend inherits the engine's
//! worker-count-independence for free.
//!
//! Two simulators ship:
//!
//! * [`MvnSim`] — joint-Gaussian stage-delay sampling for moment-form
//!   scenarios (the `pipeline` backend's moments half).
//! * [`GateLevelSim`] — gate-level trials on the allocation-free
//!   prepared path ([`vardelay_mc::PreparedPipelineMc`]): per-worker
//!   [`TrialWorkspace`] scratch buffers, loads and nominal delays
//!   precomputed at prepare time, **zero heap allocation per trial**.
//!   Both the `pipeline` and the `netlist` keyword run it on gate-level
//!   scenarios, so the two produce the same bytes.
//!
//! The closed-form `analytic` backend needs no simulator at all — it
//! contributes no trial blocks.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vardelay_circuit::StagedPipeline;
use vardelay_mc::{
    PipelineBlockStats, PipelineMc, PlanSampler, PreparedPipelineMc, TrialKernel, TrialPlan,
    TrialWorkspace, V3Fold, V3_WIDTH,
};
use vardelay_stats::MultivariateNormal;

use crate::seed::trial_seed;

/// A scenario's simulation backend, prepared and ready to run trial
/// blocks.
///
/// Implementations must be deterministic functions of
/// `(scenario_id, trial range)`: the same arguments must fold the same
/// numbers into `stats` regardless of which worker calls, in what
/// order, or what the workspace previously held. In particular, a
/// backend that uses the workspace must size it itself (grow-only) —
/// the runner hands every block an arbitrary previously-used `ws`.
pub trait Simulator: Send + Sync {
    /// Runs trials `trials.start..trials.end`, each seeded
    /// `trial_seed(scenario_id, t)`, folding every trial into `stats`.
    fn run_block(
        &self,
        ws: &mut TrialWorkspace,
        scenario_id: u64,
        trials: Range<u64>,
        stats: &mut PipelineBlockStats,
    );
}

/// Joint-Gaussian stage-delay trials for moment-form scenarios.
pub struct MvnSim {
    mvn: MultivariateNormal,
    kernel: TrialKernel,
    plan: TrialPlan,
}

impl MvnSim {
    /// Wraps a stage-delay joint distribution. The trial kernel's normal
    /// fill draws the iid normals and its fold records them (v3 through
    /// a [`V3Fold`], [`V3_WIDTH`] trials a pass); the trial plan is a
    /// draw overlay on the leading stage dimensions (plain is the
    /// identity overlay).
    pub fn new(mvn: MultivariateNormal, kernel: TrialKernel, plan: TrialPlan) -> Self {
        MvnSim { mvn, kernel, plan }
    }
}

impl Simulator for MvnSim {
    fn run_block(
        &self,
        _ws: &mut TrialWorkspace,
        scenario_id: u64,
        trials: Range<u64>,
        stats: &mut PipelineBlockStats,
    ) {
        let mut ps = PlanSampler::new(self.plan, self.mvn.dim(), trial_seed(scenario_id, 0));
        let fill = self.kernel.normal_fill();
        let mut z = Vec::new();
        let mut x = Vec::new();
        // Trial `t`'s stage delays into `x`; returns its pipeline delay
        // and importance weight.
        let mut trial = |t: u64, x: &mut Vec<f64>| {
            let (seed_index, overlay) = ps.prepare_trial(t);
            let mut rng = StdRng::seed_from_u64(trial_seed(scenario_id, seed_index));
            let w = self.mvn.sample_into(fill, &overlay, &mut rng, &mut z, x);
            (x.iter().copied().fold(f64::NEG_INFINITY, f64::max), w)
        };
        match self.kernel {
            TrialKernel::V1 => {
                for t in trials {
                    let (maxd, w) = trial(t, &mut x);
                    stats.record_weighted(&x, maxd, w);
                }
            }
            TrialKernel::V3 => {
                let mut fold = V3Fold::default();
                fold.begin(stats);
                let mut sd = vec![0.0; self.mvn.dim() * V3_WIDTH];
                let (mut maxd, mut weight) = ([0.0; V3_WIDTH], [0.0; V3_WIDTH]);
                let mut t = trials.start;
                while t < trials.end {
                    let w = ((trials.end - t) as usize).min(V3_WIDTH);
                    for i in 0..w {
                        (maxd[i], weight[i]) = trial(t + i as u64, &mut x);
                        for (s, &d) in x.iter().enumerate() {
                            sd[s * V3_WIDTH + i] = d;
                        }
                    }
                    fold.fold_pass(&sd, &maxd, &weight, w, stats);
                    t += w as u64;
                }
                fold.finish(trials.start, stats);
            }
        }
    }
}

/// Gate-level trials on the allocation-free prepared path.
pub struct GateLevelSim {
    prepared: PreparedPipelineMc,
    plan: TrialPlan,
}

impl GateLevelSim {
    /// Compiles `staged` for workspace-reusing trials under `plan`.
    pub fn new(mc: &PipelineMc, staged: &StagedPipeline, plan: TrialPlan) -> Self {
        GateLevelSim {
            prepared: PreparedPipelineMc::new(mc, staged),
            plan,
        }
    }
}

impl Simulator for GateLevelSim {
    // PreparedPipelineMc::run_block_plan sizes the workspace itself
    // (grow-only), so any previously-used `ws` is acceptable here.
    fn run_block(
        &self,
        ws: &mut TrialWorkspace,
        scenario_id: u64,
        trials: Range<u64>,
        stats: &mut PipelineBlockStats,
    ) {
        self.prepared
            .run_block_plan(ws, trials, |t| trial_seed(scenario_id, t), self.plan, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::{CellLibrary, LatchParams};
    use vardelay_process::VariationConfig;

    #[test]
    fn gate_level_workspace_reuse_spans_blocks() {
        let staged = StagedPipeline::inverter_grid(2, 5, 1.0, LatchParams::ideal());
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::random_only(35.0),
            None,
        );
        let sim = GateLevelSim::new(&mc, &staged, TrialPlan::plain());
        let mut ws = TrialWorkspace::new();
        let mut stats = PipelineBlockStats::new(2, &[]);
        for b in 0..4u64 {
            sim.run_block(&mut ws, 1, b * 64..(b + 1) * 64, &mut stats);
        }
        assert_eq!(ws.reuses(), 256, "no buffer may reallocate across blocks");
    }
}
