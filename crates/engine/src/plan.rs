//! Sweep and campaign linting: expand, validate and cost a spec without
//! running it.
//!
//! Both `vardelay sweep validate <spec.json>` and `vardelay optimize
//! validate <spec.json>` drive the **same** implementation —
//! [`crate::workload::plan_workload`] over the spec's [`Workload`]
//! impl: every unit goes through the same preparation as a real run
//! (spec validation, backend compatibility, analytic model
//! construction, target resolution) but **zero trial blocks, sizing
//! passes or trials execute** — a spec error surfaces in milliseconds
//! instead of after hours of Monte-Carlo. [`plan_sweep`] and
//! [`plan_campaign`] are thin per-workload spellings of that one path.

use serde::{Deserialize, Serialize};

use vardelay_process::ProcessSampler;
use vardelay_stats::SOBOL_MAX_DIMS;

use crate::optimize::{OptimizationCampaign, YieldBackendSpec};
use crate::run::EngineError;
use crate::spec::{BackendSpec, KernelSpec, PipelineSpec, StrategySpec, Sweep, VariationSpec};
use crate::workload::{plan_workload, WorkloadPlan};

/// Relative per-gate trial cost of the v1 kernel (the unit of the
/// plan's `cost` column).
pub const KERNEL_COST_WEIGHT_V1: f64 = 1.0;

/// Relative per-gate trial cost of the v3 wide kernel, calibrated on
/// the benchmark inverter-chain pipeline as the product of two measured
/// ratios: the retired v2 batch kernel sustained ≈3.5× v1's trials/s
/// there (`BENCH_7.json`) and v3 ≈2× v2's (`BENCH_10.json`), so each v3
/// gate evaluation is weighted by 1/7. (`BENCH_10.json` reads 5.82× for
/// v3 over v1 directly; the weight keeps its derived value so the
/// `validate` cost column does not move.)
pub const KERNEL_COST_WEIGHT_V3: f64 = 1.0 / 7.0;

/// Per-trial cost, in v1 gate evaluations, of shaping one leading dim
/// under the stratified or Sobol plan: its share of the block-wise
/// permutation or Sobol point and one lane-interleaved quantile. The
/// cost follows the leading dims, not the gates, and is the same under
/// every kernel (the plan sampler is shared). Calibrated on the
/// alu-decoder-alu pipeline (180 gates, `Combined` variation, 17 die
/// dims of which 16 are shaped), with plan and plain scenarios
/// interleaved in one `--workers 1` run: stratified and Sobol cost 82
/// and 78 ns per shaped dim per trial over plain on kernel v3 (82 and
/// 67 on v1), against 98 ns per v1 gate evaluation.
pub const PLAN_DIM_COST: f64 = 0.8;

/// Per-trial cost, in v1 gate evaluations, of the blockade plan: one
/// likelihood-ratio `exp` and the weighted fold. Measured within noise
/// of plain (under 3% of a v3 trial on a 38-gate, 5-stage chain).
pub const BLOCKADE_TRIAL_COST: f64 = 0.2;

/// Per-trial overhead of each trial strategy, in v1 gate evaluations:
/// the draw-shaping work on top of the kernel's. `leading_dims` is the
/// number of leading standard normals a trial draws (see
/// [`leading_dims`]); stratified and Sobol shape at most
/// [`SOBOL_MAX_DIMS`] of them. The win of a variance-reducing plan is
/// *fewer trials*, not cheaper ones.
pub fn strategy_trial_cost(strategy: StrategySpec, leading_dims: usize) -> f64 {
    match strategy {
        // Pairing only remaps seeds and flips signs.
        StrategySpec::Plain | StrategySpec::Antithetic => 0.0,
        StrategySpec::Stratified | StrategySpec::Sobol => {
            PLAN_DIM_COST * leading_dims.min(SOBOL_MAX_DIMS) as f64
        }
        StrategySpec::Blockade => BLOCKADE_TRIAL_COST,
    }
}

/// The leading standard normals one trial draws — the dims a stratified
/// or Sobol plan shapes: a moment-form pipeline's stage normals, else
/// the die's inter-die and correlated-region normals.
pub(crate) fn leading_dims(pipeline: &PipelineSpec, variation: VariationSpec) -> usize {
    if matches!(pipeline, PipelineSpec::Moments { .. }) {
        pipeline.stage_count()
    } else {
        ProcessSampler::new(variation.to_config(), None).die_dims()
    }
}

/// Estimated relative cost of one Monte-Carlo trial: gate evaluations
/// (stage count for moment-form scenarios, which time no gates)
/// weighted by the kernel's calibrated per-gate cost, plus the trial
/// strategy's shaping overhead ([`strategy_trial_cost`]). Comparable
/// across rows of one plan — not a wall-clock prediction.
pub fn estimated_trial_cost(
    kernel: KernelSpec,
    strategy: StrategySpec,
    gates: usize,
    stages: usize,
    leading_dims: usize,
) -> f64 {
    let work = if gates > 0 { gates } else { stages } as f64;
    let weight = match kernel {
        KernelSpec::V1 => KERNEL_COST_WEIGHT_V1,
        KernelSpec::V3 => KERNEL_COST_WEIGHT_V3,
    };
    work * weight + strategy_trial_cost(strategy, leading_dims)
}

/// One validated scenario's footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPlan {
    /// Content-hash scenario ID (hex) — what the run will report.
    pub id: String,
    /// Scenario label.
    pub label: String,
    /// Selected simulation backend.
    pub backend: BackendSpec,
    /// Selected trial-kernel contract.
    pub kernel: KernelSpec,
    /// Selected trial-plan strategy (human-readable label; includes the
    /// blockade shift when customized).
    pub strategy: String,
    /// Pipeline stage count.
    pub stages: usize,
    /// Total gates across all stage netlists (0 for moment-form).
    pub gates: usize,
    /// Monte-Carlo trial budget.
    pub trials: u64,
    /// Scheduling blocks the worker pool will distribute.
    pub blocks: u64,
    /// Resolved yield-target count (explicit + analytic-derived).
    pub targets: usize,
    /// Estimated relative cost per trial (see [`estimated_trial_cost`]).
    pub est_trial_cost: f64,
}

/// A fully validated sweep with its aggregate cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPlan {
    /// Sweep name from the spec.
    pub name: String,
    /// Sweep seed from the spec.
    pub seed: u64,
    /// One entry per expanded scenario, in execution order.
    pub scenarios: Vec<ScenarioPlan>,
    /// Total Monte-Carlo trials across all scenarios.
    pub total_trials: u64,
    /// Total scheduling blocks (the worker pool's work-item count).
    pub total_blocks: u64,
}

impl SweepPlan {
    /// A fixed-width text report, one scenario per row plus totals.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep '{}' (seed {}): {} scenarios, {} trials in {} blocks",
            self.name,
            self.seed,
            self.scenarios.len(),
            self.total_trials,
            self.total_blocks
        );
        let _ = writeln!(
            out,
            "\n{:<34} {:>9} {:>6} {:>10} {:>7} {:>7} {:>10} {:>8} {:>10}",
            "scenario",
            "backend",
            "kernel",
            "strategy",
            "stages",
            "gates",
            "trials",
            "blocks",
            "cost/trial"
        );
        for s in &self.scenarios {
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>6} {:>10} {:>7} {:>7} {:>10} {:>8} {:>10.1}",
                s.label,
                s.backend.keyword(),
                s.kernel.keyword(),
                s.strategy,
                s.stages,
                s.gates,
                s.trials,
                s.blocks,
                s.est_trial_cost
            );
        }
        out
    }
}

impl WorkloadPlan for SweepPlan {
    fn render(&self) -> String {
        SweepPlan::render(self)
    }
}

/// Validates a sweep end to end and reports its footprint, running no
/// trials — [`plan_workload`] under the sweep spelling.
///
/// # Errors
///
/// Returns the same [`EngineError`] a real [`crate::run_workload`] would
/// return for the first invalid scenario.
pub fn plan_sweep(sweep: &Sweep) -> Result<SweepPlan, EngineError> {
    plan_workload(sweep, |_, _| {})
}

/// One validated optimization run's footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunPlan {
    /// Content-hash run ID (hex) — what the campaign will report.
    pub id: String,
    /// Run label.
    pub label: String,
    /// Pipeline stage count.
    pub stages: usize,
    /// Total gates across all stage netlists.
    pub gates: usize,
    /// Optimization goal keyword.
    pub goal: String,
    /// In-loop yield backend.
    pub yield_backend: YieldBackendSpec,
    /// Selected trial-kernel contract.
    pub kernel: KernelSpec,
    /// Verification trial-plan strategy (human-readable label).
    pub strategy: String,
    /// Estimated relative cost per Monte-Carlo trial (see
    /// [`estimated_trial_cost`]).
    pub est_trial_cost: f64,
    /// Target-delay policy description.
    pub target_delay: String,
    /// Pipeline yield target.
    pub yield_target: f64,
    /// The eq.-12 per-stage yield allocation `Y^(1/Ns)`.
    pub stage_allocation: f64,
    /// The allocation's sigma multiplier `κ = Φ⁻¹(Y^(1/Ns))`.
    pub stage_kappa: f64,
    /// Outer sizing rounds.
    pub rounds: usize,
    /// In-loop yield trials per evaluation (netlist backend).
    pub eval_trials: u64,
    /// Final/baseline verification trials.
    pub verify_trials: u64,
}

/// A fully validated campaign with its aggregate Monte-Carlo cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignPlan {
    /// Campaign name from the spec.
    pub name: String,
    /// Campaign seed from the spec.
    pub seed: u64,
    /// One entry per expanded run, in execution order.
    pub runs: Vec<RunPlan>,
    /// Total verification trials across all runs (optimized + baseline
    /// designs).
    pub total_verify_trials: u64,
}

impl CampaignPlan {
    /// A fixed-width text report, one run per row plus totals.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign '{}' (seed {}): {} runs, {} verification trials",
            self.name,
            self.seed,
            self.runs.len(),
            self.total_verify_trials
        );
        let _ = writeln!(
            out,
            "\n{:<38} {:>6} {:>6} {:>12} {:>8} {:>6} {:>10} {:>7} {:>7} {:>6} {:>8} {:>10}",
            "run",
            "stages",
            "gates",
            "goal",
            "backend",
            "kernel",
            "strategy",
            "yield%",
            "alloc%",
            "rounds",
            "verify",
            "cost/trial"
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "{:<38} {:>6} {:>6} {:>12} {:>8} {:>6} {:>10} {:>7.1} {:>7.1} {:>6} {:>8} {:>10.1}",
                r.label,
                r.stages,
                r.gates,
                r.goal,
                r.yield_backend.keyword(),
                r.kernel.keyword(),
                r.strategy,
                100.0 * r.yield_target,
                100.0 * r.stage_allocation,
                r.rounds,
                r.verify_trials,
                r.est_trial_cost
            );
        }
        out
    }
}

impl WorkloadPlan for CampaignPlan {
    fn render(&self) -> String {
        CampaignPlan::render(self)
    }
}

/// Validates an optimization campaign end to end and reports its
/// footprint, running no sizing passes and no trials —
/// [`plan_workload`] under the optimize spelling.
///
/// # Errors
///
/// Returns the same [`EngineError`] a real [`crate::run_workload`]
/// would return for the first invalid run.
pub fn plan_campaign(campaign: &OptimizationCampaign) -> Result<CampaignPlan, EngineError> {
    plan_workload(campaign, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_counts_trials_and_blocks() {
        let plan = plan_sweep(&Sweep::example()).unwrap();
        assert_eq!(plan.scenarios.len(), 20);
        assert_eq!(
            plan.total_trials,
            4_000 + 2_000 + 18 * 2_000,
            "explicit + grid budgets"
        );
        // 4000/256 = 16 blocks, 2000/256 = 8 blocks each.
        assert_eq!(plan.total_blocks, 16 + 8 + 18 * 8);
        let text = plan.render();
        assert!(text.contains("20 scenarios"), "{text}");
        assert!(text.contains("pipeline"), "{text}");
    }

    /// Plan overhead follows the leading die dims a trial shapes, not
    /// the gates: on the 17-die-dim `Combined` variation stratified and
    /// Sobol both add 16 shaped dims over plain, on an inter-only
    /// variation just one.
    #[test]
    fn plan_cost_follows_leading_dims() {
        let scenario = |(name, variation): (&str, &str), strategy: &str| {
            format!(
                r#"{{"label":"{name} {strategy}","pipeline":{{"InverterStages":{{"depths":[5,4,6],"size":1.0,"latch":"TgMsff70nm"}}}},"variation":{variation},"trials":{{"count":512,"strategy":"{strategy}"}},"yield_targets":[],"auto_target_sigmas":[],"backend":"netlist","kernel":"v3"}}"#
            )
        };
        let combined = r#"{"Combined":{"inter_mv":30.0,"random_mv":20.0,"systematic_mv":10.0}}"#;
        let inter = r#"{"InterOnly":{"sigma_mv":40.0}}"#;
        let rows: Vec<String> = [("combined", combined), ("inter", inter)]
            .into_iter()
            .flat_map(|v| ["plain", "stratified", "sobol"].map(|s| scenario(v, s)))
            .collect();
        let spec = format!(
            r#"{{"name":"cost","seed":1,"scenarios":[{}]}}"#,
            rows.join(",")
        );
        let plan = plan_sweep(&Sweep::from_json(&spec).unwrap()).unwrap();
        let cost: Vec<f64> = plan.scenarios.iter().map(|s| s.est_trial_cost).collect();
        let (plain, strat, sobol) = (cost[0], cost[1], cost[2]);
        assert!(plain < strat, "{cost:?}");
        assert_eq!(strat, sobol, "{cost:?}");
        assert!(
            (strat - plain - 16.0 * PLAN_DIM_COST).abs() < 1e-9,
            "{cost:?}"
        );
        // Same gates, one leading dim.
        assert_eq!(cost[3], plain, "{cost:?}");
        assert!((cost[4] - cost[3] - PLAN_DIM_COST).abs() < 1e-9, "{cost:?}");
        // On a small v3 pipeline the shaping outweighs the gates.
        assert!(strat > 2.0 * plain, "{cost:?}");
    }

    #[test]
    fn plan_covers_netlist_and_analytic_backends() {
        let plan = plan_sweep(&Sweep::example_netlist()).unwrap();
        let netlist = plan
            .scenarios
            .iter()
            .filter(|s| s.backend == BackendSpec::Netlist)
            .count();
        assert!(netlist >= 3, "template is netlist-centric");
        let analytic = plan
            .scenarios
            .iter()
            .find(|s| s.backend == BackendSpec::Analytic)
            .expect("template carries an analytic twin");
        assert_eq!(analytic.trials, 0);
        assert_eq!(analytic.blocks, 0);
        assert!(analytic.gates > 0, "gate-level even when closed-form");
        // The chain twin pair shares a pipeline, so gate counts agree.
        let mc_twin = &plan.scenarios[0];
        assert_eq!(mc_twin.gates, analytic.gates);
    }

    #[test]
    fn plan_campaign_measures_without_optimizing() {
        let plan = plan_campaign(&OptimizationCampaign::example()).unwrap();
        assert_eq!(plan.runs.len(), 6);
        assert_eq!(plan.runs[0].gates, 31);
        assert!((plan.runs[0].stage_allocation.powi(4) - 0.80).abs() < 1e-12);
        assert!(plan.runs[0].stage_kappa > 0.0);
        let expected: u64 = OptimizationCampaign::example()
            .expand()
            .iter()
            .map(|r| 2 * r.verify_trials)
            .sum();
        assert_eq!(plan.total_verify_trials, expected);
        let text = plan.render();
        assert!(text.contains("6 runs"), "{text}");
        assert!(text.contains("ensure-yield"), "{text}");
        assert!(text.contains("min-area"), "{text}");
    }

    #[test]
    fn plan_campaign_rejects_what_the_runner_rejects() {
        let mut c = OptimizationCampaign::example();
        c.runs[0].rounds = 0;
        let err = plan_campaign(&c).unwrap_err();
        assert!(err.to_string().contains("rounds"), "{err}");
    }

    #[test]
    fn plan_rejects_what_the_runner_rejects() {
        let mut sweep = Sweep::example_netlist();
        sweep.scenarios[1].trials = 100; // analytic backend with trials
        let err = plan_sweep(&sweep).unwrap_err();
        assert!(err.to_string().contains("analytic"), "{err}");
    }

    #[test]
    fn plan_reports_out_of_domain_circuits_softly() {
        // The lint must never hit a generator assert: validation runs
        // before any netlist is built for the gate count.
        use crate::spec::{CircuitSpec, LatchSpec, PipelineSpec};
        let mut sweep = Sweep::example_netlist();
        sweep.scenarios[0].pipeline = PipelineSpec::Circuits {
            stages: vec![CircuitSpec::Decoder { bits: 6 }],
            latch: LatchSpec::Ideal,
        };
        let err = plan_sweep(&sweep).unwrap_err();
        assert!(err.to_string().contains("decoder"), "{err}");
    }
}
