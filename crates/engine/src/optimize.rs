//! Optimization campaigns: the Fig. 9 yield-aware sizing flow as a
//! first-class engine workload.
//!
//! The paper's headline result is not the delay model but the global
//! sizing flow built on it (§4, Tables II/III): reach a pipeline yield
//! target at a small area cost where per-stage optimization fails, or
//! recover area at constant yield. An [`OptimizationCampaign`] runs that
//! flow at sweep scale — an explicit list of [`OptimizeSpec`] runs plus
//! a cartesian [`OptimizeGridSpec`] over pipeline × yield target ×
//! target-delay policy × goal × variation — through the same worker
//! pool, content-hash IDs and counter-based seeding as scenario sweeps,
//! producing streamed [`OptimizationRunResult`] rows.
//!
//! Every run carries **both** yield numbers the paper compares: the
//! analytic Clark/SSTA prediction and the gate-level Monte-Carlo
//! measurement (the Table II "actual yield" column), and the sizing
//! loop itself can be driven by either via [`YieldBackendSpec`] — the
//! optimization counterpart of a sweep scenario's simulation backend.
//!
//! ## Determinism
//!
//! A campaign's JSON results are byte-identical for any worker count:
//! run IDs are content hashes of the serialized spec (namespaced by the
//! campaign seed), every Monte-Carlo trial inside a run — in-loop yield
//! evaluations and final verification alike — is counter-seeded from
//! that ID, the sizer is deterministic, and results are assembled in
//! expansion order.

use vardelay_circuit::power::{pipeline_power, PowerParams};
use vardelay_circuit::{CellLibrary, StagedPipeline};
use vardelay_core::design_space::DesignSpace;
use vardelay_core::stage_yield_target;
use vardelay_mc::{PipelineMc, PreparedPipelineMc, TrialWorkspace};
use vardelay_opt::{
    AnalyticYieldEval, GlobalPipelineOptimizer, NetlistMcYieldEval, OptimizationGoal, SizingConfig,
    StatisticalSizer, TargetDelayPolicy, MAX_EVAL_TRIALS,
};
use vardelay_ssta::SstaEngine;

use serde::{Deserialize, Serialize};

use crate::plan::{CampaignPlan, RunPlan};
use crate::result::{BaselineOutcome, CampaignResult, McVerification, OptimizationRunResult};
use crate::run::{build_model_from_mc, EngineError, SweepOptions, MAX_TRIALS};
use crate::seed::{fnv1a64, trial_seed};
use crate::spec::{
    is_default, keyword_enum, trials_from_value, trials_to_value, KernelSpec, PipelineSpec,
    StrategySpec, TrialPlanSpec, VariationSpec,
};
use crate::workload::{run_workload, StepContext, Workload, WorkloadOptions};

keyword_enum! {
    /// Which backend measures pipeline yield *inside* the sizing loop.
    ///
    /// Serialized in lowercase and omitted when it is the default, like a
    /// scenario's `backend` field. Unlike that field, the yield backend is
    /// **experiment-defining**: Monte-Carlo feedback can steer the global
    /// budget adjustment differently than the analytic model, so it is part
    /// of the run's content hash.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub enum YieldBackendSpec("yield backend") {
        /// The paper flow: closed-form Clark/SSTA yield (eq. 9).
        #[default]
        Analytic = "analytic",
        /// Gate-level Monte-Carlo on the prepared zero-allocation hot path,
        /// `eval_trials` counter-seeded trials per yield query.
        Netlist = "netlist",
    }
}

/// Default outer rounds of the global budget adjustment (Fig. 9 step 7).
pub const DEFAULT_ROUNDS: usize = 4;

/// Cap on a run's sizing rounds — each round re-sizes every stage, so
/// this bounds a fat-fingered spec's compute the way `MAX_TRIALS` bounds
/// a sweep's.
pub const MAX_ROUNDS: usize = 64;

/// Default Monte-Carlo trials per in-loop yield evaluation (netlist
/// yield backend only).
pub const DEFAULT_EVAL_TRIALS: u64 = 2_048;

/// Default Monte-Carlo trials verifying the final (and baseline) yield.
pub const DEFAULT_VERIFY_TRIALS: u64 = 4_096;

fn default_rounds() -> usize {
    DEFAULT_ROUNDS
}

fn is_default_rounds(rounds: &usize) -> bool {
    *rounds == DEFAULT_ROUNDS
}

fn default_eval_trials() -> u64 {
    DEFAULT_EVAL_TRIALS
}

fn is_default_eval_trials(trials: &u64) -> bool {
    *trials == DEFAULT_EVAL_TRIALS
}

/// The optional `verify_trials` key: a verification budget and its plan,
/// omitted only when the count is [`DEFAULT_VERIFY_TRIALS`] *and* the
/// plan is plain (`#[serde(with = "verify_trials", pair = verify_plan)]`).
mod verify_trials {
    use super::{trials_from_value, trials_to_value, TrialPlanSpec, DEFAULT_VERIFY_TRIALS};
    use serde::{Error, Value};

    pub(super) fn to_value(count: &u64, plan: &TrialPlanSpec) -> Option<Value> {
        (*count != DEFAULT_VERIFY_TRIALS || !plan.is_default())
            .then(|| trials_to_value(*count, plan))
    }

    pub(super) fn from_value(v: Option<&Value>) -> Result<(u64, TrialPlanSpec), Error> {
        v.map_or(
            Ok((DEFAULT_VERIFY_TRIALS, TrialPlanSpec::default())),
            trials_from_value,
        )
    }
}

/// One optimization run: a pipeline, a yield target, how the target
/// delay is chosen, what the optimizer is asked to do, and how yield is
/// measured while it does it.
///
/// Optional fields are omitted when they hold their defaults, so a
/// campaign written before a knob existed keeps its bytes and run IDs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeSpec {
    /// Display label (also part of the run's content hash).
    pub label: String,
    /// Pipeline construction (gate-level only — the sizer needs gates).
    pub pipeline: PipelineSpec,
    /// Process-variation configuration.
    pub variation: VariationSpec,
    /// Pipeline yield target in `(0, 1)` (e.g. `0.80` for Table II).
    pub yield_target: f64,
    /// How the target delay is chosen (absolute, or the Tables II/III
    /// sized-frontier quantile).
    pub target_delay: TargetDelayPolicy,
    /// What the optimizer optimizes (Table II ensure-yield vs Table III
    /// minimize-area).
    pub goal: OptimizationGoal,
    /// Outer sizing rounds (Fig. 9 step 7 repetitions).
    #[serde(default = "default_rounds", skip_serializing_if = "is_default_rounds")]
    pub rounds: usize,
    /// Which backend measures pipeline yield inside the sizing loop.
    #[serde(default, skip_serializing_if = "is_default")]
    pub yield_backend: YieldBackendSpec,
    /// Which trial-kernel contract runs every Monte-Carlo surface of
    /// the run (in-loop evaluation, criticality, verification).
    #[serde(default, skip_serializing_if = "is_default")]
    pub kernel: KernelSpec,
    /// Monte-Carlo trials per in-loop yield query (netlist backend).
    #[serde(
        default = "default_eval_trials",
        skip_serializing_if = "is_default_eval_trials"
    )]
    pub eval_trials: u64,
    /// Monte-Carlo trials verifying the optimized and baseline designs
    /// at the target (`0` skips verification). When `verify_plan`
    /// requests a confidence half-width, this is a **ceiling**:
    /// verification stops at the first chunk boundary where the 95%
    /// interval is tight enough.
    #[serde(with = "verify_trials", pair = verify_plan)]
    pub verify_trials: u64,
    /// Trial plan for the verification streams (the in-loop evaluation
    /// always runs plain MC). Serialized inside `verify_trials`, the
    /// way a scenario's plan rides inside `trials`.
    pub verify_plan: TrialPlanSpec,
}

impl OptimizeSpec {
    /// The run's stable content hash under a campaign seed.
    ///
    /// Unlike a sweep scenario (where the simulation backend is excluded
    /// as a pure execution strategy), almost **every** field here
    /// defines the experiment: the yield backend and its trial budget
    /// steer the sizing trajectory, and the verification budget picks
    /// the verification stream. The exceptions are `kernel` and
    /// `verify_plan` — like a scenario's backend they are execution
    /// contracts, excluded so contract twins derive identical per-trial
    /// RNG seeds from identical spec content (the arithmetic over those
    /// seeds differs, under each contract's own frozen rules).
    pub fn id(&self, campaign_seed: u64) -> u64 {
        let mut identity = self.clone();
        identity.kernel = KernelSpec::default();
        identity.verify_plan = TrialPlanSpec::default();
        let json = serde_json::to_string(&identity).expect("optimize specs are finite");
        fnv1a64(json.as_bytes()) ^ campaign_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Cartesian run grid: pipelines × yield targets × target-delay policies
/// × goals × variations, with shared execution knobs (serialized like
/// [`OptimizeSpec`]'s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeGridSpec {
    /// Pipelines to optimize.
    pub pipelines: Vec<PipelineSpec>,
    /// Pipeline yield targets to sweep.
    pub yield_targets: Vec<f64>,
    /// Target-delay policies to sweep.
    pub target_delays: Vec<TargetDelayPolicy>,
    /// Optimization goals to sweep.
    pub goals: Vec<OptimizationGoal>,
    /// Variation configurations to sweep.
    pub variations: Vec<VariationSpec>,
    /// Outer sizing rounds stamped on every generated run.
    #[serde(default = "default_rounds", skip_serializing_if = "is_default_rounds")]
    pub rounds: usize,
    /// In-loop yield backend stamped on every generated run.
    #[serde(default, skip_serializing_if = "is_default")]
    pub yield_backend: YieldBackendSpec,
    /// Trial-kernel contract stamped on every generated run.
    #[serde(default, skip_serializing_if = "is_default")]
    pub kernel: KernelSpec,
    /// In-loop yield trials stamped on every generated run.
    #[serde(
        default = "default_eval_trials",
        skip_serializing_if = "is_default_eval_trials"
    )]
    pub eval_trials: u64,
    /// Verification trials stamped on every generated run.
    #[serde(with = "verify_trials", pair = verify_plan)]
    pub verify_trials: u64,
    /// Verification trial plan stamped on every generated run.
    pub verify_plan: TrialPlanSpec,
}

/// Short goal keyword for generated labels and plan rows.
pub(crate) fn goal_keyword(goal: OptimizationGoal) -> &'static str {
    match goal {
        OptimizationGoal::EnsureYield => "ensure-yield",
        OptimizationGoal::MinimizeArea => "min-area",
    }
}

impl OptimizeGridSpec {
    /// Expands the grid into concrete runs, in row-major order
    /// (pipeline, then yield target, then target policy, then goal,
    /// then variation).
    pub fn expand(&self) -> Vec<OptimizeSpec> {
        let mut out = Vec::new();
        for pipeline in &self.pipelines {
            for &yield_target in &self.yield_targets {
                for &target_delay in &self.target_delays {
                    for &goal in &self.goals {
                        for &variation in &self.variations {
                            out.push(OptimizeSpec {
                                label: format!(
                                    "{} y{:.0}% {} {} {}",
                                    pipeline.label(),
                                    100.0 * yield_target,
                                    goal_keyword(goal),
                                    target_delay.label(),
                                    variation.label()
                                ),
                                pipeline: pipeline.clone(),
                                variation,
                                yield_target,
                                target_delay,
                                goal,
                                rounds: self.rounds,
                                yield_backend: self.yield_backend,
                                kernel: self.kernel,
                                eval_trials: self.eval_trials,
                                verify_trials: self.verify_trials,
                                verify_plan: self.verify_plan,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// A full optimization campaign: explicit runs plus an optional grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationCampaign {
    /// Campaign name (reported in results).
    pub name: String,
    /// Base seed namespacing every run's RNG streams.
    pub seed: u64,
    /// Explicit runs, executed first.
    #[serde(default)]
    pub runs: Vec<OptimizeSpec>,
    /// Grid expansion appended after the explicit list.
    #[serde(default)]
    pub grid: Option<OptimizeGridSpec>,
}

impl OptimizationCampaign {
    /// All runs: the explicit list followed by the grid expansion.
    pub fn expand(&self) -> Vec<OptimizeSpec> {
        let mut out = self.runs.clone();
        if let Some(grid) = &self.grid {
            out.extend(grid.expand());
        }
        out
    }

    /// Parses a campaign spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse/shape error.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes the spec as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign specs are finite")
    }

    /// A ready-to-run **high-sigma** example campaign: ensure a 99.9%
    /// pipeline yield under inter-die-dominant variation, verified with
    /// the statistical-blockade (mean-shifted importance sampling) trial
    /// plan to a requested 0.1% confidence half-width. At this target a
    /// plain-MC verification of the same budget resolves nothing — the
    /// failure event is too rare — which is exactly the regime the
    /// blockade plan exists for. The `vardelay optimize example
    /// --high-sigma` template.
    pub fn example_high_sigma() -> Self {
        OptimizationCampaign {
            name: "blockade-yield-example".to_owned(),
            seed: 0xB10C, // "bloc(kade)"
            runs: vec![OptimizeSpec {
                label: "4stg chains ensure 99.9% (blockade verify)".to_owned(),
                pipeline: PipelineSpec::InverterStages {
                    depths: vec![10, 8, 7, 6],
                    size: 1.0,
                    latch: crate::spec::LatchSpec::TgMsff70nm,
                },
                variation: VariationSpec::Combined {
                    inter_mv: 40.0,
                    random_mv: 10.0,
                    systematic_mv: 0.0,
                },
                yield_target: 0.999,
                target_delay: TargetDelayPolicy::FrontierQuantile {
                    q: 0.9995,
                    refine: 2,
                },
                goal: OptimizationGoal::EnsureYield,
                rounds: 2,
                yield_backend: YieldBackendSpec::Analytic,
                kernel: KernelSpec::default(),
                eval_trials: DEFAULT_EVAL_TRIALS,
                verify_trials: 32_768,
                verify_plan: TrialPlanSpec {
                    strategy: StrategySpec::Blockade,
                    shift_sigmas: None,
                    ci_half_width: Some(0.001),
                },
            }],
            grid: None,
        }
    }

    /// A ready-to-run example campaign: a Table-II-style ensure-yield
    /// run under both yield backends, plus a small grid crossing yield
    /// targets with both goals on a heterogeneous chain pipeline.
    pub fn example() -> Self {
        let chains = PipelineSpec::InverterStages {
            depths: vec![10, 8, 7, 6],
            size: 1.0,
            latch: crate::spec::LatchSpec::TgMsff70nm,
        };
        let rand35 = VariationSpec::RandomOnly { sigma_mv: 35.0 };
        OptimizationCampaign {
            name: "optimize-example".to_owned(),
            seed: 0xF19, // Fig. 9
            runs: vec![
                OptimizeSpec {
                    label: "4stg chains ensure 80% (analytic yield eval)".to_owned(),
                    pipeline: chains.clone(),
                    variation: rand35,
                    yield_target: 0.80,
                    target_delay: TargetDelayPolicy::FrontierQuantile { q: 0.86, refine: 2 },
                    goal: OptimizationGoal::EnsureYield,
                    rounds: 3,
                    yield_backend: YieldBackendSpec::Analytic,
                    kernel: KernelSpec::default(),
                    eval_trials: DEFAULT_EVAL_TRIALS,
                    verify_trials: DEFAULT_VERIFY_TRIALS,
                    verify_plan: TrialPlanSpec::default(),
                },
                OptimizeSpec {
                    label: "4stg chains ensure 80% (netlist yield eval)".to_owned(),
                    pipeline: chains,
                    variation: rand35,
                    yield_target: 0.80,
                    target_delay: TargetDelayPolicy::FrontierQuantile { q: 0.86, refine: 2 },
                    goal: OptimizationGoal::EnsureYield,
                    rounds: 3,
                    yield_backend: YieldBackendSpec::Netlist,
                    kernel: KernelSpec::default(),
                    eval_trials: 1_024,
                    verify_trials: DEFAULT_VERIFY_TRIALS,
                    verify_plan: TrialPlanSpec::default(),
                },
            ],
            grid: Some(OptimizeGridSpec {
                pipelines: vec![PipelineSpec::Circuits {
                    stages: vec![
                        crate::spec::CircuitSpec::Chain {
                            depth: 12,
                            size: 1.0,
                        },
                        crate::spec::CircuitSpec::Chain {
                            depth: 9,
                            size: 1.0,
                        },
                        crate::spec::CircuitSpec::Chain {
                            depth: 7,
                            size: 1.0,
                        },
                    ],
                    latch: crate::spec::LatchSpec::TgMsff70nm,
                }],
                yield_targets: vec![0.80, 0.90],
                target_delays: vec![TargetDelayPolicy::FrontierQuantile { q: 0.90, refine: 1 }],
                goals: vec![
                    OptimizationGoal::EnsureYield,
                    OptimizationGoal::MinimizeArea,
                ],
                variations: vec![rand35],
                rounds: 2,
                yield_backend: YieldBackendSpec::Analytic,
                kernel: KernelSpec::default(),
                eval_trials: DEFAULT_EVAL_TRIALS,
                verify_trials: 2_048,
                verify_plan: TrialPlanSpec::default(),
            }),
        }
    }
}

/// A run with everything validated and its footprint measured, ready to
/// execute — the campaign's [`Workload`] unit. Construction is
/// crate-internal (through [`Workload::build`]).
#[derive(Debug)]
pub struct PreparedRun {
    pub(crate) spec: OptimizeSpec,
    pub(crate) id: u64,
    pub(crate) stages: usize,
    /// Total gates across all stage netlists.
    pub(crate) gates: usize,
    /// The eq.-12 per-stage yield allocation `Y^(1/Ns)`.
    pub(crate) stage_allocation: f64,
    /// The built (unsized) pipeline — constructed once at prepare time,
    /// reused by execution so netlist generation never runs twice.
    pub(crate) pipeline: StagedPipeline,
}

/// The spec-level checks of one run — everything that can reject it
/// without building its pipeline.
fn check_run(spec: &OptimizeSpec) -> Result<(), EngineError> {
    let label = &spec.label;
    let fail = |msg: String| EngineError::new(format!("run '{label}': {msg}"));
    spec.pipeline.validate().map_err(&fail)?;
    if matches!(spec.pipeline, PipelineSpec::Moments { .. }) {
        return Err(fail(
            "optimization sizes gates; Moments pipelines have none (use a gate-level \
             pipeline spec)"
                .to_owned(),
        ));
    }
    spec.variation
        .validate()
        .map_err(|e| fail(format!("variation: {e}")))?;
    if !(spec.yield_target.is_finite() && spec.yield_target > 0.0 && spec.yield_target < 1.0) {
        return Err(fail(format!(
            "yield target must be in (0, 1), got {}",
            spec.yield_target
        )));
    }
    spec.target_delay
        .validate()
        .map_err(|e| fail(format!("target_delay: {e}")))?;
    if !(1..=MAX_ROUNDS).contains(&spec.rounds) {
        return Err(fail(format!(
            "rounds must be in 1..={MAX_ROUNDS}, got {}",
            spec.rounds
        )));
    }
    if spec.eval_trials == 0 || spec.eval_trials > MAX_EVAL_TRIALS {
        return Err(fail(format!(
            "eval_trials must be in 1..={MAX_EVAL_TRIALS}, got {}",
            spec.eval_trials
        )));
    }
    if spec.verify_trials > MAX_TRIALS {
        return Err(fail(format!(
            "verify_trials {} exceeds the per-run cap of {MAX_TRIALS}",
            spec.verify_trials
        )));
    }
    spec.verify_plan
        .validate()
        .map_err(|e| fail(format!("verify_trials: {e}")))?;
    let vstrategy = spec.verify_plan.strategy;
    if vstrategy != StrategySpec::Plain {
        if spec.verify_trials == 0 {
            return Err(fail(format!(
                "the '{}' verification strategy shapes Monte-Carlo draws, but \
                 verify_trials is 0 (verification is skipped)",
                vstrategy.keyword()
            )));
        }
        // Same gate-level domain rules as a sweep scenario's trial plan:
        // die-level strategies need die-level variation dimensions.
        let cfg = spec.variation.to_config();
        match vstrategy {
            StrategySpec::Blockade if !cfg.has_inter() => {
                return Err(fail(
                    "blockade verification shifts the inter-die component, but the \
                     variation has none (use an inter_only or combined variation)"
                        .to_owned(),
                ));
            }
            StrategySpec::Stratified | StrategySpec::Sobol
                if !(cfg.has_inter() || cfg.has_systematic()) =>
            {
                return Err(fail(format!(
                    "the '{}' verification strategy stratifies die-level \
                     (inter-die/systematic) dimensions, but the variation has none",
                    vstrategy.keyword()
                )));
            }
            StrategySpec::Antithetic if spec.variation == VariationSpec::Nominal => {
                return Err(fail(
                    "antithetic pairing reflects variation draws; a Nominal run has none"
                        .to_owned(),
                ));
            }
            _ => {}
        }
    }
    // For absolute targets the admissibility region (eqs. 10–12) exists
    // before the run resolves anything — validate the spec's (target,
    // yield) pair as a design space. Frontier policies resolve their
    // target at run time.
    if let TargetDelayPolicy::Absolute { ps } = spec.target_delay {
        DesignSpace::new(ps, spec.yield_target).map_err(|e| fail(format!("target/yield: {e}")))?;
    }
    Ok(())
}

/// Builds a checked run: its unsized pipeline (once — execution reuses
/// it, so netlist generation never runs twice) and footprint.
fn build_run(spec: OptimizeSpec, seed: u64) -> PreparedRun {
    let stages = spec.pipeline.stage_count();
    let pipeline = spec
        .pipeline
        .build(&spec.label)
        .expect("gate-level specs build a pipeline");
    PreparedRun {
        id: spec.id(seed),
        stages,
        gates: pipeline.total_gates(),
        stage_allocation: stage_yield_target(spec.yield_target, stages),
        pipeline,
        spec,
    }
}

/// Salt separating a run's final-design verification stream from its
/// in-loop evaluation stream (which hashes the same run ID in
/// `vardelay-opt`).
const VERIFY_SALT: u64 = 0x7AB2_AC7A_1D1E_1D01; // "table 2 actual yield"
/// Salt for the individually-optimized baseline's verification stream.
const BASELINE_SALT: u64 = 0x7AB2_1D01_BA5E_0002;

/// Executes one prepared run on the calling thread. `verify_workers`
/// sizes the nested pool the v3 kernel's verification chunks dispatch
/// to (1 keeps everything on this thread); it never affects result
/// bytes.
fn execute_run(
    p: &PreparedRun,
    ws: &mut TrialWorkspace,
    verify_workers: usize,
) -> OptimizationRunResult {
    let spec = &p.spec;
    let variation = spec.variation.to_config();
    let lib = CellLibrary::default();
    let engine = SstaEngine::new(lib.clone(), variation, None);
    let sizer = StatisticalSizer::new(engine.clone(), SizingConfig::default());
    let opt = GlobalPipelineOptimizer::new(sizer)
        .with_rounds(spec.rounds)
        .with_kernel(spec.kernel.to_kernel());

    // Resolve the target and the individually-optimized baseline (the
    // Fig. 9 flow's stated input) from the pipeline prepare_run built.
    let resolved = {
        let _sp = vardelay_obs::span("opt", "resolve_target").key(p.id);
        spec.target_delay
            .resolve(&opt, &p.pipeline, spec.yield_target)
    };
    let target = resolved.target_ps;

    let mc = PipelineMc::new(lib, variation, None).with_kernel(spec.kernel.to_kernel());
    let (optimized, report) = {
        let _sp = vardelay_obs::span("opt", "flow").key(p.id);
        match spec.yield_backend {
            YieldBackendSpec::Analytic => opt.optimize_with(
                &resolved.baseline,
                target,
                spec.yield_target,
                spec.goal,
                &AnalyticYieldEval,
            ),
            YieldBackendSpec::Netlist => {
                let eval = NetlistMcYieldEval::new(mc.clone(), spec.eval_trials, p.id);
                opt.optimize_with(
                    &resolved.baseline,
                    target,
                    spec.yield_target,
                    spec.goal,
                    &eval,
                )
            }
        }
    };

    // Model-predicted yields (always present regardless of the in-loop
    // backend) and MC verification — the Table II "actual yield" column
    // — for both the optimized design and the baseline, on
    // counter-seeded streams. Alongside the raw MC yield, each
    // verification re-evaluates the analytic model on the MC-measured
    // stage moments (§2.4: isolate the max-operator error from the
    // stage-characterization error), like a sweep's `model_from_mc`.
    let vplan = spec.verify_plan.to_plan();
    let mut assess = |pipe: &vardelay_circuit::StagedPipeline, salt: u64| {
        let timing = engine.analyze_pipeline(pipe);
        let analytic = AnalyticYieldEval::yield_of(&timing, target);
        let mc_check = (spec.verify_trials > 0).then(|| {
            use crate::spec::KernelSpec as K;
            use crate::spec::StrategySpec as S;
            let strategy = spec.verify_plan.strategy;
            let (span_name, kernel_counter) = match (spec.kernel, strategy) {
                (K::V1, S::Plain) => ("verify", "trials"),
                (K::V1, S::Antithetic) => ("verify_antithetic", "trials"),
                (K::V1, S::Stratified) => ("verify_stratified", "trials"),
                (K::V1, S::Sobol) => ("verify_sobol", "trials"),
                (K::V1, S::Blockade) => ("verify_blockade", "trials"),
                (K::V3, S::Plain) => ("verify_v3", "trials_v3"),
                (K::V3, S::Antithetic) => ("verify_antithetic_v3", "trials_v3"),
                (K::V3, S::Stratified) => ("verify_stratified_v3", "trials_v3"),
                (K::V3, S::Sobol) => ("verify_sobol_v3", "trials_v3"),
                (K::V3, S::Blockade) => ("verify_blockade_v3", "trials_v3"),
            };
            let strategy_counter = match strategy {
                S::Plain => None,
                S::Antithetic => Some("trials_antithetic"),
                S::Stratified => Some("trials_stratified"),
                S::Sobol => Some("trials_sobol"),
                S::Blockade => Some("trials_blockade"),
            };
            let _sp = vardelay_obs::span("mc", span_name)
                .key(p.id)
                .value(spec.verify_trials as f64);
            let prepared = PreparedPipelineMc::new(&mc, pipe);
            let seed_of = |t| trial_seed(p.id ^ salt, t);
            // The v3 kernel's chunk-wise fold contract fans verification
            // out across the worker pool (bit-identical to the sequential
            // fold at any worker count); v1 runs the sequential fold.
            // Either way `verify_trials` is the ceiling and the CI stop
            // rule (variance-reduced plans only) may end it early.
            let ci = spec.verify_plan.ci_half_width;
            let v = if spec.kernel == K::V3 {
                crate::verify::verify_yield_pooled(
                    &prepared,
                    vplan,
                    spec.verify_trials,
                    ci,
                    seed_of,
                    pipe.stage_count(),
                    &[target],
                    verify_workers,
                    p.id,
                )
            } else {
                vardelay_opt::verify_yield(
                    &prepared,
                    ws,
                    vplan,
                    spec.verify_trials,
                    ci,
                    seed_of,
                    pipe.stage_count(),
                    &[target],
                )
            };
            let (trials_run, stats) = (v.trials, v.stats);
            vardelay_obs::counter(kernel_counter, trials_run);
            if let Some(name) = strategy_counter {
                vardelay_obs::counter(name, trials_run);
            }
            let weighted = stats.has_weighted_tail();
            let est = if weighted {
                vardelay_obs::counter("ess", stats.effective_samples().round() as u64);
                stats.weighted_yield_estimate(0)
            } else {
                stats.yield_estimate(0)
            };
            // A mean-shifted (blockade) sample's stage moments estimate
            // the shifted distribution; re-fitting the analytic model to
            // them would be biased, so that cross-check is suppressed.
            let model_from_mc = if weighted {
                None
            } else {
                let stage_means: Vec<f64> = stats.stage_stats().iter().map(|s| s.mean()).collect();
                let stage_sds: Vec<f64> =
                    stats.stage_stats().iter().map(|s| s.sample_sd()).collect();
                build_model_from_mc(&stage_means, &stage_sds, &timing.correlation, &[target])
                    .map(|m| m.yields[0].value)
            };
            McVerification {
                trials: trials_run,
                value: est.value,
                lo: est.lo,
                hi: est.hi,
                model_from_mc,
            }
        });
        (analytic, mc_check)
    };
    let (analytic_after, mc_after) = assess(&optimized, VERIFY_SALT);
    let (baseline_analytic, mc_baseline) = assess(&resolved.baseline, BASELINE_SALT);

    // §4: "optimize area (hence, power)" — quote both designs' power so
    // every campaign row makes the claim checkable.
    let power_params = PowerParams::default();
    let tech = engine.library().tech();
    let power = |pipe: &StagedPipeline| pipeline_power(pipe, tech, &power_params, 0.0);

    OptimizationRunResult {
        id: format!("{:016x}", p.id),
        label: spec.label.clone(),
        spec: spec.clone(),
        target_ps: target,
        report,
        analytic_yield_after: analytic_after,
        power: power(&optimized),
        mc: mc_after,
        individual: BaselineOutcome {
            area: resolved.baseline.total_area(),
            power: power(&resolved.baseline),
            analytic_yield: baseline_analytic,
            met: baseline_analytic >= spec.yield_target,
            mc: mc_baseline,
        },
    }
}

/// A campaign is a [`Workload`]: units are prepared optimization runs,
/// each executing in a single step (the whole Fig. 9 sizing flow plus
/// verification), and the report is the familiar [`CampaignResult`].
/// The unified pipeline gives campaigns the same worker pool, `--shard`
/// partitioning and checkpoint/resume as sweeps.
impl Workload for OptimizationCampaign {
    type UnitSpec = OptimizeSpec;
    type Unit = PreparedRun;
    type StepOut = OptimizationRunResult;
    type Acc = Option<OptimizationRunResult>;
    type UnitResult = OptimizationRunResult;
    type Report = CampaignResult;
    type UnitPlan = RunPlan;
    type Plan = CampaignPlan;

    fn name(&self) -> &str {
        &self.name
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn unit_noun(&self) -> &'static str {
        "run"
    }

    fn check(&self) -> Result<Vec<OptimizeSpec>, EngineError> {
        self.expand()
            .into_iter()
            .map(|s| check_run(&s).map(|()| s))
            .collect()
    }

    fn build(&self, spec: OptimizeSpec) -> Result<PreparedRun, EngineError> {
        Ok(build_run(spec, self.seed))
    }

    fn unit_key(&self, spec: &OptimizeSpec) -> u64 {
        // NOT the run ID: the ID deliberately excludes `kernel` (so
        // both kernels derive identical trial seeds), but the journal
        // key must distinguish two kernel twins because their result
        // bytes differ. Hash the full spec, like a sweep's unit key.
        let json = serde_json::to_string(spec).expect("checked runs are finite");
        fnv1a64(json.as_bytes()) ^ self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn unit_steps(&self, _unit: &PreparedRun) -> usize {
        // The sizing flow is sequential by nature (each round feeds the
        // next); a run parallelizes across the campaign, not within.
        1
    }

    fn step_trials(&self, unit: &PreparedRun, _step: usize) -> u64 {
        // Display-only ETA estimate: two verification streams (the
        // optimized design and the baseline), plus the in-loop netlist
        // MC evaluations when that backend is selected.
        let spec = &unit.spec;
        let in_loop = match spec.yield_backend {
            YieldBackendSpec::Analytic => 0,
            YieldBackendSpec::Netlist => spec.eval_trials.saturating_mul(spec.rounds as u64 + 1),
        };
        spec.verify_trials.saturating_mul(2).saturating_add(in_loop)
    }

    fn init_acc(&self, _unit: &PreparedRun) -> Option<OptimizationRunResult> {
        None
    }

    fn run_step(
        &self,
        unit: &PreparedRun,
        _step: usize,
        ws: &mut TrialWorkspace,
        ctx: StepContext,
    ) -> OptimizationRunResult {
        // A campaign's runs are single-step units, so on a one-run
        // campaign the outer pool collapses to the calling thread and
        // the full worker budget flows to the run's nested
        // verification dispatch.
        execute_run(unit, ws, ctx.workers)
    }

    fn fold_step(
        &self,
        _unit: &PreparedRun,
        acc: &mut Option<OptimizationRunResult>,
        out: OptimizationRunResult,
    ) {
        *acc = Some(out);
    }

    fn finish_unit(
        &self,
        _unit: &PreparedRun,
        acc: Option<OptimizationRunResult>,
    ) -> OptimizationRunResult {
        acc.expect("a run's single step folded")
    }

    fn assemble(&self, results: Vec<OptimizationRunResult>) -> CampaignResult {
        CampaignResult {
            name: self.name.clone(),
            seed: self.seed,
            runs: results,
        }
    }

    fn plan_unit(&self, unit: &PreparedRun) -> RunPlan {
        RunPlan {
            id: format!("{:016x}", unit.id),
            label: unit.spec.label.clone(),
            stages: unit.stages,
            gates: unit.gates,
            goal: goal_keyword(unit.spec.goal).to_owned(),
            yield_backend: unit.spec.yield_backend,
            kernel: unit.spec.kernel,
            strategy: unit.spec.verify_plan.label(),
            est_trial_cost: crate::plan::estimated_trial_cost(
                unit.spec.kernel,
                unit.spec.verify_plan.strategy,
                unit.gates,
                unit.stages,
                crate::plan::leading_dims(&unit.spec.pipeline, unit.spec.variation),
            ),
            target_delay: unit.spec.target_delay.label(),
            yield_target: unit.spec.yield_target,
            stage_allocation: unit.stage_allocation,
            stage_kappa: vardelay_core::stage_kappa(unit.spec.yield_target, unit.stages),
            rounds: unit.spec.rounds,
            eval_trials: unit.spec.eval_trials,
            verify_trials: unit.spec.verify_trials,
        }
    }

    fn assemble_plan(&self, rows: Vec<RunPlan>) -> CampaignPlan {
        // Optimized + baseline designs are both verified.
        let total_verify_trials = rows.iter().map(|r| 2 * r.verify_trials).sum();
        CampaignPlan {
            name: self.name.clone(),
            seed: self.seed,
            runs: rows,
            total_verify_trials,
        }
    }
}

/// Executes an optimization campaign and assembles per-run results.
///
/// Thin wrapper over the unified [`run_workload`] pipeline. Results are
/// byte-identical for any `opts.workers` — the spec (including its
/// seed) alone determines every number.
///
/// # Errors
///
/// Returns an [`EngineError`] naming the first invalid run.
pub fn run_campaign(
    campaign: &OptimizationCampaign,
    opts: &SweepOptions,
) -> Result<CampaignResult, EngineError> {
    run_workload(
        campaign,
        &WorkloadOptions::sequential().with_workers(opts.workers),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run through both halves of [`Workload::prepare`].
    fn prepare_run(spec: OptimizeSpec, seed: u64) -> Result<PreparedRun, EngineError> {
        check_run(&spec)?;
        Ok(build_run(spec, seed))
    }

    #[test]
    fn example_roundtrips_and_omits_defaults() {
        let c = OptimizationCampaign::example();
        let json = c.to_json();
        let back = OptimizationCampaign::from_json(&json).unwrap();
        assert_eq!(c, back);
        // The analytic run leaves default knobs out of its JSON …
        assert!(!json.contains("\"eval_trials\": 2048"), "{json}");
        // … while non-default ones serialize.
        assert!(json.contains("\"yield_backend\": \"netlist\""), "{json}");
        assert!(json.contains("\"eval_trials\": 1024"), "{json}");
    }

    #[test]
    fn grid_expansion_counts_and_labels() {
        let c = OptimizationCampaign::example();
        let runs = c.expand();
        // 2 explicit + 1 pipeline x 2 yield targets x 1 policy x 2 goals.
        assert_eq!(runs.len(), 2 + 4);
        assert!(runs[2].label.contains("circuits"), "{}", runs[2].label);
        assert!(runs[2].label.contains("ensure-yield"), "{}", runs[2].label);
        assert!(runs[5].label.contains("min-area"), "{}", runs[5].label);
    }

    #[test]
    fn ids_depend_on_every_field_and_the_seed() {
        let c = OptimizationCampaign::example();
        let runs = c.expand();
        let a = runs[0].id(c.seed);
        assert_eq!(a, runs[0].clone().id(c.seed), "stable");
        assert_ne!(a, runs[0].id(c.seed + 1), "seed-namespaced");
        // Unlike sweep backends, the yield backend IS the experiment.
        let mut tweaked = runs[0].clone();
        tweaked.yield_backend = YieldBackendSpec::Netlist;
        assert_ne!(a, tweaked.id(c.seed));
        let mut tweaked = runs[0].clone();
        tweaked.verify_trials += 1;
        assert_ne!(a, tweaked.id(c.seed));
    }

    #[test]
    fn prepare_rejects_out_of_domain_runs() {
        let base = OptimizationCampaign::example().runs[0].clone();
        let reject = |mutate: &dyn Fn(&mut OptimizeSpec), needle: &str| {
            let mut s = base.clone();
            mutate(&mut s);
            let err = prepare_run(s, 1).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        };
        reject(
            &|s| {
                s.pipeline = PipelineSpec::Moments {
                    stages: vec![crate::spec::StageMoments {
                        mu_ps: 100.0,
                        sigma_ps: 5.0,
                    }],
                    rho: 0.0,
                }
            },
            "Moments",
        );
        reject(&|s| s.yield_target = 1.0, "yield target");
        reject(&|s| s.yield_target = f64::NAN, "yield target");
        reject(
            &|s| s.target_delay = TargetDelayPolicy::Absolute { ps: -5.0 },
            "target_delay",
        );
        reject(&|s| s.rounds = 0, "rounds");
        reject(&|s| s.rounds = MAX_ROUNDS + 1, "rounds");
        reject(&|s| s.eval_trials = 0, "eval_trials");
        reject(&|s| s.verify_trials = MAX_TRIALS + 1, "verify_trials");
        reject(
            &|s| s.variation = VariationSpec::RandomOnly { sigma_mv: -1.0 },
            "variation",
        );
    }

    #[test]
    fn prepare_measures_footprint_and_allocation() {
        let mut spec = OptimizationCampaign::example().runs[0].clone();
        let p = prepare_run(spec.clone(), 7).unwrap();
        assert_eq!(p.stages, 4);
        assert_eq!(p.gates, 10 + 8 + 7 + 6);
        assert!((p.stage_allocation.powi(4) - 0.80).abs() < 1e-12);
        // Absolute targets route through the design space (and its
        // validation).
        spec.target_delay = TargetDelayPolicy::Absolute { ps: 500.0 };
        let p = prepare_run(spec, 7).unwrap();
        assert!((p.stage_allocation.powi(4) - 0.80).abs() < 1e-12);
    }

    #[test]
    fn verify_plan_roundtrips_and_is_an_execution_contract() {
        use crate::workload::Workload;
        let mut c = OptimizationCampaign::example();
        c.runs[0].verify_plan = TrialPlanSpec {
            strategy: StrategySpec::Antithetic,
            shift_sigmas: None,
            ci_half_width: Some(0.01),
        };
        let json = c.to_json();
        assert!(json.contains("\"strategy\": \"antithetic\""), "{json}");
        assert!(json.contains("\"ci_half_width\": 0.01"), "{json}");
        let back = OptimizationCampaign::from_json(&json).unwrap();
        assert_eq!(c, back);
        // Like `kernel`, the verify plan never moves the run ID (twins
        // share per-trial seed streams) …
        let mut plain = c.runs[0].clone();
        plain.verify_plan = TrialPlanSpec::default();
        assert_eq!(c.runs[0].id(c.seed), plain.id(c.seed));
        // … but twins get distinct journal/cache keys, because their
        // result bytes legitimately differ.
        let a = prepare_run(c.runs[0].clone(), c.seed).unwrap();
        let b = prepare_run(plain, c.seed).unwrap();
        assert_eq!(a.id, b.id);
        assert_ne!(c.unit_key(&a.spec), c.unit_key(&b.spec));
    }

    #[test]
    fn prepare_rejects_out_of_domain_verify_plans() {
        let base = OptimizationCampaign::example().runs[0].clone();
        let reject = |mutate: &dyn Fn(&mut OptimizeSpec), needle: &str| {
            let mut s = base.clone();
            mutate(&mut s);
            let err = prepare_run(s, 1).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        };
        // The example runs use random-only variation: no inter-die or
        // systematic dimension for die-level strategies to act on.
        reject(
            &|s| s.verify_plan.strategy = StrategySpec::Blockade,
            "inter-die",
        );
        reject(
            &|s| s.verify_plan.strategy = StrategySpec::Stratified,
            "stratifies die-level",
        );
        reject(
            &|s| s.verify_plan.strategy = StrategySpec::Sobol,
            "stratifies die-level",
        );
        reject(
            &|s| {
                s.verify_plan.strategy = StrategySpec::Antithetic;
                s.verify_trials = 0;
            },
            "verify_trials is 0",
        );
        reject(&|s| s.verify_plan.shift_sigmas = Some(2.0), "shift_sigmas");
        reject(
            &|s| s.verify_plan.ci_half_width = Some(0.75),
            "ci_half_width",
        );
    }

    #[test]
    fn misspelled_campaign_fields_are_rejected() {
        let json = OptimizationCampaign::example()
            .to_json()
            .replace("\"goal\"", "\"gaol\"");
        let err = OptimizationCampaign::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("gaol"), "{err}");
        let json = OptimizationCampaign::example()
            .to_json()
            .replace("\"yield_targets\"", "\"yield_tragets\"");
        assert!(OptimizationCampaign::from_json(&json).is_err());
        assert!(YieldBackendSpec::parse("spice").is_err());
        for b in [YieldBackendSpec::Analytic, YieldBackendSpec::Netlist] {
            assert_eq!(YieldBackendSpec::parse(b.keyword()).unwrap(), b);
        }
    }
}
