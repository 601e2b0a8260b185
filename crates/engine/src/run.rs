//! The sweep's execution pieces — scenario preparation, trial-block
//! scheduling — plus the engine's shared worker pool.
//!
//! ## Execution model
//!
//! A sweep is a [`crate::workload::Workload`]: it expands to scenario
//! units, and each unit's Monte-Carlo budget is chunked into fixed-size
//! **trial blocks** — the unit's steps, and the pool's scheduling
//! grain. A pool of `std::thread` workers pulls steps from a shared
//! cursor and sends finished [`PipelineBlockStats`] back over an `mpsc`
//! channel; the unified runner ([`crate::workload::run_units`]) merges
//! each scenario's blocks **in block order** the moment they become
//! contiguous, so memory stays O(scenarios + in-flight blocks) and the
//! merged moments are bit-identical to a sequential run regardless of
//! worker count or arrival order.
//!
//! Per-trial RNG streams are counter-based (see [`crate::seed`]), so
//! the chunking itself has no effect on any trial's randomness.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

use vardelay_circuit::CellLibrary;
use vardelay_core::{Pipeline, StageDelay};
use vardelay_mc::{HistogramSpec, PipelineBlockStats, PipelineMc, TrialWorkspace};
use vardelay_ssta::SstaEngine;
use vardelay_stats::{CorrelationMatrix, MultivariateNormal};

use crate::plan::{ScenarioPlan, SweepPlan};
use crate::result::{
    AnalyticSummary, McSummary, McYield, ModelFromMc, ScenarioResult, SweepResult, TargetYield,
};
use crate::seed::fnv1a64;
use crate::sim::{GateLevelSim, MvnSim, Simulator};
use crate::spec::{BackendSpec, PipelineSpec, Scenario, StrategySpec, Sweep, VariationSpec};
use crate::workload::{run_workload, StepContext, Workload, WorkloadOptions};

/// Sweep execution error: an invalid scenario spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError(String);

impl EngineError {
    /// Creates an error from a message (sink callbacks handed to
    /// [`crate::workload::run_units`] surface their I/O failures this
    /// way).
    pub fn new(msg: impl Into<String>) -> Self {
        EngineError(msg.into())
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for EngineError {}

/// Trials per scheduling block.
///
/// A fixed engine constant, deliberately **not** configurable: the
/// block partition is part of the floating-point merge tree, so fixing
/// it (together with in-order merging and counter-based seeds) is what
/// makes results a pure function of the sweep spec. 256 trials is
/// coarse enough to amortize dispatch and fine enough to load-balance
/// scenarios of a few thousand trials across many workers.
pub const BLOCK_TRIALS: u64 = 256;

/// Per-scenario Monte-Carlo trial cap.
///
/// User JSON must fail softly, and the work-item list materializes one
/// entry per [`BLOCK_TRIALS`] trials — an absurd trial count would
/// abort on allocation long after days of compute. 100M trials
/// (~400k work items) is orders of magnitude beyond the paper's
/// budgets while keeping scheduling state negligible.
pub const MAX_TRIALS: u64 = 100_000_000;

/// Cap on a scenario's `histogram_bins` — enough for any plot while
/// keeping block messages small.
pub const MAX_HISTOGRAM_BINS: usize = 4_096;

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads; 1 runs everything on the calling thread. Has no
    /// effect on results, only on wall-clock time.
    pub workers: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }
}

impl SweepOptions {
    /// Sequential execution (the determinism baseline).
    pub fn sequential() -> Self {
        SweepOptions { workers: 1 }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// The engine's shared worker pool: runs `items` indexed work functions
/// over `workers` threads (on the calling thread when `workers <= 1`),
/// feeding each finished result to `consume` on the calling thread as it
/// arrives.
///
/// Work is claimed through an atomic cursor, so results arrive in
/// arbitrary order — callers needing order must buffer (the workload
/// runner's in-order step folder). Each
/// worker owns one grow-only [`TrialWorkspace`] reused across every
/// item it claims, which is what keeps gate-level trial blocks
/// allocation-free in the steady state. Determinism contract: `work`
/// must be a pure function of its index, so the pool's scheduling can
/// never leak into results.
///
/// `consume` returning `false` cancels the pool: workers stop claiming
/// new items (items already executing still finish and are consumed),
/// so a sink failure doesn't burn hours of Monte-Carlo whose results
/// have nowhere to go.
pub(crate) fn dispatch<T: Send>(
    items: usize,
    workers: usize,
    work: impl Fn(usize, &mut TrialWorkspace) -> T + Sync,
    mut consume: impl FnMut(usize, T) -> bool,
) {
    let workers = workers.max(1).min(items.max(1));
    if workers <= 1 {
        let _worker = vardelay_obs::span("pool", "worker").value(0.0);
        let mut ws = TrialWorkspace::new();
        for k in 0..items {
            let out = {
                let _exec = vardelay_obs::span("pool", "exec");
                work(k, &mut ws)
            };
            if !consume(k, out) {
                return;
            }
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let cancel = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        let work = &work;
        let cursor = &cursor;
        let cancel = &cancel;
        for wi in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                {
                    let _worker = vardelay_obs::span("pool", "worker").value(wi as f64);
                    let mut ws = TrialWorkspace::new();
                    loop {
                        if cancel.load(Ordering::Relaxed) {
                            break;
                        }
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= items {
                            break;
                        }
                        let out = {
                            let _exec = vardelay_obs::span("pool", "exec");
                            work(k, &mut ws)
                        };
                        if tx.send((k, out)).is_err() {
                            break; // receiver gone; nothing left to report
                        }
                    }
                }
                // The scope unblocks when this closure returns, before
                // thread-local destructors run — flush now so a session
                // finishing right after the pool cannot miss this
                // thread's buffer.
                vardelay_obs::flush_thread();
            });
        }
        drop(tx);
        loop {
            let received = {
                let _wait = vardelay_obs::span("pool", "recv_wait");
                rx.recv()
            };
            let Ok((k, out)) = received else { break };
            if !consume(k, out) {
                cancel.store(true, Ordering::Relaxed);
            }
        }
    });
}

/// A scenario with everything resolved and built, ready to execute —
/// the sweep's [`Workload`] unit. Construction is crate-internal
/// (through [`Workload::build`]).
pub struct Prepared {
    pub(crate) scenario: Scenario,
    pub(crate) id: u64,
    /// Explicit targets followed by analytic-derived ones.
    pub(crate) targets: Vec<f64>,
    /// The analytic pipeline model (SSTA- or moments-based).
    analytic: Pipeline,
    /// Stage correlation used for `model_from_mc`.
    correlation: CorrelationMatrix,
    stage_count: usize,
    /// Total gates across all stage netlists (0 for moment-form).
    pub(crate) gates: usize,
    /// The fixed-range histogram layout, when the scenario streams one.
    histogram: Option<HistogramSpec>,
    /// The simulation backend; `None` when the scenario is closed-form
    /// only (zero trials, or the `analytic` backend).
    pub(crate) sim: Option<Box<dyn Simulator>>,
}

/// The spec-level checks of one scenario — everything that can reject
/// it without building anything. They run before generators and
/// process models are touched (those assert on out-of-domain values,
/// and user JSON must fail softly) and before the scenario is hashed
/// (serialization rejects non-finite floats).
fn check_scenario(scenario: &Scenario) -> Result<(), EngineError> {
    let label = &scenario.label;
    scenario
        .pipeline
        .validate()
        .map_err(|e| EngineError::new(format!("scenario '{label}': {e}")))?;
    scenario
        .variation
        .validate()
        .map_err(|e| EngineError::new(format!("scenario '{label}': variation: {e}")))?;
    if scenario
        .yield_targets
        .iter()
        .chain(&scenario.auto_target_sigmas)
        .any(|t| !t.is_finite())
    {
        return Err(EngineError::new(format!(
            "scenario '{label}': yield targets must be finite"
        )));
    }
    // Moment-form stages already carry their total (μ, σ): the process
    // model has nowhere to act, so a non-Nominal variation would be
    // silently ignored — reject it instead.
    if matches!(scenario.pipeline, PipelineSpec::Moments { .. })
        && scenario.variation != VariationSpec::Nominal
    {
        return Err(EngineError::new(format!(
            "scenario '{label}': Moments pipelines encode variation in their stage sigmas; \
             set variation to Nominal"
        )));
    }
    if scenario.trials > MAX_TRIALS {
        return Err(EngineError::new(format!(
            "scenario '{label}': trials {} exceeds the per-scenario cap of {MAX_TRIALS}",
            scenario.trials
        )));
    }
    // Backend compatibility: each mismatch would otherwise be silently
    // ignored or panic deep in a generator.
    if scenario.backend == BackendSpec::Analytic && scenario.trials > 0 {
        return Err(EngineError::new(format!(
            "scenario '{label}': the analytic backend is closed-form; set trials to 0 \
             (pair it with a netlist-backend twin for model-vs-MC deltas)"
        )));
    }
    if scenario.backend == BackendSpec::Netlist
        && matches!(scenario.pipeline, PipelineSpec::Moments { .. })
    {
        return Err(EngineError::new(format!(
            "scenario '{label}': the netlist backend times gates; Moments pipelines have \
             none (use the pipeline backend)"
        )));
    }
    if scenario.histogram_bins > 0 && scenario.trials == 0 {
        return Err(EngineError::new(format!(
            "scenario '{label}': a delay histogram needs Monte-Carlo trials"
        )));
    }
    if scenario.histogram_bins > MAX_HISTOGRAM_BINS {
        return Err(EngineError::new(format!(
            "scenario '{label}': histogram_bins {} exceeds the cap of {MAX_HISTOGRAM_BINS}",
            scenario.histogram_bins
        )));
    }
    scenario
        .trial_plan
        .validate()
        .map_err(|e| EngineError::new(format!("scenario '{label}': trials: {e}")))?;
    if scenario.trial_plan.ci_half_width.is_some() {
        return Err(EngineError::new(format!(
            "scenario '{label}': ci_half_width applies to campaign verification \
             (verify_trials); scenarios always run their full trial budget"
        )));
    }
    let strategy = scenario.trial_plan.strategy;
    if strategy != StrategySpec::Plain {
        if scenario.trials == 0 {
            return Err(EngineError::new(format!(
                "scenario '{label}': the '{}' trial strategy shapes Monte-Carlo draws; \
                 set trials > 0",
                strategy.keyword()
            )));
        }
        // Gate-level strategies act on die-level variation dimensions;
        // a variation mix without them would make the plan a silent
        // no-op (or, for blockade, shift nothing while still
        // reweighting). Moment-form pipelines always expose their
        // stage dimensions, so they accept every strategy.
        if !matches!(scenario.pipeline, PipelineSpec::Moments { .. }) {
            let cfg = scenario.variation.to_config();
            match strategy {
                StrategySpec::Blockade if !cfg.has_inter() => {
                    return Err(EngineError::new(format!(
                        "scenario '{label}': blockade shifts the inter-die component, but \
                         the variation has none (use an inter_only or combined variation)"
                    )));
                }
                StrategySpec::Stratified | StrategySpec::Sobol
                    if !(cfg.has_inter() || cfg.has_systematic()) =>
                {
                    return Err(EngineError::new(format!(
                        "scenario '{label}': the '{}' strategy stratifies die-level \
                         (inter-die/systematic) dimensions, but the variation has none",
                        strategy.keyword()
                    )));
                }
                StrategySpec::Antithetic if scenario.variation == VariationSpec::Nominal => {
                    return Err(EngineError::new(format!(
                        "scenario '{label}': antithetic pairing reflects variation draws; \
                         a Nominal scenario has none"
                    )));
                }
                _ => {}
            }
        }
    }
    if scenario.trial_plan.to_plan().is_weighted() && scenario.histogram_bins > 0 {
        return Err(EngineError::new(format!(
            "scenario '{label}': histograms stream raw (mean-shifted) blockade samples, \
             which would misrepresent the unshifted distribution; drop histogram_bins"
        )));
    }
    Ok(())
}

/// Builds a checked scenario: stage netlists, SSTA and the analytic
/// model, auto-targets, histogram layout, and the compiled simulator.
fn build_scenario(scenario: Scenario, sweep_seed: u64) -> Result<Prepared, EngineError> {
    let label = &scenario.label;
    let id = scenario.id(sweep_seed);
    let variation = scenario.variation.to_config();

    let (analytic, correlation, gates, sim) = match &scenario.pipeline {
        PipelineSpec::Moments { stages, rho } => {
            let delays: Vec<StageDelay> = stages
                .iter()
                .map(|m| {
                    StageDelay::from_moments(m.mu_ps, m.sigma_ps)
                        .map_err(|e| EngineError::new(format!("scenario '{label}': {e}")))
                })
                .collect::<Result<_, _>>()?;
            let pipe = Pipeline::equicorrelated(delays, *rho)
                .map_err(|e| EngineError::new(format!("scenario '{label}': {e}")))?;
            let corr = pipe.correlation().clone();
            let sim: Option<Box<dyn Simulator>> = if scenario.trials > 0 {
                let means: Vec<f64> = stages.iter().map(|m| m.mu_ps).collect();
                let sds: Vec<f64> = stages.iter().map(|m| m.sigma_ps).collect();
                let mvn =
                    MultivariateNormal::from_correlation(&means, &sds, &corr).map_err(|e| {
                        EngineError::new(format!(
                            "scenario '{label}': moments not Monte-Carlo-samplable: {e}"
                        ))
                    })?;
                Some(Box::new(MvnSim::new(
                    mvn,
                    scenario.kernel.to_kernel(),
                    scenario.trial_plan.to_plan(),
                )))
            } else {
                None
            };
            (pipe, corr, 0, sim)
        }
        spec => {
            let staged = spec
                .build(label)
                .expect("non-moment specs build a pipeline");
            let gates = staged.total_gates();
            let engine = SstaEngine::new(CellLibrary::default(), variation, None);
            let timing = engine.analyze_pipeline(&staged);
            let delays: Vec<StageDelay> = timing
                .stage_delays
                .iter()
                .map(|n| StageDelay::from_normal(*n))
                .collect();
            let pipe = Pipeline::new(delays, timing.correlation.clone())
                .map_err(|e| EngineError::new(format!("scenario '{label}': {e}")))?;
            let sim: Option<Box<dyn Simulator>> = (scenario.trials > 0).then(|| {
                let mc = PipelineMc::new(CellLibrary::default(), variation, None)
                    .with_kernel(scenario.kernel.to_kernel());
                // The `pipeline` and `netlist` keywords both run the
                // prepared gate-level path; `analytic` rejected trials.
                let plan = scenario.trial_plan.to_plan();
                Box::new(GateLevelSim::new(&mc, &staged, plan)) as _
            });
            (pipe, timing.correlation, gates, sim)
        }
    };

    let d = analytic.delay_distribution();
    let mut targets = scenario.yield_targets.clone();
    targets.extend(
        scenario
            .auto_target_sigmas
            .iter()
            .map(|k| (d.mean() + k * d.sd()).round()),
    );
    // Histogram bounds come from the analytic model — spec-determined,
    // so the layout (and with it the result bytes) never depends on the
    // trials themselves. ±6σ covers the exact max's right tail; the
    // 1 ps floor keeps nominal (σ = 0) scenarios binnable.
    let histogram = (scenario.histogram_bins > 0).then(|| {
        let half = (6.0 * d.sd()).max(1.0);
        HistogramSpec {
            lo: d.mean() - half,
            hi: d.mean() + half,
            bins: scenario.histogram_bins,
        }
    });

    Ok(Prepared {
        stage_count: scenario.pipeline.stage_count(),
        scenario,
        id,
        targets,
        analytic,
        correlation,
        gates,
        histogram,
        sim,
    })
}

/// Runs one block of trials of one prepared scenario.
fn run_block(p: &Prepared, ws: &mut TrialWorkspace, trials: Range<u64>) -> PipelineBlockStats {
    let n = trials.end.saturating_sub(trials.start);
    // Per-kernel (and per-strategy) span/counter names let `vardelay
    // report` attribute Monte-Carlo time and trial counts to each
    // contract. `span`/`counter` take &'static str, so the names are
    // fixed literals selected by match.
    use crate::spec::KernelSpec as K;
    use crate::spec::StrategySpec as S;
    let strategy = p.scenario.trial_plan.strategy;
    let (span_name, kernel_counter) = match (p.scenario.kernel, strategy) {
        (K::V1, S::Plain) => ("block", "trials"),
        (K::V3, S::Plain) => ("block_v3", "trials_v3"),
        (K::V1, S::Antithetic) => ("block_antithetic", "trials"),
        (K::V3, S::Antithetic) => ("block_antithetic_v3", "trials_v3"),
        (K::V1, S::Stratified) => ("block_stratified", "trials"),
        (K::V3, S::Stratified) => ("block_stratified_v3", "trials_v3"),
        (K::V1, S::Sobol) => ("block_sobol", "trials"),
        (K::V3, S::Sobol) => ("block_sobol_v3", "trials_v3"),
        (K::V1, S::Blockade) => ("block_blockade", "trials"),
        (K::V3, S::Blockade) => ("block_blockade_v3", "trials_v3"),
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
        .value(n as f64);
    let mut stats = PipelineBlockStats::new(p.stage_count, &p.targets);
    if let Some(spec) = p.histogram {
        stats = stats.with_histogram(spec);
    }
    if p.scenario.trial_plan.to_plan().is_weighted() {
        stats = stats.with_weighted_tail();
    }
    let sim = p.sim.as_ref().expect("blocks only exist for MC scenarios");
    sim.run_block(ws, p.id, trials, &mut stats);
    vardelay_obs::counter(kernel_counter, n);
    if let Some(name) = strategy_counter {
        vardelay_obs::counter(name, n);
    }
    stats
}

/// A sweep is a [`Workload`]: units are prepared scenarios, steps are
/// fixed-size trial blocks folded in block order, and the report is the
/// familiar [`SweepResult`]. Every production feature of the unified
/// pipeline — worker pools, `--shard`, checkpoint/resume — applies to
/// sweeps through this impl.
impl Workload for Sweep {
    type UnitSpec = Scenario;
    type Unit = Prepared;
    type StepOut = PipelineBlockStats;
    type Acc = Option<PipelineBlockStats>;
    type UnitResult = ScenarioResult;
    type Report = SweepResult;
    type UnitPlan = ScenarioPlan;
    type Plan = SweepPlan;

    fn name(&self) -> &str {
        &self.name
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn unit_noun(&self) -> &'static str {
        "scenario"
    }

    fn check(&self) -> Result<Vec<Scenario>, EngineError> {
        self.expand()
            .into_iter()
            .map(|s| check_scenario(&s).map(|()| s))
            .collect()
    }

    fn build(&self, scenario: Scenario) -> Result<Prepared, EngineError> {
        build_scenario(scenario, self.seed)
    }

    fn unit_key(&self, scenario: &Scenario) -> u64 {
        // NOT the scenario ID: the ID deliberately excludes `backend`
        // and `histogram_bins` (execution strategy — flipping them
        // replays identical trial streams), but the journal key must
        // distinguish two such twins because their *result bytes*
        // differ (echoed spec, histogram field). Hash the full spec.
        let json = serde_json::to_string(scenario).expect("checked scenarios are finite");
        fnv1a64(json.as_bytes()) ^ self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn unit_steps(&self, unit: &Prepared) -> usize {
        if unit.sim.is_some() {
            usize::try_from(unit.scenario.trials.div_ceil(BLOCK_TRIALS))
                .expect("MAX_TRIALS bounds the block count")
        } else {
            0
        }
    }

    fn step_trials(&self, unit: &Prepared, step: usize) -> u64 {
        let start = step as u64 * BLOCK_TRIALS;
        (start + BLOCK_TRIALS).min(unit.scenario.trials) - start
    }

    fn init_acc(&self, _unit: &Prepared) -> Option<PipelineBlockStats> {
        None
    }

    fn run_step(
        &self,
        unit: &Prepared,
        step: usize,
        ws: &mut TrialWorkspace,
        _ctx: StepContext,
    ) -> PipelineBlockStats {
        let start = step as u64 * BLOCK_TRIALS;
        let end = (start + BLOCK_TRIALS).min(unit.scenario.trials);
        run_block(unit, ws, start..end)
    }

    fn fold_step(
        &self,
        _unit: &Prepared,
        acc: &mut Option<PipelineBlockStats>,
        out: PipelineBlockStats,
    ) {
        match acc {
            None => *acc = Some(out),
            Some(merged) => merged.merge(&out),
        }
    }

    fn finish_unit(&self, unit: &Prepared, acc: Option<PipelineBlockStats>) -> ScenarioResult {
        finalize(unit, acc)
    }

    fn assemble(&self, results: Vec<ScenarioResult>) -> SweepResult {
        SweepResult {
            name: self.name.clone(),
            seed: self.seed,
            scenarios: results,
        }
    }

    fn plan_unit(&self, unit: &Prepared) -> ScenarioPlan {
        let (trials, blocks) = if unit.sim.is_some() {
            (
                unit.scenario.trials,
                unit.scenario.trials.div_ceil(BLOCK_TRIALS),
            )
        } else {
            (0, 0)
        };
        ScenarioPlan {
            id: format!("{:016x}", unit.id),
            label: unit.scenario.label.clone(),
            backend: unit.scenario.backend,
            kernel: unit.scenario.kernel,
            strategy: unit.scenario.trial_plan.label(),
            stages: unit.scenario.pipeline.stage_count(),
            gates: unit.gates,
            trials,
            blocks,
            targets: unit.targets.len(),
            est_trial_cost: crate::plan::estimated_trial_cost(
                unit.scenario.kernel,
                unit.scenario.trial_plan.strategy,
                unit.gates,
                unit.scenario.pipeline.stage_count(),
                crate::plan::leading_dims(&unit.scenario.pipeline, unit.scenario.variation),
            ),
        }
    }

    fn assemble_plan(&self, rows: Vec<ScenarioPlan>) -> SweepPlan {
        let total_trials = rows.iter().map(|r| r.trials).sum();
        let total_blocks = rows.iter().map(|r| r.blocks).sum();
        SweepPlan {
            name: self.name.clone(),
            seed: self.seed,
            scenarios: rows,
            total_trials,
            total_blocks,
        }
    }
}

/// Executes a sweep and assembles per-scenario results.
///
/// Thin wrapper over the unified [`run_workload`] pipeline. Results are
/// bit-identical for any `opts.workers` — the spec (including its seed)
/// alone determines every number.
///
/// # Errors
///
/// Returns an [`EngineError`] naming the first invalid scenario.
pub fn run_sweep(sweep: &Sweep, opts: &SweepOptions) -> Result<SweepResult, EngineError> {
    run_workload(
        sweep,
        &WorkloadOptions::sequential().with_workers(opts.workers),
    )
}

fn finalize(p: &Prepared, stats: Option<PipelineBlockStats>) -> ScenarioResult {
    let d = p.analytic.delay_distribution();
    let analytic = AnalyticSummary {
        mean_ps: d.mean(),
        sd_ps: d.sd(),
        variability: d.sd() / d.mean(),
        jensen_lower_bound_ps: p.analytic.jensen_lower_bound(),
        yields: p
            .targets
            .iter()
            .map(|&t| TargetYield {
                target_ps: t,
                value: p.analytic.yield_at(t),
            })
            .collect(),
    };

    let mc = stats.map(|stats| {
        let pd = stats.pipeline();
        let stage_means: Vec<f64> = stats.stage_stats().iter().map(|s| s.mean()).collect();
        let stage_sds: Vec<f64> = stats.stage_stats().iter().map(|s| s.sample_sd()).collect();
        // Weighted (blockade) runs: the raw moments describe the
        // *mean-shifted* sampling distribution, so re-deriving Clark's
        // model from them would be biased — suppress it, and take the
        // yields from the reweighted estimator instead. The effective
        // sample size is surfaced through the metrics layer (`ess`
        // counter) rather than the byte-stable result schema.
        let weighted = stats.has_weighted_tail();
        let model_from_mc = if weighted {
            None
        } else {
            build_model_from_mc(&stage_means, &stage_sds, &p.correlation, &p.targets)
        };
        if weighted {
            vardelay_obs::counter("ess", stats.effective_samples().round() as u64);
        }
        McSummary {
            trials: stats.trials(),
            mean_ps: pd.mean(),
            sd_ps: pd.sample_sd(),
            variability: pd.variability(),
            min_ps: pd.min(),
            max_ps: pd.max(),
            skewness: pd.skewness(),
            excess_kurtosis: pd.excess_kurtosis(),
            stage_means,
            stage_sds,
            yields: (0..p.targets.len())
                .map(|i| {
                    let y = if weighted {
                        stats.weighted_yield_estimate(i)
                    } else {
                        stats.yield_estimate(i)
                    };
                    McYield {
                        target_ps: p.targets[i],
                        value: y.value,
                        lo: y.lo,
                        hi: y.hi,
                    }
                })
                .collect(),
            model_from_mc,
            histogram: stats.histogram().cloned(),
        }
    });

    ScenarioResult {
        id: format!("{:016x}", p.id),
        label: p.scenario.label.clone(),
        backend: p.scenario.backend,
        scenario: p.scenario.clone(),
        targets_ps: p.targets.clone(),
        analytic,
        mc,
    }
}

pub(crate) fn build_model_from_mc(
    means: &[f64],
    sds: &[f64],
    correlation: &CorrelationMatrix,
    targets: &[f64],
) -> Option<ModelFromMc> {
    let stages: Vec<StageDelay> = means
        .iter()
        .zip(sds)
        .map(|(&m, &s)| StageDelay::from_moments(m, s).ok())
        .collect::<Option<_>>()?;
    let pipe = Pipeline::new(stages, correlation.clone()).ok()?;
    let d = pipe.delay_distribution();
    Some(ModelFromMc {
        mean_ps: d.mean(),
        sd_ps: d.sd(),
        yields: targets
            .iter()
            .map(|&t| TargetYield {
                target_ps: t,
                value: pipe.yield_at(t),
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        KernelSpec, LatchSpec, PipelineSpec, StageMoments, TrialPlanSpec, VariationSpec,
    };

    fn tiny_sweep(trials: u64) -> Sweep {
        Sweep {
            name: "tiny".to_owned(),
            seed: 11,
            scenarios: vec![
                Scenario {
                    label: "moments".to_owned(),
                    pipeline: PipelineSpec::Moments {
                        stages: vec![
                            StageMoments {
                                mu_ps: 100.0,
                                sigma_ps: 4.0,
                            },
                            StageMoments {
                                mu_ps: 102.0,
                                sigma_ps: 5.0,
                            },
                            StageMoments {
                                mu_ps: 98.0,
                                sigma_ps: 3.0,
                            },
                        ],
                        rho: 0.3,
                    },
                    variation: VariationSpec::Nominal,
                    trials,
                    trial_plan: TrialPlanSpec::default(),
                    yield_targets: vec![110.0],
                    auto_target_sigmas: vec![1.0],
                    backend: BackendSpec::Pipeline,
                    kernel: KernelSpec::default(),
                    histogram_bins: 0,
                },
                Scenario {
                    label: "grid".to_owned(),
                    pipeline: PipelineSpec::InverterGrid {
                        stages: 3,
                        depth: 4,
                        size: 1.0,
                        latch: LatchSpec::Ideal,
                    },
                    variation: VariationSpec::RandomOnly { sigma_mv: 35.0 },
                    trials,
                    trial_plan: TrialPlanSpec::default(),
                    yield_targets: vec![],
                    auto_target_sigmas: vec![1.2],
                    backend: BackendSpec::Pipeline,
                    kernel: KernelSpec::default(),
                    histogram_bins: 0,
                },
            ],
            grid: None,
        }
    }

    #[test]
    fn analytic_only_when_no_trials() {
        let res = run_sweep(&tiny_sweep(0), &SweepOptions::sequential()).unwrap();
        assert_eq!(res.scenarios.len(), 2);
        for s in &res.scenarios {
            assert!(s.mc.is_none());
            assert!(s.analytic.mean_ps > 0.0);
            assert_eq!(s.targets_ps.len(), s.analytic.yields.len());
        }
    }

    #[test]
    fn mc_tracks_analytic_model() {
        let res = run_sweep(&tiny_sweep(4_000), &SweepOptions::default()).unwrap();
        for s in &res.scenarios {
            let mc = s.mc.as_ref().expect("trials requested");
            assert_eq!(mc.trials, 4_000);
            let rel = (mc.mean_ps - s.analytic.mean_ps).abs() / s.analytic.mean_ps;
            assert!(
                rel < 0.02,
                "{}: MC mean {} vs model {}",
                s.label,
                mc.mean_ps,
                s.analytic.mean_ps
            );
            let model = mc.model_from_mc.as_ref().expect("stage moments are valid");
            assert!((model.mean_ps - mc.mean_ps).abs() / mc.mean_ps < 0.02);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // 1000 trials > BLOCK_TRIALS, so the parallel runs genuinely
        // interleave blocks of the same scenario across workers.
        let sweep = tiny_sweep(1_000);
        let seq = run_sweep(&sweep, &SweepOptions::sequential()).unwrap();
        let par = run_sweep(&sweep, &SweepOptions { workers: 8 }).unwrap();
        let odd = run_sweep(&sweep, &SweepOptions { workers: 3 }).unwrap();
        assert_eq!(seq, par, "1 vs 8 workers");
        assert_eq!(seq, odd, "1 vs 3 workers");
    }

    #[test]
    fn auto_targets_resolve_from_the_analytic_model() {
        let res = run_sweep(&tiny_sweep(0), &SweepOptions::sequential()).unwrap();
        let s = &res.scenarios[0];
        assert_eq!(s.targets_ps.len(), 2);
        assert_eq!(s.targets_ps[0], 110.0);
        let a = &s.analytic;
        assert_eq!(s.targets_ps[1], (a.mean_ps + a.sd_ps).round());
    }

    #[test]
    fn invalid_specs_are_rejected_with_context() {
        let mut sweep = tiny_sweep(0);
        sweep.scenarios[0].pipeline = PipelineSpec::Moments {
            stages: vec![StageMoments {
                mu_ps: 100.0,
                sigma_ps: -1.0,
            }],
            rho: 0.0,
        };
        let err = run_sweep(&sweep, &SweepOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("moments"), "{err}");
    }

    #[test]
    fn out_of_domain_netlist_specs_error_instead_of_panicking() {
        // The circuit generators and process model assert on these;
        // user-supplied JSON must come back as EngineError instead.
        let reject = |pipeline: Option<PipelineSpec>, variation: Option<VariationSpec>| {
            let mut sweep = tiny_sweep(0);
            if let Some(p) = pipeline {
                sweep.scenarios[1].pipeline = p;
            }
            if let Some(v) = variation {
                sweep.scenarios[1].variation = v;
            }
            let err = run_sweep(&sweep, &SweepOptions::sequential()).unwrap_err();
            assert!(err.to_string().contains("grid"), "{err}");
        };
        let grid = |stages, depth, size| {
            Some(PipelineSpec::InverterGrid {
                stages,
                depth,
                size,
                latch: LatchSpec::Ideal,
            })
        };
        reject(grid(0, 4, 1.0), None);
        reject(grid(3, 0, 1.0), None);
        reject(grid(3, 4, 0.0), None);
        reject(grid(3, 4, -2.0), None);
        reject(grid(3, 4, f64::NAN), None);
        reject(
            Some(PipelineSpec::InverterStages {
                depths: vec![3, 0],
                size: 1.0,
                latch: LatchSpec::Ideal,
            }),
            None,
        );
        reject(
            Some(PipelineSpec::InverterStages {
                depths: vec![],
                size: 1.0,
                latch: LatchSpec::Ideal,
            }),
            None,
        );
        reject(None, Some(VariationSpec::RandomOnly { sigma_mv: -5.0 }));
        reject(
            None,
            Some(VariationSpec::Combined {
                inter_mv: 20.0,
                random_mv: 35.0,
                systematic_mv: f64::NAN,
            }),
        );
    }

    #[test]
    fn moments_with_non_nominal_variation_rejected() {
        // The process model has nowhere to act on moment-form stages;
        // silently ignoring the field would mislead users.
        let mut sweep = tiny_sweep(0);
        sweep.scenarios[0].variation = VariationSpec::RandomOnly { sigma_mv: 35.0 };
        let err = run_sweep(&sweep, &SweepOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("Nominal"), "{err}");
    }

    #[test]
    fn absurd_trial_counts_rejected() {
        let mut sweep = tiny_sweep(0);
        sweep.scenarios[1].trials = MAX_TRIALS + 1;
        let err = run_sweep(&sweep, &SweepOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }
}
