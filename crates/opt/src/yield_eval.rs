//! Pluggable pipeline-yield evaluation for the Fig. 9 sizing loop.
//!
//! The global flow repeatedly asks one question — *what is the pipeline
//! yield of this candidate design at the target delay?* — and the paper
//! answers it two ways: the analytic Clark/SSTA model drives the flow
//! itself (fast, closed-form), while Monte-Carlo provides the "actual
//! yield" cross-check of Table II. [`PipelineYieldEval`] makes that
//! question a backend, mirroring the sweep engine's `Simulator`
//! abstraction: the optimizer is generic over *how* yield is measured,
//! so a campaign can run the paper flow on the analytic model, re-run it
//! with gate-level Monte-Carlo in the loop, and report both predictions
//! side by side.
//!
//! Two backends ship:
//!
//! * [`AnalyticYieldEval`] — eq. 9 on the Clark-approximated pipeline
//!   delay (the paper flow; free, deterministic).
//! * [`NetlistMcYieldEval`] — gate-level Monte-Carlo on the
//!   allocation-free [`PreparedPipelineMc`] hot path with counter-based
//!   per-trial seeds, so a fixed `(run id, evaluation index)` pair
//!   reproduces bit-identical yield numbers on any thread.

use std::cell::{Cell, RefCell};

use vardelay_circuit::StagedPipeline;
use vardelay_core::yield_correlated;
use vardelay_mc::{PipelineMc, PreparedPipelineMc, TrialStrategy, TrialWorkspace};
use vardelay_ssta::PipelineTiming;
use vardelay_stats::counter_seed;

/// A pipeline-yield measurement backend for the sizing loop.
///
/// Implementations must be deterministic functions of their construction
/// parameters and the call sequence: the optimizer's trajectory (and with
/// it every campaign result) must not depend on threads or wall clock.
pub trait PipelineYieldEval {
    /// Pipeline yield of `pipeline` at `target_ps`.
    ///
    /// `timing` is a fresh full-pipeline SSTA analysis of the same
    /// design, which the analytic backend consumes for free and
    /// Monte-Carlo backends may ignore.
    fn pipeline_yield(
        &self,
        pipeline: &StagedPipeline,
        timing: &PipelineTiming,
        target_ps: f64,
    ) -> f64;

    /// Short backend name for reports.
    fn label(&self) -> &'static str;
}

/// The paper flow's closed-form backend: Clark max over the SSTA stage
/// moments/correlations, Gaussian yield at the target (eqs. 4–9).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticYieldEval;

impl AnalyticYieldEval {
    /// Eq.-9 pipeline yield of a timing analysis at `target_ps` — the
    /// shared analytic evaluation also used for campaign predictions.
    ///
    /// Borrow-based: the Clark max runs directly over the analysis's
    /// stage moments and correlation matrix, with no matrix clone and no
    /// intermediate [`vardelay_core::Pipeline`] construction — this is
    /// an in-loop query, called once per sizing round per candidate
    /// design. (The previous implementation rebuilt a `Pipeline` per
    /// call; `StageDelay` wraps `Normal` transparently, so the number is
    /// bit-identical.)
    pub fn yield_of(timing: &PipelineTiming, target_ps: f64) -> f64 {
        yield_correlated(&timing.stage_delays, &timing.correlation, target_ps)
    }
}

impl PipelineYieldEval for AnalyticYieldEval {
    fn pipeline_yield(
        &self,
        _pipeline: &StagedPipeline,
        timing: &PipelineTiming,
        target_ps: f64,
    ) -> f64 {
        AnalyticYieldEval::yield_of(timing, target_ps)
    }

    fn label(&self) -> &'static str {
        "analytic"
    }
}

/// Salt mixed into the evaluation seed stream so in-loop yield trials
/// never collide with a campaign's verification trials (which hash the
/// same run id).
const EVAL_SALT: u64 = 0x0F19_9E1D_EA71_0001; // "fig-9 yield eval"

/// Per-evaluation trial cap. Trials are packed into the low bits of the
/// counter (`evaluation_index << EVAL_TRIAL_BITS | trial`), so the cap
/// is what keeps streams collision-free; ~1M trials per in-loop
/// evaluation is far beyond any useful sizing-loop budget.
pub const MAX_EVAL_TRIALS: u64 = 1 << EVAL_TRIAL_BITS;
const EVAL_TRIAL_BITS: u32 = 20;

/// Gate-level Monte-Carlo yield evaluation on the prepared zero-
/// allocation hot path.
///
/// Calls are change-driven: the compiled pipeline is kept between yield
/// queries and [`PreparedPipelineMc::reprepare`] recompiles only the
/// stages whose netlist actually changed since the previous query — in
/// the Fig. 9 loop that is typically the one stage the sizer just
/// touched, not the whole design. Each call runs `trials` counter-seeded
/// trials; the evaluation index advances per call, giving every
/// sizing-loop query its own reproducible stream.
#[derive(Debug)]
pub struct NetlistMcYieldEval {
    mc: PipelineMc,
    trials: u64,
    run_id: u64,
    evals: Cell<u64>,
    /// The compiled pipeline of the previous query, re-prepared in place
    /// (stage-wise) on each call.
    prepared: RefCell<Option<PreparedPipelineMc>>,
    /// Grow-only scratch reused across yield queries.
    ws: RefCell<TrialWorkspace>,
}

impl NetlistMcYieldEval {
    /// Creates an evaluator over `mc`'s library/variation with `trials`
    /// Monte-Carlo trials per yield query, seeded from `run_id`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < trials <= MAX_EVAL_TRIALS`.
    pub fn new(mc: PipelineMc, trials: u64, run_id: u64) -> Self {
        assert!(
            trials > 0 && trials <= MAX_EVAL_TRIALS,
            "eval trials must be in 1..={MAX_EVAL_TRIALS}, got {trials}"
        );
        NetlistMcYieldEval {
            mc,
            trials,
            run_id,
            evals: Cell::new(0),
            prepared: RefCell::new(None),
            ws: RefCell::new(TrialWorkspace::new()),
        }
    }

    /// Yield evaluations served so far.
    pub fn evals(&self) -> u64 {
        self.evals.get()
    }
}

impl PipelineYieldEval for NetlistMcYieldEval {
    fn pipeline_yield(
        &self,
        pipeline: &StagedPipeline,
        _timing: &PipelineTiming,
        target_ps: f64,
    ) -> f64 {
        // Kernel attributes keep each kernel's Monte-Carlo time separately
        // attributable in `vardelay report` / `--metrics`; in-loop
        // evaluation draws plain trials.
        let kernel = self.mc.kernel().name();
        let _sp = vardelay_obs::span("opt", "yield_eval")
            .attrs(vardelay_obs::Attrs::of_kernel(kernel))
            .key(self.run_id)
            .value(self.trials as f64);
        let e = self.evals.get();
        self.evals.set(e + 1);
        let mut slot = self.prepared.borrow_mut();
        let prepared = match slot.as_mut() {
            Some(p) => {
                p.reprepare(pipeline);
                p
            }
            None => slot.insert(PreparedPipelineMc::new(&self.mc, pipeline)),
        };
        let mut ws = self.ws.borrow_mut();
        let y = prepared
            .yield_at_target(&mut ws, target_ps, 0..self.trials, |t| {
                counter_seed(self.run_id ^ EVAL_SALT, (e << EVAL_TRIAL_BITS) | t)
            })
            .value;
        let attrs = vardelay_obs::Attrs::of(kernel, TrialStrategy::Plain.name());
        vardelay_obs::counter_with("trials", self.trials, attrs);
        y
    }

    fn label(&self) -> &'static str {
        "netlist"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::{CellLibrary, LatchParams};
    use vardelay_process::VariationConfig;
    use vardelay_ssta::SstaEngine;

    fn setup() -> (StagedPipeline, PipelineTiming, PipelineMc) {
        let p = StagedPipeline::inverter_grid(3, 6, 1.0, LatchParams::tg_msff_70nm());
        let var = VariationConfig::random_only(35.0);
        let timing = SstaEngine::new(CellLibrary::default(), var, None).analyze_pipeline(&p);
        let mc = PipelineMc::new(CellLibrary::default(), var, None);
        (p, timing, mc)
    }

    #[test]
    fn analytic_matches_eq9() {
        let (p, timing, _) = setup();
        let d = AnalyticYieldEval::yield_of(&timing, 200.0);
        let via_trait = AnalyticYieldEval.pipeline_yield(&p, &timing, 200.0);
        assert_eq!(d, via_trait);
        assert!((0.0..=1.0).contains(&d));
        assert_eq!(AnalyticYieldEval.label(), "analytic");
    }

    #[test]
    fn netlist_eval_is_reproducible_and_tracks_analytic() {
        let (p, timing, mc) = setup();
        // Place the target near the distribution's body so both numbers
        // are informative.
        let t = timing
            .stage_delays
            .iter()
            .map(|n| n.mean())
            .fold(0.0, f64::max)
            * 1.02;
        let a = NetlistMcYieldEval::new(mc.clone(), 4_000, 7);
        let b = NetlistMcYieldEval::new(mc.clone(), 4_000, 7);
        let ya = a.pipeline_yield(&p, &timing, t);
        let yb = b.pipeline_yield(&p, &timing, t);
        assert_eq!(ya, yb, "same run id + eval index => same bits");
        assert_eq!(a.evals(), 1);
        // Second call advances the stream — statistically close, not
        // bit-identical.
        let ya2 = a.pipeline_yield(&p, &timing, t);
        assert!((ya2 - ya).abs() < 0.05);
        // And the MC estimate agrees with the analytic model.
        let model = AnalyticYieldEval.pipeline_yield(&p, &timing, t);
        assert!((ya - model).abs() < 0.08, "mc {ya} vs model {model}");
        // A different run id stays statistically consistent too (its
        // stream differs, but the estimate may legitimately coincide).
        let c = NetlistMcYieldEval::new(mc, 4_000, 8);
        assert!((c.pipeline_yield(&p, &timing, t) - model).abs() < 0.08);
    }

    #[test]
    #[should_panic(expected = "eval trials")]
    fn zero_eval_trials_rejected() {
        let (_, _, mc) = setup();
        let _ = NetlistMcYieldEval::new(mc, 0, 1);
    }
}
