//! Global pipeline optimization — the Fig. 9 flow.
//!
//! Conventional flows optimize each stage in isolation and glue the results
//! together; §4 shows that sizing **one stage at a time while statistically
//! analyzing the complete pipeline** both ensures the pipeline yield target
//! (Table II) and recovers area at constant yield (Table III). The stage
//! processing order follows the area-vs-delay slope heuristic of eq. (14):
//! stages where delay is cheap (`R` small) are sized first.

use serde::{Deserialize, Serialize};
use vardelay_circuit::StagedPipeline;
use vardelay_core::balance::order_by_slope;
use vardelay_core::yield_model::stage_yield_target;
use vardelay_core::{Pipeline, StageDelay};
use vardelay_mc::TrialKernel;
use vardelay_ssta::{PipelineTiming, PipelineTimingCache};

use crate::area_delay::AreaDelayCurve;
use crate::sizing::StatisticalSizer;
use crate::yield_eval::{AnalyticYieldEval, PipelineYieldEval};

/// What the optimizer is asked to do (both variants minimize area subject
/// to the yield constraint; they differ in the relaxation direction they
/// emphasize, matching the two tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptimizationGoal {
    /// Table II: bring an under-yielding design up to the target yield
    /// with minimal area increase.
    EnsureYield,
    /// Table III: keep the target yield while recovering as much area as
    /// possible.
    MinimizeArea,
}

/// Per-stage before/after entry of an optimization report (one row of
/// Table II/III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage (benchmark) name.
    pub name: String,
    /// Cell area before.
    pub area_before: f64,
    /// Cell area after.
    pub area_after: f64,
    /// Stage yield at the pipeline target delay, before.
    pub yield_before: f64,
    /// Stage yield at the pipeline target delay, after.
    pub yield_after: f64,
    /// The eq.-14 slope used for ordering.
    pub slope: f64,
    /// Probability this stage is the pipeline's slowest, before
    /// optimization (Monte-Carlo over the stage-delay model; §3.2's
    /// "number of critical paths" intuition at stage granularity).
    pub criticality_before: f64,
    /// Same, after optimization.
    pub criticality_after: f64,
}

/// Whole-pipeline optimization report (the summary rows of Tables II/III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationReport {
    /// Per-stage rows, in original stage order.
    pub stages: Vec<StageReport>,
    /// Total combinational area before.
    pub pipeline_area_before: f64,
    /// Total combinational area after.
    pub pipeline_area_after: f64,
    /// Pipeline yield before (eq. 9 at the target).
    pub pipeline_yield_before: f64,
    /// Pipeline yield after.
    pub pipeline_yield_after: f64,
    /// The target delay (ps).
    pub target_ps: f64,
    /// The pipeline yield target.
    pub yield_target: f64,
    /// Whether the yield target was met.
    pub met: bool,
}

impl OptimizationReport {
    /// Area change as a fraction of the before-area (negative = savings).
    pub fn area_delta_fraction(&self) -> f64 {
        (self.pipeline_area_after - self.pipeline_area_before) / self.pipeline_area_before
    }
}

/// Monte-Carlo trials behind each stage-criticality estimate of a report.
const CRITICALITY_TRIALS: usize = 20_000;

/// Seed of the stage-criticality draws; the before and after estimates of
/// a run share it, and so share their draws.
const CRITICALITY_SEED: u64 = 0xC817;

/// The Fig. 9 global optimizer.
#[derive(Debug, Clone)]
pub struct GlobalPipelineOptimizer {
    sizer: StatisticalSizer,
    /// Outer rounds of the global budget adjustment (step 7).
    rounds: usize,
    /// Relative margin above the yield target considered "just right"
    /// before area recovery kicks in.
    yield_margin: f64,
    /// Trial-kernel contract for the optimizer's own Monte-Carlo
    /// surfaces (currently the stage-criticality estimate).
    kernel: TrialKernel,
}

impl GlobalPipelineOptimizer {
    /// Creates an optimizer with the given sizer.
    pub fn new(sizer: StatisticalSizer) -> Self {
        GlobalPipelineOptimizer {
            sizer,
            rounds: 4,
            yield_margin: 0.02,
            kernel: TrialKernel::default(),
        }
    }

    /// Selects the trial-kernel contract for the optimizer's Monte-Carlo
    /// surfaces. Reports stay deterministic for either choice but are
    /// not byte-compatible across kernels.
    pub fn with_kernel(mut self, kernel: TrialKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the number of global rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        assert!(rounds > 0, "need at least one round");
        self.rounds = rounds;
        self
    }

    /// The inner sizer.
    pub fn sizer(&self) -> &StatisticalSizer {
        &self.sizer
    }

    /// Baseline flow: each stage sized independently against the eq.-12
    /// per-stage allocation `Y^(1/Ns)`, no global feedback — the
    /// "Individually Optimized" columns of Tables II/III.
    pub fn optimize_individually(
        &self,
        pipeline: &StagedPipeline,
        target_ps: f64,
        yield_target: f64,
    ) -> StagedPipeline {
        let ns = pipeline.stage_count();
        let y_stage = stage_yield_target(yield_target, ns);
        let engine = self.sizer.engine();
        let latch_overhead = pipeline.latch().overhead_ps();
        let mut out = pipeline.clone();
        for i in 0..ns {
            let region = engine
                .grid()
                .map_or(0, |g| g.region_of(pipeline.positions()[i]));
            // Combinational budget: target minus latch overhead.
            let res = self.sizer.size_stage(
                &pipeline.stages()[i],
                region,
                target_ps - latch_overhead,
                y_stage,
            );
            out.set_stage(i, res.netlist);
        }
        out
    }

    /// The Fig. 9 flow with the paper's analytic (Clark/SSTA) yield
    /// evaluation — see [`GlobalPipelineOptimizer::optimize_with`].
    ///
    /// # Panics
    ///
    /// Panics if `yield_target` is outside `(0, 1)`.
    pub fn optimize(
        &self,
        pipeline: &StagedPipeline,
        target_ps: f64,
        yield_target: f64,
        goal: OptimizationGoal,
    ) -> (StagedPipeline, OptimizationReport) {
        self.optimize_with(pipeline, target_ps, yield_target, goal, &AnalyticYieldEval)
    }

    /// The Fig. 9 flow: slope-ordered, one-stage-at-a-time sizing with
    /// full-pipeline statistical analysis between stages and a global
    /// budget adjustment across rounds.
    ///
    /// `eval` is the pipeline-yield measurement backend driving the
    /// global feedback (and the report's pipeline-yield columns): the
    /// analytic Clark/SSTA model reproduces the paper flow, while a
    /// Monte-Carlo backend puts measured yield in the loop — the per-stage
    /// sizing constraints stay SSTA-based either way (they need per-stage
    /// `σ`, which only the analysis provides cheaply).
    ///
    /// Returns the optimized pipeline and the Table II/III-style report.
    /// This is [`GlobalPipelineOptimizer::optimize_from`] on a fresh
    /// [`GlobalPipelineOptimizer::flow_start`], with
    /// [`estimate_criticality`] as the criticality source.
    ///
    /// # Panics
    ///
    /// Panics if `yield_target` is outside `(0, 1)`.
    pub fn optimize_with(
        &self,
        pipeline: &StagedPipeline,
        target_ps: f64,
        yield_target: f64,
        goal: OptimizationGoal,
        eval: &dyn PipelineYieldEval,
    ) -> (StagedPipeline, OptimizationReport) {
        let start = self.flow_start(pipeline.clone(), yield_target);
        let (optimized, report, _) =
            self.optimize_from(&start, target_ps, goal, eval, &estimate_criticality);
        (optimized, report)
    }

    /// Step 1 of the flow on `pipeline`: its SSTA and the area-delay
    /// slopes of its stages at the eq.-12 allocation of `yield_target`.
    /// Reads only the sizer, so optimizers that differ in rounds or
    /// kernel share it.
    ///
    /// # Panics
    ///
    /// Panics if `yield_target` is outside `(0, 1)`.
    pub fn flow_start(&self, pipeline: StagedPipeline, yield_target: f64) -> FlowStart {
        assert!(
            yield_target > 0.0 && yield_target < 1.0,
            "yield target must be in (0, 1)"
        );
        let engine = self.sizer.engine();
        let ns = pipeline.stage_count();
        // --- Step 1: initial analysis + area-delay slopes. ---
        // Timing is served by a per-stage canonical cache for the whole
        // flow: each round only re-analyzes the stages whose netlist it
        // actually replaced and recombines the Clark max / correlation
        // matrix from cached moments (bit-identical to the full pass).
        let mut cache = PipelineTimingCache::new();
        let timing = cache.analyze(engine, &pipeline);
        let y_stage = stage_yield_target(yield_target, ns);
        let slopes: Vec<f64> = {
            let _sp = vardelay_obs::span("opt", "sizing_probes").value(ns as f64);
            (0..ns)
                .map(|i| {
                    let region = engine
                        .grid()
                        .map_or(0, |g| g.region_of(pipeline.positions()[i]));
                    let d_now = timing.stage_delays[i].mean();
                    let targets = [d_now * 0.92, d_now * 1.0, d_now * 1.12];
                    let curve = AreaDelayCurve::generate(
                        &self.sizer,
                        &pipeline.stages()[i],
                        region,
                        &targets,
                        y_stage,
                    );
                    curve.normalized_slope(d_now).unwrap_or(1.0)
                })
                .collect()
        };
        FlowStart {
            pipeline,
            yield_target,
            cache,
            timing,
            slopes,
        }
    }

    /// The Fig. 9 flow (see [`GlobalPipelineOptimizer::optimize_with`])
    /// from a precomputed step 1, which must come from an optimizer with
    /// this one's sizer; `criticality` supplies the report's stage
    /// criticalities. Returns the optimized pipeline, the report and the
    /// optimized pipeline's SSTA (`SstaEngine::analyze_pipeline` on it
    /// with the sizer's engine), which the report's after-columns read.
    pub fn optimize_from(
        &self,
        start: &FlowStart,
        target_ps: f64,
        goal: OptimizationGoal,
        eval: &dyn PipelineYieldEval,
        criticality: &CriticalitySource<'_>,
    ) -> (StagedPipeline, OptimizationReport, PipelineTiming) {
        let engine = self.sizer.engine();
        let (pipeline, yield_target) = (&start.pipeline, start.yield_target);
        let (timing0, slopes) = (&start.timing, &start.slopes);
        let ns = pipeline.stage_count();
        let latch_overhead = pipeline.latch().overhead_ps();
        let mut cache = start.cache.clone();
        let yield0 = eval.pipeline_yield(pipeline, timing0, target_ps);
        let areas0 = pipeline.stage_areas();
        let y_stage = stage_yield_target(yield_target, ns);

        // --- Step 2: order stages by slope (cheap delay first). ---
        let order = order_by_slope(slopes);

        // --- Steps 3–9: per-stage sizing with global feedback. ---
        // Per-stage budget scales implement the eq.-14 trade directly:
        // when yield is short, tighten the stages where delay is *cheap*
        // (small R — yield bought with little area); when yield is in
        // surplus and area matters, relax the stages where delay is
        // *expensive* (large R — area recovered with little yield loss).
        let mut work = pipeline.clone();
        let mut scale = vec![1.0_f64; ns];
        // The input design is the first candidate: on an infeasible
        // target every sizing round can only churn, and the flow must
        // then return its input unchanged rather than something worse.
        let mut best: (StagedPipeline, f64, f64) = (pipeline.clone(), yield0, areas0.iter().sum());

        for _round in 0..self.rounds {
            for &si in &order {
                let region = engine
                    .grid()
                    .map_or(0, |g| g.region_of(work.positions()[si]));
                // Step 4/7: stage delay budget from the *pipeline* target,
                // adjusted by this stage's running scale.
                let budget = (target_ps - latch_overhead) * scale[si];
                let res = self
                    .sizer
                    .size_stage(&work.stages()[si], region, budget, y_stage);
                // Keep the incumbent sizing if it already meets this budget
                // with less area — re-sizing is greedy and can churn. The
                // incumbent's moments come from the cache (it was analyzed
                // when last touched), skipping a full SSTA pass.
                let cur = cache.stage_delay(engine, &work, si);
                let cur_meets = StatisticalSizer::moments_meet(&cur, budget, y_stage);
                if !(cur_meets && work.stages()[si].area() <= res.area) {
                    work.set_stage(si, res.netlist);
                    cache.invalidate_stage(si);
                }
            }
            let timing = cache.analyze(engine, &work);
            let y = eval.pipeline_yield(&work, &timing, target_ps);
            let area = work.total_area();
            let better = {
                let (_, by, barea) = &best;
                if y >= yield_target && *by >= yield_target {
                    area < *barea
                } else {
                    y > *by
                }
            };
            if better {
                best = (work.clone(), y, area);
            }
            // Step 7: adjust per-stage budgets along the slope ordering.
            // Steps are sized in units of each stage's delay sigma — a
            // fraction of a sigma moves the stage yield by a few points,
            // which is the granularity the trade needs (a 1% delay step
            // would be several sigma and overshoot wildly).
            let base_budget = target_ps - latch_overhead;
            let sigma_frac = |si: usize| 0.5 * timing.stage_delays[si].sd() / base_budget;
            if y < yield_target {
                // Tighten the cheapest-delay stages (low R) first.
                for &si in order.iter().take(ns.div_ceil(2)) {
                    scale[si] = (scale[si] - sigma_frac(si)).max(0.8);
                }
            } else if goal == OptimizationGoal::MinimizeArea && y > yield_target + self.yield_margin
            {
                // The §3.2 exchange: relax the single most-expensive-delay
                // stage (highest R — most area back per yield point) while
                // tightening the cheap stages to hold the pipeline yield.
                if let Some(&hi) = order.last() {
                    scale[hi] = (scale[hi] + 0.6 * sigma_frac(hi)).min(1.2);
                }
                for &si in order.iter().take(ns / 2) {
                    scale[si] = (scale[si] - 0.6 * sigma_frac(si)).max(0.8);
                }
            } else if goal == OptimizationGoal::EnsureYield {
                break; // target met; stop before spending more area
            } else {
                break; // MinimizeArea: inside the [target, target+margin] band
            }
        }

        let (final_pipe, final_yield, _) = best;
        let timing_f = engine.analyze_pipeline(&final_pipe);
        let areas_f = final_pipe.stage_areas();

        let [crit0, crit_f]: [Vec<f64>; 2] =
            criticality(&[stage_model(timing0), stage_model(&timing_f)], self.kernel)
                .try_into()
                .expect("one estimate per timing");
        let stage_y0 = timing0.stage_yields(target_ps);
        let stage_yf = timing_f.stage_yields(target_ps);

        let stages = (0..ns)
            .map(|i| StageReport {
                name: pipeline.stages()[i].name().to_owned(),
                area_before: areas0[i],
                area_after: areas_f[i],
                yield_before: stage_y0[i],
                yield_after: stage_yf[i],
                slope: slopes[i],
                criticality_before: crit0[i],
                criticality_after: crit_f[i],
            })
            .collect();

        let report = OptimizationReport {
            stages,
            pipeline_area_before: areas0.iter().sum(),
            pipeline_area_after: areas_f.iter().sum(),
            pipeline_yield_before: yield0,
            pipeline_yield_after: final_yield,
            target_ps,
            yield_target,
            met: final_yield >= yield_target,
        };
        (final_pipe, report, timing_f)
    }
}

/// Step 1 of the Fig. 9 flow on one input design
/// ([`GlobalPipelineOptimizer::flow_start`]): the design, its SSTA —
/// held in the per-stage timing cache the flow keeps using — and the
/// eq.-14 area-delay slopes at a yield target's per-stage allocation.
/// A pure function of the sizer, the design and the yield target, so
/// every run that starts from one design can share it.
#[derive(Debug, Clone)]
pub struct FlowStart {
    pipeline: StagedPipeline,
    yield_target: f64,
    cache: PipelineTimingCache,
    timing: PipelineTiming,
    slopes: Vec<f64>,
}

impl FlowStart {
    /// The input design.
    pub fn pipeline(&self) -> &StagedPipeline {
        &self.pipeline
    }

    /// The input design's SSTA (bit-identical to
    /// `SstaEngine::analyze_pipeline` on it).
    pub fn timing(&self) -> &PipelineTiming {
        &self.timing
    }
}

/// Where the flow's stage criticalities come from: each model's
/// estimate on a kernel's draws. A source may only choose *when* an
/// estimate is computed; every answer must be byte-identical to
/// [`estimate_criticality`] on the same models.
pub type CriticalitySource<'a> = dyn Fn(&[Pipeline], TrialKernel) -> Vec<Vec<f64>> + 'a;

/// The report's stage-criticality estimator: one 20,000-trial draw
/// from a fixed seed on `kernel`'s normal fill, scored against every
/// model of one stage count. Entry `k` is
/// byte-identical to `models[k]` estimated alone, so an estimate never
/// depends on what it was batched with. One `opt/criticality` span,
/// with the kernel attribute, covers the call; its value is the trials
/// drawn.
///
/// # Panics
///
/// Panics if the models differ in stage count.
pub fn estimate_criticality(models: &[Pipeline], kernel: TrialKernel) -> Vec<Vec<f64>> {
    let _sp = vardelay_obs::span("opt", "criticality")
        .attrs(vardelay_obs::Attrs::of_kernel(kernel.name()))
        .value(CRITICALITY_TRIALS as f64);
    Pipeline::shared_criticality_probabilities(
        models,
        kernel.normal_fill(),
        CRITICALITY_TRIALS,
        CRITICALITY_SEED,
    )
}

/// The Gaussian stage-delay model of a timing — what the criticality
/// estimator reads.
fn stage_model(timing: &PipelineTiming) -> Pipeline {
    let stages = timing
        .stage_delays
        .iter()
        .map(|n| StageDelay::from_normal(*n))
        .collect();
    Pipeline::new(stages, timing.correlation.clone()).expect("dims")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::{SizingConfig, StatisticalSizer};
    use crate::target::TargetDelayPolicy;
    use vardelay_circuit::generators::{inverter_chain, random_logic, RandomLogicConfig};
    use vardelay_circuit::{CellLibrary, LatchParams};
    use vardelay_process::VariationConfig;
    use vardelay_ssta::SstaEngine;

    fn small_pipeline() -> StagedPipeline {
        let mk = |name: &str, gates: usize, depth: usize, seed: u64| {
            random_logic(&RandomLogicConfig {
                name: name.into(),
                inputs: 12,
                gates,
                depth,
                outputs: 6,
                seed,
            })
        };
        StagedPipeline::new(
            "mini4",
            vec![
                mk("s0", 120, 12, 31),
                mk("s1", 90, 10, 32),
                mk("s2", 60, 9, 33),
                mk("s3", 40, 8, 34),
            ],
            LatchParams::tg_msff_70nm(),
        )
    }

    fn optimizer() -> GlobalPipelineOptimizer {
        let engine = SstaEngine::new(
            CellLibrary::default(),
            VariationConfig::random_only(35.0),
            None,
        );
        GlobalPipelineOptimizer::new(StatisticalSizer::new(engine, SizingConfig::default()))
            .with_rounds(3)
    }

    #[test]
    fn global_flow_reaches_yield_target() {
        let opt = optimizer();
        let p = small_pipeline();
        // Pick a target a bit above the slowest stage's min-size delay so
        // the problem is feasible but not trivial.
        let timing = opt.sizer().engine().analyze_pipeline(&p);
        let slowest = timing
            .stage_delays
            .iter()
            .map(|d| d.mean())
            .fold(0.0, f64::max);
        let target = slowest * 1.0;
        let (_, report) = opt.optimize(&p, target, 0.80, OptimizationGoal::EnsureYield);
        assert!(
            report.pipeline_yield_after >= 0.80,
            "yield {} should reach 0.80",
            report.pipeline_yield_after
        );
        assert!(report.met);
        assert_eq!(report.stages.len(), 4);
    }

    #[test]
    fn v3_kernel_criticality_agrees_with_v1_to_mc_accuracy() {
        let p = small_pipeline();
        let opt1 = optimizer();
        let opt3 = optimizer().with_kernel(TrialKernel::V3);
        let timing = opt1.sizer().engine().analyze_pipeline(&p);
        let slowest = timing
            .stage_delays
            .iter()
            .map(|d| d.mean())
            .fold(0.0, f64::max);
        let (_, r1) = opt1.optimize(&p, slowest, 0.80, OptimizationGoal::EnsureYield);
        let (_, r3) = opt3.optimize(&p, slowest, 0.80, OptimizationGoal::EnsureYield);
        // The sizing trajectory is kernel-independent here (criticality is
        // report-only); only the criticality estimates differ, and only by
        // Monte-Carlo noise.
        assert_eq!(r1.pipeline_yield_after, r3.pipeline_yield_after);
        for (a, b) in r1.stages.iter().zip(&r3.stages) {
            assert!(
                (a.criticality_after - b.criticality_after).abs() < 0.02,
                "v1 {} vs v3 {}",
                a.criticality_after,
                b.criticality_after
            );
        }
    }

    #[test]
    fn global_beats_individual_on_yield_or_area() {
        let opt = optimizer();
        let p = small_pipeline();
        let timing = opt.sizer().engine().analyze_pipeline(&p);
        let slowest = timing
            .stage_delays
            .iter()
            .map(|d| d.mean())
            .fold(0.0, f64::max);
        let target = slowest * 1.0;

        let indiv = opt.optimize_individually(&p, target, 0.80);
        let t_ind = opt.sizer().engine().analyze_pipeline(&indiv);
        let y_ind = AnalyticYieldEval::yield_of(&t_ind, target);
        let a_ind = indiv.total_area();

        let (glob, report) = opt.optimize(&p, target, 0.80, OptimizationGoal::MinimizeArea);
        let a_glob = glob.total_area();

        // The global flow must either hit the yield target with less area
        // than the individual flow, or deliver strictly better yield.
        assert!(
            (report.pipeline_yield_after >= 0.80 && a_glob <= a_ind * 1.02)
                || report.pipeline_yield_after > y_ind,
            "global (y={}, a={a_glob}) vs individual (y={y_ind}, a={a_ind})",
            report.pipeline_yield_after,
        );
    }

    /// The Fig. 9 flow, frontier resolution included, sizes every
    /// stage identically on the incremental and the full-pass kernel.
    #[test]
    fn incremental_flow_matches_full_pass_flow() {
        let incremental = optimizer().sizer().clone();
        let full = incremental.clone().with_full_pass_kernel();
        let pipeline = StagedPipeline::new(
            "chains",
            vec![
                inverter_chain(30, 1.0),
                inverter_chain(29, 1.0),
                inverter_chain(29, 1.0),
                inverter_chain(29, 1.0),
            ],
            LatchParams::tg_msff_70nm(),
        );
        let policy = TargetDelayPolicy::FrontierQuantile { q: 0.86, refine: 3 };
        let run = |sizer: &StatisticalSizer| {
            let opt = GlobalPipelineOptimizer::new(sizer.clone()).with_rounds(3);
            let resolved = policy.resolve(&opt, &pipeline, 0.80);
            opt.optimize(
                &resolved.baseline,
                resolved.target_ps,
                0.80,
                OptimizationGoal::EnsureYield,
            )
        };
        let (pa, ra) = run(&incremental);
        let (pb, rb) = run(&full);
        assert_eq!(pa.stages(), pb.stages(), "kernels diverged");
        assert_eq!(ra.pipeline_yield_after, rb.pipeline_yield_after);
    }

    #[test]
    fn report_math() {
        let r = OptimizationReport {
            stages: vec![],
            pipeline_area_before: 100.0,
            pipeline_area_after: 91.6,
            pipeline_yield_before: 0.739,
            pipeline_yield_after: 0.805,
            target_ps: 500.0,
            yield_target: 0.8,
            met: true,
        };
        assert!((r.area_delta_fraction() - -0.084).abs() < 1e-12);
    }
}
