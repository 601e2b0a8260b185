//! Target-delay selection for optimization runs.
//!
//! Tables II and III don't quote an absolute target delay: they place the
//! target *relative to the slowest stage's sizing frontier*, which is
//! what makes the two experiments reproducible on any calibrated
//! library. Table II puts the target where the frontier stage can only
//! reach ~86% yield — below its `0.80^(1/4) = 94.6%` per-stage
//! allocation, so the individually-optimized flow structurally
//! under-yields; Table III relaxes to the ~97% quantile so every stage
//! meets its allocation with area to spare. Both bench binaries used to
//! hard-code that logic inline with magic constants; [`TargetDelayPolicy`]
//! is the shared, documented form, and the same type is what optimization
//! campaign specs serialize.

use serde::{Deserialize, Serialize};
use vardelay_circuit::StagedPipeline;
use vardelay_stats::inv_cap_phi;

use crate::global::GlobalPipelineOptimizer;

/// Fraction of the slowest stage's *unsized* mean delay used as the
/// provisional target of the first frontier-locating pass. It only needs
/// to be aggressive enough that the sizer pushes the slowest stage to
/// its frontier; the fixed-point refinement then re-derives the real
/// target from the achieved distribution.
pub const PROVISIONAL_FRONTIER_FRACTION: f64 = 0.62;

/// Refinement stops early once the frontier stage's achieved yield is
/// within this tolerance of the requested quantile — the greedy sizer is
/// path-dependent, so exact convergence is neither possible nor needed.
pub const FRONTIER_TOLERANCE: f64 = 0.06;

/// How an optimization run's target delay is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TargetDelayPolicy {
    /// An explicit target delay (ps).
    Absolute {
        /// Target delay (ps), including latch overhead.
        ps: f64,
    },
    /// Sized-frontier quantile (the Tables II/III methodology): first
    /// individually optimize the pipeline at a provisional target to
    /// locate the slowest stage's sizing frontier, then place the target
    /// at quantile `q` of that stage's *achieved* delay distribution —
    /// `T = μ_slow + Φ⁻¹(q)·σ_slow` — and refine by re-optimizing at the
    /// new target up to `refine` times. `q` below the per-stage
    /// allocation `Y^(1/Ns)` makes the conventional flow under-yield
    /// (Table II); `q` near 1 leaves slack for area recovery
    /// (Table III).
    FrontierQuantile {
        /// Frontier quantile in `(0, 1)`.
        q: f64,
        /// Fixed-point refinement rounds (at least 1).
        refine: usize,
    },
}

/// A resolved target: the delay plus the individually-optimized baseline
/// produced while resolving it (Fig. 9's stated input is "the complete
/// pipelined design with individual stages optimized").
#[derive(Debug, Clone)]
pub struct ResolvedTarget {
    /// The target delay (ps).
    pub target_ps: f64,
    /// The pipeline with every stage individually sized against the
    /// eq.-12 allocation at `target_ps` — both the global flow's warm
    /// start and the "Individually Optimized" comparison columns.
    pub baseline: StagedPipeline,
}

impl TargetDelayPolicy {
    /// The Table II setting: frontier quantile 0.86 with up to four
    /// refinement rounds (the paper's c3540 reaches 86.3%).
    pub fn table2() -> Self {
        TargetDelayPolicy::FrontierQuantile { q: 0.86, refine: 4 }
    }

    /// The Table III setting: a relaxed ~97% frontier quantile, one
    /// refinement round.
    pub fn table3() -> Self {
        TargetDelayPolicy::FrontierQuantile { q: 0.97, refine: 1 }
    }

    /// Checks the policy is in-domain (user-supplied specs must fail
    /// softly, not assert deep in the sizer).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TargetDelayPolicy::Absolute { ps } => {
                if ps.is_finite() && *ps > 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "target delay must be finite and positive, got {ps}"
                    ))
                }
            }
            TargetDelayPolicy::FrontierQuantile { q, refine } => {
                if !(q.is_finite() && *q > 0.0 && *q < 1.0) {
                    return Err(format!("frontier quantile must be in (0, 1), got {q}"));
                }
                if !(1..=16).contains(refine) {
                    return Err(format!("refine rounds must be in 1..=16, got {refine}"));
                }
                Ok(())
            }
        }
    }

    /// Short human-readable description for labels and plan reports.
    pub fn label(&self) -> String {
        match self {
            TargetDelayPolicy::Absolute { ps } => format!("T={ps}ps"),
            TargetDelayPolicy::FrontierQuantile { q, .. } => {
                format!("frontier q{:.0}", 100.0 * q)
            }
        }
    }

    /// Resolves the policy against a pipeline: returns the target delay
    /// and the individually-optimized baseline at that target.
    ///
    /// For [`TargetDelayPolicy::FrontierQuantile`] this runs the shared
    /// fixed-point search both bench binaries previously hand-rolled:
    /// optimize individually at a provisional target, re-derive
    /// `T = μ_slow + Φ⁻¹(q)·σ_slow` from the achieved slowest-stage
    /// distribution, warm-start the next pass from the previous sizing
    /// (so the conventional flow gets the same optimization maturity as
    /// the global flow it is compared against), and stop once the
    /// frontier stage's achieved yield is within [`FRONTIER_TOLERANCE`]
    /// of `q`.
    ///
    /// The returned target is then **re-derived once more from the final
    /// baseline**, which anchors the policy's defining property exactly:
    /// the tracked slowest stage sits at yield `q` at the returned
    /// target, by construction. (The raw fixed point has no such anchor
    /// — the greedy sizer is path-dependent, and on stages it cannot
    /// keep speeding up each refinement can overshoot the quantile
    /// downward without bound.) The baseline was individually optimized
    /// at the penultimate target, at most one refinement step away.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails [`TargetDelayPolicy::validate`] or
    /// `yield_target` is outside `(0, 1)`.
    pub fn resolve(
        &self,
        opt: &GlobalPipelineOptimizer,
        pipeline: &StagedPipeline,
        yield_target: f64,
    ) -> ResolvedTarget {
        self.validate().expect("policy must be validated");
        let engine = opt.sizer().engine();
        match *self {
            TargetDelayPolicy::Absolute { ps } => ResolvedTarget {
                target_ps: ps,
                baseline: opt.optimize_individually(pipeline, ps, yield_target),
            },
            TargetDelayPolicy::FrontierQuantile { q, refine } => {
                let t0 = engine.analyze_pipeline(pipeline);
                let slow = (0..pipeline.stage_count())
                    .max_by(|&a, &b| {
                        t0.stage_delays[a]
                            .mean()
                            .partial_cmp(&t0.stage_delays[b].mean())
                            .expect("finite stage means")
                    })
                    .expect("pipelines have stages");
                let provisional = t0.stage_delays[slow].mean() * PROVISIONAL_FRONTIER_FRACTION;
                let mut baseline = opt.optimize_individually(pipeline, provisional, yield_target);
                // One SSTA pass per refinement: `timing` always holds
                // the analysis of the current `baseline`.
                let mut timing = engine.analyze_pipeline(&baseline);
                for _ in 0..refine.max(1) {
                    let d = &timing.stage_delays[slow];
                    let target = d.mean() + inv_cap_phi(q) * d.sd();
                    baseline = opt.optimize_individually(&baseline, target, yield_target);
                    timing = engine.analyze_pipeline(&baseline);
                    let y_slow = timing.stage_yields(target)[slow];
                    if (y_slow - q).abs() <= FRONTIER_TOLERANCE {
                        break;
                    }
                }
                // Anchor: the final target is the q-quantile of the
                // final baseline's tracked stage, exactly.
                let d = &timing.stage_delays[slow];
                ResolvedTarget {
                    target_ps: d.mean() + inv_cap_phi(q) * d.sd(),
                    baseline,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::{SizingConfig, StatisticalSizer};
    use vardelay_circuit::generators::{random_logic, RandomLogicConfig};
    use vardelay_circuit::{CellLibrary, LatchParams};
    use vardelay_process::VariationConfig;
    use vardelay_ssta::SstaEngine;

    fn optimizer() -> GlobalPipelineOptimizer {
        let engine = SstaEngine::new(
            CellLibrary::default(),
            VariationConfig::random_only(35.0),
            None,
        );
        GlobalPipelineOptimizer::new(StatisticalSizer::new(engine, SizingConfig::default()))
    }

    fn pipeline() -> StagedPipeline {
        let mk = |name: &str, gates: usize, depth: usize, seed: u64| {
            random_logic(&RandomLogicConfig {
                name: name.into(),
                inputs: 10,
                gates,
                depth,
                outputs: 5,
                seed,
            })
        };
        StagedPipeline::new(
            "t",
            vec![mk("s0", 90, 11, 3), mk("s1", 60, 8, 4)],
            LatchParams::tg_msff_70nm(),
        )
    }

    #[test]
    fn validation_rejects_out_of_domain() {
        assert!(TargetDelayPolicy::Absolute { ps: 500.0 }.validate().is_ok());
        assert!(TargetDelayPolicy::Absolute { ps: 0.0 }.validate().is_err());
        assert!(TargetDelayPolicy::Absolute { ps: f64::NAN }
            .validate()
            .is_err());
        assert!(TargetDelayPolicy::table2().validate().is_ok());
        assert!(TargetDelayPolicy::FrontierQuantile { q: 1.0, refine: 2 }
            .validate()
            .is_err());
        assert!(TargetDelayPolicy::FrontierQuantile { q: 0.9, refine: 0 }
            .validate()
            .is_err());
        assert!(TargetDelayPolicy::table2().label().contains("q86"));
        assert!(TargetDelayPolicy::Absolute { ps: 500.0 }
            .label()
            .contains("500"));
    }

    #[test]
    fn absolute_policy_passes_through_and_baselines() {
        let opt = optimizer();
        let p = pipeline();
        let r = TargetDelayPolicy::Absolute { ps: 400.0 }.resolve(&opt, &p, 0.8);
        assert_eq!(r.target_ps, 400.0);
        assert_eq!(r.baseline.stage_count(), p.stage_count());
    }

    #[test]
    fn frontier_quantile_lands_near_the_requested_quantile() {
        let opt = optimizer();
        let p = pipeline();
        let q = 0.90;
        let r = TargetDelayPolicy::FrontierQuantile { q, refine: 3 }.resolve(&opt, &p, 0.8);
        let engine = opt.sizer().engine();
        let t = engine.analyze_pipeline(&r.baseline);
        // The slowest stage sits near the requested quantile of its own
        // achieved distribution (within the documented tolerance plus
        // one refinement step of drift).
        let y_slow = t
            .stage_yields(r.target_ps)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        assert!(
            (y_slow - q).abs() <= FRONTIER_TOLERANCE + 0.05,
            "slowest-stage yield {y_slow} vs quantile {q}"
        );
        // A more relaxed quantile must give a larger target.
        let r97 = TargetDelayPolicy::FrontierQuantile { q: 0.99, refine: 1 }.resolve(&opt, &p, 0.8);
        assert!(r97.target_ps > r.target_ps * 0.99);
    }
}
