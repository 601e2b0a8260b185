//! Yield-constrained statistical gate sizing and global pipeline
//! optimization (§3.2, §4, Fig. 9, Tables II/III).
//!
//! * [`sizing`] — minimize stage area subject to a statistical delay
//!   constraint `μ(x) + κ·σ(x) ≤ T` with `κ = Φ⁻¹(Y_stage)`, per-gate size
//!   bounds `L ≤ xᵢ ≤ U`. The inner engine is a sensitivity-guided
//!   (TILOS-style) greedy ascent — the practical instantiation of the
//!   Lagrangian-relaxation sizer of Choi et al. \[3\] — wrapped in an outer
//!   loop that re-derives the deterministic guard band from a fresh SSTA
//!   pass each iteration (steps 4–7 of Fig. 9).
//! * [`area_delay`] — area-vs-delay curves per stage (Fig. 8), generated
//!   by sizing at a sweep of targets, and the normalized slope
//!   `R_i = (∂A/A)/(∂D/D)` that drives the eq.-14 imbalance heuristic.
//! * [`global`] — the Fig. 9 divide-and-conquer flow: order stages by
//!   `R_i`, size one stage at a time against its share of the pipeline
//!   yield budget, re-run full-pipeline statistical analysis after each
//!   stage, and iterate. Produces the Table II/III reports.
//! * [`yield_eval`] — the pluggable pipeline-yield backend of the loop:
//!   the analytic Clark/SSTA model (the paper flow) or gate-level
//!   Monte-Carlo on the prepared zero-allocation hot path, so campaigns
//!   can emit model-predicted and MC-measured yield side by side.
//! * [`target`] — target-delay selection ([`TargetDelayPolicy`]): an
//!   absolute delay, or the Tables II/III sized-frontier quantile
//!   previously hand-rolled by the bench binaries.
//! * [`verify`] — CI-driven chunked Monte-Carlo yield verification:
//!   variance-reduced trial plans stop at a requested confidence
//!   half-width instead of always spending the full budget.
//!
//! # Example
//!
//! ```
//! use vardelay_circuit::generators::inverter_chain;
//! use vardelay_circuit::CellLibrary;
//! use vardelay_opt::sizing::{SizingConfig, StatisticalSizer};
//! use vardelay_process::VariationConfig;
//! use vardelay_ssta::SstaEngine;
//!
//! let engine = SstaEngine::new(
//!     CellLibrary::default(),
//!     VariationConfig::random_only(35.0),
//!     None,
//! );
//! let sizer = StatisticalSizer::new(engine, SizingConfig::default());
//! let chain = inverter_chain(8, 1.0);
//! // Ask for 90% stage yield at a relaxed target: the sizer should meet it
//! // and recover area where it can.
//! let res = sizer.size_stage(&chain, 0, 220.0, 0.90);
//! assert!(res.met);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod area_delay;
pub mod global;
pub mod sizing;
pub mod target;
pub mod verify;
pub mod yield_eval;

pub use area_delay::AreaDelayCurve;
pub use global::{
    estimate_criticality, CriticalitySource, FlowStart, GlobalPipelineOptimizer, OptimizationGoal,
    OptimizationReport,
};
pub use sizing::{SizingConfig, SizingResult, StatisticalSizer};
pub use target::{ResolvedTarget, TargetDelayPolicy};
pub use verify::{verify_yield, VerifiedYield, VERIFY_CHUNK_TRIALS};
pub use yield_eval::{AnalyticYieldEval, NetlistMcYieldEval, PipelineYieldEval, MAX_EVAL_TRIALS};
