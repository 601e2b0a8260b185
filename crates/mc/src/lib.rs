//! Monte-Carlo timing engine — the workspace's substitute for the paper's
//! SPICE Monte-Carlo runs.
//!
//! Each trial draws one die's shared variation (inter-die shift + correlated
//! region values), then per-gate random shifts, evaluates every gate's
//! delay through the **nonlinear** alpha-power slowdown factor, and runs
//! deterministic timing. Because the nonlinearity and the exact max are
//! retained, the MC results contain exactly the effects the paper's
//! Gaussian/Clark model approximates — which is what makes the Fig. 2/3 and
//! Table I comparisons meaningful.
//!
//! * [`pipeline_mc`] — the Monte-Carlo configuration (library, process
//!   sampler, output load, trial kernel) and the allocating v1 reference
//!   trial that the prepared runner reproduces bit for bit.
//! * [`prepared`] — the allocation-free prepared/workspace runner, whose
//!   [`PreparedPipelineMc::run_block_plan`] is the one trial entry point of
//!   every sweep backend, campaign verification and in-loop yield query.
//! * [`results`] — streaming block statistics (moments, yield counts,
//!   histograms, the weighted tail) and yield estimates with confidence
//!   intervals.
//! * [`kernel`] — the versioned trial-kernel contract: v1 (scalar
//!   Box–Muller + exact `powf`, the byte-frozen reference) and v3
//!   (16-wide lane-major passes, inverse-CDF sampling, frozen polynomial
//!   slowdown, lane-folded statistics — the fast path), each with its
//!   normal fill, and v3's structure-of-arrays [`V3Fold`].
//! * [`strategy`] — the versioned trial-plan contracts (antithetic,
//!   stratified, Sobol QMC, statistical blockade): a draw overlay each
//!   kernel's sampler applies, with plain as the identity overlay.
//!
//! Blocks of trials run on the caller's threads: trial `t` draws from its
//! own stream `seed_of(t)`, so any partition of a trial range into blocks
//! reproduces the same per-trial samples.
//!
//! # Example
//!
//! ```
//! use vardelay_circuit::{CellLibrary, LatchParams, StagedPipeline};
//! use vardelay_mc::{PipelineBlockStats, PipelineMc, PreparedPipelineMc, TrialPlan, TrialWorkspace};
//! use vardelay_process::VariationConfig;
//! use vardelay_stats::counter_seed;
//!
//! let pipe = StagedPipeline::inverter_grid(3, 8, 1.0, LatchParams::tg_msff_70nm());
//! let mc = PipelineMc::new(CellLibrary::default(), VariationConfig::random_only(35.0), None);
//! let prepared = PreparedPipelineMc::new(&mc, &pipe);
//! let mut stats = PipelineBlockStats::new(pipe.stage_count(), &[]);
//! let mut ws = TrialWorkspace::new();
//! let seed_of = |t| counter_seed(1, t);
//! prepared.run_block_plan(&mut ws, 0..2_000, seed_of, TrialPlan::plain(), &mut stats);
//! assert_eq!(stats.trials(), 2_000);
//! assert!(stats.pipeline().mean() > 0.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod kernel;
pub mod pipeline_mc;
pub mod prepared;
pub mod results;
pub mod strategy;

pub use kernel::{TrialKernel, V3Fold, V3_WIDTH};
pub use pipeline_mc::PipelineMc;
pub use prepared::{PreparedPipelineMc, TrialWorkspace};
pub use results::{HistogramSpec, PipelineBlockStats, YieldEstimate};
pub use strategy::{PlanSampler, TrialPlan, TrialStrategy};
