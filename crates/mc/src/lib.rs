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
//! * [`results`] — sample container with moments, quantiles, histograms,
//!   yield estimates with confidence intervals.
//! * [`engine`] — single-netlist Monte-Carlo (streaming, O(1) memory in
//!   the trial count).
//! * [`pipeline_mc`] — whole-pipeline Monte-Carlo (stage max + latch
//!   overhead), multithreaded.
//! * [`prepared`] — the allocation-free prepared/workspace variant of
//!   the pipeline runner (the sweep engine's gate-level hot path).
//! * [`kernel`] — the versioned trial-kernel contract: v1 (scalar
//!   Box–Muller + exact `powf`, the byte-frozen reference) and v3
//!   (16-wide lane-major passes, inverse-CDF sampling, frozen polynomial
//!   slowdown, lane-folded statistics — the fast path), each with its
//!   normal fill and [`LaneFold`].
//! * [`strategy`] — the versioned trial-plan contracts (antithetic,
//!   stratified, Sobol QMC, statistical blockade): a draw overlay each
//!   kernel's sampler applies, with plain as the identity overlay.
//!
//! # Example
//!
//! ```
//! use vardelay_circuit::generators::inverter_chain;
//! use vardelay_circuit::CellLibrary;
//! use vardelay_mc::{McConfig, NetlistMc};
//! use vardelay_process::VariationConfig;
//!
//! let mc = NetlistMc::new(CellLibrary::default(), VariationConfig::random_only(35.0), None);
//! let res = mc.run(&inverter_chain(8, 1.0), 0, &McConfig::quick(2_000, 1));
//! assert!(res.pipeline().mean() > 0.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod kernel;
pub mod pipeline_mc;
pub mod prepared;
pub mod results;
pub mod strategy;

pub use engine::NetlistMc;
pub use kernel::{LaneFold, TrialKernel, V3_LANES, V3_WIDTH};
pub use pipeline_mc::{PipelineMc, PipelineMcResult};
pub use prepared::{PreparedPipelineMc, TrialWorkspace};
pub use results::{HistogramSpec, McConfig, McResult, PipelineBlockStats, YieldEstimate};
pub use strategy::{PlanSampler, TrialPlan, TrialStrategy, DEFAULT_SHIFT_SIGMAS, STRATA_BLOCK};
