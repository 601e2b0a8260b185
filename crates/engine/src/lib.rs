//! # vardelay-engine — parallel scenario-sweep subsystem
//!
//! The paper (Datta et al., DATE 2005) is a design-space exploration:
//! pipeline depth × sizing × correlation × variation level, with the
//! analytic Clark/yield model validated against Monte-Carlo at every
//! point. This crate is the batch execution layer that runs such
//! explorations: the CLI's `sweep` subcommand, the figure/table
//! binaries, and tests all drive it instead of hand-rolling loops.
//!
//! ## Pieces
//!
//! * [`workload`] — **the unified execution layer**: the [`Workload`]
//!   trait (expand a spec into content-hash-identified units, run each
//!   unit in deterministic steps, fold results into a report) and the
//!   one pipeline every workload runs through —
//!   [`workload::run_workload`] / [`workload::run_units`] — with
//!   deterministic sharding ([`Shard`]), JSONL checkpoint streaming
//!   ([`workload::checkpoint_line`]), byte-exact resume
//!   ([`Checkpoint`]) and the per-call [`KeyedCells`] through which
//!   units share sub-results that are pure functions of a key.
//! * [`spec`] — serializable [`Scenario`]/[`Sweep`] descriptions with
//!   cartesian grid expansion, stable content-hash scenario IDs, a
//!   spec-selected simulation [`BackendSpec`] and named [`CircuitSpec`]
//!   workloads.
//! * [`sim`] — the backend contract ([`sim::Simulator`]) and its two
//!   simulators: gate-level MC on the allocation-free prepared path
//!   (both the `pipeline` and `netlist` keywords) and the moment-form
//!   Gaussian sampler; the closed-form `analytic` backend runs no
//!   trials at all.
//! * [`seed`] — counter-based per-trial seeding
//!   (`hash(scenario_id, trial_index)`), making every trial's RNG
//!   stream independent of scheduling.
//! * [`run`] — the sweep's [`Workload`] impl (scenario units, 256-trial
//!   block steps) plus the shared `std::thread` + channel worker pool
//!   with per-worker reusable trial workspaces.
//! * [`optimize`] — the campaign's [`Workload`] impl: the §4 / Fig. 9
//!   yield-aware sizing flow ([`vardelay_opt`]) as an engine workload,
//!   with a pluggable in-loop yield backend (analytic Clark/SSTA vs
//!   gate-level Monte-Carlo) and MC-verified yield in every result row.
//! * [`verify`] — pool-parallel Monte-Carlo verification for the v3
//!   trial kernel: the chunk-wise fold contract that lets a campaign's
//!   verification trials fan out across the worker pool while staying
//!   bit-identical to the sequential fold at any worker count.
//! * [`plan`] — expand + validate + cost a spec without running it:
//!   `sweep validate` and `optimize validate` are two spellings of one
//!   [`workload::plan_workload`] implementation.
//! * [`result`] — serializable per-scenario/per-sweep and per-run/
//!   per-campaign results.
//! * [`design_space`] — declarative §2.5 permissible-region sweeps.
//!
//! ## The determinism contract
//!
//! For a fixed spec (including its `seed`), the unified pipeline
//! produces **bit-identical** results at any worker count. Three
//! mechanisms combine to guarantee it: content-hash unit IDs,
//! counter-based per-trial seeds, and folding fixed-size steps strictly
//! in step order (floating-point reduction is only reproducible when
//! the fold tree is fixed, so the engine fixes it — see
//! [`run::BLOCK_TRIALS`]). The same purity is what makes `--shard i/n`
//! partitioning, JSONL checkpointing and `--resume` **byte-exact**: a
//! unit's result bytes never depend on which process computed it.
//!
//! ## Example
//!
//! ```
//! use vardelay_engine::{run_workload, Sweep, WorkloadOptions};
//!
//! let mut sweep = Sweep::example();
//! // Keep the doctest quick: one scenario, a small trial budget.
//! sweep.scenarios.truncate(1);
//! sweep.grid = None;
//! sweep.scenarios[0].trials = 200;
//!
//! let a = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap();
//! let b = run_workload(&sweep, &WorkloadOptions::sequential().with_workers(4)).unwrap();
//! assert_eq!(a, b); // worker count never changes results
//! assert_eq!(a.scenarios[0].mc.as_ref().unwrap().trials, 200);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod design_space;
pub mod journal;
pub mod optimize;
pub mod plan;
pub mod result;
pub mod run;
pub mod seed;
pub mod sim;
pub mod spec;
pub mod verify;
pub mod workload;

pub use design_space::{design_space, DesignSpaceResult, DesignSpaceSpec};
pub use optimize::{OptimizationCampaign, OptimizeGridSpec, OptimizeSpec, YieldBackendSpec};
pub use plan::{plan_campaign, plan_sweep, CampaignPlan, RunPlan, ScenarioPlan, SweepPlan};
pub use result::{
    CampaignResult, McSummary, McVerification, OptimizationRunResult, ScenarioResult, SweepResult,
};
pub use run::EngineError;
pub use seed::trial_seed;
pub use sim::Simulator;
pub use spec::{
    BackendSpec, CircuitSpec, GridSpec, KernelSpec, LatchSpec, PipelineSpec, Scenario,
    StageMoments, StrategySpec, Sweep, TrialPlanSpec, VariationSpec, MAX_SHIFT_SIGMAS,
};
pub use verify::verify_yield_pooled;
pub use workload::{
    checkpoint_line, join_checkpoint_line, plan_workload, run_units, run_workload,
    split_checkpoint_line, CellRef, Checkpoint, KeyedCells, Progress, ProgressUpdate, ResultCache,
    Shard, StepContext, UnitOrigin, Workload, WorkloadOptions, WorkloadPlan, WorkloadReport,
    WorkloadStats, CONTRACT_VERSION,
};
