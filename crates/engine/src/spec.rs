//! Serializable scenario and sweep specifications.
//!
//! A [`Scenario`] names one point of the paper's design space: a
//! pipeline (by explicit stage moments or by netlist generator), a
//! variation configuration, a Monte-Carlo trial budget, and the yield
//! targets to evaluate. A [`Sweep`] is an explicit scenario list plus an
//! optional cartesian [`GridSpec`] over stage count × logic depth ×
//! sizing × variation — the paper's depth/sizing/correlation exploration
//! (Figs. 4–6, Tables I–III) in one declarative file.

use serde::{Deserialize, Serialize, Value};
use vardelay_circuit::generators::{
    alu_part1, alu_part2, decoder, inverter_chain, iscas, random_logic, RandomLogicConfig,
};
use vardelay_circuit::{LatchParams, Netlist, StagedPipeline};
use vardelay_process::VariationConfig;

use crate::seed::fnv1a64;

/// Declares a spec keyword enum from its variant list: each variant
/// with its lowercase JSON keyword, plus `ALL`, `keyword`, `parse`,
/// `keyword_list` and a serde form that is the bare keyword string, so
/// help text, parse errors and the wire format all derive from one
/// table. `$what` names the enum in error messages.
macro_rules! keyword_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident($what:literal) {
            $($(#[$vmeta:meta])* $variant:ident = $keyword:literal,)+
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$($keyword),+].len()] = [$($name::$variant),+];

            /// The valid keyword set as a `|`-separated list, for help
            /// text and error messages.
            pub fn keyword_list() -> String {
                Self::ALL.map(Self::keyword).join("|")
            }

            /// The lowercase spec keyword.
            pub fn keyword(self) -> &'static str {
                match self {
                    $($name::$variant => $keyword,)+
                }
            }

            /// Parses a lowercase spec keyword.
            ///
            /// # Errors
            ///
            /// Returns a message listing the valid keywords.
            pub fn parse(s: &str) -> Result<Self, String> {
                Self::ALL.into_iter().find(|k| k.keyword() == s).ok_or_else(|| {
                    format!(concat!("unknown ", $what, " '{}' (use {})"), s, Self::keyword_list())
                })
            }
        }

        impl ::serde::Serialize for $name {
            fn to_value(&self) -> ::serde::Value {
                ::serde::Value::String(self.keyword().to_owned())
            }
        }

        impl ::serde::Deserialize for $name {
            fn from_value(v: &::serde::Value) -> Result<Self, ::serde::Error> {
                match v {
                    ::serde::Value::String(s) => Self::parse(s).map_err(::serde::Error::new),
                    _ => Err(::serde::Error::new(concat!($what, " must be a string"))),
                }
            }
        }
    };
}
pub(crate) use keyword_enum;

/// Whether `v` holds its type's default — the `skip_serializing_if`
/// predicate of every field that is omitted at its default.
pub(crate) fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

keyword_enum! {
    /// Which simulator executes a scenario's trials.
    ///
    /// Serialized in lowercase (`"backend": "netlist"`); omitted from the
    /// serialized form when it is the default, so pre-backend sweep specs
    /// keep both their JSON shape **and** their content-hash scenario IDs —
    /// an existing spec reproduces its historical results bit for bit.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub enum BackendSpec("backend") {
        /// The staged-pipeline Monte-Carlo substrate: joint-Gaussian stage
        /// sampling for moment-form scenarios, and the same prepared
        /// gate-level path as `Netlist` for gate-level ones (the two
        /// keywords produce the same bytes there).
        #[default]
        Pipeline = "pipeline",
        /// Gate-level Monte-Carlo on the allocation-free prepared path
        /// ([`vardelay_mc::PreparedPipelineMc`]): every trial samples a die
        /// through the process sampler and times real netlists with
        /// workspace-reused buffers. Rejects moment-form scenarios, which
        /// have no gates.
        Netlist = "netlist",
        /// Closed-form Clark/SSTA evaluation only — no sampling. Pairs with
        /// a Monte-Carlo twin of the same scenario to put model-vs-MC deltas
        /// in one sweep result. Requires `trials == 0`.
        Analytic = "analytic",
    }
}

keyword_enum! {
    /// Which **trial-kernel contract** executes a scenario's Monte-Carlo
    /// arithmetic (see `vardelay_mc::TrialKernel`).
    ///
    /// Serialized in lowercase (`"kernel": "v3"`); omitted from the
    /// serialized form when it is the default, so pre-kernel sweep specs
    /// keep both their JSON shape **and** their content-hash scenario IDs.
    /// Like `backend`, the kernel is excluded from scenario identity: the
    /// same spec content and sweep seed derive the same per-trial RNG
    /// seeds under either kernel — only the trial arithmetic (and hence
    /// the result bytes) differs, and each kernel is byte-stable against
    /// itself. `ALL` lists the kernels oldest first, mirroring
    /// `vardelay_mc::TrialKernel::ALL`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub enum KernelSpec("kernel") {
        /// The original scalar trial kernel — every historical result's
        /// byte contract.
        #[default]
        V1 = "v1",
        /// The wide lane-major kernel: all normals of a 16-trial pass are
        /// generated up front (batch inverse-CDF, die draws included), then
        /// every stage and gate is visited once per pass over contiguous
        /// per-lane rows with polynomial slowdown factors; statistics fold
        /// over 16 lanes. Several times the trial throughput of `v1` under
        /// its own (equally frozen) byte contract, and the only kernel
        /// whose campaign verification fans out across the worker pool.
        V3 = "v3",
    }
}

impl KernelSpec {
    /// The `vardelay-mc` kernel this spec keyword selects.
    pub fn to_kernel(self) -> vardelay_mc::TrialKernel {
        match self {
            KernelSpec::V1 => vardelay_mc::TrialKernel::V1,
            KernelSpec::V3 => vardelay_mc::TrialKernel::V3,
        }
    }
}

keyword_enum! {
    /// Which **trial-plan contract** shapes a scenario's Monte-Carlo draws
    /// (see `vardelay_mc::TrialStrategy`): how the counter-based per-trial
    /// streams are turned into samples, orthogonal to the kernel that
    /// executes the arithmetic.
    ///
    /// Like `kernel`, the strategy is excluded from scenario identity — it
    /// changes how draws are shaped, not what is simulated — and each
    /// strategy is a versioned deterministic contract, byte-stable against
    /// itself at any worker/shard/resume configuration.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub enum StrategySpec("trial strategy") {
        /// Independent per-trial draws — every historical result's byte
        /// contract.
        #[default]
        Plain = "plain",
        /// Antithetic pairs: trial `2k+1` negates every normal of trial
        /// `2k`.
        Antithetic = "antithetic",
        /// Latin-hypercube stratification of the leading (die-level)
        /// dimensions, one stratum per trial per 256-trial block.
        Stratified = "stratified",
        /// Scrambled Sobol quasi-Monte-Carlo points on the leading
        /// dimensions, indexed by global trial number.
        Sobol = "sobol",
        /// Statistical blockade: mean-shifted inter-die sampling with
        /// likelihood-ratio reweighting, for deep-tail yield targets.
        Blockade = "blockade",
    }
}

impl StrategySpec {
    /// The `vardelay-mc` strategy this spec keyword selects.
    pub fn to_strategy(self) -> vardelay_mc::TrialStrategy {
        match self {
            StrategySpec::Plain => vardelay_mc::TrialStrategy::Plain,
            StrategySpec::Antithetic => vardelay_mc::TrialStrategy::Antithetic,
            StrategySpec::Stratified => vardelay_mc::TrialStrategy::Stratified,
            StrategySpec::Sobol => vardelay_mc::TrialStrategy::Sobol,
            StrategySpec::Blockade => vardelay_mc::TrialStrategy::Blockade,
        }
    }
}

/// Maximum accepted blockade mean shift, in sigmas. Past this the
/// likelihood-ratio weights degenerate (ESS collapses) long before any
/// realistic yield target justifies the shift.
pub const MAX_SHIFT_SIGMAS: f64 = 8.0;

/// A trial-plan selection in spec form: strategy plus its optional
/// tuning knobs.
///
/// Serialized *inside* the `trials` (or `verify_trials`) value: the
/// default plan keeps the plain number form — existing specs keep both
/// their JSON shape and their content-hash IDs — while any other plan
/// widens it to `{"count": N, "strategy": "...", ...}`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrialPlanSpec {
    /// The sampling strategy.
    pub strategy: StrategySpec,
    /// Blockade mean shift in sigmas of the inter-die component
    /// (blockade only; `None` uses the contract default).
    pub shift_sigmas: Option<f64>,
    /// Target 95% confidence half-width on the verified yield: lets a
    /// variance-reducing plan stop early once the interval is tight
    /// enough, with the trial count as a ceiling. Campaign verification
    /// only — scenarios always run their full budget.
    pub ci_half_width: Option<f64>,
}

impl TrialPlanSpec {
    /// Whether this is the default (plain, no knobs) plan — the form
    /// that serializes as a bare trial count.
    pub fn is_default(&self) -> bool {
        *self == TrialPlanSpec::default()
    }

    /// The `vardelay-mc` plan this spec selects.
    pub fn to_plan(&self) -> vardelay_mc::TrialPlan {
        let mut plan = vardelay_mc::TrialPlan::of(self.strategy.to_strategy());
        if let Some(s) = self.shift_sigmas {
            plan.shift_sigmas = s;
        }
        plan
    }

    /// Short human-readable description (the strategy keyword, plus the
    /// shift for blockade plans).
    pub fn label(&self) -> String {
        match (self.strategy, self.shift_sigmas) {
            (StrategySpec::Blockade, Some(s)) => format!("blockade(shift {s}σ)"),
            (s, _) => s.keyword().to_owned(),
        }
    }

    /// Checks the knob/strategy combination is in-domain.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(s) = self.shift_sigmas {
            if self.strategy != StrategySpec::Blockade {
                return Err(format!(
                    "shift_sigmas applies only to the blockade strategy, not '{}'",
                    self.strategy.keyword()
                ));
            }
            if !(s.is_finite() && s > 0.0 && s <= MAX_SHIFT_SIGMAS) {
                return Err(format!(
                    "shift_sigmas must be finite in (0, {MAX_SHIFT_SIGMAS}], got {s}"
                ));
            }
        }
        if let Some(hw) = self.ci_half_width {
            if self.strategy == StrategySpec::Plain {
                return Err(
                    "ci_half_width requires a non-plain trial strategy (plain runs keep the \
                     historical fixed-budget contract)"
                        .to_owned(),
                );
            }
            if !(hw.is_finite() && hw > 0.0 && hw < 0.5) {
                return Err(format!(
                    "ci_half_width must be finite in (0, 0.5), got {hw}"
                ));
            }
        }
        Ok(())
    }
}

/// The object form of a trial budget with a non-default plan.
#[derive(Serialize, Deserialize)]
struct TrialsObject {
    count: u64,
    strategy: StrategySpec,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    shift_sigmas: Option<f64>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    ci_half_width: Option<f64>,
}

/// Serializes a trial budget with its plan: the bare count when the
/// plan is the default (existing specs keep their bytes), else an
/// object carrying the strategy and its knobs.
pub(crate) fn trials_to_value(count: u64, plan: &TrialPlanSpec) -> Value {
    if plan.is_default() {
        return count.to_value();
    }
    TrialsObject {
        count,
        strategy: plan.strategy,
        shift_sigmas: plan.shift_sigmas,
        ci_half_width: plan.ci_half_width,
    }
    .to_value()
}

/// Parses a trial budget in either form: a bare count (plain plan) or
/// `{"count": N, "strategy": "...", "shift_sigmas"?: S,
/// "ci_half_width"?: H}`.
pub(crate) fn trials_from_value(v: &Value) -> Result<(u64, TrialPlanSpec), serde::Error> {
    if !matches!(v, Value::Object(_)) {
        return Ok((Deserialize::from_value(v)?, TrialPlanSpec::default()));
    }
    let t = TrialsObject::from_value(v)?;
    let plan = TrialPlanSpec {
        strategy: t.strategy,
        shift_sigmas: t.shift_sigmas,
        ci_half_width: t.ci_half_width,
    };
    Ok((t.count, plan))
}

/// The required `trials` key of scenarios and grids: a trial count and
/// its plan (`#[serde(with = "crate::spec::trials", pair = trial_plan)]`).
pub(crate) mod trials {
    use super::{trials_from_value, trials_to_value, TrialPlanSpec};
    use serde::{Error, Value};

    pub(crate) fn to_value(count: &u64, plan: &TrialPlanSpec) -> Option<Value> {
        Some(trials_to_value(*count, plan))
    }

    pub(crate) fn from_value(v: Option<&Value>) -> Result<(u64, TrialPlanSpec), Error> {
        trials_from_value(v.ok_or_else(|| Error::missing_field("trials"))?)
    }
}

/// A named combinational circuit, built by the generators in
/// `vardelay-circuit` — how netlist-backend sweeps refer to concrete
/// workloads (the paper's chains, the Fig. 6 ALU/decoder segments, the
/// Table II/III ISCAS profiles, seeded random logic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CircuitSpec {
    /// An inverter chain of the given logic depth.
    Chain {
        /// Number of inverters.
        depth: usize,
        /// Drive strength (multiple of minimum size).
        size: f64,
    },
    /// ALU part I (propagate/generate + carry merge) of the Fig. 6
    /// pipeline.
    Alu1 {
        /// Datapath width (positive multiple of 4).
        width: usize,
    },
    /// ALU part II (carry expansion + sums) of the Fig. 6 pipeline.
    Alu2 {
        /// Datapath width (positive multiple of 4).
        width: usize,
    },
    /// The Fig. 6 decoder stage.
    Decoder {
        /// Input bits (2 or 4).
        bits: usize,
    },
    /// Seeded random levelized logic.
    Random {
        /// RNG seed — same seed, same netlist.
        seed: u64,
        /// Primary inputs.
        inputs: usize,
        /// Total gate count.
        gates: usize,
        /// Target logic depth (`<= gates`).
        depth: usize,
        /// Primary outputs.
        outputs: usize,
    },
    /// A synthetic ISCAS85 equivalent.
    Iscas {
        /// Benchmark name: `c432`, `c1908`, `c2670`, or `c3540`.
        name: String,
    },
}

/// Per-circuit gate-count cap enforced by validation. Like
/// [`crate::run::MAX_TRIALS`], this keeps a fat-fingered spec from
/// allocating gigabytes during `prepare`/`sweep validate` — 1M gates is
/// far beyond any paper workload (c3540, the largest ISCAS profile, is
/// ~1.7k) while a 1M-gate netlist is still only tens of MB.
pub const MAX_CIRCUIT_GATES: usize = 1_000_000;

impl CircuitSpec {
    /// Checks the spec is in-domain before any generator runs (the
    /// generators assert on out-of-range parameters, and netlist
    /// construction must not be reachable from absurd user JSON; both
    /// must fail softly instead).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let check_gates = |what: &str, n: usize| {
            if n > MAX_CIRCUIT_GATES {
                Err(format!(
                    "{what} implies {n} gates, over the per-circuit cap of {MAX_CIRCUIT_GATES}"
                ))
            } else {
                Ok(())
            }
        };
        match self {
            CircuitSpec::Chain { depth, size } => {
                if *depth == 0 {
                    return Err("chain depth must be positive".to_owned());
                }
                check_gates("chain depth", *depth)?;
                if !(size.is_finite() && *size > 0.0) {
                    return Err(format!(
                        "chain size must be finite and positive, got {size}"
                    ));
                }
                Ok(())
            }
            CircuitSpec::Alu1 { width } | CircuitSpec::Alu2 { width } => {
                if *width == 0 || width % 4 != 0 {
                    return Err(format!(
                        "alu width must be a positive multiple of 4, got {width}"
                    ));
                }
                // ALU segments emit a small constant number of gates
                // per bit; bound the width by the same gate budget.
                check_gates("alu width x8", width.saturating_mul(8))
            }
            CircuitSpec::Decoder { bits } => {
                if !(*bits == 2 || *bits == 4) {
                    return Err(format!("decoder bits must be 2 or 4, got {bits}"));
                }
                Ok(())
            }
            CircuitSpec::Random {
                inputs,
                gates,
                depth,
                outputs,
                ..
            } => {
                if *inputs == 0 || *gates == 0 || *depth == 0 || *outputs == 0 {
                    return Err("random circuit counts must all be positive".to_owned());
                }
                if depth > gates {
                    return Err(format!("random depth {depth} exceeds gate count {gates}"));
                }
                check_gates("random gate count", *gates)?;
                check_gates("random input count", *inputs)?;
                if outputs > gates {
                    return Err(format!(
                        "random outputs {outputs} exceed gate count {gates}"
                    ));
                }
                Ok(())
            }
            CircuitSpec::Iscas { name } => match name.as_str() {
                "c432" | "c1908" | "c2670" | "c3540" => Ok(()),
                other => Err(format!(
                    "unknown iscas benchmark '{other}' (use c432|c1908|c2670|c3540)"
                )),
            },
        }
    }

    /// Builds the netlist.
    ///
    /// # Panics
    ///
    /// Panics on out-of-domain parameters — call
    /// [`CircuitSpec::validate`] first on untrusted specs.
    pub fn build(&self) -> Netlist {
        match self {
            CircuitSpec::Chain { depth, size } => inverter_chain(*depth, *size),
            CircuitSpec::Alu1 { width } => alu_part1(*width),
            CircuitSpec::Alu2 { width } => alu_part2(*width),
            CircuitSpec::Decoder { bits } => decoder(*bits),
            CircuitSpec::Random {
                seed,
                inputs,
                gates,
                depth,
                outputs,
            } => random_logic(&RandomLogicConfig {
                name: format!("random_{seed:x}"),
                inputs: *inputs,
                gates: *gates,
                depth: *depth,
                outputs: *outputs,
                seed: *seed,
            }),
            CircuitSpec::Iscas { name } => match name.as_str() {
                "c432" => iscas::c432(),
                "c1908" => iscas::c1908(),
                "c2670" => iscas::c2670(),
                "c3540" => iscas::c3540(),
                other => panic!("unknown iscas benchmark '{other}'"),
            },
        }
    }
}

/// A variation configuration in spec form (σVth components in mV).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VariationSpec {
    /// No variation: every trial reproduces the nominal delay.
    Nominal,
    /// Random intra-die mismatch only.
    RandomOnly {
        /// σVth of the per-gate random component at minimum size (mV).
        sigma_mv: f64,
    },
    /// Inter-die shift only (perfectly correlated stages).
    InterOnly {
        /// σVth of the shared die-to-die component (mV).
        sigma_mv: f64,
    },
    /// Inter-die + random + systematic (spatially correlated) components.
    Combined {
        /// Inter-die σVth (mV).
        inter_mv: f64,
        /// Random intra-die σVth at minimum size (mV).
        random_mv: f64,
        /// Systematic (spatially correlated) σVth (mV).
        systematic_mv: f64,
    },
}

impl VariationSpec {
    /// The process-model configuration this spec describes.
    pub fn to_config(self) -> VariationConfig {
        match self {
            VariationSpec::Nominal => VariationConfig::none(),
            VariationSpec::RandomOnly { sigma_mv } => VariationConfig::random_only(sigma_mv),
            VariationSpec::InterOnly { sigma_mv } => VariationConfig::inter_only(sigma_mv),
            VariationSpec::Combined {
                inter_mv,
                random_mv,
                systematic_mv,
            } => VariationConfig::combined(inter_mv, random_mv, systematic_mv),
        }
    }

    /// Checks the spec is in-domain (the process model asserts on
    /// negative sigmas; user-supplied JSON must fail softly instead).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending component.
    pub fn validate(self) -> Result<(), String> {
        let check = |name: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "{name} sigma must be finite and non-negative, got {v} mV"
                ))
            }
        };
        match self {
            VariationSpec::Nominal => Ok(()),
            VariationSpec::RandomOnly { sigma_mv } => check("random", sigma_mv),
            VariationSpec::InterOnly { sigma_mv } => check("inter-die", sigma_mv),
            VariationSpec::Combined {
                inter_mv,
                random_mv,
                systematic_mv,
            } => {
                check("inter-die", inter_mv)?;
                check("random", random_mv)?;
                check("systematic", systematic_mv)
            }
        }
    }

    /// Short human-readable description.
    pub fn label(self) -> String {
        match self {
            VariationSpec::Nominal => "nominal".to_owned(),
            VariationSpec::RandomOnly { sigma_mv } => format!("rand {sigma_mv}mV"),
            VariationSpec::InterOnly { sigma_mv } => format!("inter {sigma_mv}mV"),
            VariationSpec::Combined {
                inter_mv,
                random_mv,
                systematic_mv,
            } => format!("inter {inter_mv}mV + rand {random_mv}mV + sys {systematic_mv}mV"),
        }
    }
}

/// Latch (flip-flop) selection for generated pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatchSpec {
    /// Zero-overhead latches: pipeline delay is the pure logic max.
    Ideal,
    /// The paper's transmission-gate master–slave flip-flop.
    TgMsff70nm,
}

impl LatchSpec {
    /// The circuit-model latch parameters.
    pub fn to_params(self) -> LatchParams {
        match self {
            LatchSpec::Ideal => LatchParams::ideal(),
            LatchSpec::TgMsff70nm => LatchParams::tg_msff_70nm(),
        }
    }
}

/// Explicit per-stage delay moments (ps).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageMoments {
    /// Stage mean delay (ps).
    pub mu_ps: f64,
    /// Stage delay standard deviation (ps).
    pub sigma_ps: f64,
}

/// How a scenario's pipeline is obtained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PipelineSpec {
    /// Abstract stages given directly as `(μ, σ)` with an equicorrelated
    /// stage correlation — the paper's eq. 4–9 model inputs. Monte-Carlo
    /// trials sample the joint Gaussian stage-delay vector. Because the
    /// moments already encode all variation, the scenario's `variation`
    /// must be [`VariationSpec::Nominal`] (the engine rejects anything
    /// else rather than silently ignore it).
    Moments {
        /// Per-stage delay moments.
        stages: Vec<StageMoments>,
        /// Pairwise stage correlation ρ.
        rho: f64,
    },
    /// An `stages × depth` grid of equal inverter-chain stages, timed at
    /// gate level (SSTA for the model, netlist Monte-Carlo for trials).
    InverterGrid {
        /// Number of pipeline stages `N_S`.
        stages: usize,
        /// Logic depth `N_L` of every stage.
        depth: usize,
        /// Inverter drive strength (multiple of minimum size).
        size: f64,
        /// Latch selection.
        latch: LatchSpec,
    },
    /// Inverter-chain stages with individual logic depths.
    InverterStages {
        /// Logic depth of each stage, in order.
        depths: Vec<usize>,
        /// Inverter drive strength (multiple of minimum size).
        size: f64,
        /// Latch selection.
        latch: LatchSpec,
    },
    /// Stages named as concrete generated circuits — the way sweeps
    /// describe heterogeneous pipelines (ALU–decoder, ISCAS chains,
    /// random logic) instead of uniform inverter chains.
    Circuits {
        /// One circuit per pipeline stage, in order.
        stages: Vec<CircuitSpec>,
        /// Latch selection.
        latch: LatchSpec,
    },
}

impl PipelineSpec {
    /// Number of pipeline stages.
    pub fn stage_count(&self) -> usize {
        match self {
            PipelineSpec::Moments { stages, .. } => stages.len(),
            PipelineSpec::InverterGrid { stages, .. } => *stages,
            PipelineSpec::InverterStages { depths, .. } => depths.len(),
            PipelineSpec::Circuits { stages, .. } => stages.len(),
        }
    }

    /// Short human-readable description, used when grids must invent
    /// labels for generated scenarios/runs.
    pub fn label(&self) -> String {
        match self {
            PipelineSpec::Moments { stages, .. } => format!("{}stg moments", stages.len()),
            PipelineSpec::InverterGrid { stages, depth, .. } => format!("{stages}x{depth} grid"),
            PipelineSpec::InverterStages { depths, .. } => format!("{}stg chains", depths.len()),
            PipelineSpec::Circuits { stages, .. } => format!("{}stg circuits", stages.len()),
        }
    }

    /// Checks the spec is in-domain before any generator runs (the
    /// circuit generators assert on zero stages/depths and non-positive
    /// sizes; user-supplied JSON must fail softly instead).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let check_size = |size: f64| {
            if size.is_finite() && size > 0.0 {
                Ok(())
            } else {
                Err(format!("size must be finite and positive, got {size}"))
            }
        };
        match self {
            PipelineSpec::Moments { stages, rho } => {
                if stages.is_empty() {
                    return Err("at least one stage is required".to_owned());
                }
                for (i, m) in stages.iter().enumerate() {
                    if !m.mu_ps.is_finite() || !m.sigma_ps.is_finite() || m.sigma_ps < 0.0 {
                        return Err(format!(
                            "stage {i} moments must be finite with sigma >= 0, got ({}, {})",
                            m.mu_ps, m.sigma_ps
                        ));
                    }
                }
                if !rho.is_finite() {
                    return Err(format!("rho must be finite, got {rho}"));
                }
                Ok(())
            }
            PipelineSpec::InverterGrid {
                stages,
                depth,
                size,
                ..
            } => {
                if *stages == 0 || *depth == 0 {
                    return Err(format!(
                        "stages and depth must be positive, got {stages}x{depth}"
                    ));
                }
                // Same gate budget as CircuitSpec: validation must stay
                // millisecond-cheap, never build a fat-fingered netlist.
                if stages.saturating_mul(*depth) > MAX_CIRCUIT_GATES {
                    return Err(format!(
                        "inverter grid {stages}x{depth} implies {} gates, over the cap of \
                         {MAX_CIRCUIT_GATES}",
                        stages.saturating_mul(*depth)
                    ));
                }
                check_size(*size)
            }
            PipelineSpec::InverterStages { depths, size, .. } => {
                if depths.is_empty() {
                    return Err("at least one stage is required".to_owned());
                }
                if depths.contains(&0) {
                    return Err("all stage depths must be positive".to_owned());
                }
                let total: usize = depths.iter().fold(0usize, |a, &d| a.saturating_add(d));
                if total > MAX_CIRCUIT_GATES {
                    return Err(format!(
                        "inverter stages imply {total} gates, over the cap of {MAX_CIRCUIT_GATES}"
                    ));
                }
                check_size(*size)
            }
            PipelineSpec::Circuits { stages, .. } => {
                if stages.is_empty() {
                    return Err("at least one stage is required".to_owned());
                }
                for (i, c) in stages.iter().enumerate() {
                    c.validate().map_err(|e| format!("stage {i}: {e}"))?;
                }
                Ok(())
            }
        }
    }

    /// Builds the gate-level pipeline, or `None` for moment-form specs.
    pub fn build(&self, name: &str) -> Option<StagedPipeline> {
        match self {
            PipelineSpec::Moments { .. } => None,
            PipelineSpec::InverterGrid {
                stages,
                depth,
                size,
                latch,
            } => Some(StagedPipeline::inverter_grid(
                *stages,
                *depth,
                *size,
                latch.to_params(),
            )),
            PipelineSpec::InverterStages {
                depths,
                size,
                latch,
            } => Some(StagedPipeline::new(
                name,
                depths.iter().map(|&nl| inverter_chain(nl, *size)).collect(),
                latch.to_params(),
            )),
            PipelineSpec::Circuits { stages, latch } => Some(StagedPipeline::new(
                name,
                stages.iter().map(CircuitSpec::build).collect(),
                latch.to_params(),
            )),
        }
    }
}

/// One point of the sweep: pipeline × variation × trial budget ×
/// simulation backend.
///
/// `backend`, `kernel` and `histogram_bins` are *omitted* when they
/// hold their defaults and optional when reading, as is the plan inside
/// `trials`. A spec written before those fields existed therefore parses
/// unchanged AND serializes to the same bytes, which keeps its
/// content-hash scenario IDs — and with them every per-trial RNG stream —
/// bit-stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Display label (also part of the scenario's content hash).
    pub label: String,
    /// Pipeline construction.
    pub pipeline: PipelineSpec,
    /// Process-variation configuration.
    pub variation: VariationSpec,
    /// Monte-Carlo trials; `0` evaluates the analytic model only.
    #[serde(with = "crate::spec::trials", pair = trial_plan)]
    pub trials: u64,
    /// Trial-plan contract shaping the Monte-Carlo draws (serialized
    /// inside the `trials` value; the default keeps the bare count).
    pub trial_plan: TrialPlanSpec,
    /// Absolute yield targets (ps).
    pub yield_targets: Vec<f64>,
    /// Additional targets derived from the analytic model as
    /// `round(μ + k·σ)` for each listed `k` — the paper's practice of
    /// placing targets in the upper body of the distribution.
    pub auto_target_sigmas: Vec<f64>,
    /// Which simulator runs the trials.
    #[serde(default, skip_serializing_if = "is_default")]
    pub backend: BackendSpec,
    /// Which trial-kernel contract runs the trials.
    #[serde(default, skip_serializing_if = "is_default")]
    pub kernel: KernelSpec,
    /// When positive, stream a fixed-range histogram of the pipeline
    /// delay (bounds derived from the analytic model) into the result —
    /// distribution shape without retained samples.
    #[serde(default, skip_serializing_if = "is_default")]
    pub histogram_bins: usize,
}

impl Scenario {
    /// The scenario's stable content hash under a sweep seed.
    ///
    /// Hashes the serialized spec, so any change to any
    /// *experiment-defining* field (or to the sweep seed) changes every
    /// per-trial RNG stream, while re-ordering scenarios inside the
    /// sweep changes nothing. Four fields are deliberately
    /// **excluded**: `backend`, `kernel`, `trial_plan` and
    /// `histogram_bins` describe how trials are executed and observed,
    /// not what is simulated — the gate-level backends are
    /// bit-identical per seed, so flipping a spec from `pipeline` to
    /// `netlist` (or adding a histogram) reproduces the exact same
    /// Monte-Carlo numbers; flipping the kernel or the trial plan keeps
    /// every per-trial RNG seed (only how the streams become draws
    /// changes, each under its own frozen contract). Strategy twins
    /// still get distinct *unit keys* — those hash the full serialized
    /// spec — so caches and journals never conflate them.
    pub fn id(&self, sweep_seed: u64) -> u64 {
        let mut identity = self.clone();
        identity.backend = BackendSpec::default();
        identity.kernel = KernelSpec::default();
        identity.trial_plan = TrialPlanSpec::default();
        identity.histogram_bins = 0;
        let json = serde_json::to_string(&identity).expect("scenario specs are finite");
        fnv1a64(json.as_bytes()) ^ sweep_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Cartesian scenario grid: stage counts × logic depths × sizes ×
/// variations. Serialized like [`Scenario`]: defaults omitted on write
/// (pre-backend grid specs keep their bytes), optional on read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Pipeline stage counts `N_S` to sweep.
    pub stage_counts: Vec<usize>,
    /// Per-stage logic depths `N_L` to sweep.
    pub logic_depths: Vec<usize>,
    /// Inverter drive strengths to sweep.
    pub sizes: Vec<f64>,
    /// Variation configurations to sweep.
    pub variations: Vec<VariationSpec>,
    /// Latch used by every generated pipeline.
    pub latch: LatchSpec,
    /// Monte-Carlo trials per scenario; `0` for analytic-only.
    #[serde(with = "crate::spec::trials", pair = trial_plan)]
    pub trials: u64,
    /// Trial-plan contract stamped on every generated scenario
    /// (serialized inside the `trials` value).
    pub trial_plan: TrialPlanSpec,
    /// Absolute yield targets (ps) evaluated for every scenario.
    pub yield_targets: Vec<f64>,
    /// Analytic-derived targets (see [`Scenario::auto_target_sigmas`]).
    pub auto_target_sigmas: Vec<f64>,
    /// Simulation backend stamped on every generated scenario.
    #[serde(default, skip_serializing_if = "is_default")]
    pub backend: BackendSpec,
    /// Trial-kernel contract stamped on every generated scenario.
    #[serde(default, skip_serializing_if = "is_default")]
    pub kernel: KernelSpec,
    /// Histogram bins stamped on every generated scenario (0 = none).
    #[serde(default, skip_serializing_if = "is_default")]
    pub histogram_bins: usize,
}

impl GridSpec {
    /// Expands the grid into concrete scenarios, in row-major order
    /// (stage count, then depth, then size, then variation).
    pub fn expand(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &ns in &self.stage_counts {
            for &nl in &self.logic_depths {
                for &size in &self.sizes {
                    for &variation in &self.variations {
                        out.push(Scenario {
                            label: format!("{ns}x{nl} s{size} {}", variation.label()),
                            pipeline: PipelineSpec::InverterGrid {
                                stages: ns,
                                depth: nl,
                                size,
                                latch: self.latch,
                            },
                            variation,
                            trials: self.trials,
                            trial_plan: self.trial_plan,
                            yield_targets: self.yield_targets.clone(),
                            auto_target_sigmas: self.auto_target_sigmas.clone(),
                            backend: self.backend,
                            kernel: self.kernel,
                            histogram_bins: self.histogram_bins,
                        });
                    }
                }
            }
        }
        out
    }
}

/// A full sweep: explicit scenarios plus an optional grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sweep {
    /// Sweep name (reported in results).
    pub name: String,
    /// Base seed namespacing every scenario's RNG streams.
    pub seed: u64,
    /// Explicit scenarios, evaluated first.
    #[serde(default)]
    pub scenarios: Vec<Scenario>,
    /// Grid expansion appended after the explicit list.
    #[serde(default)]
    pub grid: Option<GridSpec>,
}

impl Sweep {
    /// All scenarios: the explicit list followed by the grid expansion.
    pub fn expand(&self) -> Vec<Scenario> {
        let mut out = self.scenarios.clone();
        if let Some(grid) = &self.grid {
            out.extend(grid.expand());
        }
        out
    }

    /// Parses a sweep spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse/shape error.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes the spec as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep specs are finite")
    }

    /// A ready-to-run example spec: a 3×3 depth-vs-stage-count grid under
    /// two variation mixes (18 scenarios) plus two explicit scenarios —
    /// one moment-form, one variable-depth.
    pub fn example() -> Self {
        Sweep {
            name: "example".to_owned(),
            seed: 7,
            scenarios: vec![
                Scenario {
                    label: "moments 5-stage rho 0.3".to_owned(),
                    pipeline: PipelineSpec::Moments {
                        stages: vec![
                            StageMoments {
                                mu_ps: 180.0,
                                sigma_ps: 6.0,
                            },
                            StageMoments {
                                mu_ps: 200.0,
                                sigma_ps: 8.0,
                            },
                            StageMoments {
                                mu_ps: 195.0,
                                sigma_ps: 7.0,
                            },
                            StageMoments {
                                mu_ps: 188.0,
                                sigma_ps: 6.5,
                            },
                            StageMoments {
                                mu_ps: 192.0,
                                sigma_ps: 7.5,
                            },
                        ],
                        rho: 0.3,
                    },
                    variation: VariationSpec::Nominal,
                    trials: 4_000,
                    trial_plan: TrialPlanSpec::default(),
                    yield_targets: vec![215.0],
                    auto_target_sigmas: vec![1.2],
                    backend: BackendSpec::Pipeline,
                    kernel: KernelSpec::default(),
                    histogram_bins: 0,
                },
                Scenario {
                    label: "5xvar".to_owned(),
                    pipeline: PipelineSpec::InverterStages {
                        depths: vec![6, 8, 7, 9, 8],
                        size: 1.0,
                        latch: LatchSpec::TgMsff70nm,
                    },
                    variation: VariationSpec::RandomOnly { sigma_mv: 35.0 },
                    trials: 2_000,
                    trial_plan: TrialPlanSpec::default(),
                    yield_targets: vec![],
                    auto_target_sigmas: vec![1.2],
                    backend: BackendSpec::Pipeline,
                    kernel: KernelSpec::default(),
                    histogram_bins: 0,
                },
            ],
            grid: Some(GridSpec {
                stage_counts: vec![4, 5, 8],
                logic_depths: vec![5, 8, 12],
                sizes: vec![1.0],
                variations: vec![
                    VariationSpec::RandomOnly { sigma_mv: 35.0 },
                    VariationSpec::Combined {
                        inter_mv: 20.0,
                        random_mv: 35.0,
                        systematic_mv: 15.0,
                    },
                ],
                latch: LatchSpec::TgMsff70nm,
                trials: 2_000,
                trial_plan: TrialPlanSpec::default(),
                yield_targets: vec![],
                auto_target_sigmas: vec![1.2],
                backend: BackendSpec::Pipeline,
                kernel: KernelSpec::default(),
                histogram_bins: 0,
            }),
        }
    }

    /// A ready-to-run example spec exercising one trial-plan strategy:
    /// an inter-die-dominant variation mix (the regime where leading-
    /// dimension variance reduction pays), one gate-level and one
    /// moment-form scenario, both stamped with `strategy`, with a
    /// high-sigma auto target alongside the body target so yield CIs
    /// show the plan's effect. The `vardelay sweep example --strategy`
    /// template.
    pub fn example_trial_plan(strategy: StrategySpec) -> Self {
        let plan = TrialPlanSpec {
            strategy,
            shift_sigmas: None,
            ci_half_width: None,
        };
        // Inter-die 40 mV over random 10 mV: most delay variance rides
        // the shared die-level dimension that stratified/Sobol/blockade
        // plans shape.
        let inter_heavy = VariationSpec::Combined {
            inter_mv: 40.0,
            random_mv: 10.0,
            systematic_mv: 0.0,
        };
        Sweep {
            name: format!("{}-example", strategy.keyword()),
            seed: 0x7B1A, // "trial plans"
            scenarios: vec![
                Scenario {
                    label: format!("5stg chains inter-heavy ({})", strategy.keyword()),
                    pipeline: PipelineSpec::InverterStages {
                        depths: vec![6, 8, 7, 9, 8],
                        size: 1.0,
                        latch: LatchSpec::TgMsff70nm,
                    },
                    variation: inter_heavy,
                    trials: 4_096,
                    trial_plan: plan,
                    yield_targets: vec![],
                    auto_target_sigmas: vec![1.2, 3.0],
                    backend: BackendSpec::Pipeline,
                    kernel: KernelSpec::default(),
                    histogram_bins: 0,
                },
                Scenario {
                    label: format!("moments 4-stage rho 0.5 ({})", strategy.keyword()),
                    pipeline: PipelineSpec::Moments {
                        stages: vec![
                            StageMoments {
                                mu_ps: 190.0,
                                sigma_ps: 9.0,
                            },
                            StageMoments {
                                mu_ps: 201.0,
                                sigma_ps: 11.0,
                            },
                            StageMoments {
                                mu_ps: 195.0,
                                sigma_ps: 10.0,
                            },
                            StageMoments {
                                mu_ps: 185.0,
                                sigma_ps: 8.0,
                            },
                        ],
                        rho: 0.5,
                    },
                    variation: VariationSpec::Nominal,
                    trials: 4_096,
                    trial_plan: plan,
                    yield_targets: vec![],
                    auto_target_sigmas: vec![1.2, 3.0],
                    backend: BackendSpec::Pipeline,
                    kernel: KernelSpec::default(),
                    histogram_bins: 0,
                },
            ],
            grid: None,
        }
    }

    /// A ready-to-run **gate-level** example spec for the netlist
    /// backend: the paper's Table-1 chain pipeline (with an analytic
    /// twin for a model-vs-MC delta in one result file), the Fig. 6
    /// ALU–decoder pipeline, an ISCAS profile, and seeded random logic.
    pub fn example_netlist() -> Self {
        let rand35 = VariationSpec::RandomOnly { sigma_mv: 35.0 };
        let chain_5x8 = PipelineSpec::Circuits {
            stages: vec![
                CircuitSpec::Chain {
                    depth: 8,
                    size: 1.0,
                };
                5
            ],
            latch: LatchSpec::TgMsff70nm,
        };
        Sweep {
            name: "netlist-example".to_owned(),
            seed: 0x0E75,
            scenarios: vec![
                Scenario {
                    label: "chain 5x8 (netlist MC)".to_owned(),
                    pipeline: chain_5x8.clone(),
                    variation: rand35,
                    trials: 4_000,
                    trial_plan: TrialPlanSpec::default(),
                    yield_targets: vec![],
                    auto_target_sigmas: vec![1.2],
                    backend: BackendSpec::Netlist,
                    kernel: KernelSpec::default(),
                    histogram_bins: 24,
                },
                Scenario {
                    label: "chain 5x8 (analytic model)".to_owned(),
                    pipeline: chain_5x8,
                    variation: rand35,
                    trials: 0,
                    trial_plan: TrialPlanSpec::default(),
                    yield_targets: vec![],
                    auto_target_sigmas: vec![1.2],
                    backend: BackendSpec::Analytic,
                    kernel: KernelSpec::default(),
                    histogram_bins: 0,
                },
                Scenario {
                    label: "alu-decoder 3-stage".to_owned(),
                    pipeline: PipelineSpec::Circuits {
                        stages: vec![
                            CircuitSpec::Alu1 { width: 16 },
                            CircuitSpec::Decoder { bits: 4 },
                            CircuitSpec::Alu2 { width: 16 },
                        ],
                        latch: LatchSpec::TgMsff70nm,
                    },
                    variation: VariationSpec::Combined {
                        inter_mv: 20.0,
                        random_mv: 35.0,
                        systematic_mv: 15.0,
                    },
                    trials: 2_000,
                    trial_plan: TrialPlanSpec::default(),
                    yield_targets: vec![],
                    auto_target_sigmas: vec![1.2],
                    backend: BackendSpec::Netlist,
                    kernel: KernelSpec::default(),
                    histogram_bins: 0,
                },
                Scenario {
                    label: "iscas c432".to_owned(),
                    pipeline: PipelineSpec::Circuits {
                        stages: vec![CircuitSpec::Iscas {
                            name: "c432".to_owned(),
                        }],
                        latch: LatchSpec::Ideal,
                    },
                    variation: rand35,
                    trials: 1_000,
                    trial_plan: TrialPlanSpec::default(),
                    yield_targets: vec![],
                    auto_target_sigmas: vec![1.2],
                    backend: BackendSpec::Netlist,
                    kernel: KernelSpec::default(),
                    histogram_bins: 0,
                },
                Scenario {
                    label: "random logic 2-stage".to_owned(),
                    pipeline: PipelineSpec::Circuits {
                        stages: vec![
                            CircuitSpec::Random {
                                seed: 7,
                                inputs: 16,
                                gates: 120,
                                depth: 9,
                                outputs: 8,
                            },
                            CircuitSpec::Random {
                                seed: 8,
                                inputs: 16,
                                gates: 150,
                                depth: 11,
                                outputs: 8,
                            },
                        ],
                        latch: LatchSpec::TgMsff70nm,
                    },
                    variation: rand35,
                    trials: 1_000,
                    trial_plan: TrialPlanSpec::default(),
                    yield_targets: vec![],
                    auto_target_sigmas: vec![1.2],
                    backend: BackendSpec::Netlist,
                    kernel: KernelSpec::default(),
                    histogram_bins: 0,
                },
            ],
            grid: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_json() {
        let sweep = Sweep::example();
        let json = sweep.to_json();
        let back = Sweep::from_json(&json).unwrap();
        assert_eq!(sweep, back);
    }

    #[test]
    fn grid_expansion_counts_and_order() {
        let sweep = Sweep::example();
        let scenarios = sweep.expand();
        // 2 explicit + 3 stage counts x 3 depths x 1 size x 2 variations.
        assert_eq!(scenarios.len(), 2 + 18);
        assert_eq!(scenarios[0].label, "moments 5-stage rho 0.3");
        assert!(scenarios[2].label.starts_with("4x5"));
        assert!(scenarios[19].label.starts_with("8x12"));
    }

    #[test]
    fn ids_depend_on_content_and_seed_not_position() {
        let sweep = Sweep::example();
        let scenarios = sweep.expand();
        let a = scenarios[2].id(sweep.seed);
        assert_eq!(a, scenarios[2].clone().id(sweep.seed), "stable");
        assert_ne!(a, scenarios[3].id(sweep.seed), "content-sensitive");
        assert_ne!(a, scenarios[2].id(sweep.seed + 1), "seed-namespaced");
        let mut tweaked = scenarios[2].clone();
        tweaked.trials += 1;
        assert_ne!(a, tweaked.id(sweep.seed));
    }

    #[test]
    fn netlist_example_roundtrips_and_validates() {
        let sweep = Sweep::example_netlist();
        let back = Sweep::from_json(&sweep.to_json()).unwrap();
        assert_eq!(sweep, back);
        for s in sweep.expand() {
            s.pipeline.validate().expect("template stays valid");
        }
        assert!(sweep.to_json().contains("\"backend\": \"netlist\""));
    }

    #[test]
    fn pre_backend_specs_parse_and_keep_their_ids() {
        // A spec written before the backend field existed must (a)
        // still parse, defaulting to the pipeline backend, and (b)
        // serialize back to the same bytes — which is what keeps its
        // content-hash IDs, and with them all its RNG streams, stable.
        let sweep = Sweep::example();
        let json = sweep.to_json();
        assert!(
            !json.contains("backend") && !json.contains("histogram"),
            "defaults must be omitted: {json}"
        );
        let back = Sweep::from_json(&json).unwrap();
        assert_eq!(back.scenarios[0].backend, BackendSpec::Pipeline);
        assert_eq!(back.scenarios[0].histogram_bins, 0);
        assert_eq!(back.to_json(), json);

        // Non-default fields serialize, but do NOT change the scenario
        // ID: the backend is an execution strategy, not an experiment —
        // switching a spec to the bit-identical netlist backend (or
        // adding a histogram) must reproduce the same trial streams.
        let mut tweaked = sweep.scenarios[1].clone();
        let base_id = tweaked.id(7);
        tweaked.backend = BackendSpec::Netlist;
        tweaked.histogram_bins = 16;
        let j = serde_json::to_string(&tweaked).unwrap();
        assert!(j.contains("\"backend\""), "{j}");
        assert_eq!(base_id, tweaked.id(7), "backend is not part of identity");
        tweaked.trials += 1;
        assert_ne!(base_id, tweaked.id(7), "the experiment itself still is");
    }

    #[test]
    fn kernel_field_roundtrips_and_is_excluded_from_identity() {
        // Pre-kernel specs: the default is omitted on write, so an old
        // spec keeps its bytes (and its content-hash IDs).
        let sweep = Sweep::example();
        let json = sweep.to_json();
        assert!(!json.contains("kernel"), "default must be omitted: {json}");
        let back = Sweep::from_json(&json).unwrap();
        assert_eq!(back.scenarios[0].kernel, KernelSpec::V1);

        // Selecting v3 serializes, round-trips, and — like the backend
        // — does NOT change the scenario ID: both kernels derive the
        // same per-trial seeds from the same spec content.
        let mut tweaked = sweep.scenarios[1].clone();
        let base_id = tweaked.id(7);
        tweaked.kernel = KernelSpec::V3;
        let j = serde_json::to_string(&tweaked).unwrap();
        assert!(j.contains("\"kernel\":\"v3\""), "{j}");
        let back: Scenario = serde_json::from_str(&j).unwrap();
        assert_eq!(tweaked, back);
        assert_eq!(base_id, tweaked.id(7), "kernel is not part of identity");
    }

    #[test]
    fn unknown_kernel_keyword_is_rejected_listing_the_valid_set() {
        let err = KernelSpec::parse("v9").unwrap_err();
        assert_eq!(err, "unknown kernel 'v9' (use v1|v3)");
        let mut sweep = Sweep::example();
        let json = sweep
            .to_json()
            .replace("\"trials\": 4000", "\"trials\": 4000, \"kernel\": \"fast\"");
        let err = Sweep::from_json(&json).unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown kernel 'fast' (use v1|v3)"),
            "{err}"
        );
        // And a grid stamps its kernel onto every generated scenario.
        sweep.grid.as_mut().unwrap().kernel = KernelSpec::V3;
        assert!(sweep.expand()[2..]
            .iter()
            .all(|s| s.kernel == KernelSpec::V3));
    }

    #[test]
    fn grid_selects_backend_and_rejects_unknown_fields() {
        let mut sweep = Sweep::example();
        sweep.scenarios.clear();
        let grid = sweep.grid.as_mut().expect("example has a grid");
        grid.backend = BackendSpec::Netlist;
        grid.histogram_bins = 12;
        // Expansion stamps the grid's backend onto every scenario.
        for s in sweep.expand() {
            assert_eq!(s.backend, BackendSpec::Netlist);
            assert_eq!(s.histogram_bins, 12);
        }
        // …and the selection survives a JSON round trip.
        let back = Sweep::from_json(&sweep.to_json()).unwrap();
        assert_eq!(back, sweep);
        // A typo'd grid key must fail the parse, not silently select
        // the default backend.
        let json = sweep.to_json().replace("\"backend\"", "\"backed\"");
        let err = Sweep::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("backed"), "{err}");
        // Same at the sweep's top level.
        let json = Sweep::example().to_json().replace("\"seed\"", "\"sead\"");
        assert!(Sweep::from_json(&json).is_err());
    }

    #[test]
    fn misspelled_scenario_fields_are_rejected() {
        // `"backed": "netlist"` must not silently run the default
        // backend — the validate lint exists to catch exactly this.
        let mut sweep = Sweep::example();
        sweep.grid = None;
        sweep.scenarios.truncate(1);
        let json = sweep.to_json().replace("\"trials\"", "\"trails\"");
        let err = Sweep::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("trails"), "{err}");
    }

    #[test]
    fn misspelled_nested_fields_are_rejected_too() {
        // Unknown-key rejection must reach derived types: a stray key
        // inside a circuit spec is a typo'd experiment, not noise.
        let json = Sweep::example_netlist()
            .to_json()
            .replace("\"depth\": 8,", "\"depth\": 8, \"count\": 5,");
        let err = Sweep::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("count"), "{err}");
        // Same for a struct variant of VariationSpec.
        let json = Sweep::example()
            .to_json()
            .replace("\"inter_mv\": 20.0,", "\"inter_mv\": 20.0, \"intra\": 1,");
        assert!(Sweep::from_json(&json).is_err());
    }

    #[test]
    fn absurd_inverter_pipelines_are_rejected_before_building() {
        // Validation (and with it `sweep validate`/`optimize validate`)
        // must stay millisecond-cheap: an absurd depth fails the lint,
        // it never reaches a netlist generator.
        let grid = PipelineSpec::InverterGrid {
            stages: 2_000,
            depth: 2_000,
            size: 1.0,
            latch: LatchSpec::Ideal,
        };
        assert!(grid.validate().unwrap_err().contains("cap"));
        let stages = PipelineSpec::InverterStages {
            depths: vec![MAX_CIRCUIT_GATES, MAX_CIRCUIT_GATES],
            size: 1.0,
            latch: LatchSpec::Ideal,
        };
        assert!(stages.validate().unwrap_err().contains("cap"));
    }

    #[test]
    fn absurd_circuit_sizes_are_rejected() {
        let too_big = [
            CircuitSpec::Chain {
                depth: MAX_CIRCUIT_GATES + 1,
                size: 1.0,
            },
            CircuitSpec::Random {
                seed: 1,
                inputs: 8,
                gates: MAX_CIRCUIT_GATES + 1,
                depth: 5,
                outputs: 4,
            },
            CircuitSpec::Alu1 { width: 200_000_000 },
        ];
        for c in &too_big {
            let err = c.validate().unwrap_err();
            assert!(err.contains("cap") || err.contains("multiple"), "{err}");
        }
        assert!(CircuitSpec::Random {
            seed: 1,
            inputs: 4,
            gates: 10,
            depth: 5,
            outputs: 11,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn circuit_specs_validate_and_build() {
        let good = [
            CircuitSpec::Chain {
                depth: 4,
                size: 1.0,
            },
            CircuitSpec::Alu1 { width: 8 },
            CircuitSpec::Alu2 { width: 8 },
            CircuitSpec::Decoder { bits: 4 },
            CircuitSpec::Random {
                seed: 1,
                inputs: 8,
                gates: 40,
                depth: 6,
                outputs: 4,
            },
            CircuitSpec::Iscas {
                name: "c432".to_owned(),
            },
        ];
        for c in &good {
            c.validate().unwrap();
            assert!(c.build().gate_count() > 0, "{c:?}");
        }
        let bad = [
            CircuitSpec::Chain {
                depth: 0,
                size: 1.0,
            },
            CircuitSpec::Chain {
                depth: 3,
                size: f64::NAN,
            },
            CircuitSpec::Alu1 { width: 6 },
            CircuitSpec::Decoder { bits: 3 },
            CircuitSpec::Random {
                seed: 1,
                inputs: 8,
                gates: 4,
                depth: 6,
                outputs: 4,
            },
            CircuitSpec::Iscas {
                name: "c9999".to_owned(),
            },
        ];
        for c in &bad {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
    }

    #[test]
    fn circuits_pipeline_builds_heterogeneous_stages() {
        let p = PipelineSpec::Circuits {
            stages: vec![
                CircuitSpec::Chain {
                    depth: 3,
                    size: 1.0,
                },
                CircuitSpec::Decoder { bits: 2 },
            ],
            latch: LatchSpec::Ideal,
        };
        p.validate().unwrap();
        assert_eq!(p.stage_count(), 2);
        let built = p.build("t").unwrap();
        assert_eq!(built.stage_count(), 2);
        assert!(built.total_gates() > 3);
    }

    #[test]
    fn pipelines_build_to_spec() {
        let p = PipelineSpec::InverterGrid {
            stages: 3,
            depth: 7,
            size: 2.0,
            latch: LatchSpec::Ideal,
        };
        let built = p.build("t").unwrap();
        assert_eq!(built.stage_count(), 3);
        assert_eq!(built.total_gates(), 21);
        assert_eq!(p.stage_count(), 3);

        let v = PipelineSpec::InverterStages {
            depths: vec![2, 4],
            size: 1.0,
            latch: LatchSpec::Ideal,
        };
        assert_eq!(v.build("t").unwrap().total_gates(), 6);

        let m = PipelineSpec::Moments {
            stages: vec![StageMoments {
                mu_ps: 100.0,
                sigma_ps: 5.0,
            }],
            rho: 0.0,
        };
        assert!(m.build("t").is_none());
    }
}
