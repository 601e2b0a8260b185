//! The unified workload layer: one execution pipeline for every batch
//! experiment the engine runs.
//!
//! The paper's experiments all share one shape — expand a spec into
//! independent, content-hash-identified **units**, run them
//! deterministically, merge the per-unit results into a report. Scenario
//! sweeps and optimization campaigns used to implement that shape twice;
//! [`Workload`] implements it once, and both plug in:
//!
//! | workload | unit | step | unit result |
//! |---|---|---|---|
//! | [`crate::Sweep`] | a prepared scenario | one 256-trial MC block | [`crate::ScenarioResult`] |
//! | [`crate::OptimizationCampaign`] | a prepared run | the whole sizing flow | [`crate::OptimizationRunResult`] |
//!
//! A unit expands into **steps** — the worker pool's scheduling grain —
//! whose outputs are folded strictly in step order (the floating-point
//! merge-tree half of the determinism contract). When a unit's last step
//! folds, the unit finishes into its serializable result.
//!
//! ## Sharding, checkpointing, resume
//!
//! Because every unit result is a pure function of `(spec, seed)` — via
//! content-hash unit IDs and counter-based per-trial seeds — three
//! production features fall out of the one pipeline **byte-exactly**:
//!
//! * **Sharding** ([`Shard`]): shard `i/n` owns exactly the units whose
//!   journal key ([`Workload::unit_key`], a content hash of the unit's
//!   full sub-spec) satisfies `key % n == i - 1`. The partition depends
//!   only on the spec, so disjoint machines can run disjoint shards and
//!   the merged union of their outputs is bitwise identical to a single
//!   unsharded run.
//! * **Checkpointing**: every completed unit result can be streamed out
//!   as one JSONL line ([`checkpoint_line`]) the moment it completes.
//! * **Resume** ([`Checkpoint`]): a run handed a checkpoint skips every
//!   unit whose ID appears in it and splices the stored result into the
//!   final report. Since the stored JSON round-trips floats bit-exactly
//!   (shortest-roundtrip printing), a killed-then-resumed run's output
//!   is byte-identical to an uninterrupted one — and resuming from the
//!   concatenated checkpoints of `n` shard runs **is** the shard merge.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize, Value};
use vardelay_mc::TrialWorkspace;

use crate::journal;
use crate::run::{dispatch, EngineError};

/// A batch experiment the engine can execute: how to expand a spec into
/// identified units, run each unit in deterministic steps, and fold
/// everything back into a report.
///
/// Implementations must keep the determinism contract: every method
/// must be a pure function of the spec (`self`) and its arguments, so
/// scheduling, sharding and resume can never leak into results.
pub trait Workload: Sync {
    /// One expanded unit whose sub-spec passed every spec-level check,
    /// not yet built — what the shard filter, resume journal and result
    /// cache are consulted with.
    type UnitSpec;
    /// A built unit of work, ready to execute (shared read-only with
    /// the worker pool).
    type Unit: Send + Sync;
    /// Output of one step of one unit.
    type StepOut: Send;
    /// Per-unit accumulator step outputs fold into, in step order.
    type Acc;
    /// A completed unit's serializable result — the checkpoint /
    /// stream / resume currency.
    type UnitResult: Serialize + Deserialize + Clone + PartialEq + Send;
    /// The aggregate report assembled from unit results in expansion
    /// order.
    type Report;
    /// One validated unit's footprint row (the `validate` lint).
    type UnitPlan;
    /// The aggregate plan assembled from footprint rows.
    type Plan;
    /// Sub-results the units of one [`run_units`] call share
    /// ([`KeyedCells`] keyed by what each sub-result reads), handed to
    /// every step through [`StepContext::shared`]; `()` shares nothing.
    /// A fresh one is made per call, so sharing never outlives a run.
    type Shared: Default + Sync;

    /// Workload name (reported in results and logs).
    fn name(&self) -> &str;
    /// Base seed namespacing every unit's RNG streams.
    fn seed(&self) -> u64;
    /// What a unit is called in user-facing text (`"scenario"`,
    /// `"run"`).
    fn unit_noun(&self) -> &'static str;

    /// Expands the spec into units and runs every spec-level check, in
    /// expansion order. Cheap: nothing is built here.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] naming the first invalid unit.
    fn check(&self) -> Result<Vec<Self::UnitSpec>, EngineError>;
    /// Builds a checked unit: everything execution and planning read
    /// (netlists, compiled kernels, SSTA, the analytic model, derived
    /// targets).
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] for a unit whose spec passes the
    /// checks but cannot be built.
    fn build(&self, spec: Self::UnitSpec) -> Result<Self::Unit, EngineError>;
    /// Checks every unit, then builds every unit, in expansion order.
    ///
    /// # Errors
    ///
    /// Returns the [`Workload::check`] error if any unit fails its
    /// checks — even when an earlier unit would fail to build — and
    /// otherwise the first [`Workload::build`] error. [`run_units`]
    /// and [`plan_workload`] report errors in the same precedence.
    fn prepare(&self) -> Result<Vec<Self::Unit>, EngineError> {
        self.check()?.into_iter().map(|s| self.build(s)).collect()
    }
    /// The unit's stable content hash over its **full** sub-spec — the
    /// shard partition and checkpoint key. It reads the spec only, so
    /// a unit's key is known before (and without) building it.
    ///
    /// This may be broader than the unit's RNG identity: a sweep
    /// scenario's ID deliberately excludes execution-strategy fields
    /// (`backend`, `histogram_bins`) so flipping them replays the same
    /// trial streams, but two such twins still produce different
    /// *result bytes* (the spec is echoed in the result). The journal
    /// key must distinguish any two units whose results could differ,
    /// so it hashes everything.
    fn unit_key(&self, spec: &Self::UnitSpec) -> u64;
    /// How many scheduling steps the unit expands into (0 finishes the
    /// unit from its empty accumulator, running nothing).
    fn unit_steps(&self, unit: &Self::Unit) -> usize;
    /// Approximate Monte-Carlo trials one step will execute — feeds
    /// progress/ETA display only and must never affect results.
    /// Defaults to 0 (unknown).
    fn step_trials(&self, _unit: &Self::Unit, _step: usize) -> u64 {
        0
    }
    /// A fresh accumulator for the unit.
    fn init_acc(&self, unit: &Self::Unit) -> Self::Acc;
    /// Runs one step. Must be a pure function of `(unit, step)`; the
    /// workspace is arbitrary reusable scratch, and the context carries
    /// execution knobs (worker count) and the run's shared cells, none
    /// of which may affect results.
    fn run_step(
        &self,
        unit: &Self::Unit,
        step: usize,
        ws: &mut TrialWorkspace,
        ctx: StepContext<'_, Self::Shared>,
    ) -> Self::StepOut;
    /// Folds a step output into the accumulator. Called strictly in
    /// step order — this *is* the fixed floating-point merge tree.
    fn fold_step(&self, unit: &Self::Unit, acc: &mut Self::Acc, out: Self::StepOut);
    /// Turns a fully folded unit into its result.
    fn finish_unit(&self, unit: &Self::Unit, acc: Self::Acc) -> Self::UnitResult;
    /// Assembles the report from unit results in expansion order.
    fn assemble(&self, results: Vec<Self::UnitResult>) -> Self::Report;
    /// Measures one unit's footprint without running it.
    fn plan_unit(&self, unit: &Self::Unit) -> Self::UnitPlan;
    /// Assembles the plan from footprint rows in expansion order.
    fn assemble_plan(&self, rows: Vec<Self::UnitPlan>) -> Self::Plan;
}

/// The CLI-facing hooks of a workload's aggregate report.
pub trait WorkloadReport {
    /// Serializes as pretty JSON (the `--out` file format).
    fn to_json(&self) -> String;
    /// A compact fixed-width text summary, one unit per row.
    fn summary_table(&self) -> String;
    /// Number of unit results in the report.
    fn unit_count(&self) -> usize;
}

/// The CLI-facing hook of a workload's validation plan.
pub trait WorkloadPlan {
    /// A fixed-width text report, one unit per row plus totals.
    fn render(&self) -> String;
}

/// One shard of a deterministically partitioned workload.
///
/// Shard `i/n` (1-based in user syntax) owns exactly the units whose
/// journal key ([`Workload::unit_key`]) satisfies `key % n == i - 1`.
/// The rule uses only the spec-derived key, so every shard computes the
/// same partition independently, and the union of all shards is exactly
/// the unsharded unit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// 0-based shard index (`i - 1`).
    index: u64,
    /// Total shard count `n`.
    count: u64,
}

impl Shard {
    /// Builds shard `index1/count` from the 1-based user syntax.
    ///
    /// # Errors
    ///
    /// Rejects `count == 0` and `index1` outside `1..=count`.
    pub fn new(index1: u64, count: u64) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be positive".to_owned());
        }
        if index1 == 0 || index1 > count {
            return Err(format!("shard index {index1} is not in 1..={count}"));
        }
        Ok(Shard {
            index: index1 - 1,
            count,
        })
    }

    /// Parses the CLI syntax `i/n` (e.g. `--shard 2/3`).
    ///
    /// # Errors
    ///
    /// Returns a message describing the expected syntax or range.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard '{s}' is not of the form i/n"))?;
        let parse = |what: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("invalid shard {what} '{v}'"))
        };
        Shard::new(parse("index", i)?, parse("count", n)?)
    }

    /// Whether this shard owns the unit with the given content-hash ID.
    pub fn owns(&self, unit_id: u64) -> bool {
        unit_id % self.count == self.index
    }

    /// The 1-based `i/n` display form.
    pub fn label(&self) -> String {
        format!("{}/{}", self.index + 1, self.count)
    }
}

/// Formats one completed unit as a checkpoint / stream line:
/// `{"unit":"<016x id>","result":<compact result JSON>}` — the result
/// encoded once ([`serde_json::to_string`]), then
/// [`join_checkpoint_line`].
///
/// Compact serialization uses shortest-roundtrip float printing, so
/// parsing the line back yields bit-identical numbers — the property
/// that makes resume byte-exact.
pub fn checkpoint_line<R: Serialize>(id: u64, result: &R) -> String {
    let compact = serde_json::to_string(result).expect("unit results are finite");
    join_checkpoint_line(id, &compact)
}

/// Formats the [`checkpoint_line`] of a unit whose result is already
/// encoded: `compact` must be the result's compact JSON, as
/// [`serde_json::to_string`] writes it (a cache record's payload is).
/// The inverse of [`split_checkpoint_line`].
pub fn join_checkpoint_line(id: u64, compact: &str) -> String {
    use std::fmt::Write as _;
    // `{"unit":"` + 16 hex digits + `","result":` + `}`.
    let mut line = String::with_capacity(compact.len() + 37);
    let _ = write!(line, "{{\"unit\":\"{id:016x}\",\"result\":{compact}}}");
    line
}

/// Splits a [`checkpoint_line`] into its unit ID and the compact bytes
/// of its `result`, without parsing the result; `None` for a line of
/// any other shape.
pub fn split_checkpoint_line(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("{\"unit\":\"")?;
    let id = u64::from_str_radix(rest.get(..16)?, 16).ok()?;
    let result = rest
        .get(16..)?
        .strip_prefix("\",\"result\":")?
        .strip_suffix('}')?;
    Some((id, result))
}

/// A parsed checkpoint: completed unit results keyed by content-hash
/// unit ID, as written by [`checkpoint_line`] (one JSON object per
/// line).
#[derive(Debug, Clone, Default)]
pub struct Checkpoint<R> {
    map: HashMap<u64, R>,
    torn_tail: bool,
}

impl<R> Checkpoint<R> {
    /// An empty checkpoint (resuming from it runs everything).
    pub fn new() -> Self {
        Checkpoint {
            map: HashMap::new(),
            torn_tail: false,
        }
    }

    /// Number of distinct completed units recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no completed units are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the final line was unparseable and skipped — the
    /// signature of a process killed mid-write. Earlier malformed lines
    /// are corruption and fail the parse instead.
    pub fn torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// The stored result for a unit, if it completed.
    pub fn get(&self, unit_id: u64) -> Option<&R> {
        self.map.get(&unit_id)
    }
}

impl<R: Deserialize> Checkpoint<R> {
    /// Parses checkpoint text (one [`checkpoint_line`] per line; blank
    /// lines ignored; duplicate IDs keep the last occurrence).
    ///
    /// A malformed **final** line is tolerated and flagged via
    /// [`Checkpoint::torn_tail`]: a killed process may have died
    /// mid-append, and losing that one unit merely re-runs it.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] naming the first malformed non-final
    /// line — corruption anywhere else must not silently drop work.
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        let scan = journal::scan_jsonl(text, |line| {
            parse_checkpoint_line(line).map_err(|e| e.to_string())
        })
        .map_err(|e| EngineError::new(format!("checkpoint {e}")))?;
        let mut ckpt = Checkpoint::new();
        ckpt.torn_tail = scan.torn_tail;
        for line in scan.lines {
            let (id, result) = line.value;
            ckpt.map.insert(id, result);
        }
        Ok(ckpt)
    }
}

/// Parses one checkpoint line. A line in [`checkpoint_line`]'s layout
/// reads its result straight from the split-off bytes, one container
/// deep as in the whole line; any other layout, and any direct read
/// that fails, goes through the `Value` tree of the whole line, which
/// decides the value or the error.
fn parse_checkpoint_line<R: Deserialize>(line: &str) -> Result<(u64, R), serde::Error> {
    if let Some((id, compact)) = split_checkpoint_line(line) {
        if let Ok(result) = serde::json::Reader::nested(compact, 1).read_all() {
            return Ok((id, result));
        }
    }
    let v: Value = serde_json::from_str(line)?;
    let id_hex: String = Deserialize::from_value(v.field("unit")?)?;
    let id = u64::from_str_radix(&id_hex, 16)
        .map_err(|_| serde::Error::new(format!("invalid unit id '{id_hex}'")))?;
    let result = R::from_value(v.field("result")?)?;
    Ok((id, result))
}

/// Version of the engine's determinism contract.
///
/// Result bytes are a pure function of `(unit_key, contract version)`:
/// the key fixes the spec and seeds, the contract version fixes the
/// algorithms behind them (counter-based seeding, the fixed fold tree,
/// kernel numerics). Any change that alters result bytes for an
/// existing key — however small — **must** bump this constant; the
/// persistent result cache stores it with every record and treats a
/// mismatch as a miss, so a bump invalidates every cached result at
/// once without touching the store.
pub const CONTRACT_VERSION: u32 = 1;

/// A persistent, content-addressed store of completed unit results,
/// keyed by [`Workload::unit_key`] — the hook `--cache DIR` plugs into
/// [`run_units`].
///
/// Unlike a resume [`Checkpoint`] (per-run, typed, fully parsed up
/// front), a cache is global and queried per unit: before scheduling a
/// unit the pipeline calls [`ResultCache::fetch`] and splices a hit
/// exactly like a resumed unit; after executing a unit it calls
/// [`ResultCache::store`]. Implementations must only return results
/// recorded under the current [`CONTRACT_VERSION`] — both methods take
/// `&self`, so a read-write store needs interior mutability.
pub trait ResultCache<R> {
    /// The stored result for a unit, if present and valid.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] for store corruption (a missing unit
    /// is `Ok(None)`, never an error).
    fn fetch(&self, key: u64) -> Result<Option<R>, EngineError>;
    /// Whether the store holds a result for the unit, answered without
    /// I/O — lets [`run_units`] skip building a unit it will splice.
    /// The default `false` is always safe: every unit the journal lacks
    /// is built before its [`ResultCache::fetch`], as without this hook.
    /// `true` is a promise that [`ResultCache::fetch`] returns `Some`
    /// for the key; a listed unit whose fetch misses fails the run.
    fn contains(&self, _key: u64) -> bool {
        false
    }
    /// Records an executed unit's result.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when the record cannot be durably
    /// appended.
    fn store(&self, key: u64, result: &R) -> Result<(), EngineError>;
}

/// Where a completed unit's result came from — the sink's provenance
/// tag, which is all that distinguishes a unit that ran from one that
/// was spliced (the bytes never differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitOrigin {
    /// The unit was executed by this run.
    Executed,
    /// The unit was spliced from the resume journal ([`Checkpoint`]).
    Journal,
    /// The unit was spliced from the persistent result cache.
    Cache,
}

/// Live progress observer for [`run_units`] — called on the calling
/// thread after each unit disposition and step completion. Strictly
/// observational: implementations must not feed anything back into
/// execution.
pub trait Progress {
    /// Receives the latest cumulative progress snapshot.
    fn update(&self, p: &ProgressUpdate);
}

/// A cumulative progress snapshot (totals are fixed for the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressUpdate {
    /// Units completed so far (resumed, zero-step, or executed).
    pub units_done: usize,
    /// Units this run is responsible for.
    pub units_total: usize,
    /// Scheduled steps completed so far.
    pub steps_done: usize,
    /// Scheduled steps in the whole run (excludes resumed units).
    pub steps_total: usize,
    /// Estimated Monte-Carlo trials completed ([`Workload::step_trials`]).
    pub trials_done: u64,
    /// Estimated trials the scheduled steps will run in total.
    pub trials_total: u64,
}

/// Per-step execution context handed to [`Workload::run_step`].
///
/// Carries the runner's execution knobs and the run's shared cells down
/// into a step without threading them through every workload struct.
/// Everything here is strictly *how* to execute — a step's result bytes
/// must be identical for every possible context (that is the
/// determinism contract).
#[derive(Debug)]
pub struct StepContext<'a, S> {
    /// The worker count the runner was launched with. A step that fans
    /// nested work back out to the pool (the v3 kernel's chunked
    /// verification) sizes its dispatch with this; steps that are
    /// wholly sequential ignore it.
    pub workers: usize,
    /// The [`Workload::Shared`] cells of this [`run_units`] call.
    pub shared: &'a S,
}

/// A map of write-once cells, one per key, that the workers of one
/// [`run_units`] call share: the first step to ask for a key computes
/// its value, a step asking while that runs waits for it, and every
/// later step reads it.
///
/// Sharing is byte-neutral only if each value is a **pure function of
/// its key** — then which unit, worker or shard computes it first
/// cannot reach a result. An initializer must not dispatch to the worker
/// pool: the workers waiting on its cell could be the ones it needs.
///
/// Every lookup whose initializer did not run (the value was there, or
/// another worker was computing it) adds one to the `--metrics` counter
/// named at construction.
#[derive(Debug)]
pub struct KeyedCells<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hit_counter: &'static str,
}

impl<K: Eq + Hash, V> KeyedCells<K, V> {
    /// An empty map whose hits count into `hit_counter`.
    pub fn new(hit_counter: &'static str) -> Self {
        KeyedCells {
            cells: Mutex::new(HashMap::new()),
            hit_counter,
        }
    }

    /// The value of `key`, computed by `init` if no step has computed it
    /// yet in this run.
    pub fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> CellRef<V> {
        let cell = Arc::clone(
            self.cells
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .entry(key)
                .or_default(),
        );
        let mut ran = false;
        cell.get_or_init(|| {
            ran = true;
            init()
        });
        if !ran {
            vardelay_obs::counter(self.hit_counter, 1);
        }
        CellRef(cell)
    }
}

/// A filled [`KeyedCells`] value; dereferences to it.
#[derive(Debug)]
pub struct CellRef<V>(Arc<OnceLock<V>>);

impl<V> std::ops::Deref for CellRef<V> {
    type Target = V;

    fn deref(&self) -> &V {
        self.0.get().expect("a returned cell is filled")
    }
}

/// Execution options for [`run_workload`] / [`run_units`].
#[derive(Clone, Copy)]
pub struct WorkloadOptions<'a, R> {
    /// Worker threads; 1 runs everything on the calling thread. Never
    /// affects results, only wall-clock time.
    pub workers: usize,
    /// Run only the units this shard owns (`None` runs all).
    pub shard: Option<Shard>,
    /// Completed units to splice in instead of re-running.
    pub resume: Option<&'a Checkpoint<R>>,
    /// Persistent result cache consulted for units the resume journal
    /// lacks; executed units are recorded back into it.
    pub cache: Option<&'a dyn ResultCache<R>>,
    /// Live progress observer (display only; never affects results).
    pub progress: Option<&'a dyn Progress>,
}

impl<R> std::fmt::Debug for WorkloadOptions<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadOptions")
            .field("workers", &self.workers)
            .field("shard", &self.shard)
            .field("resume_units", &self.resume.map(Checkpoint::len))
            .field("cache", &self.cache.is_some())
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl<R> WorkloadOptions<'_, R> {
    /// Sequential execution of every unit, no resume.
    pub fn sequential() -> Self {
        WorkloadOptions {
            workers: 1,
            shard: None,
            resume: None,
            cache: None,
            progress: None,
        }
    }

    /// Every unit on `std::thread::available_parallelism` workers, no
    /// resume — the default when no worker count is given.
    pub fn parallel() -> Self {
        Self::sequential()
            .with_workers(std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
    }

    /// Sets the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Restricts execution to one shard.
    #[must_use]
    pub fn with_shard(mut self, shard: Shard) -> Self {
        self.shard = Some(shard);
        self
    }
}

impl<'a, R> WorkloadOptions<'a, R> {
    /// Splices in previously completed units from a checkpoint.
    #[must_use]
    pub fn with_resume(mut self, checkpoint: &'a Checkpoint<R>) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Consults (and records into) a persistent result cache.
    #[must_use]
    pub fn with_cache(mut self, cache: &'a dyn ResultCache<R>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a live progress observer.
    #[must_use]
    pub fn with_progress(mut self, progress: &'a dyn Progress) -> Self {
        self.progress = Some(progress);
        self
    }
}

/// What a [`run_units`] call did: unit counts by disposition, plus the
/// expansion-order IDs needed to reassemble a report from streamed
/// lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Units this run was responsible for (after shard selection).
    pub units: usize,
    /// Units spliced from the resume checkpoint (not re-run).
    pub resumed: usize,
    /// Units spliced from the persistent result cache (not re-run).
    pub cached: usize,
    /// Units actually executed.
    pub executed: usize,
    /// Scheduling steps dispatched to the worker pool.
    pub steps: usize,
    /// Journal keys ([`Workload::unit_key`]) of this run's units, in
    /// expansion order — the order in which the CLI splices the units'
    /// streamed result bytes into the `--out` aggregate.
    pub keys: Vec<u64>,
}

/// In-step-order folding of one unit's step outputs, buffering
/// out-of-order arrivals — the streaming half of the determinism
/// contract, shared by every workload.
struct Folding<A, S> {
    acc: A,
    next: usize,
    total: usize,
    pending: BTreeMap<usize, S>,
}

/// The unified execution pipeline: expands and checks a workload's
/// units, applies shard selection, resume splicing and cache lookups to
/// their spec-only keys, builds just the units that execute, schedules
/// their steps over the shared worker pool, folds step outputs in
/// order, and hands every completed unit — spliced or executed — to
/// `sink` exactly once.
///
/// `sink(slot, unit_key, result, origin)` is called on the calling
/// thread; `slot` is the unit's index in (sharded) expansion order.
/// Every unit's checks and every executing unit's build finish before
/// the first result sinks, so an invalid spec is rejected before any
/// output. All checks run before any build, so a check error wins over
/// a build error in an earlier unit, whatever the journal, cache and
/// shard hold (the precedence of [`Workload::prepare`]). Spliced ([`UnitOrigin::Journal`] / [`UnitOrigin::Cache`])
/// and zero-step units sink before any parallel step runs; executed
/// units sink in completion order. A sink error cancels the pool —
/// workers stop claiming new steps, steps already executing finish and
/// are folded but no further unit sinks — and the error is returned
/// once the pool drains.
///
/// With a cache attached ([`WorkloadOptions::cache`]), units are
/// resolved in strict precedence order — resume journal, then cache,
/// then execution — so a unit present in both journal and cache sinks
/// exactly once, from the journal. Units the cache lists
/// ([`ResultCache::contains`]) are never built. Every *executed* unit
/// is recorded back into the cache before it sinks; spliced units are
/// not re-recorded.
///
/// A unit's sink follows its cache call at once: a hit's
/// [`ResultCache::fetch`], or an executed unit's
/// [`ResultCache::store`], is the last cache call before that unit's
/// sink, and both run on the calling thread. A cache may therefore keep
/// the bytes of the one record it last served or wrote and hand them to
/// the sink that asks for the same key (`vardelay-cache`'s `UnitCache`
/// does), so a line is spliced from them instead of encoded again.
///
/// This function retains **no** unit results — callers stream them out
/// (checkpoint files, `--out` JSONL) or collect them ([`run_workload`]).
///
/// # Errors
///
/// Returns the check ([`Workload::check`]) error, else the first build
/// ([`Workload::build`]), cache or sink error. A unit the cache lists
/// ([`ResultCache::contains`]) but cannot fetch is a cache error.
pub fn run_units<W: Workload>(
    w: &W,
    opts: &WorkloadOptions<'_, W::UnitResult>,
    mut sink: impl FnMut(usize, u64, W::UnitResult, UnitOrigin) -> Result<(), EngineError>,
) -> Result<WorkloadStats, EngineError> {
    let expand = vardelay_obs::span("spec", "expand");
    let specs: Vec<(u64, W::UnitSpec)> = w
        .check()?
        .into_iter()
        .map(|spec| (w.unit_key(&spec), spec))
        .filter(|(key, _)| opts.shard.is_none_or(|shard| shard.owns(*key)))
        .collect();
    drop(expand.value(specs.len() as f64));

    // Where each unit's result comes from, decided on keys alone: the
    // resume journal, then the cache's index, then execution. Only the
    // units that execute are built, all before the first sink.
    enum Source<'r, R, U> {
        Journal(&'r R),
        Cached,
        Built(U),
    }
    let mut keys = Vec::with_capacity(specs.len());
    let mut sources = Vec::with_capacity(specs.len());
    for (key, spec) in specs {
        keys.push(key);
        sources.push(if let Some(result) = opts.resume.and_then(|c| c.get(key)) {
            Source::Journal(result)
        } else if opts.cache.is_some_and(|c| c.contains(key)) {
            Source::Cached
        } else {
            let _sp = vardelay_obs::span("unit", "prepare").key(key);
            Source::Built(w.build(spec)?)
        });
    }
    let mut stats = WorkloadStats {
        units: keys.len(),
        resumed: 0,
        cached: 0,
        executed: 0,
        steps: 0,
        keys,
    };

    // Splice what can be spliced, finish zero-step units from their
    // empty accumulator, and schedule everything else's steps.
    struct Item {
        unit: usize,
        step: usize,
        trials: u64,
    }
    let mut items: Vec<Item> = Vec::new();
    let mut scheduled: Vec<(usize, W::Unit)> = Vec::new();
    let mut foldings: Vec<Option<Folding<W::Acc, W::StepOut>>> = Vec::new();
    let mut units_done = 0usize;
    for (i, source) in sources.into_iter().enumerate() {
        let key = stats.keys[i];
        let unit = match source {
            Source::Journal(result) => {
                stats.resumed += 1;
                units_done += 1;
                vardelay_obs::instant("unit", "resumed", Some(key));
                sink(i, key, result.clone(), UnitOrigin::Journal)?;
                continue;
            }
            Source::Cached => None,
            Source::Built(unit) => Some(unit),
        };
        // The cache is consulted only for units the journal lacks, so
        // `--resume` + `--cache` can never splice a unit twice. A built
        // unit may still hit, from a cache that lists nothing.
        let unit = match (
            opts.cache.map(|c| c.fetch(key)).transpose()?.flatten(),
            unit,
        ) {
            (Some(result), _) => {
                stats.cached += 1;
                units_done += 1;
                vardelay_obs::instant("unit", "cached", Some(key));
                sink(i, key, result, UnitOrigin::Cache)?;
                continue;
            }
            (None, Some(unit)) => unit,
            (None, None) => {
                return Err(EngineError::new(format!(
                    "cache: unit {key:016x} is listed but its fetch found nothing"
                )))
            }
        };
        stats.executed += 1;
        let total = w.unit_steps(&unit);
        if total == 0 {
            units_done += 1;
            let result = w.finish_unit(&unit, w.init_acc(&unit));
            if let Some(cache) = opts.cache {
                cache.store(key, &result)?;
            }
            sink(i, key, result, UnitOrigin::Executed)?;
            continue;
        }
        stats.steps += total;
        items.extend((0..total).map(|step| Item {
            unit: scheduled.len(),
            step,
            trials: w.step_trials(&unit, step),
        }));
        foldings.push(Some(Folding {
            acc: w.init_acc(&unit),
            next: 0,
            total,
            pending: BTreeMap::new(),
        }));
        scheduled.push((i, unit));
    }

    let trials_total: u64 = items.iter().map(|it| it.trials).sum();
    let mut steps_done = 0usize;
    let mut trials_done = 0u64;
    let report_progress = |units_done: usize, steps_done: usize, trials_done: u64| {
        if let Some(p) = opts.progress {
            p.update(&ProgressUpdate {
                units_done,
                units_total: stats.units,
                steps_done,
                steps_total: stats.steps,
                trials_done,
                trials_total,
            });
        }
    };
    report_progress(units_done, steps_done, trials_done);

    let mut sink_err: Option<EngineError> = None;
    let (workers, shared) = (opts.workers, W::Shared::default());
    dispatch(
        items.len(),
        opts.workers,
        |k, ws| {
            let item = &items[k];
            let (slot, unit) = &scheduled[item.unit];
            let _sp = vardelay_obs::span("step", w.unit_noun())
                .key(stats.keys[*slot])
                .value(item.step as f64);
            let ctx = StepContext {
                workers,
                shared: &shared,
            };
            w.run_step(unit, item.step, ws, ctx)
        },
        |k, out| {
            let item = &items[k];
            let (slot, unit) = &scheduled[item.unit];
            let f = foldings[item.unit].as_mut().expect("scheduled units fold");
            f.pending.insert(item.step, out);
            {
                let _fold = vardelay_obs::span("pool", "fold");
                while let Some(out) = f.pending.remove(&f.next) {
                    w.fold_step(unit, &mut f.acc, out);
                    f.next += 1;
                }
            }
            steps_done += 1;
            trials_done += item.trials;
            if f.next == f.total {
                let f = foldings[item.unit].take().expect("folded once");
                assert!(f.pending.is_empty(), "steps beyond the unit's total");
                let key = stats.keys[*slot];
                let result = {
                    let _finish = vardelay_obs::span("unit", "finish").key(key);
                    w.finish_unit(unit, f.acc)
                };
                units_done += 1;
                if sink_err.is_none() {
                    let recorded = match opts.cache {
                        Some(cache) => cache.store(key, &result),
                        None => Ok(()),
                    };
                    if let Err(e) =
                        recorded.and_then(|()| sink(*slot, key, result, UnitOrigin::Executed))
                    {
                        sink_err = Some(e);
                    }
                }
            }
            report_progress(units_done, steps_done, trials_done);
            // `false` after a sink failure cancels unclaimed steps —
            // their results would have nowhere to go.
            sink_err.is_none()
        },
    );
    match sink_err {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

/// Runs a workload to completion and assembles its aggregate report.
///
/// The report is bit-identical for any `opts.workers`, and — because
/// unit results are pure functions of the spec — splicing resumed units
/// or restricting to a shard changes *which* units appear, never their
/// bytes.
///
/// # Errors
///
/// Returns an [`EngineError`] naming the first invalid unit.
pub fn run_workload<W: Workload>(
    w: &W,
    opts: &WorkloadOptions<'_, W::UnitResult>,
) -> Result<W::Report, EngineError> {
    let mut slots: Vec<Option<W::UnitResult>> = Vec::new();
    run_units(w, opts, |slot, _id, result, _origin| {
        if slots.len() <= slot {
            slots.resize_with(slot + 1, || None);
        }
        slots[slot] = Some(result);
        Ok(())
    })?;
    Ok(w.assemble(
        slots
            .into_iter()
            .map(|s| s.expect("every unit sinks exactly once"))
            .collect(),
    ))
}

/// Validates a workload end to end and reports its footprint, running
/// nothing — the engine half of `sweep validate` / `optimize validate`,
/// shared by both spellings.
///
/// Every unit is built once; `observe(unit_key, unit)` sees each built
/// unit in expansion order, so a caller can tally more per unit (the
/// CLI's `--cache` breakdown) without building it again.
///
/// # Errors
///
/// Returns the same [`EngineError`] [`Workload::prepare`] returns.
pub fn plan_workload<W: Workload>(
    w: &W,
    mut observe: impl FnMut(u64, &W::Unit),
) -> Result<W::Plan, EngineError> {
    let specs = w.check()?;
    let mut rows = Vec::with_capacity(specs.len());
    for spec in specs {
        let key = w.unit_key(&spec);
        let unit = w.build(spec)?;
        observe(key, &unit);
        rows.push(w.plan_unit(&unit));
    }
    Ok(w.assemble_plan(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_syntax_roundtrips_and_validates() {
        let s = Shard::parse("2/3").unwrap();
        assert_eq!(s.label(), "2/3");
        assert!(s.owns(1) && !s.owns(0) && !s.owns(2));
        assert_eq!(Shard::parse("1/1").unwrap(), Shard::new(1, 1).unwrap());
        for bad in ["0/3", "4/3", "2", "a/b", "1/0", "/", ""] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn shards_partition_every_id() {
        for n in 1..=5u64 {
            let shards: Vec<Shard> = (1..=n).map(|i| Shard::new(i, n).unwrap()).collect();
            for id in (0..1000u64).chain([u64::MAX, u64::MAX - 7]) {
                let owners = shards.iter().filter(|s| s.owns(id)).count();
                assert_eq!(owners, 1, "id {id} must have exactly one owner among {n}");
            }
        }
    }

    #[test]
    fn checkpoint_lines_roundtrip_bit_exactly() {
        // f64 fields must survive the line format with identical bits —
        // the property resume's byte-identity rests on.
        let result = vec![
            1.0f64,
            -0.0,
            1e-300,
            12_345.678_901_234_5,
            f64::MIN_POSITIVE,
        ];
        let line = checkpoint_line(0xDEAD_BEEF_0123_4567, &result);
        assert!(line.starts_with("{\"unit\":\"deadbeef01234567\""), "{line}");
        assert!(!line.contains('\n'), "one line per unit");
        let compact = serde_json::to_string(&result).unwrap();
        assert_eq!(
            split_checkpoint_line(&line),
            Some((0xDEAD_BEEF_0123_4567, compact.as_str()))
        );
        assert_eq!(split_checkpoint_line(&line[..line.len() - 1]), None);
        let ckpt: Checkpoint<Vec<f64>> = Checkpoint::parse(&line).unwrap();
        let back = ckpt.get(0xDEAD_BEEF_0123_4567).unwrap();
        assert_eq!(result.len(), back.len());
        for (a, b) in result.iter().zip(back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} round-tripped as {b}");
        }
    }

    #[test]
    fn checkpoint_tolerates_a_torn_tail_only() {
        let full = checkpoint_line(1, &1.5f64);
        let torn = format!("{full}\n{}", &checkpoint_line(2, &2.5f64)[..10]);
        let ckpt: Checkpoint<f64> = Checkpoint::parse(&torn).unwrap();
        assert_eq!(ckpt.len(), 1);
        assert!(ckpt.torn_tail());
        assert!(ckpt.get(1).is_some() && ckpt.get(2).is_none());

        // The same damage mid-file is corruption, not a kill signature.
        let corrupt = format!("{}\n{}", &full[..10], checkpoint_line(2, &2.5f64));
        let err = Checkpoint::<f64>::parse(&corrupt).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");

        // Blank lines and duplicate IDs (last wins) are fine.
        let dup = format!("{full}\n\n{}\n", checkpoint_line(1, &9.5f64));
        let ckpt: Checkpoint<f64> = Checkpoint::parse(&dup).unwrap();
        assert_eq!(ckpt.len(), 1);
        assert!(!ckpt.torn_tail());
        assert_eq!(*ckpt.get(1).unwrap(), 9.5);
        assert!(Checkpoint::<f64>::parse("").unwrap().is_empty());
    }
}
