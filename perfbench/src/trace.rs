//! The traced per-layer pass. It drives the engine through its public
//! entry points on the workload's own spec, then replays the units the
//! engine executed layer by layer (prepare, SSTA, Clark, trial blocks,
//! sizing flow, verification), recording a span around every call from
//! these files. No span lives in program code.
//!
//! A layer's self time is its span's duration minus its child spans.
//! `engine.residual_frac` compares the replayed layers' self time (plus
//! the cache and journal spans inside the engine run) with the engine
//! run itself; `trace.overhead_frac` compares a traced pass with the
//! same pass run with recording off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use vardelay_cache::ResultStore;
use vardelay_circuit::{CellLibrary, StagedPipeline};
use vardelay_core::{stage_yield_target, Pipeline, StageDelay};
use vardelay_engine::run::BLOCK_TRIALS;
use vardelay_engine::{
    checkpoint_line, plan_campaign, plan_sweep, run_units, trial_seed, BackendSpec, EngineError,
    KernelSpec, OptimizationCampaign, OptimizeSpec, PipelineSpec, ResultCache, Scenario,
    StrategySpec, Sweep, UnitOrigin, Workload as EngineWorkload, WorkloadOptions, WorkloadReport,
    YieldBackendSpec, CONTRACT_VERSION,
};
use vardelay_mc::{PipelineBlockStats, PipelineMc, PreparedPipelineMc, TrialWorkspace, V3_WIDTH};
use vardelay_opt::{
    AnalyticYieldEval, GlobalPipelineOptimizer, NetlistMcYieldEval, PipelineYieldEval,
    SizingConfig, StatisticalSizer,
};
use vardelay_process::{DieSample, ProcessSampler, VariationConfig};
use vardelay_ssta::{PipelineTiming, SstaEngine};
use vardelay_stats::batch::fill_standard_normals_inv_cdf_fma_multi;
use vardelay_stats::normal::sample_standard_normal;

use crate::e2e::{self, Files};
use crate::measure::{digest, median, normalize, time_reference};
use crate::workloads::{self, Kind};
use crate::{as_f64, Metric};

/// Trials each normal-fill and die-sampling probe draws per pipeline.
const PROBE_TRIALS: usize = 1024;
/// Criticality trials per call, as the global flow samples them.
const CRITICALITY_TRIALS: usize = 20_000;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

/// In-memory span recorder for one pass. With recording off, spans cost
/// one branch; counts are kept either way.
pub struct Tracer {
    on: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let now = self.tracer.origin.elapsed().as_secs_f64();
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[i].end = now;
            inner.stack.pop();
        }
    }
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                counts: BTreeMap::new(),
            }),
        }
    }

    fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let parent = inner.stack.last().copied();
        let start = self.origin.elapsed().as_secs_f64();
        inner.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        inner.stack.push(index);
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    fn count(&self, name: &str, n: f64) {
        *self
            .inner
            .borrow_mut()
            .counts
            .entry(name.to_owned())
            .or_default() += n;
    }

    /// Self seconds per span name, and the total duration of each name.
    fn times(&self) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
        let inner = self.inner.borrow();
        let mut child = vec![0.0; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut own = BTreeMap::new();
        let mut total = BTreeMap::new();
        for (s, c) in inner.spans.iter().zip(child) {
            *own.entry(s.name).or_default() += s.end - s.start - c;
            *total.entry(s.name).or_default() += s.end - s.start;
        }
        (own, total)
    }

    fn counted(&self, name: &str) -> f64 {
        self.inner.borrow().counts.get(name).copied().unwrap_or(0.0)
    }
}

/// The engine's cache adapter, re-implemented over the public
/// [`ResultStore`] so every lookup and append gets a span.
struct TracedCache<'a> {
    store: RefCell<ResultStore>,
    tracer: &'a Tracer,
}

impl<R: serde::Serialize + serde::Deserialize> ResultCache<R> for TracedCache<'_> {
    fn fetch(&self, key: u64) -> Result<Option<R>, EngineError> {
        let _s = self.tracer.span("cache.lookup");
        self.tracer.count("cache.lookups", 1.0);
        let text = self
            .store
            .borrow_mut()
            .get(key, CONTRACT_VERSION)
            .map_err(|e| EngineError::new(format!("cache: {e}")))?;
        let Some(text) = text else { return Ok(None) };
        self.tracer.count("cache.hits", 1.0);
        let v: Value = serde_json::from_str(&text).map_err(|e| EngineError::new(e.to_string()))?;
        R::from_value(&v)
            .map(Some)
            .map_err(|e| EngineError::new(e.to_string()))
    }

    fn store(&self, key: u64, result: &R) -> Result<(), EngineError> {
        let _s = self.tracer.span("cache.append");
        let json = serde_json::to_string(result).map_err(|e| EngineError::new(e.to_string()))?;
        self.tracer.count("cache.bytes_written", json.len() as f64);
        self.store
            .borrow_mut()
            .append(key, CONTRACT_VERSION, &json)
            .map_err(|e| EngineError::new(format!("cache: {e}")))
    }
}

/// Counts in-loop yield queries of the sizing flow and spans each one.
struct TracedEval<'a> {
    inner: &'a dyn PipelineYieldEval,
    tracer: &'a Tracer,
}

impl PipelineYieldEval for TracedEval<'_> {
    fn pipeline_yield(&self, p: &StagedPipeline, timing: &PipelineTiming, target_ps: f64) -> f64 {
        let _s = self.tracer.span("opt.yield_eval");
        self.tracer.count("opt.yield_evals", 1.0);
        self.inner.pipeline_yield(p, timing, target_ps)
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// Runs the workload through the engine's public pipeline with the
/// traced cache and a journal sink, as `vardelay ... --workers 1` does;
/// returns the result bytes and which units executed.
fn engine_run<W>(w: &W, tr: &Tracer, f: &Files) -> Result<(String, Vec<bool>), String>
where
    W: EngineWorkload,
    W::Report: WorkloadReport,
{
    let store = {
        let _s = tr.span("cache.open");
        ResultStore::open(&f.cache).map_err(|e| e.to_string())?
    };
    let cache = TracedCache {
        store: RefCell::new(store),
        tracer: tr,
    };
    let mut journal = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&f.journal)
        .map_err(|e| e.to_string())?;
    let mut slots: Vec<Option<W::UnitResult>> = Vec::new();
    let mut executed = Vec::new();
    let report = {
        let _s = tr.span("engine.run");
        let opts = WorkloadOptions::sequential()
            .with_workers(1)
            .with_cache(&cache);
        run_units(w, &opts, |slot, id, result, origin| {
            {
                let _j = tr.span("engine.journal");
                writeln!(journal, "{}", checkpoint_line(id, &result))
                    .and_then(|()| journal.flush())
                    .map_err(|e| EngineError::new(e.to_string()))?;
            }
            if slots.len() <= slot {
                slots.resize_with(slot + 1, || None);
                executed.resize(slot + 1, false);
            }
            executed[slot] = origin == UnitOrigin::Executed;
            slots[slot] = Some(result);
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        w.assemble(
            slots
                .into_iter()
                .map(|s| s.expect("every unit sinks once"))
                .collect(),
        )
    };
    let bytes = {
        let _s = tr.span("engine.serialize");
        report.to_json()
    };
    tr.count("engine.result_bytes", bytes.len() as f64);
    Ok((bytes, executed))
}

/// Span names per kernel/strategy pair (span names are static).
fn block_span(k: KernelSpec, s: StrategySpec) -> &'static str {
    match (k, s) {
        (KernelSpec::V1, StrategySpec::Plain) => "mc.block.v1.plain",
        (KernelSpec::V3, StrategySpec::Plain) => "mc.block.v3.plain",
        (KernelSpec::V3, StrategySpec::Stratified) => "mc.block.v3.stratified",
        (KernelSpec::V3, StrategySpec::Blockade) => "mc.block.v3.blockade",
        _ => "mc.block.other",
    }
}

/// The analytic side every scenario and run computes: SSTA of the
/// pipeline, then the Clark-max model and its yields.
fn analytic(
    tr: &Tracer,
    engine: &SstaEngine,
    staged: &StagedPipeline,
    sigmas: &[f64],
) -> (PipelineTiming, Vec<f64>) {
    let timing = {
        let _s = tr.span("ssta.analyze");
        tr.count("ssta.analyze_calls", 1.0);
        engine.analyze_pipeline(staged)
    };
    let _s = tr.span("core.clark");
    let delays = timing
        .stage_delays
        .iter()
        .map(|n| StageDelay::from_normal(*n))
        .collect();
    let pipe =
        Pipeline::new(delays, timing.correlation.clone()).expect("SSTA correlations are valid");
    let d = pipe.delay_distribution();
    let targets: Vec<f64> = sigmas
        .iter()
        .map(|k| (d.mean() + k * d.sd()).round())
        .collect();
    for &t in &targets {
        black_box(pipe.yield_at(t));
    }
    (timing, targets)
}

fn prepare(
    tr: &Tracer,
    pipeline: &PipelineSpec,
    label: &str,
    variation: VariationConfig,
    kernel: KernelSpec,
) -> (StagedPipeline, PipelineMc) {
    let _s = tr.span("mc.prepare");
    tr.count("mc.prepare_calls", 1.0);
    let staged = pipeline.build(label).expect("gate-level pipeline");
    let mc =
        PipelineMc::new(CellLibrary::default(), variation, None).with_kernel(kernel.to_kernel());
    (staged, mc)
}

fn compile(tr: &Tracer, mc: &PipelineMc, staged: &StagedPipeline) -> PreparedPipelineMc {
    let _s = tr.span("mc.prepare");
    tr.count("mc.prepare_calls", 1.0);
    PreparedPipelineMc::new(mc, staged)
}

/// Replays one sweep scenario layer by layer. The engine prepares every
/// unit (build, compile, SSTA, Clark) before it consults the cache, so
/// that part replays for all units; trial blocks replay only for the
/// units it executed.
fn replay_scenario(tr: &Tracer, s: &Scenario, seed: u64, ws: &mut TrialWorkspace, executed: bool) {
    if matches!(s.pipeline, PipelineSpec::Moments { .. }) {
        return;
    }
    let variation = s.variation.to_config();
    let (staged, mc) = prepare(tr, &s.pipeline, &s.label, variation, s.kernel);
    let mc_side = s.trials > 0 && s.backend != BackendSpec::Analytic;
    let prepared = mc_side.then(|| compile(tr, &mc, &staged));
    let engine = SstaEngine::new(CellLibrary::default(), variation, None);
    let (_, targets) = analytic(tr, &engine, &staged, &s.auto_target_sigmas);
    let Some(prepared) = prepared.filter(|_| executed) else {
        return;
    };
    let plan = s.trial_plan.to_plan();
    let id = s.id(seed);
    let span = block_span(s.kernel, s.trial_plan.strategy);
    let mut start = 0;
    while start < s.trials {
        let end = (start + BLOCK_TRIALS).min(s.trials);
        let _b = tr.span(span);
        let mut stats = PipelineBlockStats::new(staged.stage_count(), &targets);
        if plan.is_weighted() {
            stats = stats.with_weighted_tail();
        }
        prepared.run_block_plan(ws, start..end, |t| trial_seed(id, t), plan, &mut stats);
        black_box(&stats);
        tr.count("mc.blocks", 1.0);
        tr.count("mc.trials", (end - start) as f64);
        tr.count(&format!("{span}.trials"), (end - start) as f64);
        start = end;
    }
}

/// Replays one executed campaign run: the sizing flow with its in-loop
/// yield queries, then analysis and verification of both designs.
fn replay_run(tr: &Tracer, spec: &OptimizeSpec, seed: u64) {
    let variation = spec.variation.to_config();
    let (staged, mc) = prepare(tr, &spec.pipeline, &spec.label, variation, spec.kernel);
    let engine = SstaEngine::new(CellLibrary::default(), variation, None);
    let sizer = StatisticalSizer::new(engine.clone(), SizingConfig::default());
    let opt = GlobalPipelineOptimizer::new(sizer)
        .with_rounds(spec.rounds)
        .with_kernel(spec.kernel.to_kernel());
    let id = spec.id(seed);
    let (resolved, optimized) = {
        let _s = tr.span("opt.flow");
        let resolved = spec.target_delay.resolve(&opt, &staged, spec.yield_target);
        let netlist;
        let inner: &dyn PipelineYieldEval = match spec.yield_backend {
            YieldBackendSpec::Analytic => &AnalyticYieldEval,
            YieldBackendSpec::Netlist => {
                netlist = NetlistMcYieldEval::new(mc.clone(), spec.eval_trials, id);
                &netlist
            }
        };
        let eval = TracedEval { inner, tracer: tr };
        let (optimized, _) = opt.optimize_with(
            &resolved.baseline,
            resolved.target_ps,
            spec.yield_target,
            spec.goal,
            &eval,
        );
        (resolved, optimized)
    };
    let target = resolved.target_ps;
    for (k, design) in [&optimized, &resolved.baseline].into_iter().enumerate() {
        let _ = analytic(tr, &engine, design, &[]);
        if spec.verify_trials == 0 {
            continue;
        }
        let prepared = compile(tr, &mc, design);
        let _s = tr.span("opt.verify");
        let salt = id ^ (k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let v = vardelay_engine::verify_yield_pooled(
            &prepared,
            spec.verify_plan.to_plan(),
            spec.verify_trials,
            spec.verify_plan.ci_half_width,
            |t| trial_seed(salt, t),
            design.stage_count(),
            &[target],
            1,
            id,
        );
        tr.count("opt.verify_trials", v.trials as f64);
    }

    // Probes: the sizer on each baseline stage at the per-stage yield
    // allocation, and one criticality estimate as the flow draws it.
    let stage_yield = stage_yield_target(spec.yield_target, staged.stage_count());
    for netlist in staged.stages() {
        let _s = tr.span("opt.size_stage");
        tr.count("opt.size_stage_calls", 1.0);
        black_box(opt.sizer().size_stage(netlist, 0, target, stage_yield));
    }
    let timing = engine.analyze_pipeline(&resolved.baseline);
    let delays = timing
        .stage_delays
        .iter()
        .map(|n| StageDelay::from_normal(*n))
        .collect();
    let pipe = Pipeline::new(delays, timing.correlation).expect("SSTA correlations are valid");
    let _s = tr.span("opt.criticality");
    black_box(pipe.criticality_probabilities_v3(CRITICALITY_TRIALS, id));
}

/// Normal-fill and die-sampling probes on one pipeline, with the entry
/// points the kernel uses.
fn probe_trial_layers(
    tr: &Tracer,
    pipeline: &PipelineSpec,
    variation: VariationConfig,
    kernel: KernelSpec,
    seed: u64,
) {
    let Some(staged) = pipeline.build("probe") else {
        return;
    };
    let draws = staged.total_gates();
    let mut rng = StdRng::seed_from_u64(seed);
    let k = kernel.keyword();
    match kernel {
        KernelSpec::V3 => {
            let mut rngs: Vec<StdRng> = (0..V3_WIDTH as u64)
                .map(|i| StdRng::seed_from_u64(seed ^ i))
                .collect();
            let mut out = vec![0.0; draws * V3_WIDTH];
            let _s = tr.span("stats.fill.v3");
            for _ in 0..PROBE_TRIALS / V3_WIDTH {
                fill_standard_normals_inv_cdf_fma_multi(&mut rngs, &mut out);
                black_box(&out);
            }
        }
        _ => {
            let _s = tr.span("stats.fill.v1");
            let mut acc = 0.0;
            for _ in 0..PROBE_TRIALS * draws {
                acc += sample_standard_normal(&mut rng);
            }
            black_box(acc);
        }
    }
    tr.count(&format!("stats.draws.{k}"), (PROBE_TRIALS * draws) as f64);

    let sampler = ProcessSampler::new(variation, None);
    let mut z = Vec::new();
    let mut die = DieSample::default();
    let _s = tr.span(if kernel == KernelSpec::V3 {
        "process.die.v3"
    } else {
        "process.die.v1"
    });
    for _ in 0..PROBE_TRIALS {
        if kernel == KernelSpec::V3 {
            sampler.sample_die_into_v3(&mut rng, &mut z, &mut die);
        } else {
            sampler.sample_die_into(&mut rng, &mut z, &mut die);
        }
        black_box(&die);
    }
    tr.count(&format!("process.trials.{k}"), PROBE_TRIALS as f64);
}

/// One pass over the workload; returns the result bytes' digest.
fn pass(w: &workloads::Workload, seed: u64, tr: &Tracer, f: &Files) -> Result<String, String> {
    match w.kind {
        Kind::Sweep => {
            let sweep: Sweep = {
                let _s = tr.span("spec.parse");
                serde_json::from_str(&w.spec).map_err(|e| e.to_string())?
            };
            let plan = {
                let _s = tr.span("spec.expand");
                plan_sweep(&sweep).map_err(|e| e.to_string())?
            };
            tr.count("spec.units", plan.scenarios.len() as f64);
            let (bytes, executed) = engine_run(&sweep, tr, f)?;
            let scenarios = sweep.expand();
            let mut ws = TrialWorkspace::new();
            for (s, &e) in scenarios.iter().zip(&executed) {
                replay_scenario(tr, s, sweep.seed, &mut ws, e);
            }
            let mut probed = Vec::new();
            for s in scenarios.iter().filter(|s| s.trials > 0) {
                let key = (
                    serde_json::to_string(&s.pipeline).unwrap_or_default(),
                    s.kernel,
                );
                if !probed.contains(&key) {
                    probe_trial_layers(tr, &s.pipeline, s.variation.to_config(), s.kernel, seed);
                    probed.push(key);
                }
            }
            Ok(digest(bytes.as_bytes()))
        }
        Kind::Optimize => {
            let campaign: OptimizationCampaign = {
                let _s = tr.span("spec.parse");
                serde_json::from_str(&w.spec).map_err(|e| e.to_string())?
            };
            let plan = {
                let _s = tr.span("spec.expand");
                plan_campaign(&campaign).map_err(|e| e.to_string())?
            };
            tr.count("spec.units", plan.runs.len() as f64);
            let (bytes, executed) = engine_run(&campaign, tr, f)?;
            let runs = campaign.expand();
            for (r, _) in runs.iter().zip(&executed).filter(|(_, e)| **e) {
                replay_run(tr, r, campaign.seed);
            }
            let mut probed = Vec::new();
            for r in &runs {
                let key = (
                    serde_json::to_string(&r.pipeline).unwrap_or_default(),
                    r.kernel,
                );
                if !probed.contains(&key) {
                    probe_trial_layers(tr, &r.pipeline, r.variation.to_config(), r.kernel, seed);
                    probed.push(key);
                }
            }
            Ok(digest(bytes.as_bytes()))
        }
    }
}

/// Layers whose self time should add up to the engine run: the replayed
/// unit work plus the cache and journal spans inside the run.
const RUN_LAYERS: [&str; 8] = [
    "mc.prepare",
    "ssta.analyze",
    "core.clark",
    "opt.flow",
    "opt.yield_eval",
    "opt.verify",
    "cache.lookup",
    "cache.append",
];

/// Per-layer metrics of one traced pass, times scaled by the pass's
/// reference-loop factor.
fn layer_metrics(tr: &Tracer, scale: f64) -> Vec<(String, &'static str, f64)> {
    let (own, total) = tr.times();
    let t = |name: &str| own.get(name).copied().unwrap_or(0.0) * scale;
    let c = |name: &str| tr.counted(name);
    let ns_per = |time: f64, n: f64| if n > 0.0 { 1e9 * time / n } else { 0.0 };
    let run_s = total.get("engine.run").copied().unwrap_or(0.0) * scale;
    let block_s: f64 = own
        .iter()
        .filter(|(n, _)| n.starts_with("mc.block."))
        .map(|(_, v)| v * scale)
        .sum();
    let attributed: f64 =
        RUN_LAYERS.iter().map(|n| t(n)).sum::<f64>() + block_s + t("engine.journal");
    let lookups = c("cache.lookups");
    let mut m = vec![
        ("spec.parse_s".into(), "s", t("spec.parse")),
        ("spec.expand_s".into(), "s", t("spec.expand")),
        ("spec.units".into(), "count", c("spec.units")),
        ("mc.prepare_s".into(), "s", t("mc.prepare")),
        ("mc.prepare_calls".into(), "count", c("mc.prepare_calls")),
    ];
    for k in ["v1", "v3"] {
        m.push((
            format!("stats.fill_ns_per_draw.{k}"),
            "ns/draw",
            ns_per(
                t(&format!("stats.fill.{k}")),
                c(&format!("stats.draws.{k}")),
            ),
        ));
    }
    for k in ["v1", "v3"] {
        m.push((
            format!("process.die_ns_per_trial.{k}"),
            "ns/trial",
            ns_per(
                t(&format!("process.die.{k}")),
                c(&format!("process.trials.{k}")),
            ),
        ));
    }
    m.extend([
        ("mc.block_s".into(), "s", block_s),
        ("mc.blocks".into(), "count", c("mc.blocks")),
        ("mc.trials".into(), "count", c("mc.trials")),
    ]);
    for (k, s) in [
        ("v1", "plain"),
        ("v3", "plain"),
        ("v3", "stratified"),
        ("v3", "blockade"),
    ] {
        m.push((
            format!("mc.ns_per_trial.{k}.{s}"),
            "ns/trial",
            ns_per(
                t(&format!("mc.block.{k}.{s}")),
                c(&format!("mc.block.{k}.{s}.trials")),
            ),
        ));
    }
    m.extend([
        ("ssta.analyze_s".into(), "s", t("ssta.analyze")),
        (
            "ssta.analyze_calls".into(),
            "count",
            c("ssta.analyze_calls"),
        ),
        ("core.clark_s".into(), "s", t("core.clark")),
        ("opt.size_stage_s".into(), "s", t("opt.size_stage")),
        (
            "opt.size_stage_calls".into(),
            "count",
            c("opt.size_stage_calls"),
        ),
        ("opt.criticality_s".into(), "s", t("opt.criticality")),
        ("opt.yield_eval_s".into(), "s", t("opt.yield_eval")),
        ("opt.yield_evals".into(), "count", c("opt.yield_evals")),
        ("opt.verify_s".into(), "s", t("opt.verify")),
        ("opt.verify_trials".into(), "count", c("opt.verify_trials")),
        ("engine.run_s".into(), "s", run_s),
        ("engine.serialize_s".into(), "s", t("engine.serialize")),
        (
            "engine.result_bytes".into(),
            "bytes",
            c("engine.result_bytes"),
        ),
        ("engine.journal_s".into(), "s", t("engine.journal")),
        (
            "engine.residual_frac".into(),
            "ratio",
            if run_s > 0.0 {
                1.0 - attributed / run_s
            } else {
                0.0
            },
        ),
        ("cache.open_s".into(), "s", t("cache.open")),
        ("cache.lookup_s".into(), "s", t("cache.lookup")),
        ("cache.append_s".into(), "s", t("cache.append")),
        (
            "cache.hit_ratio".into(),
            "ratio",
            if lookups > 0.0 {
                c("cache.hits") / lookups
            } else {
                0.0
            },
        ),
        (
            "cache.bytes_written".into(),
            "bytes",
            c("cache.bytes_written"),
        ),
    ]);
    m
}

/// Everything the traced run reports.
pub struct TraceRun {
    pub correct: bool,
    pub attempted: usize,
    pub metrics: Vec<Metric>,
}

fn fresh_cache(w: &workloads::Workload, f: &Files) -> std::io::Result<()> {
    e2e::reset(w, f)?;
    if w.prefill.is_none() && f.cache.exists() {
        fs::remove_dir_all(&f.cache)?;
    }
    Ok(())
}

/// Traced and untraced passes, alternating, until `seconds` have passed
/// (at least one pair).
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    design: &Value,
    work: &Path,
    parallelism: f64,
) -> Result<TraceRun, String> {
    let nominal = as_f64(design.get("ref_nominal_s")).ok_or("design: ref_nominal_s missing")?;
    let w = workloads::generate(name, seed).expect("workload name checked");
    let f = Files::new(work.to_path_buf());
    let bin = crate::vardelay_bin();
    let io = |e: std::io::Error| e.to_string();
    e2e::materialize(&bin, &w, &f).map_err(io)?;

    // One end-to-end execution: the reference digest and a raw wall time.
    e2e::reset(&w, &f).map_err(io)?;
    let ref_b = time_reference();
    let exit = e2e::run_child(&bin, &e2e::run_args(&w, &f, 1)).map_err(io)?;
    let ref_a = time_reference();
    let reference = e2e::read_outcome(&f).map_err(io)?;
    let mut correct = exit.success;

    let mut per_pass: Vec<Vec<(String, &'static str, f64)>> = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut refs = vec![ref_b, ref_a];
    let started = Instant::now();
    while per_pass.is_empty() || started.elapsed().as_secs_f64() < seconds {
        for on in [true, false] {
            fresh_cache(&w, &f).map_err(io)?;
            let tr = Tracer::new(on);
            let rb = time_reference();
            let t = Instant::now();
            let d = pass(&w, seed, &tr, &f)?;
            let raw = t.elapsed().as_secs_f64();
            let ra = time_reference();
            refs.extend([rb, ra]);
            correct &= d == reference.digest;
            let scale = nominal / (0.5 * (rb + ra));
            if on {
                traced_s.push(normalize(raw, rb, ra, nominal));
                per_pass.push(layer_metrics(&tr, scale));
            } else {
                untraced_s.push(normalize(raw, rb, ra, nominal));
            }
        }
    }

    let mut metrics: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, (n, unit, _))| Metric {
            name: n.clone(),
            unit,
            value: median(&per_pass.iter().map(|p| p[i].2).collect::<Vec<_>>()),
        })
        .collect();
    let (mt, mu) = (median(&traced_s), median(&untraced_s));
    metrics.extend([
        Metric {
            name: "host.ref_s".into(),
            unit: "s",
            value: median(&refs),
        },
        Metric {
            name: "host.raw_wall_s".into(),
            unit: "s",
            value: exit.wall_s,
        },
        Metric {
            name: "host.parallelism".into(),
            unit: "ratio",
            value: parallelism,
        },
        Metric {
            name: "trace.overhead_frac".into(),
            unit: "ratio",
            value: (mt - mu) / mu,
        },
    ]);
    println!(
        r#"{{"workload": "{name}", "seed": {seed}, "passes": {}, "digest": "{}", "traced_s": {}, "untraced_s": {}, "host": {{"parallelism": {parallelism}, "ref_s": {}}}}}"#,
        per_pass.len(),
        reference.digest,
        crate::list(traced_s.iter().copied()),
        crate::list(untraced_s.iter().copied()),
        crate::list(refs.iter().copied()),
    );
    Ok(TraceRun {
        correct,
        attempted: per_pass.len(),
        metrics,
    })
}
