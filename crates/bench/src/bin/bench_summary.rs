//! Machine-readable performance summary: writes `BENCH_10.json`.
//!
//! CI runs this after its smoke tests so the perf trajectory is
//! tracked as data, not just as log lines: campaign wall-clock per
//! backend **with its phase breakdown** (sizing / criticality / MC
//! verification ms, attributed by the `vardelay-obs` metrics layer
//! instead of hand-placed timers), sizing throughput on both kernels
//! (the old-vs-new ratio is the incremental kernel's headline), raw
//! retime-probe cost, and the Monte-Carlo verification throughput in
//! trials/sec on **both trial kernels**. Timings are the median of
//! `SAMPLES` runs on a warmed process.
//!
//! The **v3 wide kernel + pooled verification** section: the lane-major
//! structure-of-arrays kernel must clear [`V3_SPEEDUP_FLOOR`]× the v1
//! rate measured in the same process (host noise cancels, so the ratio
//! gates unconditionally), and the `mc_verify_parallel` block times the
//! v3 chunked verification fold sequentially vs through the worker
//! pool. The pooled bytes are asserted identical to the sequential fold
//! **unconditionally**; the wall-clock speedup is only gated
//! (≥[`MC_VERIFY_PARALLEL_FLOOR`]×) when the host actually has ≥4 cores
//! — on a single-core runner the pool cannot manifest a speedup and the
//! entry is informational.
//!
//! With `--baseline <prev.json>` the run also **gates regressions**:
//! if the incremental-kernel speedup or the MC verification throughput
//! fell more than [`REGRESSION_TOLERANCE`] below the checked-in
//! previous BENCH file, the process exits non-zero and CI fails.
//! Ratios (speedups) are machine-independent; trials/sec is noisy
//! across hosts, which is why the tolerance is a generous 20%.
//!
//! The **result cache** gates carry forward: a warm campaign rerun
//! against a populated content-addressed store must reproduce the cold
//! bytes exactly while costing at most [`WARM_FRACTION_CEILING`] of the
//! cold wall-clock. The fraction is a same-process ratio, so it gates
//! unconditionally — no baseline file needed.
//!
//! The **trial-plan** gates carry forward: variance-reduction factors
//! of the stratified / Sobol / antithetic sampling plans versus plain
//! Monte-Carlo at a matched trial budget (stratified and Sobol must
//! clear [`PLAN_VRF_FLOOR`]×), plus the high-sigma blockade
//! demonstration. Both are same-process seed-deterministic ratios, so
//! they gate unconditionally.
//!
//! Usage: `cargo run --release -p vardelay-bench --bin bench_summary
//! [out.json] [--baseline prev.json]` (default out `BENCH_10.json`).

use std::time::Instant;

use serde::Deserialize as _;
use vardelay_cache::{ResultStore, UnitCache};
use vardelay_circuit::generators::{inverter_chain, random_logic, RandomLogicConfig};
use vardelay_circuit::{CellLibrary, LatchParams, StagedPipeline};
use vardelay_engine::optimize::{OptimizationCampaign, OptimizeSpec, YieldBackendSpec};
use vardelay_engine::{
    run_workload, KernelSpec, LatchSpec, PipelineSpec, TrialPlanSpec, VariationSpec,
    WorkloadOptions,
};
use vardelay_mc::{
    PipelineBlockStats, PipelineMc, PreparedPipelineMc, TrialKernel, TrialPlan, TrialStrategy,
};
use vardelay_opt::{OptimizationGoal, SizingConfig, StatisticalSizer, TargetDelayPolicy};
use vardelay_process::VariationConfig;
use vardelay_ssta::sta::arrival_times;
use vardelay_ssta::{SstaEngine, StageTimer};
use vardelay_stats::counter_seed;

/// Timing samples per measurement (median reported).
const SAMPLES: usize = 5;

/// Median wall-clock of `f` in milliseconds over [`SAMPLES`] runs.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

/// Phase attribution of one campaign run, read off the obs aggregate.
struct CampaignSample {
    wall_ms: f64,
    sizing_ms: f64,
    criticality_ms: f64,
    mc_verify_ms: f64,
}

/// Runs `f` under a recording session [`SAMPLES`] times and returns the
/// median-wall-clock sample with its phase breakdown. The span overhead
/// is in the nanoseconds per sizing move — noise at campaign scale —
/// and identical across PRs, so medians stay comparable.
fn median_traced(mut f: impl FnMut()) -> CampaignSample {
    let ns_to_ms = |ns: u64| ns as f64 / 1e6;
    let mut samples: Vec<CampaignSample> = (0..SAMPLES)
        .map(|_| {
            let session = vardelay_obs::Session::start();
            let t = Instant::now();
            f();
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let agg = vardelay_obs::aggregate(&session.finish());
            CampaignSample {
                wall_ms,
                sizing_ms: ns_to_ms(agg.phase_ns("opt/size_stage")),
                criticality_ms: ns_to_ms(agg.phase_ns("opt/criticality")),
                mc_verify_ms: ns_to_ms(agg.phase_ns("mc/verify")),
            }
        })
        .collect();
    samples.sort_by(|a, b| a.wall_ms.partial_cmp(&b.wall_ms).expect("finite times"));
    samples.remove(samples.len() / 2)
}

fn campaign(backend: YieldBackendSpec) -> OptimizationCampaign {
    OptimizationCampaign {
        name: format!("bench-{}", backend.keyword()),
        seed: 0xBE7C,
        runs: vec![OptimizeSpec {
            label: format!("chains ensure 80% ({})", backend.keyword()),
            pipeline: PipelineSpec::InverterStages {
                depths: vec![30, 29, 29, 29],
                size: 1.0,
                latch: LatchSpec::TgMsff70nm,
            },
            variation: VariationSpec::RandomOnly { sigma_mv: 35.0 },
            yield_target: 0.80,
            target_delay: TargetDelayPolicy::FrontierQuantile { q: 0.86, refine: 3 },
            goal: OptimizationGoal::EnsureYield,
            rounds: 3,
            yield_backend: backend,
            kernel: KernelSpec::default(),
            eval_trials: 1_024,
            verify_trials: 4_096,
            verify_plan: TrialPlanSpec::default(),
        }],
        grid: None,
    }
}

/// Allowed fractional drop versus the baseline before CI fails.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// The v3 wide kernel must clear this multiple of the v1 trial rate.
/// Both rates are measured in the same process on the same pipeline,
/// so the ratio is host-independent even though each rate is not — an
/// unconditional single-thread gate (the lane-major layout must pay for
/// itself before any pooling). 4.5 is the product of the two floors it
/// replaced when the v2 batch kernel was retired: v2 at 3× v1 and v3 at
/// 1.5× v2.
const V3_SPEEDUP_FLOOR: f64 = 4.5;

/// Pooled v3 verification must be at least this much faster than the
/// sequential fold — gated only on hosts with ≥4 cores, where the pool
/// has hardware to spread over. The byte-identity of the pooled fold
/// is asserted on every host regardless.
const MC_VERIFY_PARALLEL_FLOOR: f64 = 2.0;

/// A warm (fully cached) campaign rerun may cost at most this fraction
/// of the cold run's wall-clock. Both sides are measured in the same
/// process, so the ratio gates unconditionally.
const WARM_FRACTION_CEILING: f64 = 0.25;

/// Stratified and Sobol plans must cut the yield-estimator variance by
/// at least this factor versus plain MC at a matched budget — the
/// "≥4x fewer trials at the same confidence" headline. The ratio is
/// seed-deterministic and same-process, so it gates unconditionally.
const PLAN_VRF_FLOOR: f64 = 4.0;

/// z for a 90% one-sided body yield target (Phi^-1(0.90)).
const Z_BODY: f64 = 1.2816;

/// z for the 99.95% high-sigma target (Phi^-1(0.9995)) — close enough
/// to the 99.9% decision line that plain MC cannot separate the two at
/// a few thousand trials, while blockade can.
const Z_HIGH_SIGMA: f64 = 3.2905;

/// Reads one numeric metric out of a parsed BENCH file.
fn metric(v: &serde::Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("baseline is missing `{}`", path.join(".")));
    }
    f64::from_value(cur).unwrap_or_else(|_| panic!("baseline `{}` is not a number", path.join(".")))
}

/// Fails the process if a lower-is-worse metric regressed beyond
/// tolerance.
fn gate(name: &str, current: f64, baseline: f64) -> bool {
    let floor = baseline * (1.0 - REGRESSION_TOLERANCE);
    let ok = current >= floor;
    println!(
        "gate {name}: current {current:.3} vs baseline {baseline:.3} (floor {floor:.3}) — {}",
        if ok { "ok" } else { "REGRESSED" }
    );
    ok
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = match args.iter().position(|a| a == "--baseline") {
        Some(i) => {
            args.remove(i);
            if i >= args.len() {
                eprintln!("--baseline requires a file");
                std::process::exit(2);
            }
            Some(args.remove(i))
        }
        None => None,
    };
    if args.len() > 1 {
        eprintln!("usage: bench_summary [out.json] [--baseline prev.json]");
        std::process::exit(2);
    }
    let out_path = args.pop().unwrap_or_else(|| "BENCH_10.json".to_owned());

    // --- Campaign wall-clock + phase breakdown per backend. ---
    // Determinism is asserted both across worker counts and across the
    // traced/untraced boundary: recording spans must not change bytes.
    let mut campaign_samples = Vec::new();
    for backend in [YieldBackendSpec::Analytic, YieldBackendSpec::Netlist] {
        let spec = campaign(backend);
        let a = run_workload(&spec, &WorkloadOptions::sequential()).unwrap();
        let b = run_workload(&spec, &WorkloadOptions::sequential().with_workers(4)).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "worker count must not matter");
        let session = vardelay_obs::Session::start();
        let traced = run_workload(&spec, &WorkloadOptions::sequential()).unwrap();
        drop(session.finish());
        assert_eq!(
            a.to_json(),
            traced.to_json(),
            "tracing must not change bytes"
        );
        let sample = median_traced(|| {
            std::hint::black_box(run_workload(&spec, &WorkloadOptions::sequential()).unwrap());
        });
        campaign_samples.push((backend.keyword(), sample));
    }

    // --- Result cache: cold vs warm campaign (incremental recompute). ---
    // Cold runs start from an empty store (populate + execute); warm
    // runs serve every unit from the store. Warm bytes must equal a
    // plain uncached run's bytes, at a 100% hit rate.
    let cache_spec = campaign(YieldBackendSpec::Analytic);
    let cache_dir =
        std::env::temp_dir().join(format!("vardelay-bench-cache-{}", std::process::id()));
    let cache_cold_ms = median_ms(|| {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cache = UnitCache::new(ResultStore::open(&cache_dir).expect("open cache"));
        let opts = WorkloadOptions::sequential().with_cache(&cache);
        std::hint::black_box(run_workload(&cache_spec, &opts).expect("cold cached run"));
    });
    // The final cold iteration left a fully populated store behind.
    let cache_warm_ms = median_ms(|| {
        let cache = UnitCache::new(ResultStore::open(&cache_dir).expect("open cache"));
        let opts = WorkloadOptions::sequential().with_cache(&cache);
        std::hint::black_box(run_workload(&cache_spec, &opts).expect("warm cached run"));
    });
    let session = vardelay_obs::Session::start();
    let cache = UnitCache::new(ResultStore::open(&cache_dir).expect("open cache"));
    let warm = run_workload(
        &cache_spec,
        &WorkloadOptions::sequential().with_cache(&cache),
    )
    .expect("warm cached run");
    let agg = vardelay_obs::aggregate(&session.finish());
    let (hits, misses) = (agg.counter("cache/hit"), agg.counter("cache/miss"));
    assert_eq!(misses, 0, "warm run must be all hits");
    let cache_hit_rate = hits as f64 / (hits + misses) as f64;
    assert_eq!(
        warm.to_json(),
        run_workload(&cache_spec, &WorkloadOptions::sequential())
            .expect("uncached run")
            .to_json(),
        "warm cache run must reproduce uncached bytes"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
    let warm_fraction = cache_warm_ms / cache_cold_ms;

    // --- Sizing throughput: incremental vs full-pass kernel. ---
    let engine = SstaEngine::new(
        CellLibrary::default(),
        VariationConfig::random_only(35.0),
        None,
    );
    let incremental = StatisticalSizer::new(engine.clone(), SizingConfig::default());
    let full = incremental.clone().with_full_pass_kernel();
    let stage = random_logic(&RandomLogicConfig {
        name: "bench_stage".into(),
        inputs: 24,
        gates: 200,
        depth: 14,
        outputs: 12,
        seed: 77,
    });
    let target = engine.stage_delay(&stage, 0).mean() * 0.92;
    let ra = incremental.size_stage(&stage, 0, target, 0.9);
    let rb = full.size_stage(&stage, 0, target, 0.9);
    assert_eq!(ra.netlist, rb.netlist, "kernels diverged");
    let size_inc_ms = median_ms(|| {
        std::hint::black_box(incremental.size_stage(&stage, 0, target, 0.9));
    });
    let size_full_ms = median_ms(|| {
        std::hint::black_box(full.size_stage(&stage, 0, target, 0.9));
    });

    // --- Raw retime probe (candidate-scoring primitive). ---
    let lib = CellLibrary::default();
    let mut timer = StageTimer::new(stage.clone(), &lib, 3.0);
    let gi = stage.gate_count() / 2;
    let probes = 20_000u32;
    let probe_inc_ms = median_ms(|| {
        for _ in 0..probes {
            let s = timer.size_of(gi);
            timer.try_size(gi, s * 1.15);
            std::hint::black_box(timer.delay());
            timer.rollback();
        }
    }) / probes as f64;
    let mut work = stage.clone();
    let probes_full = 500u32;
    let probe_full_ms = median_ms(|| {
        for _ in 0..probes_full {
            let s = work.gates()[gi].size;
            work.set_gate_size(gi, s * 1.15);
            std::hint::black_box(arrival_times(&work, &lib, 3.0, None));
            work.set_gate_size(gi, s);
        }
    }) / probes_full as f64;
    assert_eq!(
        timer.arrivals(),
        &arrival_times(&stage, &lib, 3.0, None)[..],
        "probe loop must leave timing bit-identical"
    );

    // --- Verification MC throughput (bit-frozen trial arithmetic). ---
    let var = VariationConfig::random_only(35.0);
    let mc = PipelineMc::new(CellLibrary::default(), var, None);
    let pipe = StagedPipeline::new(
        "verify",
        vec![
            inverter_chain(30, 1.0),
            inverter_chain(29, 1.0),
            inverter_chain(29, 1.0),
            inverter_chain(29, 1.0),
        ],
        LatchParams::tg_msff_70nm(),
    );
    let plain = TrialPlan::plain();
    let trials = 8_192u64;
    // v1 (scalar) and v3 (wide) kernels: same pipeline, same process,
    // measured in that order.
    let trials_per_sec_of = |kernel: TrialKernel| {
        let prepared = PreparedPipelineMc::new(&mc.clone().with_kernel(kernel), &pipe);
        let mut ws = prepared.workspace();
        let ms = median_ms(|| {
            let mut stats = PipelineBlockStats::new(pipe.stage_count(), &[150.0]);
            prepared.run_block_plan(&mut ws, 0..trials, |t| t ^ 0xBE7C, plain, &mut stats);
            std::hint::black_box(stats);
        });
        trials as f64 / (ms / 1e3)
    };
    let trials_per_sec = trials_per_sec_of(TrialKernel::V1);
    let trials_per_sec_v3 = trials_per_sec_of(TrialKernel::V3);

    // --- Pooled v3 verification: sequential fold vs the worker pool. ---
    // Bytes must match on every host; the speedup is only meaningful
    // (and only gated) when there are cores to spread over.
    let prepared_v3 = PreparedPipelineMc::new(&mc.clone().with_kernel(TrialKernel::V3), &pipe);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_budget = 16_384u64;
    let pool_seed = |t: u64| counter_seed(0xBE7C, t);
    let pooled_verify = |workers: usize| {
        vardelay_engine::verify_yield_pooled(
            &prepared_v3,
            TrialPlan::plain(),
            pool_budget,
            None,
            pool_seed,
            pipe.stage_count(),
            &[150.0],
            workers,
            0,
        )
    };
    let sequential_v = pooled_verify(1);
    let parallel_v = pooled_verify(cores);
    let verify_digest = |v: &vardelay_opt::VerifiedYield| {
        (
            v.trials,
            v.stats.yield_estimate(0).value.to_bits(),
            v.stats.pipeline().mean().to_bits(),
            v.stats.pipeline().sample_sd().to_bits(),
        )
    };
    assert_eq!(
        verify_digest(&sequential_v),
        verify_digest(&parallel_v),
        "pooled verification must reproduce the sequential fold bit-for-bit"
    );
    let verify_seq_ms = median_ms(|| {
        std::hint::black_box(pooled_verify(1));
    });
    let verify_par_ms = median_ms(|| {
        std::hint::black_box(pooled_verify(cores));
    });
    let verify_parallel_speedup = verify_seq_ms / verify_par_ms;

    // --- Trial plans: variance reduction at a matched budget. ---
    // Inter-die-dominant variation, where die-level stratification and
    // QMC have the most structure to exploit: the yield estimator's
    // variance across independent replicates (distinct seeds, identical
    // budget) is the efficiency currency — VRF x means plain MC needs
    // x times the trials for the same confidence interval.
    let plans_var = VariationConfig::combined(40.0, 10.0, 0.0);
    let mc_plans = PipelineMc::new(CellLibrary::default(), plans_var, None);
    let plans_pipe = StagedPipeline::new(
        "plans",
        vec![
            inverter_chain(10, 1.0),
            inverter_chain(8, 1.0),
            inverter_chain(9, 1.0),
            inverter_chain(7, 1.0),
        ],
        LatchParams::tg_msff_70nm(),
    );
    let prepared_plans = PreparedPipelineMc::new(&mc_plans, &plans_pipe);
    let mut ws_plans = prepared_plans.workspace();
    let mut probe = PipelineBlockStats::new(plans_pipe.stage_count(), &[]);
    prepared_plans.run_block_plan(
        &mut ws_plans,
        0..8_192,
        |t| counter_seed(0xA5ED, t),
        plain,
        &mut probe,
    );
    let (mu, sd) = (probe.pipeline().mean(), probe.pipeline().sample_sd());
    let body_target = mu + Z_BODY * sd;

    let plan_budget = 1_024u64;
    let plan_replicates = 24u64;
    let mut yield_variance = |plan: TrialPlan| -> f64 {
        let mut est = vardelay_stats::RunningStats::new();
        for r in 0..plan_replicates {
            let mut stats = PipelineBlockStats::new(plans_pipe.stage_count(), &[body_target]);
            let seed_of = |t: u64| counter_seed(0xA5ED ^ (r + 1), t);
            prepared_plans.run_block_plan(&mut ws_plans, 0..plan_budget, seed_of, plan, &mut stats);
            est.push(stats.yield_estimate(0).value);
        }
        est.sample_variance()
    };
    let var_plain = yield_variance(plain);
    let vrf_antithetic = var_plain / yield_variance(TrialPlan::of(TrialStrategy::Antithetic));
    let vrf_stratified = var_plain / yield_variance(TrialPlan::of(TrialStrategy::Stratified));
    let vrf_sobol = var_plain / yield_variance(TrialPlan::of(TrialStrategy::Sobol));

    // --- High-sigma: blockade resolves 99.9% where plain MC cannot. ---
    // Both estimators get the same 4k-trial budget against a target in
    // the far tail. Plain MC sees a handful of failures and its
    // interval straddles the 0.999 decision line; the blockade plan's
    // reweighted tail estimate is an order of magnitude tighter and
    // pins the yield to one side of it.
    let hs_target = mu + Z_HIGH_SIGMA * sd;
    let hs_budget = 4_096u64;
    let hs_seed = |t: u64| counter_seed(0x515A, t);
    let mut plain_hs = PipelineBlockStats::new(plans_pipe.stage_count(), &[hs_target]);
    prepared_plans.run_block_plan(&mut ws_plans, 0..hs_budget, hs_seed, plain, &mut plain_hs);
    let plain_hs_yield = plain_hs.yield_estimate(0).value;
    let plain_hs_hw = plain_hs.yield_half_width(0);
    let mut blockade_hs =
        PipelineBlockStats::new(plans_pipe.stage_count(), &[hs_target]).with_weighted_tail();
    prepared_plans.run_block_plan(
        &mut ws_plans,
        0..hs_budget,
        hs_seed,
        TrialPlan::of(TrialStrategy::Blockade),
        &mut blockade_hs,
    );
    let blockade_hs_yield = blockade_hs.weighted_yield_estimate(0).value;
    let blockade_hs_hw = blockade_hs.yield_half_width(0);
    let resolves = |y: f64, hw: f64| y - hw > 0.999 || y + hw < 0.999;
    let plain_resolves = resolves(plain_hs_yield, plain_hs_hw);
    let blockade_resolves = resolves(blockade_hs_yield, blockade_hs_hw);

    // Hand-rendered JSON: fixed key order, no dependency on map
    // iteration, so the artifact diffs cleanly between PRs.
    let phase_block = |s: &CampaignSample| {
        format!(
            "{{\n      \"sizing\": {:.3},\n      \"criticality\": {:.3},\n      \
             \"mc_verify\": {:.3}\n    }}",
            s.sizing_ms, s.criticality_ms, s.mc_verify_ms
        )
    };
    let trial_plans_block = format!(
        "{{\n    \"budget_trials\": {plan_budget},\n    \"replicates\": {plan_replicates},\n    \
         \"vrf_antithetic\": {vrf_antithetic:.2},\n    \"vrf_stratified\": {vrf_stratified:.2},\n    \
         \"vrf_sobol\": {vrf_sobol:.2},\n    \"high_sigma\": {{\n      \"target_yield\": 0.999,\n      \
         \"budget_trials\": {hs_budget},\n      \"plain_yield\": {plain_hs_yield:.6},\n      \
         \"plain_half_width\": {plain_hs_hw:.6},\n      \"plain_resolves\": {plain_resolves},\n      \
         \"blockade_yield\": {blockade_hs_yield:.6},\n      \"blockade_half_width\": {blockade_hs_hw:.6},\n      \
         \"blockade_resolves\": {blockade_resolves}\n    }}\n  }}"
    );
    let json = format!(
        "{{\n  \"pr\": 10,\n  \"campaign_ms\": {{\n    \"{}\": {:.3},\n    \"{}\": {:.3}\n  }},\n  \
         \"campaign_phases_ms\": {{\n    \"{}\": {},\n    \"{}\": {}\n  }},\n  \
         \"result_cache\": {{\n    \"campaign_cold_ms\": {:.3},\n    \"campaign_warm_ms\": {:.3},\n    \
         \"warm_fraction\": {:.4},\n    \"hit_rate\": {:.4}\n  }},\n  \
         \"sizing\": {{\n    \"size_stage_200g_ms\": {:.4},\n    \"size_stage_200g_full_pass_ms\": {:.4},\n    \
         \"kernel_speedup\": {:.3}\n  }},\n  \"retime_probe\": {{\n    \"incremental_us\": {:.3},\n    \
         \"full_pass_us\": {:.3},\n    \"speedup\": {:.2}\n  }},\n  \"mc_verification\": {{\n    \
         \"trials_per_sec\": {:.0},\n    \"kernel_v3_trials_per_sec\": {:.0},\n    \
         \"kernel_v3_speedup\": {:.2}\n  }},\n  \"mc_verify_parallel\": {{\n    \
         \"cores\": {},\n    \"budget_trials\": {},\n    \"sequential_ms\": {:.3},\n    \
         \"parallel_ms\": {:.3},\n    \"speedup\": {:.2},\n    \"bytes_identical\": true\n  }},\n  \
         \"trial_plans\": {}\n}}",
        campaign_samples[0].0,
        campaign_samples[0].1.wall_ms,
        campaign_samples[1].0,
        campaign_samples[1].1.wall_ms,
        campaign_samples[0].0,
        phase_block(&campaign_samples[0].1),
        campaign_samples[1].0,
        phase_block(&campaign_samples[1].1),
        cache_cold_ms,
        cache_warm_ms,
        warm_fraction,
        cache_hit_rate,
        size_inc_ms,
        size_full_ms,
        size_full_ms / size_inc_ms,
        probe_inc_ms * 1e3,
        probe_full_ms * 1e3,
        probe_full_ms / probe_inc_ms,
        trials_per_sec,
        trials_per_sec_v3,
        trials_per_sec_v3 / trials_per_sec,
        cores,
        pool_budget,
        verify_seq_ms,
        verify_par_ms,
        verify_parallel_speedup,
        trial_plans_block,
    );
    std::fs::write(&out_path, &json).expect("write summary");
    println!("{json}");
    println!();
    println!("wrote {out_path}");

    // Unconditional gate: warm reruns must stay an order cheaper than
    // cold ones, or the cache stopped earning its keep.
    let warm_ok = warm_fraction <= WARM_FRACTION_CEILING;
    println!();
    println!(
        "gate result_cache.warm_fraction: current {warm_fraction:.4} vs ceiling \
         {WARM_FRACTION_CEILING} — {}",
        if warm_ok { "ok" } else { "TOO SLOW" }
    );
    if !warm_ok {
        eprintln!("warm cached rerun cost more than {WARM_FRACTION_CEILING}x the cold run");
        std::process::exit(1);
    }

    // Unconditional trial-plan gates: the variance-reduction headline
    // (≥4x fewer trials at matched confidence for the die-structured
    // plans) and the high-sigma resolution demo. Seed-deterministic
    // same-process ratios — no baseline needed.
    let mut plans_ok = true;
    for (name, vrf) in [
        ("trial_plans.vrf_stratified", vrf_stratified),
        ("trial_plans.vrf_sobol", vrf_sobol),
    ] {
        let ok = vrf >= PLAN_VRF_FLOOR;
        plans_ok &= ok;
        println!(
            "gate {name}: current {vrf:.2} vs floor {PLAN_VRF_FLOOR} — {}",
            if ok { "ok" } else { "TOO LITTLE REDUCTION" }
        );
    }
    let hs_ok = blockade_resolves && !plain_resolves && blockade_hs_hw < plain_hs_hw;
    println!(
        "gate trial_plans.high_sigma: blockade resolves 0.999 (hw {blockade_hs_hw:.6}) while \
         plain does not (hw {plain_hs_hw:.6}) — {}",
        if hs_ok { "ok" } else { "FAILED" }
    );
    if !(plans_ok && hs_ok) {
        eprintln!("trial-plan efficiency gates failed");
        std::process::exit(1);
    }

    // Unconditional v3 gate: the wide kernel must beat the scalar
    // kernel in the same process, single-threaded — lane-major layout
    // has to pay for itself before any pooling enters the picture.
    let v3_speedup = trials_per_sec_v3 / trials_per_sec;
    let v3_ok = v3_speedup >= V3_SPEEDUP_FLOOR;
    println!(
        "gate mc_verification.kernel_v3_speedup: current {v3_speedup:.2} vs floor \
         {V3_SPEEDUP_FLOOR} — {}",
        if v3_ok { "ok" } else { "TOO SLOW" }
    );
    if !v3_ok {
        eprintln!("v3 kernel did not clear {V3_SPEEDUP_FLOOR}x the v1 rate");
        std::process::exit(1);
    }

    // Pooled-verification speedup gate: only meaningful where the pool
    // has cores to spread over (byte-identity was already asserted
    // unconditionally above).
    if cores >= 4 {
        let par_ok = verify_parallel_speedup >= MC_VERIFY_PARALLEL_FLOOR;
        println!(
            "gate mc_verify_parallel.speedup: current {verify_parallel_speedup:.2} vs floor \
             {MC_VERIFY_PARALLEL_FLOOR} ({cores} cores) — {}",
            if par_ok { "ok" } else { "TOO SLOW" }
        );
        if !par_ok {
            eprintln!("pooled v3 verification did not clear {MC_VERIFY_PARALLEL_FLOOR}x");
            std::process::exit(1);
        }
    } else {
        println!(
            "gate mc_verify_parallel.speedup: skipped ({cores} core(s) — no hardware to \
             parallelize over; bytes_identical asserted)"
        );
    }

    // Regression gate against the checked-in previous BENCH file.
    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline '{path}': {e}"));
        let base: serde::Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("baseline '{path}': {e}"));
        println!();
        let speedup_ok = gate(
            "sizing.kernel_speedup",
            size_full_ms / size_inc_ms,
            metric(&base, &["sizing", "kernel_speedup"]),
        );
        let mc_ok = gate(
            "mc_verification.trials_per_sec",
            trials_per_sec,
            metric(&base, &["mc_verification", "trials_per_sec"]),
        );
        if !(speedup_ok && mc_ok) {
            eprintln!(
                "performance regressed >{:.0}% vs {path}",
                100.0 * REGRESSION_TOLERANCE
            );
            std::process::exit(1);
        }
    }
}
