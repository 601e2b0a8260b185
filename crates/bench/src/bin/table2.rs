//! Table II: ensuring an 80% pipeline yield target with a small area
//! penalty on the 4-stage ISCAS85 pipeline (c3540, c2670, c1908, c432).
//!
//! Setup (matching the paper's): the target delay is placed where the
//! biggest stage (c3540) *cannot* reach the conventional per-stage yield
//! allocation of `0.80^(1/4) = 94.6%` — the frontier-quantile policy
//! pins it at the 86% quantile, the paper's 86.3% situation. In the
//! paper the individually-optimized flow then under-yields at the
//! pipeline level and the Fig. 9 global flow compensates by buying
//! extra yield in the stages where it is cheap (low `R_i`); see the
//! shape-check footer for how far our greedy sizer reproduces that
//! contrast on these profiles.
//!
//! Since the engine grew optimization campaigns, this binary is a thin
//! campaign driver: the frontier search, the individually-optimized
//! baseline, the global flow and the Monte-Carlo "actual yield"
//! cross-check (20k trials) all run through `vardelay_engine::optimize`
//! — the same code path as `vardelay optimize <spec.json>`.
//!
//! Run: `cargo run --release -p vardelay-bench --bin table2`

use vardelay_bench::iscas_pipeline_spec;
use vardelay_bench::render::{pct, TextTable};
use vardelay_engine::optimize::{OptimizationCampaign, OptimizeSpec, YieldBackendSpec};
use vardelay_engine::{run_workload, KernelSpec, TrialPlanSpec, VariationSpec, WorkloadOptions};
use vardelay_opt::{OptimizationGoal, TargetDelayPolicy};

fn main() {
    let campaign = OptimizationCampaign {
        name: "table2".to_owned(),
        seed: 0x7AB2,
        runs: vec![OptimizeSpec {
            label: "iscas4 ensure 80%".to_owned(),
            pipeline: iscas_pipeline_spec(),
            variation: VariationSpec::RandomOnly { sigma_mv: 35.0 },
            yield_target: 0.80,
            target_delay: TargetDelayPolicy::table2(),
            goal: OptimizationGoal::EnsureYield,
            rounds: 4,
            yield_backend: YieldBackendSpec::Analytic,
            kernel: KernelSpec::default(),
            eval_trials: 2_048,
            verify_trials: 20_000,
            verify_plan: TrialPlanSpec::default(),
        }],
        grid: None,
    };
    let result = run_workload(&campaign, &WorkloadOptions::parallel()).expect("campaign is valid");
    let run = &result.runs[0];
    let report = &run.report;
    let target = run.target_ps;
    let a_ind = report.pipeline_area_before;

    println!("Table II — ensuring Y_TARGET = 80% with small area penalty");
    println!("4-stage ISCAS85 pipeline, target delay {target:.0} ps\n");

    let mut t = TextTable::new([
        "Stage logic",
        "Indiv area %",
        "Indiv yield %",
        "Proposed area %",
        "Proposed yield %",
        "R slope",
    ]);
    for s in &report.stages {
        t.row([
            s.name.clone(),
            format!("{:.1}", 100.0 * s.area_before / a_ind),
            pct(s.yield_before),
            format!("{:.1}", 100.0 * s.area_after / a_ind),
            pct(s.yield_after),
            format!("{:.2}", s.slope),
        ]);
    }
    t.row([
        "Pipeline:".to_owned(),
        "100.0".to_owned(),
        pct(run.individual.analytic_yield),
        format!("{:.1}", 100.0 * report.pipeline_area_after / a_ind),
        pct(report.pipeline_yield_after),
        "-".to_owned(),
    ]);
    println!("{}", t.render());

    println!(
        "yield: {} -> {} (target {}), area {:+.1}%",
        pct(run.individual.analytic_yield),
        pct(report.pipeline_yield_after),
        pct(report.yield_target),
        100.0 * report.area_delta_fraction()
    );
    if let (Some(mi), Some(mg)) = (&run.individual.mc, &run.mc) {
        println!(
            "actual (MC, {} trials): {} -> {}  [model on measured moments: {} -> {}]",
            mg.trials,
            pct(mi.value),
            pct(mg.value),
            mi.model_from_mc.map_or("-".to_owned(), pct),
            mg.model_from_mc.map_or("-".to_owned(), pct),
        );
    }
    println!("\nshape check vs paper's Table II: the target sits where the frontier stage");
    println!("(c3540) reaches only the 86% quantile — below its 94.6% allocation, the");
    println!("paper's 86.3% setup. Whether the conventional flow then under-yields depends");
    println!("on how far the remaining stages overshoot their allocation (our greedy sizer");
    println!("overshoots on these profiles; when it does, the global flow keeps the input");
    println!("rather than spending area). The classic failure->fix contrast (paper: 73.9%");
    println!("-> 80.5% at +2% area) is pinned by the campaign golden test on a chain");
    println!("pipeline, crates/engine/tests/optimize.rs.");
}
