//! Quickstart: estimate the delay distribution and yield of a pipeline.
//!
//! Builds a 5-stage inverter-chain pipeline in the BPTM-70nm-like
//! technology, runs statistical timing, and compares the analytical yield
//! model against a Monte-Carlo reference.
//!
//! Run: `cargo run --release --example quickstart`

use vardelay::circuit::{CellLibrary, LatchParams, StagedPipeline};
use vardelay::core::{Pipeline, StageDelay};
use vardelay::mc::{PipelineBlockStats, PipelineMc, PreparedPipelineMc, TrialPlan, TrialWorkspace};
use vardelay::process::VariationConfig;
use vardelay::ssta::SstaEngine;
use vardelay::stats::counter_seed;

fn main() {
    // 1. A pipeline: 5 stages of 8 inverters each, with TG-MSFF latches.
    let pipeline = StagedPipeline::inverter_grid(5, 8, 1.0, LatchParams::tg_msff_70nm());

    // 2. A variation model: inter-die + random intra-die + systematic.
    let variation = VariationConfig::combined(20.0, 35.0, 15.0);

    // 3. Statistical timing -> per-stage distributions + correlations.
    let engine = SstaEngine::new(CellLibrary::default(), variation, None);
    let timing = engine.analyze_pipeline(&pipeline);
    println!("per-stage delay distributions:");
    for (i, d) in timing.stage_delays.iter().enumerate() {
        println!(
            "  stage {i}: mu = {:7.2} ps, sigma = {:5.2} ps (sigma/mu = {:.3}%)",
            d.mean(),
            d.sd(),
            100.0 * d.variability()
        );
    }
    println!(
        "stage correlation (0,1): {:.3}\n",
        timing.correlation.get(0, 1)
    );

    // 4. The paper's pipeline model: T_P = max_i SD_i via Clark.
    let stages: Vec<StageDelay> = timing
        .stage_delays
        .iter()
        .map(|n| StageDelay::from_normal(*n))
        .collect();
    let model = Pipeline::new(stages, timing.correlation.clone()).expect("consistent dims");
    let t_p = model.delay_distribution();
    println!(
        "pipeline delay: mu = {:.2} ps, sigma = {:.2} ps (Jensen bound: >= {:.2} ps)",
        t_p.mean(),
        t_p.sd(),
        model.jensen_lower_bound()
    );

    // 5. Yield at a target, analytically and by Monte-Carlo: 10,000
    //    gate-level trials, trial t on its own stream counter_seed(42, t).
    let target = t_p.quantile(0.9).round();
    let analytic_yield = model.yield_at(target);
    let mc = PipelineMc::new(CellLibrary::default(), variation, None);
    let prepared = PreparedPipelineMc::new(&mc, &pipeline);
    let mut stats = PipelineBlockStats::new(pipeline.stage_count(), &[target]);
    prepared.run_block_plan(
        &mut TrialWorkspace::new(),
        0..10_000,
        |t| counter_seed(42, t),
        TrialPlan::plain(),
        &mut stats,
    );
    let mc_yield = stats.yield_estimate(0);
    println!("\nyield at {target:.0} ps:");
    println!("  analytical (eq. 9): {:.2}%", 100.0 * analytic_yield);
    println!(
        "  Monte-Carlo:        {:.2}%  (95% CI {:.2}..{:.2})",
        100.0 * mc_yield.value,
        100.0 * mc_yield.lo,
        100.0 * mc_yield.hi
    );
}
