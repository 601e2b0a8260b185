//! Fig. 2: delay distribution of an inverter-chain pipeline under process
//! variation — analytical model vs Monte-Carlo.
//!
//! (a) only random intra-die variation, (b) only inter-die variation,
//! (c) inter- and intra-die with both random and systematic components.
//!
//! The three panels are one declarative [`Sweep`] on the engine's
//! **netlist backend**: gate-level Monte-Carlo on the zero-allocation
//! prepared path, with the delay histograms streamed through the block
//! accumulators (`histogram_bins`) instead of retained samples — the
//! analytic curve comes from the same result's closed-form summary.
//!
//! Run: `cargo run --release -p vardelay-bench --bin fig2`

use vardelay_bench::render::histogram_vs_normal;
use vardelay_engine::{
    run_workload, BackendSpec, KernelSpec, LatchSpec, PipelineSpec, Scenario, Sweep, TrialPlanSpec,
    VariationSpec, WorkloadOptions,
};
use vardelay_stats::Normal;

fn main() {
    let trials = 20_000;
    // The paper's caption uses a 12-stage, logic-depth-10 chain.
    let pipeline = PipelineSpec::InverterGrid {
        stages: 12,
        depth: 10,
        size: 1.0,
        latch: LatchSpec::TgMsff70nm,
    };
    let panels: [(&str, VariationSpec); 3] = [
        (
            "(a) random intra-die only",
            VariationSpec::RandomOnly { sigma_mv: 35.0 },
        ),
        (
            "(b) inter-die only",
            VariationSpec::InterOnly { sigma_mv: 40.0 },
        ),
        (
            "(c) inter + intra (random + systematic)",
            VariationSpec::Combined {
                inter_mv: 20.0,
                random_mv: 35.0,
                systematic_mv: 15.0,
            },
        ),
    ];
    let sweep = Sweep {
        name: "fig2".to_owned(),
        seed: 0xF162,
        scenarios: panels
            .iter()
            .map(|(label, variation)| Scenario {
                label: (*label).to_owned(),
                pipeline: pipeline.clone(),
                variation: *variation,
                trials,
                trial_plan: TrialPlanSpec::default(),
                yield_targets: vec![],
                auto_target_sigmas: vec![],
                backend: BackendSpec::Netlist,
                kernel: KernelSpec::default(),
                histogram_bins: 28,
            })
            .collect(),
        grid: None,
    };

    println!("Fig. 2 — delay distribution of a 12-stage inverter-chain pipeline");
    println!("(stage logic depth = 10), analytical model vs {trials}-trial Monte-Carlo");
    println!("(engine netlist backend, histograms streamed through block stats)\n");

    let result = run_workload(&sweep, &WorkloadOptions::parallel()).expect("valid spec");
    for s in &result.scenarios {
        let mc = s.mc.as_ref().expect("trials requested");
        let hist = mc.histogram.as_ref().expect("histogram requested");
        let analytic = Normal::new(s.analytic.mean_ps, s.analytic.sd_ps).expect("valid model");
        println!("--- Fig. 2{} ---", s.label);
        println!(
            "analytical: mu = {:.2} ps, sigma = {:.2} ps | Monte-Carlo: mu = {:.2} ps, sigma = {:.2} ps",
            s.analytic.mean_ps, s.analytic.sd_ps, mc.mean_ps, mc.sd_ps
        );
        println!(
            "errors: mean {:.3}%, sigma {:.2}% | MC skewness {:+.3} (Gaussian = 0; the max of \
             independent stages is right-skewed, which is the model's error source)\n",
            100.0 * (s.analytic.mean_ps - mc.mean_ps).abs() / mc.mean_ps,
            100.0 * (s.analytic.sd_ps - mc.sd_ps).abs() / mc.sd_ps,
            mc.skewness
        );
        println!("{}", histogram_vs_normal(hist, &analytic, 50));
    }
}
