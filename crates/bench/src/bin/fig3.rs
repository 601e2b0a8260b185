//! Fig. 3: trend in modeling error with (a) the number of pipeline stages
//! and (b) the stage-delay correlation coefficient.
//!
//! The Clark recursion re-Gaussianizes every pairwise max, so its error
//! grows with the number of folds and with correlation. The reference is a
//! large multivariate-normal Monte-Carlo of the exact max — here run as
//! one declarative moment-form [`Sweep`] through the parallel engine, so
//! every point's model-vs-MC delta comes out of a single `SweepResult`.
//!
//! Run: `cargo run --release -p vardelay-bench --bin fig3`

use vardelay_bench::render::xy_table;
use vardelay_engine::{
    run_workload, BackendSpec, KernelSpec, PipelineSpec, Scenario, StageMoments, Sweep,
    TrialPlanSpec, VariationSpec, WorkloadOptions,
};

/// A moment-form scenario: `ns` slightly staggered stages at correlation
/// `rho`, like real stages.
fn scenario(ns: usize, rho: f64, trials: u64) -> Scenario {
    Scenario {
        label: format!("ns{ns} rho{rho}"),
        pipeline: PipelineSpec::Moments {
            stages: (0..ns)
                .map(|i| StageMoments {
                    mu_ps: 200.0 + (i as f64) * 0.8,
                    sigma_ps: 4.0,
                })
                .collect(),
            rho,
        },
        variation: VariationSpec::Nominal,
        trials,
        trial_plan: TrialPlanSpec::default(),
        yield_targets: vec![],
        auto_target_sigmas: vec![],
        backend: BackendSpec::Pipeline,
        kernel: KernelSpec::default(),
        histogram_bins: 0,
    }
}

fn main() {
    let trials = 400_000;
    println!("Fig. 3 — modeling error of the Clark-based pipeline delay model");
    println!("(moment-form scenarios through the parallel sweep engine)\n");

    let ns_axis: Vec<usize> = vec![2, 4, 6, 8, 12, 16, 20, 25, 30];
    let rhos = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    // Panel (b)'s rho = 0.0 point IS panel (a)'s ns = 8 point — reuse
    // it instead of burning 400k duplicate trials.
    let ns8 = ns_axis.iter().position(|&n| n == 8).expect("axis has 8");
    let extra_rhos: Vec<f64> = rhos.iter().copied().filter(|&r| r != 0.0).collect();
    let sweep = Sweep {
        name: "fig3".to_owned(),
        seed: 0xF163,
        scenarios: ns_axis
            .iter()
            .map(|&ns| scenario(ns, 0.0, trials))
            .chain(extra_rhos.iter().map(|&rho| scenario(8, rho, trials)))
            .collect(),
        grid: None,
    };
    let result = run_workload(&sweep, &WorkloadOptions::parallel()).expect("valid spec");
    let errors = |i: usize| {
        let s = &result.scenarios[i];
        let mc = s.mc.as_ref().expect("trials requested");
        (
            100.0 * (s.analytic.mean_ps - mc.mean_ps).abs() / mc.mean_ps,
            100.0 * (s.analytic.sd_ps - mc.sd_ps).abs() / mc.sd_ps,
        )
    };

    // (a) vs number of stages at rho = 0.
    let (mut mean_err, mut sd_err) = (Vec::new(), Vec::new());
    for i in 0..ns_axis.len() {
        let (me, se) = errors(i);
        mean_err.push(me);
        sd_err.push(se);
    }
    println!("--- Fig. 3(a): error vs number of stages (independent stages) ---");
    println!(
        "{}",
        xy_table(
            "stages",
            &ns_axis.iter().map(|&n| n as f64).collect::<Vec<_>>(),
            &[
                ("% error in mean", mean_err.clone()),
                ("% error in std dev", sd_err.clone()),
            ],
            3,
        )
    );
    println!(
        "paper envelope: mean error < 0.2%, sigma error < 5% — measured max: mean {:.3}%, sigma {:.2}%\n",
        mean_err.iter().copied().fold(0.0, f64::max),
        sd_err.iter().copied().fold(0.0, f64::max)
    );

    // (b) vs correlation coefficient at ns = 8.
    let (mut mean_err_r, mut sd_err_r) = (Vec::new(), Vec::new());
    for &rho in &rhos {
        let i = if rho == 0.0 {
            ns8
        } else {
            ns_axis.len() + extra_rhos.iter().position(|&r| r == rho).expect("listed")
        };
        let (me, se) = errors(i);
        mean_err_r.push(me);
        sd_err_r.push(se);
    }
    println!("--- Fig. 3(b): error vs correlation coefficient (8 stages) ---");
    println!(
        "{}",
        xy_table(
            "rho",
            &rhos,
            &[
                ("% error in mean", mean_err_r),
                ("% error in std dev", sd_err_r),
            ],
            3,
        )
    );
}
