//! Fig. 5: variability (σ/μ) trends.
//!
//! (a) stage-delay variability vs logic depth under four variation mixes;
//! (b) pipeline-delay variability vs number of stages for three stage
//!     correlations;
//! (c) pipeline-delay variability when logic depth and stage count trade
//!     off at constant total depth (NL × NS = 120) for three inter-die
//!     strengths.
//!
//! Every panel is a declarative analytic-only [`Sweep`] run on the
//! engine (trials = 0: pure SSTA + Clark), replacing the former
//! per-panel loops.
//!
//! Run: `cargo run --release -p vardelay-bench --bin fig5 [-- a|b|c]`

use vardelay_bench::render::xy_table;
use vardelay_engine::{
    run_workload, BackendSpec, GridSpec, KernelSpec, LatchSpec, PipelineSpec, Scenario,
    StageMoments, Sweep, TrialPlanSpec, VariationSpec, WorkloadOptions,
};

/// Runs an analytic-only sweep and returns each scenario's σ/μ.
fn variabilities(name: &str, scenarios: Vec<Scenario>) -> Vec<f64> {
    let sweep = Sweep {
        name: name.to_owned(),
        seed: 0,
        scenarios,
        grid: None,
    };
    run_workload(&sweep, &WorkloadOptions::parallel())
        .expect("valid spec")
        .scenarios
        .iter()
        .map(|s| s.analytic.variability)
        .collect()
}

fn analytic_scenario(label: String, pipeline: PipelineSpec, variation: VariationSpec) -> Scenario {
    Scenario {
        label,
        pipeline,
        variation,
        trials: 0,
        trial_plan: TrialPlanSpec::default(),
        yield_targets: vec![],
        auto_target_sigmas: vec![],
        backend: BackendSpec::Analytic,
        kernel: KernelSpec::default(),
        histogram_bins: 0,
    }
}

fn panel_a() {
    println!("--- Fig. 5(a): stage-delay variability vs logic depth (normalized to depth 5) ---");
    let depths: Vec<usize> = vec![5, 8, 10, 15, 20, 25, 30, 35, 40];
    let variations: Vec<(&str, VariationSpec)> = vec![
        (
            "random intra only",
            VariationSpec::RandomOnly { sigma_mv: 35.0 },
        ),
        (
            "intra + inter 20mV",
            VariationSpec::Combined {
                inter_mv: 20.0,
                random_mv: 35.0,
                systematic_mv: 0.0,
            },
        ),
        (
            "intra + inter 40mV",
            VariationSpec::Combined {
                inter_mv: 40.0,
                random_mv: 35.0,
                systematic_mv: 0.0,
            },
        ),
        (
            "inter only 40mV",
            VariationSpec::InterOnly { sigma_mv: 40.0 },
        ),
    ];

    // A single-stage grid sweep: depth-major, variation-minor order.
    let sweep = Sweep {
        name: "fig5a".to_owned(),
        seed: 0,
        scenarios: vec![],
        grid: Some(GridSpec {
            stage_counts: vec![1],
            logic_depths: depths.clone(),
            sizes: vec![1.0],
            variations: variations.iter().map(|(_, v)| *v).collect(),
            latch: LatchSpec::Ideal,
            trials: 0,
            trial_plan: TrialPlanSpec::default(),
            yield_targets: vec![],
            auto_target_sigmas: vec![],
            backend: BackendSpec::Pipeline,
            kernel: KernelSpec::default(),
            histogram_bins: 0,
        }),
    };
    let vars: Vec<f64> = run_workload(&sweep, &WorkloadOptions::parallel())
        .expect("valid spec")
        .scenarios
        .iter()
        .map(|s| s.analytic.variability)
        .collect();

    let nv = variations.len();
    let xs: Vec<f64> = depths.iter().map(|&d| d as f64).collect();
    let series: Vec<(&str, Vec<f64>)> = variations
        .iter()
        .enumerate()
        .map(|(vi, (name, _))| {
            let base = vars[vi];
            (
                *name,
                (0..depths.len())
                    .map(|di| vars[di * nv + vi] / base)
                    .collect(),
            )
        })
        .collect();
    println!("{}", xy_table("logic depth", &xs, &series, 4));
    println!("shape check: random-only falls as 1/sqrt(NL); curves flatten as inter-die");
    println!("strength grows; inter-only is flat at 1.\n");
}

fn panel_b() {
    println!("--- Fig. 5(b): pipeline variability vs number of stages (normalized to Ns=4) ---");
    let ns_axis: Vec<usize> = vec![4, 8, 12, 16, 20, 24, 28, 32, 36, 40];
    let rhos = [0.0, 0.2, 0.5];
    let stage = StageMoments {
        mu_ps: 100.0,
        sigma_ps: 4.0,
    };

    let scenarios: Vec<Scenario> = rhos
        .iter()
        .flat_map(|&rho| {
            ns_axis.iter().map(move |&ns| {
                analytic_scenario(
                    format!("{ns} stages rho {rho}"),
                    PipelineSpec::Moments {
                        stages: vec![stage; ns],
                        rho,
                    },
                    VariationSpec::Nominal,
                )
            })
        })
        .collect();
    let vars = variabilities("fig5b", scenarios);

    let xs: Vec<f64> = ns_axis.iter().map(|&n| n as f64).collect();
    let series: Vec<(String, Vec<f64>)> = rhos
        .iter()
        .enumerate()
        .map(|(ri, &rho)| {
            let row = &vars[ri * ns_axis.len()..(ri + 1) * ns_axis.len()];
            (
                format!("rho = {rho}"),
                row.iter().map(|v| v / row[0]).collect(),
            )
        })
        .collect();
    let series_ref: Vec<(&str, Vec<f64>)> = series
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    println!("{}", xy_table("stages", &xs, &series_ref, 4));
    println!("shape check: the max over more stages concentrates (variability falls with Ns),");
    println!("and correlation weakens the effect (rho=0.5 decays less than rho=0).\n");
}

fn panel_c() {
    println!("--- Fig. 5(c): sigma/mu vs number of stages with NL x NS = 120 ---");
    let total = 120usize;
    let stage_counts: Vec<usize> = vec![2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30];
    let inter_levels = [0.0, 20.0, 40.0];

    let scenarios: Vec<Scenario> = inter_levels
        .iter()
        .flat_map(|&inter| {
            stage_counts.iter().map(move |&ns| {
                analytic_scenario(
                    format!("{ns}x{} inter {inter}mV", total / ns),
                    PipelineSpec::InverterGrid {
                        stages: ns,
                        depth: total / ns,
                        size: 1.0,
                        latch: LatchSpec::Ideal,
                    },
                    VariationSpec::Combined {
                        inter_mv: inter,
                        random_mv: 35.0,
                        systematic_mv: 0.0,
                    },
                )
            })
        })
        .collect();
    let vars = variabilities("fig5c", scenarios);

    let xs: Vec<f64> = stage_counts.iter().map(|&n| n as f64).collect();
    let series: Vec<(String, Vec<f64>)> = inter_levels
        .iter()
        .enumerate()
        .map(|(ii, &inter)| {
            (
                format!("sigmaVthInter = {inter} mV"),
                vars[ii * stage_counts.len()..(ii + 1) * stage_counts.len()].to_vec(),
            )
        })
        .collect();
    let series_ref: Vec<(&str, Vec<f64>)> = series
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    println!("{}", xy_table("stages (NL = 120/NS)", &xs, &series_ref, 5));
    println!("shape check: with intra-only (0 mV) variability RISES with stage count (shallow");
    println!("stages are noisier and the max cannot compensate); with 40 mV inter-die it FALLS");
    println!("(stage sigma/mu is depth-insensitive, so the max-function effect wins).");
}

fn main() {
    let arg = std::env::args().nth(1);
    println!("Fig. 5 — variability of stage and pipeline delay (engine analytic sweeps)\n");
    match arg.as_deref() {
        Some("a") => panel_a(),
        Some("b") => panel_b(),
        Some("c") => panel_c(),
        _ => {
            panel_a();
            panel_b();
            panel_c();
        }
    }
}
