//! Integration tests for optimization campaigns: worker-count
//! determinism and a Table-II-style golden run.

use vardelay_engine::optimize::{OptimizationCampaign, OptimizeSpec, YieldBackendSpec};
use vardelay_engine::spec::{LatchSpec, PipelineSpec, VariationSpec};
use vardelay_engine::{plan_campaign, run_workload, KernelSpec, TrialPlanSpec, WorkloadOptions};
use vardelay_opt::{OptimizationGoal, TargetDelayPolicy};

/// The golden Table-II-style operating point.
///
/// A 4-stage chain pipeline whose slowest stage (depth 30) saturates its
/// sizing frontier: a self-loaded chain's mean delay is essentially
/// size-invariant, so sizing can only shrink its sigma, and the
/// frontier-quantile refinement therefore converges with that stage
/// pinned at the 86% quantile — *below* its `0.80^(1/4) = 94.6%`
/// allocation, exactly the paper's c3540 situation (86.3%). The three
/// depth-29 stages land at their allocation with sigma headroom to
/// spare, so the conventional per-stage flow under-yields at the
/// pipeline level while the global flow can buy the missing yield where
/// it is cheap.
fn table2_style(backend: YieldBackendSpec) -> OptimizeSpec {
    OptimizeSpec {
        label: format!("table2-style chains ({})", backend.keyword()),
        pipeline: PipelineSpec::InverterStages {
            depths: vec![30, 29, 29, 29],
            size: 1.0,
            latch: LatchSpec::TgMsff70nm,
        },
        variation: VariationSpec::RandomOnly { sigma_mv: 35.0 },
        yield_target: 0.80,
        target_delay: TargetDelayPolicy::FrontierQuantile { q: 0.86, refine: 6 },
        goal: OptimizationGoal::EnsureYield,
        rounds: 4,
        yield_backend: backend,
        kernel: KernelSpec::default(),
        eval_trials: 2_048,
        verify_trials: 32_768,
        verify_plan: TrialPlanSpec::default(),
    }
}

/// Byte-identical campaign results at any worker count: the whole spec
/// (plus seed) determines every number, including every in-loop and
/// verification Monte-Carlo stream.
#[test]
fn campaign_results_are_worker_count_invariant() {
    let mut campaign = OptimizationCampaign::example();
    // Keep the test quick but representative: both explicit runs (one
    // per yield backend) plus two grid runs.
    if let Some(grid) = campaign.grid.as_mut() {
        grid.yield_targets.truncate(1);
        grid.verify_trials = 512;
    }
    for run in &mut campaign.runs {
        run.verify_trials = 512;
        run.eval_trials = 512;
    }
    let seq = run_workload(&campaign, &WorkloadOptions::sequential()).unwrap();
    let par = run_workload(&campaign, &WorkloadOptions::sequential().with_workers(8)).unwrap();
    let odd = run_workload(&campaign, &WorkloadOptions::sequential().with_workers(3)).unwrap();
    assert_eq!(seq.to_json(), par.to_json(), "1 vs 8 workers");
    assert_eq!(seq.to_json(), odd.to_json(), "1 vs 3 workers");
    assert_eq!(seq.runs.len(), campaign.expand().len());
}

/// The Table II golden behavior: the global Fig. 9 flow reaches the 80%
/// pipeline yield target where the individually-optimized flow does
/// not, and the MC-verified yield agrees with the analytic (eq. 4–9)
/// prediction on MC-measured stage moments — the paper's §2.4
/// verification protocol — within 2%.
#[test]
fn golden_global_flow_beats_individual_at_table2_point() {
    let campaign = OptimizationCampaign {
        name: "golden-table2".to_owned(),
        seed: 2,
        runs: vec![table2_style(YieldBackendSpec::Analytic)],
        grid: None,
    };
    let result = run_workload(&campaign, &WorkloadOptions::parallel()).unwrap();
    let run = &result.runs[0];

    // The conventional flow misses the pipeline target (paper: 73.9%)…
    assert!(
        !run.individual.met && run.individual.analytic_yield < 0.80,
        "individually-optimized yield {} should miss the 0.80 target",
        run.individual.analytic_yield
    );
    // …while the global flow reaches it (paper: 80.5%).
    assert!(
        run.report.met && run.report.pipeline_yield_after >= 0.80,
        "global-flow yield {} should reach the 0.80 target",
        run.report.pipeline_yield_after
    );
    assert!(
        run.analytic_yield_after >= 0.80,
        "the report's yield is the analytic backend's own metric here"
    );
    // The yield is bought with bounded area (paper: +2% on ISCAS; the
    // coarse-grained chain frontier pays more, but the same order).
    assert!(
        run.report.area_delta_fraction() < 0.25,
        "area delta {} should stay bounded",
        run.report.area_delta_fraction()
    );

    // MC-verified yield vs the analytic model on MC-measured moments
    // (§2.4: isolates the max-operator error from the
    // stage-characterization error): within 2% for both designs.
    for (tag, mc) in [
        ("optimized", run.mc.as_ref().unwrap()),
        ("individual", run.individual.mc.as_ref().unwrap()),
    ] {
        let model = mc.model_from_mc.expect("measured moments are valid");
        assert!(
            (mc.value - model).abs() <= 0.02,
            "{tag}: MC yield {} vs analytic-on-measured-moments {model}",
            mc.value
        );
    }
}

/// Flipping the in-loop yield backend analytic↔netlist keeps the
/// MC-verified yield within 2% of the analytic prediction on measured
/// moments, and the in-loop MC metric agrees with the independent
/// verification stream.
#[test]
fn golden_yield_backend_flip_keeps_mc_agreement() {
    let campaign = OptimizationCampaign {
        name: "golden-flip".to_owned(),
        seed: 2,
        runs: vec![table2_style(YieldBackendSpec::Netlist)],
        grid: None,
    };
    let result = run_workload(&campaign, &WorkloadOptions::parallel()).unwrap();
    let run = &result.runs[0];
    let mc = run.mc.as_ref().unwrap();
    let model = mc.model_from_mc.expect("measured moments are valid");
    assert!(
        (mc.value - model).abs() <= 0.02,
        "MC yield {} vs analytic-on-measured-moments {model}",
        mc.value
    );
    // With Monte-Carlo in the loop, the report's pipeline yields are MC
    // numbers; the independently-seeded verification stream must agree
    // within a few points of combined MC noise.
    assert!(
        (run.report.pipeline_yield_after - mc.value).abs() <= 0.04,
        "in-loop MC metric {} vs verification {}",
        run.report.pipeline_yield_after,
        mc.value
    );
    // Both backends verify the same baseline design: the individually
    // optimized flow still misses the target.
    assert!(!run.individual.met);
}

/// `optimize validate`'s planner accepts the example campaign and
/// reports a footprint consistent with the spec.
#[test]
fn example_campaign_plans_cleanly() {
    let campaign = OptimizationCampaign::example();
    let plan = plan_campaign(&campaign).unwrap();
    assert_eq!(plan.runs.len(), campaign.expand().len());
    assert!(plan.runs.iter().all(|r| r.gates > 0));
    assert!(plan.total_verify_trials > 0);
}
