//! Backend-level acceptance tests: the netlist backend inherits the
//! engine's determinism contract, and the analytic backend tracks
//! gate-level Monte-Carlo in the paper's Table-1 regime.

use vardelay_engine::{
    run_workload, BackendSpec, CircuitSpec, KernelSpec, LatchSpec, PipelineSpec, Scenario, Sweep,
    TrialPlanSpec, VariationSpec, WorkloadOptions,
};

fn chain_5x8() -> PipelineSpec {
    PipelineSpec::Circuits {
        stages: vec![
            CircuitSpec::Chain {
                depth: 8,
                size: 1.0,
            };
            5
        ],
        latch: LatchSpec::TgMsff70nm,
    }
}

fn scenario(label: &str, backend: BackendSpec, trials: u64) -> Scenario {
    Scenario {
        kernel: KernelSpec::default(),
        label: label.to_owned(),
        pipeline: chain_5x8(),
        variation: VariationSpec::RandomOnly { sigma_mv: 35.0 },
        trials,
        trial_plan: TrialPlanSpec::default(),
        yield_targets: vec![],
        auto_target_sigmas: vec![1.2],
        backend,
        histogram_bins: 0,
    }
}

/// Acceptance: a netlist-backend spec runs in parallel through
/// `run_workload` and produces byte-identical JSON at 1 and 8 workers.
#[test]
fn netlist_backend_sweep_bit_identical_across_worker_counts() {
    let mut sweep = Sweep::example_netlist();
    // Several blocks per scenario so workers genuinely interleave.
    for s in &mut sweep.scenarios {
        if s.trials > 0 {
            s.trials = 1_200;
        }
    }
    let baseline = run_workload(&sweep, &WorkloadOptions::sequential())
        .unwrap()
        .to_json();
    for workers in [2, 8] {
        let run = run_workload(&sweep, &WorkloadOptions::sequential().with_workers(workers))
            .unwrap()
            .to_json();
        assert_eq!(
            baseline, run,
            "netlist backend diverged at {workers} workers"
        );
    }
}

/// Acceptance: analytic-vs-netlist mean delta ≤ 1% on the Table-1 chain
/// scenario (the paper's §2.4 regime: the SSTA/Clark model against the
/// gate-level nonlinear Monte-Carlo).
#[test]
fn analytic_backend_tracks_netlist_mc_within_one_percent() {
    let sweep = Sweep {
        name: "table1-chain".to_owned(),
        seed: 0x7AB1,
        scenarios: vec![
            scenario("chain mc", BackendSpec::Netlist, 8_000),
            scenario("chain model", BackendSpec::Analytic, 0),
        ],
        grid: None,
    };
    let res = run_workload(&sweep, &WorkloadOptions::parallel()).unwrap();
    let mc = res.scenarios[0].mc.as_ref().expect("netlist trials ran");
    let model = &res.scenarios[1].analytic;
    assert!(
        res.scenarios[1].mc.is_none(),
        "analytic backend samples nothing"
    );
    let delta = (model.mean_ps - mc.mean_ps).abs() / mc.mean_ps;
    assert!(
        delta <= 0.01,
        "model mean {} vs MC mean {} ({:.3}% off)",
        model.mean_ps,
        mc.mean_ps,
        100.0 * delta
    );
    // Both scenarios share the pipeline, so their *analytic* summaries
    // agree exactly — the delta above isolates the model-vs-MC gap.
    assert_eq!(res.scenarios[0].analytic, res.scenarios[1].analytic);
    // σ tracks within the paper's few-percent envelope too.
    let sd_delta = (model.sd_ps - mc.sd_ps).abs() / mc.sd_ps;
    assert!(sd_delta < 0.20, "sd {} vs {}", model.sd_ps, mc.sd_ps);
}

/// The pipeline and netlist backends implement the same physics, and
/// the backend field is excluded from the scenario's identity hash —
/// so the same experiment on either backend produces **bit-identical**
/// Monte-Carlo results. This is what makes `backend: netlist` a pure
/// speed choice rather than a different experiment.
#[test]
fn pipeline_and_netlist_backends_are_bit_identical() {
    let sweep = Sweep {
        name: "cross-backend".to_owned(),
        seed: 3,
        scenarios: vec![
            scenario("chain 5x8", BackendSpec::Pipeline, 2_000),
            scenario("chain 5x8", BackendSpec::Netlist, 2_000),
        ],
        grid: None,
    };
    let res = run_workload(&sweep, &WorkloadOptions::parallel()).unwrap();
    assert_eq!(
        res.scenarios[0].id, res.scenarios[1].id,
        "backend must not change scenario identity"
    );
    assert_eq!(
        res.scenarios[0].mc, res.scenarios[1].mc,
        "same experiment, same bits, regardless of backend"
    );
    assert_eq!(res.scenarios[0].analytic, res.scenarios[1].analytic);
}

/// Histograms stream through the block accumulators without breaking
/// determinism, and land in the result JSON.
#[test]
fn histogram_streams_deterministically() {
    let mut sweep = Sweep {
        name: "hist".to_owned(),
        seed: 9,
        scenarios: vec![scenario("hist chain", BackendSpec::Netlist, 1_000)],
        grid: None,
    };
    sweep.scenarios[0].histogram_bins = 16;
    let seq = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap();
    let par = run_workload(&sweep, &WorkloadOptions::sequential().with_workers(8)).unwrap();
    assert_eq!(seq.to_json(), par.to_json());
    let hist = seq.scenarios[0]
        .mc
        .as_ref()
        .unwrap()
        .histogram
        .as_ref()
        .expect("histogram requested");
    assert_eq!(hist.counts().len(), 16);
    let total = hist.total() + hist.underflow() + hist.overflow();
    assert_eq!(total, 1_000, "every trial lands somewhere");
    assert!(hist.total() > 900, "±6σ bounds catch nearly all mass");
}

/// Backend mismatches fail softly with context, not deep in a panic.
#[test]
fn backend_mismatches_are_rejected_with_context() {
    let mut sweep = Sweep {
        name: "bad".to_owned(),
        seed: 1,
        scenarios: vec![scenario("ok", BackendSpec::Netlist, 100)],
        grid: None,
    };
    // Analytic backend with trials.
    sweep.scenarios[0].backend = BackendSpec::Analytic;
    let err = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap_err();
    assert!(err.to_string().contains("analytic"), "{err}");
    // Netlist backend on a moments pipeline.
    sweep.scenarios[0] = Scenario {
        label: "moments".to_owned(),
        pipeline: PipelineSpec::Moments {
            stages: vec![vardelay_engine::StageMoments {
                mu_ps: 100.0,
                sigma_ps: 5.0,
            }],
            rho: 0.0,
        },
        variation: VariationSpec::Nominal,
        trials: 100,
        trial_plan: TrialPlanSpec::default(),
        yield_targets: vec![],
        auto_target_sigmas: vec![],
        backend: BackendSpec::Netlist,
        kernel: KernelSpec::default(),
        histogram_bins: 0,
    };
    let err = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap_err();
    assert!(err.to_string().contains("netlist"), "{err}");
    // Histogram without trials.
    sweep.scenarios[0] = scenario("no trials", BackendSpec::Pipeline, 0);
    sweep.scenarios[0].histogram_bins = 8;
    let err = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap_err();
    assert!(err.to_string().contains("histogram"), "{err}");
    // Invalid circuit inside a Circuits pipeline.
    sweep.scenarios[0] = scenario("bad circuit", BackendSpec::Netlist, 100);
    sweep.scenarios[0].pipeline = PipelineSpec::Circuits {
        stages: vec![CircuitSpec::Decoder { bits: 7 }],
        latch: LatchSpec::Ideal,
    };
    let err = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap_err();
    assert!(err.to_string().contains("decoder"), "{err}");
}
