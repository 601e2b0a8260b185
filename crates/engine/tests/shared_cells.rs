//! A campaign's runs share what depends only on their baseline — the
//! resolved target, the individually-optimized baseline, its SSTA and
//! sizing probes — and one stage-criticality estimate per distinct
//! stage model, through per-key cells scoped to one `run_units` call.
//! None of that sharing may reach a result byte: every run equals the
//! same run executed alone, and worker count, shard split and
//! kill-resume (each of which changes which run fills a cell) leave the
//! output identical. The baseline key holds exactly the fields target
//! resolution reads, which the resolution counts pin.
//!
//! Recording is process-global, so every test here holds `SERIAL` and
//! the recorded counts are exact.

use std::sync::{Mutex, MutexGuard, PoisonError};

use vardelay_engine::optimize::{OptimizationCampaign, OptimizeSpec, YieldBackendSpec};
use vardelay_engine::spec::{LatchSpec, PipelineSpec, VariationSpec};
use vardelay_engine::workload::{
    checkpoint_line, run_units, run_workload, Checkpoint, Shard, WorkloadOptions,
};
use vardelay_engine::{CampaignResult, KernelSpec, TrialPlanSpec};
use vardelay_opt::{OptimizationGoal, TargetDelayPolicy};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One perfbench-shaped run (kernel v3, frontier q90, two rounds) at
/// small trial counts.
fn run(
    depths: &[usize],
    goal: OptimizationGoal,
    yield_target: f64,
    backend: YieldBackendSpec,
) -> OptimizeSpec {
    OptimizeSpec {
        label: format!("{depths:?} {goal:?} y{yield_target} {}", backend.keyword()),
        pipeline: PipelineSpec::InverterStages {
            depths: depths.to_vec(),
            size: 1.0,
            latch: LatchSpec::TgMsff70nm,
        },
        variation: VariationSpec::RandomOnly { sigma_mv: 35.0 },
        yield_target,
        target_delay: TargetDelayPolicy::FrontierQuantile { q: 0.9, refine: 1 },
        goal,
        rounds: 2,
        yield_backend: backend,
        kernel: KernelSpec::V3,
        eval_trials: 256,
        verify_trials: 512,
        verify_plan: TrialPlanSpec::default(),
    }
}

fn campaign(runs: Vec<OptimizeSpec>) -> OptimizationCampaign {
    OptimizationCampaign {
        name: "shared-cells".to_owned(),
        seed: 11,
        runs,
        grid: None,
    }
}

/// Two depth mixes × two goals × two yield targets × two in-loop
/// backends: 16 runs over 4 baselines.
fn perfbench_shaped() -> OptimizationCampaign {
    let mut runs = Vec::new();
    for depths in [[6, 6, 6, 6], [8, 6, 5, 4]] {
        for goal in [
            OptimizationGoal::EnsureYield,
            OptimizationGoal::MinimizeArea,
        ] {
            for target in [0.8, 0.9] {
                for backend in [YieldBackendSpec::Analytic, YieldBackendSpec::Netlist] {
                    runs.push(run(&depths, goal, target, backend));
                }
            }
        }
    }
    campaign(runs)
}

fn run_with(c: &OptimizationCampaign, opts: &WorkloadOptions<'_, OptimizeResult>) -> String {
    run_workload(c, opts).expect("campaign runs").to_json()
}

type OptimizeResult = vardelay_engine::OptimizationRunResult;

/// The campaign's journal, as the CLI writes it.
fn journal(c: &OptimizationCampaign, opts: &WorkloadOptions<'_, OptimizeResult>) -> String {
    let mut lines = String::new();
    run_units(c, opts, |_slot, key, result, _origin| {
        lines.push_str(&checkpoint_line(key, &result));
        lines.push('\n');
        Ok(())
    })
    .expect("campaign runs");
    lines
}

/// Every run of `c` serializes exactly as the same run executed as a
/// one-run campaign, which shares nothing.
fn assert_runs_equal_runs_alone(c: &OptimizationCampaign) {
    let all: CampaignResult = run_workload(c, &WorkloadOptions::sequential()).unwrap();
    assert_eq!(all.runs.len(), c.runs.len());
    for (spec, shared) in c.runs.iter().zip(&all.runs) {
        let alone = run_workload(
            &campaign(vec![spec.clone()]),
            &WorkloadOptions::sequential(),
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(shared).unwrap(),
            serde_json::to_string(&alone.runs[0]).unwrap(),
            "{}",
            spec.label
        );
    }
}

#[test]
fn every_run_equals_the_same_run_executed_alone() {
    let _serial = serial();
    assert_runs_equal_runs_alone(&perfbench_shaped());
}

#[test]
fn sharing_is_invisible_to_workers_shards_and_resume() {
    let _serial = serial();
    let c = perfbench_shaped();
    let one = run_with(&c, &WorkloadOptions::sequential());
    let eight = run_with(&c, &WorkloadOptions::sequential().with_workers(8));
    assert_eq!(one, eight, "1 vs 8 workers");

    // Three shards, each filling only its own runs' cells, merged by
    // resuming from their concatenated journals.
    let mut merged = String::new();
    for i in 1..=3 {
        let shard = Shard::new(i, 3).unwrap();
        merged.push_str(&journal(
            &c,
            &WorkloadOptions::sequential().with_shard(shard),
        ));
    }
    let ckpt: Checkpoint<OptimizeResult> = Checkpoint::parse(&merged).unwrap();
    assert_eq!(ckpt.len(), 16);
    let merged = run_with(&c, &WorkloadOptions::sequential().with_resume(&ckpt));
    assert_eq!(one, merged, "3-shard merge");

    // Kill after five runs; the resumed run fills its cells from the
    // other eleven alone.
    let full = journal(&c, &WorkloadOptions::sequential().with_workers(2));
    let prefix: String = full.lines().take(5).flat_map(|l| [l, "\n"]).collect();
    let ckpt: Checkpoint<OptimizeResult> = Checkpoint::parse(&prefix).unwrap();
    let resumed = run_with(
        &c,
        &WorkloadOptions::sequential()
            .with_workers(2)
            .with_resume(&ckpt),
    );
    assert_eq!(one, resumed, "kill-resume");
}

/// Target resolutions, baseline-cell hits, criticality estimates and
/// criticality-cell hits of one recorded run of `c`.
fn sharing_counts(c: &OptimizationCampaign, workers: usize) -> [u64; 4] {
    let session = vardelay_obs::Session::start();
    run_workload(c, &WorkloadOptions::sequential().with_workers(workers)).unwrap();
    let agg = vardelay_obs::aggregate(&session.finish());
    let spans = |q: &str| {
        agg.phases
            .iter()
            .filter(|(k, _)| vardelay_obs::key_base(k) == q)
            .map(|(_, p)| p.count)
            .sum::<u64>()
    };
    [
        spans("opt/resolve_target"),
        agg.counter("cell/baseline_hit"),
        spans("opt/criticality"),
        agg.counter("cell/criticality_hit"),
    ]
}

#[test]
fn runs_share_a_resolution_exactly_when_resolve_reads_the_same_fields() {
    let _serial = serial();
    let base = run(
        &[6, 6, 6, 5],
        OptimizationGoal::EnsureYield,
        0.8,
        YieldBackendSpec::Analytic,
    );
    let variant = |field: &str, f: &dyn Fn(&mut OptimizeSpec)| {
        let mut s = base.clone();
        s.label = format!("{} / {field}", base.label);
        f(&mut s);
        s
    };
    // Each differs from `base` in one field target resolution reads.
    let read = campaign(vec![
        base.clone(),
        variant("sigma", &|s| {
            s.variation = VariationSpec::RandomOnly { sigma_mv: 40.0 }
        }),
        variant("q", &|s| {
            s.target_delay = TargetDelayPolicy::FrontierQuantile { q: 0.85, refine: 1 }
        }),
        variant("refine", &|s| {
            s.target_delay = TargetDelayPolicy::FrontierQuantile { q: 0.9, refine: 2 }
        }),
        variant("yield target", &|s| s.yield_target = 0.9),
        variant("depths", &|s| {
            s.pipeline = PipelineSpec::InverterStages {
                depths: vec![6, 6, 5, 5],
                size: 1.0,
                latch: LatchSpec::TgMsff70nm,
            }
        }),
    ]);
    // Each differs from `base` in one field it does not read.
    let unread = campaign(vec![
        base.clone(),
        variant("goal", &|s| s.goal = OptimizationGoal::MinimizeArea),
        variant("backend", &|s| s.yield_backend = YieldBackendSpec::Netlist),
        variant("eval_trials", &|s| s.eval_trials = 512),
        variant("rounds", &|s| s.rounds = 1),
        variant("kernel", &|s| s.kernel = KernelSpec::V1),
    ]);
    assert_runs_equal_runs_alone(&read);
    assert_runs_equal_runs_alone(&unread);
    for workers in [1, 2] {
        let [resolved, hits, estimated, crit_hits] = sharing_counts(&read, workers);
        assert_eq!((resolved, hits), (6, 0), "read fields, {workers} workers");
        // Every run looks up its before and after stage models.
        assert_eq!(estimated + crit_hits, 12, "read fields, {workers} workers");
        let [resolved, hits, estimated, crit_hits] = sharing_counts(&unread, workers);
        assert_eq!((resolved, hits), (1, 5), "unread fields, {workers} workers");
        assert_eq!(
            estimated + crit_hits,
            12,
            "unread fields, {workers} workers"
        );
        assert!(
            crit_hits >= 4,
            "the start model is shared per fill: {crit_hits}"
        );
    }
}
