//! The trial-plan strategy contracts, end to end through the engine.
//!
//! Every strategy (`antithetic`, `stratified`, `sobol`, `blockade`) is
//! a versioned determinism contract exactly like `kernel: v3`: its
//! results are a pure function of the spec — byte-identical at any
//! worker count, under shard-merge, kill-then-resume, tracing on or
//! off, and cache warm or cold — while never being bitwise-equal to
//! plain Monte-Carlo. And the plain default is byte-inert: a spec that
//! spells `"strategy": "plain"` out loud is the same spec, the same
//! bytes, as one that never mentions trial plans at all.

use vardelay_cache::{ResultStore, UnitCache};
use vardelay_engine::workload::{
    checkpoint_line, run_units, run_workload, Checkpoint, Shard, Workload, WorkloadOptions,
};
use vardelay_engine::{OptimizationCampaign, StrategySpec, Sweep, TrialPlanSpec};

const STRATEGIES: [StrategySpec; 4] = [
    StrategySpec::Antithetic,
    StrategySpec::Stratified,
    StrategySpec::Sobol,
    StrategySpec::Blockade,
];

/// The shipped trial-plan template, trial budget shrunk for test speed
/// but still spanning several 256-trial strategy blocks per scenario.
fn plan_sweep(strategy: StrategySpec) -> Sweep {
    let mut sweep = Sweep::example_trial_plan(strategy);
    for s in &mut sweep.scenarios {
        s.trials = 600;
    }
    sweep
}

#[test]
fn every_strategy_is_bit_identical_across_worker_counts() {
    for strategy in STRATEGIES {
        let sweep = plan_sweep(strategy);
        let baseline = run_workload(&sweep, &WorkloadOptions::sequential())
            .unwrap()
            .to_json();
        for workers in [3, 8] {
            let run =
                run_workload(&sweep, &WorkloadOptions::sequential().with_workers(workers)).unwrap();
            assert_eq!(
                baseline,
                run.to_json(),
                "{} differs at {workers} workers",
                strategy.keyword()
            );
        }
    }
}

#[test]
fn every_strategy_shard_merges_and_resumes_bitwise() {
    for strategy in STRATEGIES {
        let sweep = plan_sweep(strategy);
        let unsharded = run_workload(&sweep, &WorkloadOptions::sequential())
            .unwrap()
            .to_json();

        // 3-shard split, merged via the documented recipe: concatenate
        // the shard journals and resume from them.
        let mut merged = String::new();
        for i in 1..=3 {
            let shard = Shard::new(i, 3).unwrap();
            run_units(
                &sweep,
                &WorkloadOptions::sequential().with_shard(shard),
                |_slot, id, result, _resumed| {
                    merged.push_str(&checkpoint_line(id, &result));
                    merged.push('\n');
                    Ok(())
                },
            )
            .unwrap();
        }
        let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> = Checkpoint::parse(&merged).unwrap();
        let from_shards = run_workload(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt))
            .unwrap()
            .to_json();
        assert_eq!(from_shards, unsharded, "{} shard merge", strategy.keyword());

        // Kill-then-resume: keep only the first journal line.
        let first_line = merged.lines().next().unwrap();
        let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> =
            Checkpoint::parse(first_line).unwrap();
        let resumed = run_workload(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt))
            .unwrap()
            .to_json();
        assert_eq!(resumed, unsharded, "{} kill-resume", strategy.keyword());
    }
}

#[test]
fn tracing_is_out_of_band_for_every_strategy() {
    for strategy in STRATEGIES {
        let sweep = plan_sweep(strategy);
        let opts = WorkloadOptions::sequential().with_workers(2);
        let plain = run_workload(&sweep, &opts).unwrap().to_json();
        let session = vardelay_obs::Session::start();
        let traced = run_workload(&sweep, &opts).unwrap().to_json();
        let rec = session.finish();
        assert_eq!(plain, traced, "{} traced bytes", strategy.keyword());
        let plan = strategy.to_strategy().name();
        assert!(
            rec.events
                .iter()
                .any(|e| e.name == "block" && e.attrs.plan == Some(plan)),
            "recording holds mc/block spans of plan {plan}"
        );
    }
}

#[test]
fn cache_warm_and_cold_runs_are_bitwise_identical() {
    for strategy in STRATEGIES {
        let sweep = plan_sweep(strategy);
        let uncached = run_workload(&sweep, &WorkloadOptions::sequential())
            .unwrap()
            .to_json();
        let dir = std::env::temp_dir().join(format!("vardelay-plan-cache-{}", strategy.keyword()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = UnitCache::new(ResultStore::open(&dir).unwrap());
        let cold = run_workload(&sweep, &WorkloadOptions::sequential().with_cache(&cache))
            .unwrap()
            .to_json();
        let warm_cache = UnitCache::new(ResultStore::open(&dir).unwrap());
        let mut warm_json = None;
        let stats = run_units(
            &sweep,
            &WorkloadOptions::sequential().with_cache(&warm_cache),
            |_slot, _id, _result, _resumed| Ok(()),
        )
        .unwrap();
        assert_eq!(stats.cached, stats.units, "warm run is all hits");
        let warm = run_workload(
            &sweep,
            &WorkloadOptions::sequential().with_cache(&warm_cache),
        )
        .unwrap()
        .to_json();
        warm_json.replace(warm);
        assert_eq!(cold, uncached, "{} cold cache", strategy.keyword());
        assert_eq!(
            warm_json.unwrap(),
            uncached,
            "{} warm cache",
            strategy.keyword()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Spelling out the default is not a different spec: `"strategy":
/// "plain"` in the trials object parses to the same sweep, serializes
/// back to the bare trial count, and runs to the same bytes.
#[test]
fn explicit_plain_plan_is_byte_inert() {
    let mut sweep = plan_sweep(StrategySpec::Stratified);
    for s in &mut sweep.scenarios {
        s.trial_plan = TrialPlanSpec::default();
    }
    let bare = sweep.to_json();
    assert!(
        bare.contains("\"trials\": 600"),
        "default plan serializes as a bare count: {bare}"
    );
    let spelled = bare.replace(
        "\"trials\": 600",
        "\"trials\": {\"count\": 600, \"strategy\": \"plain\"}",
    );
    assert_ne!(spelled, bare, "replacement took");
    let parsed = Sweep::from_json(&spelled).unwrap();
    assert_eq!(parsed, sweep, "explicit plain parses to the same spec");
    assert_eq!(
        parsed.to_json(),
        bare,
        "and serializes back to the bare count"
    );
    let a = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap();
    let b = run_workload(&parsed, &WorkloadOptions::sequential()).unwrap();
    assert_eq!(a.to_json(), b.to_json());
}

/// Strategy twins — scenarios identical except for the trial plan —
/// share a scenario ID (the plan is execution strategy, so twins draw
/// the same seed streams), but their unit keys stay distinct (resume
/// and cache must never serve one twin's bytes to the other) and their
/// Monte-Carlo results are never bitwise-equal to plain.
#[test]
fn strategy_twins_share_seeds_but_not_bytes_or_keys() {
    let plain = plan_sweep(StrategySpec::Plain);
    let plain_run = run_workload(&plain, &WorkloadOptions::sequential()).unwrap();
    let plain_mean = plain_run.scenarios[0].mc.as_ref().unwrap().mean_ps;
    let mut keys = vec![
        run_units(&plain, &WorkloadOptions::sequential(), |_, _, _, _| Ok(()))
            .unwrap()
            .keys,
    ];

    for strategy in STRATEGIES {
        // A true twin: the plain sweep with only the strategy stamped.
        let mut sweep = plain.clone();
        for s in &mut sweep.scenarios {
            s.trial_plan.strategy = strategy;
        }
        for (s, p) in sweep.scenarios.iter().zip(&plain.scenarios) {
            assert_eq!(
                s.id(sweep.seed),
                p.id(plain.seed),
                "{} twin scenario IDs diverged",
                strategy.keyword()
            );
        }
        let run = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap();
        let mean = run.scenarios[0].mc.as_ref().unwrap().mean_ps;
        assert_ne!(
            mean.to_bits(),
            plain_mean.to_bits(),
            "{} must not reproduce plain bytes",
            strategy.keyword()
        );
        keys.push(
            run_units(&sweep, &WorkloadOptions::sequential(), |_, _, _, _| Ok(()))
                .unwrap()
                .keys,
        );
    }
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i][0], keys[j][0], "unit keys {i} vs {j} collide");
        }
    }
}

/// The campaign side of the contract: blockade verification with a
/// requested confidence half-width early-stops on a deterministic chunk
/// boundary and stays byte-identical across worker counts and resume.
#[test]
fn blockade_ci_verification_is_deterministic() {
    let mut campaign = OptimizationCampaign::example_high_sigma();
    let run = &mut campaign.runs[0];
    run.rounds = 1;
    run.eval_trials = 256;
    run.verify_trials = 4_096;
    run.verify_plan.ci_half_width = Some(0.01);
    if let vardelay_opt::TargetDelayPolicy::FrontierQuantile { refine, .. } = &mut run.target_delay
    {
        *refine = 1;
    }

    let sequential = run_workload(&campaign, &WorkloadOptions::sequential()).unwrap();
    let baseline = sequential.to_json();
    let mc = sequential.runs[0].mc.as_ref().unwrap();
    assert!(mc.trials <= 4_096, "budget is a ceiling");
    assert_eq!(mc.trials % 1_024, 0, "stops on a chunk boundary");

    let par = run_workload(&campaign, &WorkloadOptions::sequential().with_workers(8)).unwrap();
    assert_eq!(baseline, par.to_json(), "blockade CI stop at 8 workers");

    let mut lines = String::new();
    run_units(
        &campaign,
        &WorkloadOptions::sequential(),
        |_slot, id, result, _resumed| {
            lines.push_str(&checkpoint_line(id, &result));
            lines.push('\n');
            Ok(())
        },
    )
    .unwrap();
    let ckpt: Checkpoint<<OptimizationCampaign as Workload>::UnitResult> =
        Checkpoint::parse(&lines).unwrap();
    let resumed = run_workload(&campaign, &WorkloadOptions::sequential().with_resume(&ckpt))
        .unwrap()
        .to_json();
    assert_eq!(baseline, resumed, "blockade CI stop under resume");
}
