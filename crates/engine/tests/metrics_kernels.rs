//! `--metrics` trial accounting covers every (kernel, plan) pairing:
//! a sweep run under kernel `k` and plan `s` reports its blocks under
//! `mc/block{kernel=k,plan=s}` and exactly its trials in the `trials`
//! total, under `trials_by_kernel.k` and under `trials_by_strategy.s`;
//! a campaign does the same for its verification (`mc/verify{…}`) and
//! counts its plain in-loop yield evaluations alongside. Both
//! breakdowns always sum to the total.
//!
//! Recording is process-global, so these checks live alone in their
//! own test binary, one test, so no concurrent test adds counters to a
//! session.

use std::collections::BTreeMap;

use serde::Value;
use vardelay_engine::workload::{run_workload, Workload, WorkloadOptions};
use vardelay_engine::{
    KernelSpec, OptimizationCampaign, StrategySpec, Sweep, TrialPlanSpec, VariationSpec,
    YieldBackendSpec,
};

fn count(v: &Value) -> u64 {
    match v {
        Value::Number(serde::Number::U64(n)) => *n,
        other => panic!("not a count: {other:?}"),
    }
}

fn groups(v: &Value, field: &str) -> BTreeMap<String, u64> {
    match v.get(field) {
        Some(Value::Object(fields)) => fields.iter().map(|(k, n)| (k.clone(), count(n))).collect(),
        other => panic!("{field} is not an object: {other:?}"),
    }
}

/// Runs `w` under a recording session; returns its metrics JSON and
/// its report.
fn traced<W: Workload>(w: &W) -> (Value, W::Report) {
    let session = vardelay_obs::Session::start();
    let report = run_workload(w, &WorkloadOptions::sequential()).expect("workload runs");
    let agg = vardelay_obs::aggregate(&session.finish());
    let info = vardelay_obs::RunInfo {
        kind: "test",
        name: "metrics",
        workers: 1,
        simd_tier: vardelay_stats::simd::SimdTier::detected().name(),
        wall_ms: 1.0,
        units_total: 0,
        units_executed: 0,
        units_resumed: 0,
        units_cached: 0,
        torn_tail_normalized: false,
        steps: 0,
    };
    let metrics = serde_json::from_str(&vardelay_obs::metrics_json(&info, &agg))
        .expect("metrics is valid JSON");
    (metrics, report)
}

/// Checks one pairing's metrics: the attributed phase key, the
/// schema version, and the trial breakdowns — every trial under kernel
/// `k`, `plan_trials` under plan `s`, the rest plain — summing to the
/// total.
fn check(m: &Value, phase: &str, k: &str, s: &str, total: u64, plan_trials: u64) {
    let key = format!("{phase}{{kernel={k},plan={s}}}");
    let phases = m.get("phases").expect("phases");
    assert!(phases.get(&key).is_some(), "{key} missing: {m:?}");
    assert_eq!(m.get("schema_version").map(count), Some(2));
    assert_eq!(m.get("trials").map(count), Some(total), "{key}: total");
    let by_kernel = groups(m, "trials_by_kernel");
    let by_strategy = groups(m, "trials_by_strategy");
    assert_eq!(by_kernel, BTreeMap::from([(k.to_owned(), total)]), "{key}");
    let mut want = BTreeMap::from([(s.to_owned(), plan_trials)]);
    if total > plan_trials {
        *want.entry("plain".to_owned()).or_insert(0) += total - plan_trials;
    }
    assert_eq!(by_strategy, want, "{key}");
    assert_eq!(by_kernel.values().sum::<u64>(), total, "{key}");
    assert_eq!(by_strategy.values().sum::<u64>(), total, "{key}");
}

#[test]
fn metrics_count_every_kernels_trials() {
    for kernel in KernelSpec::ALL {
        let k = kernel.to_kernel().name();
        for strategy in StrategySpec::ALL {
            let s = strategy.to_strategy().name();

            let mut sweep = Sweep::example_trial_plan(strategy);
            sweep.grid = None;
            for sc in &mut sweep.scenarios {
                sc.kernel = kernel;
                sc.trials = 512;
            }
            let want: u64 = sweep.scenarios.iter().map(|sc| sc.trials).sum();
            assert!(want > 0);
            let (m, _) = traced(&sweep);
            check(&m, "mc/block", k, s, want, want);

            // A one-run campaign verifying under (k, s) with netlist
            // in-loop evaluation (plain trials). The campaign validator
            // accepts every pair on a die-level variation.
            let mut campaign = OptimizationCampaign::example();
            campaign.grid = None;
            campaign.runs.drain(..1);
            let run = &mut campaign.runs[0];
            assert_eq!(run.yield_backend, YieldBackendSpec::Netlist);
            run.kernel = kernel;
            run.rounds = 1;
            run.eval_trials = 256;
            run.verify_trials = 1024;
            run.variation = VariationSpec::Combined {
                inter_mv: 30.0,
                random_mv: 15.0,
                systematic_mv: 0.0,
            };
            run.verify_plan = TrialPlanSpec {
                strategy,
                ..TrialPlanSpec::default()
            };
            let (m, result) = traced(&campaign);
            let r = &result.runs[0];
            let verified: u64 = [&r.mc, &r.individual.mc]
                .into_iter()
                .map(|v| v.as_ref().expect("verified").trials)
                .sum();
            let total = m.get("trials").map_or(0, count);
            assert!(total > verified, "in-loop evaluation trials missing");
            check(&m, "mc/verify", k, s, total, verified);
            let eval = format!("opt/yield_eval{{kernel={k}}}");
            assert!(
                m.get("phases").and_then(|p| p.get(&eval)).is_some(),
                "{eval}"
            );
        }
    }
}
