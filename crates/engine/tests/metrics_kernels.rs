//! `--metrics` trial accounting covers every trial kernel: a sweep run
//! under kernel `k` reports exactly its trials in the `trials` total,
//! under `trials_by_kernel.k`, and as plain in `trials_by_strategy`.
//!
//! Recording is process-global, so this check lives alone in its own
//! test binary: no concurrent test can add counters to the session.

use serde::Value;
use vardelay_engine::workload::{run_units, WorkloadOptions};
use vardelay_engine::{KernelSpec, Sweep};
use vardelay_mc::TrialKernel;

fn count(v: &Value, path: &[&str]) -> u64 {
    let mut at = v;
    for key in path {
        at = at.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
    }
    match at {
        Value::Number(serde::Number::U64(n)) => *n,
        other => panic!("{path:?} is not a count: {other:?}"),
    }
}

#[test]
fn metrics_count_every_kernels_trials() {
    for kernel in TrialKernel::ALL {
        let spec = KernelSpec::ALL
            .into_iter()
            .find(|k| k.to_kernel() == kernel)
            .expect("every kernel has a spec keyword");
        let mut sweep = Sweep::example();
        sweep.grid = None;
        for s in &mut sweep.scenarios {
            s.kernel = spec;
        }
        let want: u64 = sweep.scenarios.iter().map(|s| s.trials).sum();
        assert!(want > 0);

        let session = vardelay_obs::Session::start();
        let stats = run_units(&sweep, &WorkloadOptions::sequential(), |_, _, _, _| Ok(()))
            .expect("sweep runs");
        let agg = vardelay_obs::aggregate(&session.finish());
        let info = vardelay_obs::RunInfo {
            kind: "sweep",
            name: "metrics",
            workers: 1,
            wall_ms: 1.0,
            units_total: stats.units,
            units_executed: stats.executed,
            units_resumed: stats.resumed,
            units_cached: stats.cached,
            torn_tail_normalized: false,
            steps: stats.steps,
        };
        let v: Value = serde_json::from_str(&vardelay_obs::metrics_json(&info, &agg))
            .expect("metrics is valid JSON");
        let k = kernel.name();
        assert_eq!(count(&v, &["trials"]), want, "{k}: total");
        assert_eq!(count(&v, &["trials_by_kernel", k]), want, "{k}: by kernel");
        assert_eq!(
            count(&v, &["trials_by_strategy", "plain"]),
            want,
            "{k}: plain remainder"
        );
    }
}
