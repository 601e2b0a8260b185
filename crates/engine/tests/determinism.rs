//! The engine's reproducibility contract, end to end: a ≥16-scenario
//! sweep spec produces byte-identical JSON at every worker count.

use vardelay_engine::{run_workload, Sweep, WorkloadOptions};

/// The shipped example spec (2 explicit + 18 grid scenarios) with the
/// trial budget shrunk for test speed but still spanning several
/// scheduling blocks per scenario.
fn spec() -> Sweep {
    let mut sweep = Sweep::example();
    for s in &mut sweep.scenarios {
        s.trials = 600;
    }
    sweep.grid.as_mut().expect("example has a grid").trials = 600;
    sweep
}

#[test]
fn sixteen_plus_scenarios_bit_identical_across_worker_counts() {
    let sweep = spec();
    assert!(sweep.expand().len() >= 16, "acceptance floor");

    let baseline = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap();
    let baseline_json = baseline.to_json();
    for workers in [2, 3, 8] {
        let run =
            run_workload(&sweep, &WorkloadOptions::sequential().with_workers(workers)).unwrap();
        assert_eq!(
            baseline_json,
            run.to_json(),
            "results at {workers} workers differ from sequential"
        );
    }
}

#[test]
fn results_are_stable_across_repeated_runs() {
    let sweep = spec();
    let a = run_workload(&sweep, &WorkloadOptions::sequential().with_workers(4)).unwrap();
    let b = run_workload(&sweep, &WorkloadOptions::sequential().with_workers(4)).unwrap();
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn scenario_order_does_not_change_any_scenario_result() {
    // Content-hash IDs + counter-based seeds: moving a scenario inside
    // the sweep must not change its numbers.
    let sweep = spec();
    let mut reversed = sweep.clone();
    reversed.scenarios.reverse();

    let fwd = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap();
    let rev = run_workload(&reversed, &WorkloadOptions::sequential()).unwrap();
    let explicit = sweep.scenarios.len();
    for i in 0..explicit {
        let from_rev = &rev.scenarios[explicit - 1 - i];
        assert_eq!(
            &fwd.scenarios[i], from_rev,
            "scenario {i} changed with position"
        );
    }
}

#[test]
fn changing_the_sweep_seed_changes_mc_but_not_analytic() {
    let sweep = spec();
    let mut reseeded = sweep.clone();
    reseeded.seed += 1;

    let a = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap();
    let b = run_workload(&reseeded, &WorkloadOptions::sequential()).unwrap();
    for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
        assert_eq!(x.analytic, y.analytic, "analytic model is seed-free");
        let (mx, my) = (x.mc.as_ref().unwrap(), y.mc.as_ref().unwrap());
        assert_ne!(mx.mean_ps, my.mean_ps, "{}: new seed, new trials", x.label);
        // ... but the estimates still agree statistically.
        let rel = (mx.mean_ps - my.mean_ps).abs() / mx.mean_ps;
        assert!(rel < 0.02, "{}: {rel}", x.label);
    }
}
