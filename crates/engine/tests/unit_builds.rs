//! Only the units that execute are built.
//!
//! A unit's journal key hashes its spec alone, so the shard filter, the
//! resume journal and the result cache are all consulted before any
//! unit is built (netlists, SSTA, the analytic model, the compiled
//! simulator). Each build records one `unit/prepare` span keyed by the
//! unit, which is what these tests count.
//!
//! Every test in this binary runs its workloads inside a recording
//! session (sessions are mutually exclusive), so no foreign spans can
//! reach a recording and the counts are exact.

use std::cell::RefCell;
use std::collections::HashMap;

use vardelay_engine::workload::{
    run_units, Checkpoint, ResultCache, Shard, Workload, WorkloadOptions, WorkloadStats,
};
use vardelay_engine::{
    checkpoint_line, plan_workload, EngineError, PipelineSpec, ScenarioResult, Sweep, UnitOrigin,
    VariationSpec,
};

/// An in-memory result cache. With `index` set it answers
/// [`ResultCache::contains`] like the on-disk store's adapter;
/// without, it keeps the trait's default (`false`), so every unit is
/// built before its fetch.
struct MemCache {
    map: RefCell<HashMap<u64, ScenarioResult>>,
    index: bool,
}

impl MemCache {
    fn new(index: bool) -> Self {
        MemCache {
            map: RefCell::new(HashMap::new()),
            index,
        }
    }
}

impl ResultCache<ScenarioResult> for MemCache {
    fn fetch(&self, key: u64) -> Result<Option<ScenarioResult>, EngineError> {
        Ok(self.map.borrow().get(&key).cloned())
    }

    fn contains(&self, key: u64) -> bool {
        self.index && self.map.borrow().contains_key(&key)
    }

    fn store(&self, key: u64, result: &ScenarioResult) -> Result<(), EngineError> {
        self.map.borrow_mut().insert(key, result.clone());
        Ok(())
    }
}

/// A cache whose index lists every unit but whose fetches all miss —
/// a broken [`ResultCache::contains`] promise.
struct ListsButLoses;

impl ResultCache<ScenarioResult> for ListsButLoses {
    fn fetch(&self, _key: u64) -> Result<Option<ScenarioResult>, EngineError> {
        Ok(None)
    }

    fn contains(&self, _key: u64) -> bool {
        true
    }

    fn store(&self, _key: u64, _result: &ScenarioResult) -> Result<(), EngineError> {
        Ok(())
    }
}

/// Two explicit scenarios plus a 2 × 2 grid, at one or two blocks per
/// unit.
fn small_grid_sweep() -> Sweep {
    let mut sweep = Sweep::example();
    for s in &mut sweep.scenarios {
        s.trials = 300;
    }
    let grid = sweep.grid.as_mut().expect("the example has a grid");
    grid.stage_counts = vec![4, 8];
    grid.logic_depths = vec![5, 8];
    grid.variations.truncate(1);
    grid.trials = 256;
    sweep
}

/// What one run did: its stats, the keys of the units it built (in
/// build order), and its sink calls as `(key, origin)`.
struct Run {
    stats: WorkloadStats,
    built: Vec<u64>,
    sunk: Vec<(u64, UnitOrigin)>,
    journal: String,
}

/// Runs `sweep` inside a recording session, collecting its checkpoint
/// lines and the `unit/prepare` span keys.
fn run(sweep: &Sweep, opts: &WorkloadOptions<'_, ScenarioResult>) -> Result<Run, EngineError> {
    let session = vardelay_obs::Session::start();
    let mut sunk = Vec::new();
    let mut journal = String::new();
    let stats = run_units(sweep, opts, |_, key, result, origin| {
        sunk.push((key, origin));
        journal.push_str(&checkpoint_line(key, &result));
        journal.push('\n');
        Ok(())
    });
    let rec = session.finish();
    let built = rec
        .events
        .iter()
        .filter(|e| e.cat == "unit" && e.name == "prepare")
        .map(|e| e.key.expect("prepare spans carry the unit key"))
        .collect();
    Ok(Run {
        stats: stats?,
        built,
        sunk,
        journal,
    })
}

/// The lines of a journal, sorted (sink order is completion order).
fn sorted_lines(journal: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = journal.lines().collect();
    lines.sort_unstable();
    lines
}

#[test]
fn a_warm_cache_run_builds_no_units() {
    let sweep = small_grid_sweep();
    let cache = MemCache::new(true);
    let opts = WorkloadOptions::sequential()
        .with_workers(2)
        .with_cache(&cache);
    let cold = run(&sweep, &opts).unwrap();
    assert_eq!(cold.stats.units, 6);
    assert_eq!(cold.built, cold.stats.keys, "a cold run builds every unit");

    let warm = run(&sweep, &opts).unwrap();
    assert!(warm.built.is_empty(), "warm run built {:?}", warm.built);
    assert_eq!((warm.stats.cached, warm.stats.executed), (6, 0));
    assert_eq!(sorted_lines(&warm.journal), sorted_lines(&cold.journal));
}

#[test]
fn a_cache_without_an_index_still_splices_after_building() {
    // The trait's default `contains` keeps the old order: build, then
    // fetch. Results and dispositions are the same either way.
    let sweep = small_grid_sweep();
    let cache = MemCache::new(false);
    let opts = WorkloadOptions::sequential().with_cache(&cache);
    let cold = run(&sweep, &opts).unwrap();
    let warm = run(&sweep, &opts).unwrap();
    assert_eq!(warm.built, warm.stats.keys);
    assert_eq!((warm.stats.cached, warm.stats.executed), (6, 0));
    assert_eq!(warm.journal, cold.journal);
}

#[test]
fn a_refined_run_builds_only_the_added_units() {
    let sweep = small_grid_sweep();
    let cache = MemCache::new(true);
    let opts = WorkloadOptions::sequential().with_cache(&cache);
    run(&sweep, &opts).unwrap();

    let mut refined = sweep.clone();
    refined.grid.as_mut().unwrap().stage_counts.insert(1, 6);
    let r = run(&refined, &opts).unwrap();
    assert_eq!((r.stats.units, r.stats.cached, r.stats.executed), (8, 6, 2));
    let executed: Vec<u64> = r
        .sunk
        .iter()
        .filter(|&&(_, origin)| origin == UnitOrigin::Executed)
        .map(|&(key, _)| key)
        .collect();
    let mut built = r.built.clone();
    built.sort_unstable();
    let mut want = executed.clone();
    want.sort_unstable();
    assert_eq!(built, want, "exactly the two added grid points are built");
}

#[test]
fn a_resumed_run_builds_only_the_missing_units() {
    let sweep = small_grid_sweep();
    let full = run(&sweep, &WorkloadOptions::sequential()).unwrap();
    let kept: String = full
        .journal
        .lines()
        .take(4)
        .map(|l| format!("{l}\n"))
        .collect();
    let ckpt: Checkpoint<ScenarioResult> = Checkpoint::parse(&kept).unwrap();
    let r = run(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt)).unwrap();
    assert_eq!((r.stats.resumed, r.stats.executed), (4, 2));
    let missing: Vec<u64> = r
        .stats
        .keys
        .iter()
        .copied()
        .filter(|&k| ckpt.get(k).is_none())
        .collect();
    assert_eq!(r.built, missing);
}

#[test]
fn a_shard_run_builds_only_its_own_units() {
    let sweep = small_grid_sweep();
    let all = sweep.check().unwrap();
    let mut built_total = 0;
    for i in 1..=3 {
        let shard = Shard::new(i, 3).unwrap();
        let r = run(&sweep, &WorkloadOptions::sequential().with_shard(shard)).unwrap();
        assert_eq!(r.built, r.stats.keys, "shard {i}/3 builds its units only");
        assert!(r.built.iter().all(|&k| shard.owns(k)));
        built_total += r.built.len();
    }
    assert_eq!(
        built_total,
        all.len(),
        "the shards' builds partition the units"
    );
}

#[test]
fn a_listed_unit_whose_fetch_misses_fails_the_run() {
    let sweep = small_grid_sweep();
    let first = sweep.unit_key(&sweep.check().unwrap()[0]);
    let r = run(
        &sweep,
        &WorkloadOptions::sequential().with_cache(&ListsButLoses),
    );
    let err = r.err().expect("a broken contains promise fails the run");
    assert_eq!(
        err.to_string(),
        format!("cache: unit {first:016x} is listed but its fetch found nothing")
    );
}

#[test]
fn planning_observes_every_unit_key_in_expansion_order() {
    let sweep = small_grid_sweep();
    let mut observed = Vec::new();
    let plan = plan_workload(&sweep, |key, _| observed.push(key)).unwrap();
    let keys: Vec<u64> = sweep
        .check()
        .unwrap()
        .iter()
        .map(|s| sweep.unit_key(s))
        .collect();
    assert_eq!(
        observed, keys,
        "one observation per unit, in expansion order"
    );
    assert_eq!(plan, plan_workload(&sweep, |_, _| {}).unwrap());
}

#[test]
fn spec_errors_are_rejected_before_any_unit_sinks() {
    let sweep = small_grid_sweep();
    let cache = MemCache::new(true);
    let opts = WorkloadOptions::sequential().with_cache(&cache);
    run(&sweep, &opts).unwrap();

    // A check error in a third explicit scenario, among six units the
    // warm cache would splice.
    let mut checked = sweep.clone();
    let mut bad = checked.scenarios[0].clone();
    bad.label = "histogram without trials".to_owned();
    bad.trials = 0;
    bad.histogram_bins = 8;
    checked.scenarios.push(bad);

    // A build error (a non-samplable correlation passes the spec checks
    // and fails only when the simulator is built), in the same place.
    let mut built = sweep.clone();
    let mut bad = built.scenarios[0].clone();
    bad.label = "non-samplable rho".to_owned();
    if let PipelineSpec::Moments { stages, rho } = &mut bad.pipeline {
        stages.truncate(3);
        *rho = -0.9;
    }
    assert_eq!(bad.variation, VariationSpec::Nominal);
    built.scenarios.push(bad);

    // Both, the build error expanded first: every unit is checked
    // before any is built, so the check error is the one reported,
    // whatever the cache holds.
    let mut both = built.clone();
    both.scenarios
        .push(checked.scenarios.last().unwrap().clone());

    for (w, needle) in [
        (
            &checked,
            "scenario 'histogram without trials': a delay histogram",
        ),
        (
            &built,
            "scenario 'non-samplable rho': moments not Monte-Carlo-samplable",
        ),
        (
            &both,
            "scenario 'histogram without trials': a delay histogram",
        ),
    ] {
        // The same error text as a plain check-and-build of every unit,
        // and as planning.
        let prepared = w.prepare().err().expect("prepare rejects the spec");
        assert!(prepared.to_string().contains(needle), "{prepared}");
        assert_eq!(plan_workload(w, |_, _| {}).unwrap_err(), prepared);
        for opts in [&opts, &WorkloadOptions::sequential()] {
            let session = vardelay_obs::Session::start();
            let mut sunk = 0;
            let err = run_units(w, opts, |_, _, _, _| {
                sunk += 1;
                Ok(())
            })
            .unwrap_err();
            drop(session.finish());
            assert_eq!(err, prepared);
            assert_eq!(sunk, 0, "no unit may sink before the spec is rejected");
        }
    }
}
