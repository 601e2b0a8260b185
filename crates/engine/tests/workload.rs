//! Integration tests for the unified workload pipeline: shard-merge
//! byte-identity and kill-then-resume byte-identity, for both shipped
//! workloads (scenario sweeps and optimization campaigns).
//!
//! These are the acceptance tests of the production contract: because
//! every unit result is a pure function of `(spec, seed)`, sharding and
//! resume may change *which* process computes a unit, never its bytes.

use vardelay_engine::optimize::OptimizationCampaign;
use vardelay_engine::workload::{
    checkpoint_line, run_units, run_workload, Checkpoint, Shard, Workload, WorkloadOptions,
    WorkloadReport, WorkloadStats,
};
use vardelay_engine::Sweep;

/// A small sweep that still exercises multi-block scenarios and a
/// zero-step (analytic-only) unit.
fn small_sweep() -> Sweep {
    let mut sweep = Sweep::example();
    sweep.grid = None;
    // Keep both explicit scenarios plus a zero-trial clone: unit
    // dispositions then cover multi-block MC and step-free analytic.
    let mut analytic_only = sweep.scenarios[0].clone();
    analytic_only.label = "moments (analytic only)".to_owned();
    analytic_only.trials = 0;
    sweep.scenarios.push(analytic_only);
    for s in &mut sweep.scenarios {
        if s.trials > 0 {
            s.trials = 600; // > 2 blocks each
        }
    }
    sweep
}

/// A small campaign (seconds, not minutes, in debug builds).
fn small_campaign() -> OptimizationCampaign {
    let mut campaign = OptimizationCampaign::example();
    if let Some(grid) = campaign.grid.as_mut() {
        grid.yield_targets.truncate(1);
        grid.verify_trials = 256;
        grid.rounds = 1;
    }
    for run in &mut campaign.runs {
        run.verify_trials = 256;
        run.eval_trials = 256;
        run.rounds = 1;
        if let vardelay_opt::TargetDelayPolicy::FrontierQuantile { refine, .. } =
            &mut run.target_delay
        {
            *refine = 1;
        }
    }
    campaign
}

/// Runs a workload collecting its checkpoint lines, exactly as the CLI
/// journals them.
fn journal<W: Workload>(
    w: &W,
    opts: &WorkloadOptions<'_, W::UnitResult>,
) -> (String, WorkloadStats) {
    let mut lines = String::new();
    let stats = run_units(w, opts, |_slot, id, result, _resumed| {
        lines.push_str(&checkpoint_line(id, &result));
        lines.push('\n');
        Ok(())
    })
    .expect("workload runs");
    (lines, stats)
}

/// For n in {2, 3}: every unit lands in exactly one shard, and resuming
/// from the concatenated shard journals (the documented merge recipe)
/// reproduces the unsharded output byte for byte.
fn assert_shard_merge_bitwise<W>(w: &W)
where
    W: Workload,
    W::Report: WorkloadReport,
{
    let unsharded = run_workload(w, &WorkloadOptions::sequential().with_workers(2))
        .expect("unsharded run")
        .to_json();
    let total_units = w.prepare().expect("spec is valid").len();

    for n in [2u64, 3] {
        let mut merged_lines = String::new();
        let mut unit_sum = 0;
        for i in 1..=n {
            let shard = Shard::new(i, n).unwrap();
            let (lines, stats) = journal(w, &WorkloadOptions::sequential().with_shard(shard));
            assert_eq!(stats.executed, stats.units, "shards execute their units");
            unit_sum += stats.units;
            merged_lines.push_str(&lines);
        }
        assert_eq!(unit_sum, total_units, "shards partition the unit set");

        // The merge: a resume run over all shard journals executes
        // nothing and emits the complete report.
        let ckpt: Checkpoint<W::UnitResult> =
            Checkpoint::parse(&merged_lines).expect("journals parse");
        let merged =
            run_workload(w, &WorkloadOptions::sequential().with_resume(&ckpt)).expect("merge run");
        assert_eq!(
            merged.to_json(),
            unsharded,
            "merged {n}-shard output must be bitwise identical to the unsharded run"
        );
        let (_, stats) = journal(w, &WorkloadOptions::sequential().with_resume(&ckpt));
        assert_eq!(stats.executed, 0, "a full checkpoint leaves no work");
        assert_eq!(stats.resumed, total_units);
    }
}

#[test]
fn sweep_shard_merge_is_bitwise_identical() {
    assert_shard_merge_bitwise(&small_sweep());
}

#[test]
fn campaign_shard_merge_is_bitwise_identical() {
    assert_shard_merge_bitwise(&small_campaign());
}

/// Kill-then-resume: truncating the journal to a prefix of completed
/// units and resuming produces output byte-identical to an
/// uninterrupted run, re-running only the missing units.
fn assert_kill_resume_bitwise<W>(w: &W, keep: usize)
where
    W: Workload,
    W::Report: WorkloadReport,
{
    let (lines, stats) = journal(w, &WorkloadOptions::sequential());
    assert!(stats.units > keep, "test must leave work to resume");
    // The uninterrupted baseline, reassembled from the full journal
    // (exercising the splice path on the way).
    let full: Checkpoint<W::UnitResult> = Checkpoint::parse(&lines).expect("journal parses");
    let uninterrupted = run_workload(w, &WorkloadOptions::sequential().with_resume(&full))
        .expect("uninterrupted run")
        .to_json();

    // "Kill" the run: keep only the first `keep` journal lines.
    let prefix: String = lines.lines().take(keep).flat_map(|l| [l, "\n"]).collect();
    let ckpt: Checkpoint<W::UnitResult> = Checkpoint::parse(&prefix).expect("prefix parses");
    assert_eq!(ckpt.len(), keep);

    let resumed =
        run_workload(w, &WorkloadOptions::sequential().with_resume(&ckpt)).expect("resumed run");
    assert_eq!(
        resumed.to_json(),
        uninterrupted,
        "killed-then-resumed output must be byte-identical"
    );
    let (_, rstats) = journal(w, &WorkloadOptions::sequential().with_resume(&ckpt));
    assert_eq!(rstats.resumed, keep);
    assert_eq!(rstats.executed, stats.units - keep);
}

#[test]
fn sweep_kill_and_resume_is_byte_identical() {
    assert_kill_resume_bitwise(&small_sweep(), 2);
}

#[test]
fn campaign_kill_and_resume_is_byte_identical() {
    assert_kill_resume_bitwise(&small_campaign(), 2);
}

/// A torn final journal line (killed mid-append) merely re-runs that
/// unit; the resumed output is still byte-identical.
#[test]
fn torn_tail_resume_is_byte_identical() {
    let sweep = small_sweep();
    let uninterrupted = run_workload(&sweep, &WorkloadOptions::sequential())
        .unwrap()
        .to_json();
    let (lines, _) = journal(&sweep, &WorkloadOptions::sequential());
    let torn = &lines[..lines.len() - 20]; // cut mid-way through the last line
    let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> = Checkpoint::parse(torn).unwrap();
    assert!(ckpt.torn_tail(), "damage must be detected");
    let resumed = run_workload(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt)).unwrap();
    assert_eq!(resumed.to_json(), uninterrupted);
}

/// Sharding composes with resume: a shard run handed a checkpoint skips
/// its already-done units and leaves other shards' units alone.
#[test]
fn shard_runs_resume_their_own_units_only() {
    let sweep = small_sweep();
    let shard = Shard::new(1, 2).unwrap();
    let (lines, stats) = journal(&sweep, &WorkloadOptions::sequential().with_shard(shard));
    if stats.units == 0 {
        panic!("shard 1/2 owns no units; pick a different test spec");
    }
    let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> = Checkpoint::parse(&lines).unwrap();
    let (_, again) = journal(
        &sweep,
        &WorkloadOptions::sequential()
            .with_shard(shard)
            .with_resume(&ckpt),
    );
    assert_eq!(again.resumed, stats.units);
    assert_eq!(again.executed, 0);
}

/// Backend twins — scenarios identical except for execution-strategy
/// fields (`backend`, `histogram_bins`) — share a scenario ID by
/// design, but their result bytes differ (echoed spec, histogram
/// field). The journal key must keep them distinct, or resume would
/// splice one twin's result into the other's slot.
#[test]
fn backend_twins_resume_byte_identically() {
    let mut sweep = Sweep::example();
    sweep.grid = None;
    sweep.scenarios.truncate(1);
    sweep.scenarios[0].trials = 300;
    let mut twin = sweep.scenarios[0].clone();
    twin.histogram_bins = 8; // same ID (execution strategy), different result bytes
    assert_eq!(
        sweep.scenarios[0].id(sweep.seed),
        twin.id(sweep.seed),
        "precondition: twins share the scenario ID"
    );
    sweep.scenarios.push(twin);

    let (lines, stats) = journal(&sweep, &WorkloadOptions::sequential());
    assert_eq!(stats.units, 2);
    assert_ne!(stats.keys[0], stats.keys[1], "journal keys stay distinct");

    let uninterrupted = run_workload(&sweep, &WorkloadOptions::sequential())
        .unwrap()
        .to_json();
    // Resume from the full journal — both twins must splice into their
    // own slots, not each other's.
    let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> = Checkpoint::parse(&lines).unwrap();
    let resumed = run_workload(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt)).unwrap();
    assert_eq!(resumed.to_json(), uninterrupted);
    // And the partial-resume direction: keep only the histogram twin.
    let second_line = lines.lines().nth(1).unwrap();
    let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> = Checkpoint::parse(second_line).unwrap();
    let resumed = run_workload(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt)).unwrap();
    assert_eq!(resumed.to_json(), uninterrupted);
}

/// `plan_workload` is the single implementation behind both validate
/// spellings.
#[test]
fn validate_spellings_share_one_plan_implementation() {
    let sweep = small_sweep();
    let a = vardelay_engine::plan_sweep(&sweep).unwrap();
    let b = vardelay_engine::plan_workload(&sweep, |_, _| {}).unwrap();
    assert_eq!(a, b);

    let campaign = small_campaign();
    let a = vardelay_engine::plan_campaign(&campaign).unwrap();
    let b = vardelay_engine::plan_workload(&campaign, |_, _| {}).unwrap();
    assert_eq!(a, b);
}
