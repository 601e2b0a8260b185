//! The v3 (wide structure-of-arrays) kernel contract, end to end.
//!
//! `kernel: "v3"` selects the lane-major trial kernel and — uniquely
//! among the kernels — fans campaign verification out across the
//! worker pool in fixed chunks folded in chunk order. The contract:
//!
//! * v3 is byte-identical **to itself** at any worker count (sweeps
//!   *and* campaigns, whose verification now runs pooled), under
//!   `--shard i/n` merge, across a kill-then-resume splice, and with
//!   or without tracing;
//! * v3 agrees with v1 **statistically** (same per-trial seeds, same
//!   distributions, different arithmetic), never byte-for-byte;
//! * flipping a scenario to v3 changes nothing about any v1 scenario's
//!   bytes;
//! * kernel twins (specs identical except `kernel`) share a scenario
//!   ID by design, yet journal keys keep their results distinct.

use vardelay_engine::optimize::OptimizationCampaign;
use vardelay_engine::workload::{
    checkpoint_line, run_units, run_workload, Checkpoint, Shard, Workload, WorkloadOptions,
};
use vardelay_engine::{KernelSpec, StrategySpec, Sweep, TrialPlanSpec, VariationSpec};

/// The example sweep with every scenario flipped to the v3 kernel and
/// the trial budget shrunk but still spanning several blocks (and
/// ending on a ragged final 16-wide pass).
fn v3_sweep() -> Sweep {
    let mut sweep = Sweep::example();
    for s in &mut sweep.scenarios {
        s.trials = 600;
        s.kernel = KernelSpec::V3;
    }
    if let Some(grid) = sweep.grid.as_mut() {
        grid.trials = 600;
        grid.kernel = KernelSpec::V3;
    }
    sweep
}

/// A small all-v3 campaign. One run keeps the plain fixed-budget
/// verification; the other exercises the CI-driven chunked loop under
/// a variance-reduced plan, so both pooled-verification paths (full
/// budget and early stop) are covered at every worker count.
fn v3_campaign() -> OptimizationCampaign {
    let mut campaign = OptimizationCampaign::example();
    campaign.grid = None;
    campaign.runs.truncate(2);
    for run in &mut campaign.runs {
        run.verify_trials = 2048;
        run.eval_trials = 256;
        run.rounds = 1;
        run.kernel = KernelSpec::V3;
        if let vardelay_opt::TargetDelayPolicy::FrontierQuantile { refine, .. } =
            &mut run.target_delay
        {
            *refine = 1;
        }
    }
    // Stratified sampling needs die-level dimensions to stratify.
    campaign.runs[1].variation = VariationSpec::Combined {
        inter_mv: 30.0,
        random_mv: 15.0,
        systematic_mv: 0.0,
    };
    campaign.runs[1].verify_plan = TrialPlanSpec {
        strategy: StrategySpec::Stratified,
        shift_sigmas: None,
        ci_half_width: Some(0.2),
    };
    campaign
}

/// Runs a workload collecting its checkpoint lines, exactly as the CLI
/// journals them.
fn journal<W: Workload>(
    w: &W,
    opts: &WorkloadOptions<'_, W::UnitResult>,
) -> (String, vardelay_engine::workload::WorkloadStats) {
    let mut lines = String::new();
    let stats = run_units(w, opts, |_slot, id, result, _resumed| {
        lines.push_str(&checkpoint_line(id, &result));
        lines.push('\n');
        Ok(())
    })
    .expect("workload runs");
    (lines, stats)
}

#[test]
fn v3_sweep_bit_identical_across_worker_counts() {
    let sweep = v3_sweep();
    let baseline = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap();
    let baseline_json = baseline.to_json();
    for workers in [2, 8] {
        let run =
            run_workload(&sweep, &WorkloadOptions::sequential().with_workers(workers)).unwrap();
        assert_eq!(
            baseline_json,
            run.to_json(),
            "v3 results at {workers} workers differ from sequential"
        );
    }
}

/// The tentpole end-to-end check: a v3 campaign's verification runs
/// through the worker pool, and the pooled chunk fold reproduces the
/// sequential bytes at every worker count — including the CI-stopped
/// stratified run, where pool workers may speculatively execute chunks
/// past the stopping boundary.
#[test]
fn v3_campaign_bit_identical_across_worker_counts() {
    let campaign = v3_campaign();
    let baseline = run_workload(&campaign, &WorkloadOptions::sequential())
        .unwrap()
        .to_json();
    for workers in [4, 8] {
        let run = run_workload(
            &campaign,
            &WorkloadOptions::sequential().with_workers(workers),
        )
        .unwrap();
        assert_eq!(
            baseline,
            run.to_json(),
            "v3 campaign differs at {workers} workers"
        );
    }
}

/// 3-shard merge: the documented shard-then-resume recipe reproduces
/// the unsharded v3 output byte for byte.
#[test]
fn v3_three_shard_merge_is_bitwise_identical() {
    let sweep = v3_sweep();
    let unsharded = run_workload(&sweep, &WorkloadOptions::sequential())
        .expect("unsharded run")
        .to_json();
    let total_units = sweep.prepare().expect("spec is valid").len();

    let n = 3u64;
    let mut merged_lines = String::new();
    let mut unit_sum = 0;
    for i in 1..=n {
        let shard = Shard::new(i, n).unwrap();
        let (lines, stats) = journal(&sweep, &WorkloadOptions::sequential().with_shard(shard));
        unit_sum += stats.units;
        merged_lines.push_str(&lines);
    }
    assert_eq!(unit_sum, total_units, "shards partition the unit set");

    let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> =
        Checkpoint::parse(&merged_lines).expect("journals parse");
    let merged =
        run_workload(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt)).expect("merge run");
    assert_eq!(
        merged.to_json(),
        unsharded,
        "merged 3-shard v3 output must be bitwise identical"
    );
}

/// Kill-then-resume: a truncated v3 journal resumes to bytes identical
/// to the uninterrupted run.
#[test]
fn v3_kill_and_resume_is_byte_identical() {
    let sweep = v3_sweep();
    let uninterrupted = run_workload(&sweep, &WorkloadOptions::sequential())
        .unwrap()
        .to_json();
    let (lines, stats) = journal(&sweep, &WorkloadOptions::sequential());
    let keep = 2;
    assert!(stats.units > keep, "test must leave work to resume");
    let prefix: String = lines.lines().take(keep).flat_map(|l| [l, "\n"]).collect();
    let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> =
        Checkpoint::parse(&prefix).expect("prefix parses");
    let resumed = run_workload(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt)).unwrap();
    assert_eq!(resumed.to_json(), uninterrupted);
}

/// Tracing is out of band for v3 exactly as for v1, and v3 blocks
/// are attributed to their own span/counter keys.
#[test]
fn v3_bytes_identical_with_and_without_tracing() {
    let mut sweep = v3_sweep();
    sweep.grid = None; // keep the traced run quick
    let plain = run_workload(&sweep, &WorkloadOptions::sequential())
        .unwrap()
        .to_json();
    let session = vardelay_obs::Session::start();
    let traced = run_workload(&sweep, &WorkloadOptions::sequential())
        .unwrap()
        .to_json();
    let rec = session.finish();
    assert_eq!(plain, traced, "tracing changed v3 result bytes");
    let agg = vardelay_obs::aggregate(&rec);
    assert!(
        agg.phases.contains_key("mc/block{kernel=v3,plan=plain}"),
        "v3 blocks must be recorded under mc/block{{kernel=v3,plan=plain}}"
    );
    assert!(
        agg.counter("trials{kernel=v3,plan=plain}") > 0,
        "v3 trials counter missing"
    );
}

/// A traced v3 campaign attributes verification to the pooled
/// per-chunk spans (`mc/verify_block`) so `vardelay report` can show
/// where the verify wall-clock went — and tracing a pooled run is
/// still byte-out-of-band.
#[test]
fn v3_campaign_tracing_attributes_pooled_verify_blocks() {
    let campaign = v3_campaign();
    let plain = run_workload(&campaign, &WorkloadOptions::sequential().with_workers(4))
        .unwrap()
        .to_json();
    let session = vardelay_obs::Session::start();
    let traced = run_workload(&campaign, &WorkloadOptions::sequential().with_workers(4))
        .unwrap()
        .to_json();
    let rec = session.finish();
    assert_eq!(plain, traced, "tracing changed pooled v3 campaign bytes");
    let agg = vardelay_obs::aggregate(&rec);
    assert!(
        agg.phases.contains_key("mc/verify{kernel=v3,plan=plain}"),
        "plain v3 verification span missing"
    );
    assert!(
        agg.phases
            .contains_key("mc/verify{kernel=v3,plan=stratified}"),
        "stratified v3 verification span missing"
    );
    let blocks = agg
        .phases
        .get("mc/verify_block")
        .expect("pooled verification must emit per-chunk spans");
    assert!(
        blocks.count >= 4,
        "expected several verify chunks, saw {}",
        blocks.count
    );
    assert!(
        agg.counter("trials{kernel=v3,plan=stratified}") > 0,
        "v3 trials counter missing"
    );
}

/// v1 and v3 see the same per-trial seeds and distributions, so their
/// estimates agree statistically — but the arithmetic differs, so the
/// bytes must never collide.
#[test]
fn v3_agrees_statistically_with_v1_but_not_bitwise() {
    let mut v1 = Sweep::example();
    v1.grid = None;
    for s in &mut v1.scenarios {
        s.trials = 4000;
    }
    let mut v3 = v1.clone();
    for s in &mut v3.scenarios {
        s.kernel = KernelSpec::V3;
    }

    let a = run_workload(&v1, &WorkloadOptions::sequential()).unwrap();
    let c = run_workload(&v3, &WorkloadOptions::sequential()).unwrap();
    for (x, y) in a.scenarios.iter().zip(&c.scenarios) {
        assert_eq!(x.analytic, y.analytic, "analytic model is kernel-free");
        let (mx, my) = (x.mc.as_ref().unwrap(), y.mc.as_ref().unwrap());
        assert_ne!(
            mx.mean_ps, my.mean_ps,
            "{}: v3 reproduced v1 bytes, contract is vacuous",
            x.label
        );
        let rel = (mx.mean_ps - my.mean_ps).abs() / mx.mean_ps;
        assert!(rel < 0.02, "{}: v1/v3 mean disagree: {rel}", x.label);
        let rels = (mx.sd_ps - my.sd_ps).abs() / mx.sd_ps;
        assert!(rels < 0.10, "{}: v1/v3 sigma disagree: {rels}", x.label);
    }
}

/// Flipping one scenario to v3 must leave every v1 scenario's bytes
/// untouched (kernels share no state, and `kernel` is excluded from
/// identity so seeds never move).
#[test]
fn v3_presence_leaves_v1_scenarios_byte_unchanged() {
    let mut sweep = Sweep::example();
    sweep.grid = None;
    for s in &mut sweep.scenarios {
        s.trials = 600;
    }
    let pure = run_workload(&sweep, &WorkloadOptions::sequential()).unwrap();

    let mut mixed = sweep.clone();
    let mut twin = mixed.scenarios[0].clone();
    twin.label = format!("{} (v3)", twin.label);
    twin.kernel = KernelSpec::V3;
    mixed.scenarios.push(twin);
    let run = run_workload(&mixed, &WorkloadOptions::sequential()).unwrap();

    for (x, y) in pure.scenarios.iter().zip(&run.scenarios) {
        assert_eq!(
            x, y,
            "{}: v1 bytes moved when a v3 scenario joined",
            x.label
        );
    }
}

/// Kernel twins — scenarios identical except `kernel` — share a
/// scenario ID (same seeds by construction) but the journal key must
/// keep their results distinct, or resume would splice one kernel's
/// numbers into the other's slot.
#[test]
fn kernel_twins_share_id_but_resume_byte_identically() {
    let mut sweep = Sweep::example();
    sweep.grid = None;
    sweep.scenarios.truncate(1);
    sweep.scenarios[0].trials = 300;
    let mut twin = sweep.scenarios[0].clone();
    twin.kernel = KernelSpec::V3;
    assert_eq!(
        sweep.scenarios[0].id(sweep.seed),
        twin.id(sweep.seed),
        "precondition: kernel twins share the scenario ID"
    );
    sweep.scenarios.push(twin);

    let (lines, stats) = journal(&sweep, &WorkloadOptions::sequential());
    assert_eq!(stats.units, 2);
    assert_ne!(stats.keys[0], stats.keys[1], "journal keys stay distinct");

    let uninterrupted = run_workload(&sweep, &WorkloadOptions::sequential())
        .unwrap()
        .to_json();
    let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> = Checkpoint::parse(&lines).unwrap();
    let resumed = run_workload(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt)).unwrap();
    assert_eq!(resumed.to_json(), uninterrupted);
}

/// Three scenarios under one ID: a v1 scenario, its v3 twin, and a v3
/// twin that also streams a histogram (another ID-excluded knob). All
/// three journal keys must differ, or resume would splice one member's
/// result bytes into another's slot.
#[test]
fn kernel_triplets_share_id_but_resume_byte_identically() {
    let mut sweep = Sweep::example();
    sweep.grid = None;
    sweep.scenarios.truncate(1);
    sweep.scenarios[0].trials = 300;
    for histogram_bins in [0, 8] {
        let mut twin = sweep.scenarios[0].clone();
        twin.kernel = KernelSpec::V3;
        twin.histogram_bins = histogram_bins;
        assert_eq!(
            sweep.scenarios[0].id(sweep.seed),
            twin.id(sweep.seed),
            "precondition: the triplet shares the scenario ID"
        );
        sweep.scenarios.push(twin);
    }

    let (lines, stats) = journal(&sweep, &WorkloadOptions::sequential());
    assert_eq!(stats.units, 3);
    assert_ne!(stats.keys[0], stats.keys[1], "journal keys stay distinct");
    assert_ne!(stats.keys[1], stats.keys[2], "journal keys stay distinct");
    assert_ne!(stats.keys[0], stats.keys[2], "journal keys stay distinct");

    let uninterrupted = run_workload(&sweep, &WorkloadOptions::sequential())
        .unwrap()
        .to_json();
    let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> = Checkpoint::parse(&lines).unwrap();
    let resumed = run_workload(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt)).unwrap();
    assert_eq!(resumed.to_json(), uninterrupted);
}
