//! The observability hard invariant: tracing is **out of band**.
//!
//! Recording spans, counters and progress must not change a single
//! result byte — not at 1 worker, not at 8, not under shard + resume.
//! The engine's determinism contract (a unit result is a pure function
//! of `(spec, seed)`) is what campaigns, checkpoints and the golden
//! tests all lean on; instrumentation that perturbed RNG streams,
//! scheduling-visible state or float evaluation order would silently
//! poison every one of those guarantees. These tests pin it.
//!
//! Also covered: the emitted Chrome trace is valid JSON whose spans are
//! well-formed (non-negative durations, properly nested per thread),
//! and the metrics JSON carries the run accounting.
//!
//! Note on concurrency: `Session` recording is process-global and other
//! tests in this binary may run while a session is open, so recordings
//! can contain *extra* events from foreign threads. Assertions are
//! therefore on well-formedness and lower bounds, never exact counts.

use vardelay_engine::optimize::OptimizationCampaign;
use vardelay_engine::workload::{
    checkpoint_line, run_units, run_workload, Checkpoint, Shard, Workload, WorkloadOptions,
    WorkloadReport,
};
use vardelay_engine::Sweep;
use vardelay_obs::EventKind;

fn small_sweep() -> Sweep {
    let mut sweep = Sweep::example();
    sweep.grid = None;
    for s in &mut sweep.scenarios {
        s.trials = 600; // > 2 blocks per scenario
    }
    sweep
}

fn small_campaign() -> OptimizationCampaign {
    let mut campaign = OptimizationCampaign::example();
    campaign.grid = None;
    campaign.runs.truncate(2);
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

/// Runs `w` twice per worker count — once plain, once inside a
/// recording session — and asserts the reports are byte-identical.
///
/// `units` is the workload's unit count; the recording must hold at
/// least that many `pool/exec` spans and `min(workers, units)` worker
/// spans. Scoped pool workers flush their thread-local buffers before
/// the pool returns — a shortfall here means the thread-teardown race
/// (scope unblocking before thread-local destructors run) regressed
/// and a whole worker's events were lost.
fn assert_traced_equals_untraced<W>(w: &W, units: usize)
where
    W: Workload,
    W::Report: WorkloadReport,
{
    for workers in [1usize, 8] {
        let opts = WorkloadOptions::sequential().with_workers(workers);
        let plain = run_workload(w, &opts).expect("untraced run").to_json();
        let session = vardelay_obs::Session::start();
        let traced = run_workload(w, &opts).expect("traced run").to_json();
        let rec = session.finish();
        assert_eq!(
            plain, traced,
            "tracing changed result bytes at {workers} workers"
        );
        assert!(
            rec.events.iter().any(|e| e.cat == "mc" || e.cat == "opt"),
            "recording captured the run's spans"
        );
        // Lower bounds only (concurrent tests can add events to the
        // process-global recording, never remove them).
        let agg = vardelay_obs::aggregate(&rec);
        let exec = agg.phases.get("pool/exec").map_or(0, |p| p.count);
        assert!(
            exec >= units as u64,
            "pool/exec spans lost at {workers} workers: {exec} < {units}"
        );
        let pool = agg.phases.get("pool/worker").map_or(0, |p| p.count);
        let spawned = workers.min(units) as u64;
        assert!(
            pool >= spawned,
            "pool/worker spans lost at {workers} workers: {pool} < {spawned}"
        );
    }
}

#[test]
fn sweep_bytes_are_identical_with_and_without_tracing() {
    let sweep = small_sweep();
    let units = sweep.scenarios.len();
    assert_traced_equals_untraced(&sweep, units);
}

#[test]
fn campaign_bytes_are_identical_with_and_without_tracing() {
    let campaign = small_campaign();
    let units = campaign.runs.len();
    assert_traced_equals_untraced(&campaign, units);
}

/// Shard + resume under tracing: journal lines written while recording
/// merge to the same bytes as the untraced unsharded run.
#[test]
fn traced_shard_resume_merge_is_byte_identical() {
    let sweep = small_sweep();
    let unsharded = run_workload(&sweep, &WorkloadOptions::sequential())
        .expect("unsharded run")
        .to_json();

    let session = vardelay_obs::Session::start();
    let mut merged_lines = String::new();
    for i in 1..=2u64 {
        let shard = Shard::new(i, 2).unwrap();
        run_units(
            &sweep,
            &WorkloadOptions::sequential()
                .with_workers(8)
                .with_shard(shard),
            |_slot, id, result, _resumed| {
                merged_lines.push_str(&checkpoint_line(id, &result));
                merged_lines.push('\n');
                Ok(())
            },
        )
        .expect("shard run");
    }
    let ckpt: Checkpoint<<Sweep as Workload>::UnitResult> =
        Checkpoint::parse(&merged_lines).expect("traced journals parse");
    let merged = run_workload(&sweep, &WorkloadOptions::sequential().with_resume(&ckpt))
        .expect("merge run")
        .to_json();
    drop(session.finish());

    assert_eq!(
        merged, unsharded,
        "traced shard-merge must reproduce untraced bytes"
    );
}

/// The Chrome trace artifact parses as JSON; every complete event has a
/// non-negative duration; per-thread spans nest properly (a span that
/// starts inside another ends inside it too).
#[test]
fn trace_spans_are_well_formed_and_nest() {
    let sweep = small_sweep();
    let session = vardelay_obs::Session::start();
    run_workload(&sweep, &WorkloadOptions::sequential().with_workers(8)).expect("traced run");
    let rec = session.finish();
    assert_eq!(rec.dropped, 0, "tiny run cannot hit the event cap");

    // Exact nesting on the raw recording (ns precision): within a
    // thread, each span must end no later than every enclosing span.
    // `Recording` events are sorted so parents precede their children.
    let mut stacks: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    let mut spans = 0u64;
    for e in &rec.events {
        let EventKind::Span { dur_ns } = e.kind else {
            continue;
        };
        spans += 1;
        let start = e.t_ns;
        let end = e.t_ns + dur_ns;
        let stack = stacks.entry(e.tid).or_default();
        while let Some(&(_, open_end)) = stack.last() {
            if start >= open_end {
                stack.pop(); // that span closed before this one began
            } else {
                assert!(
                    end <= open_end,
                    "span [{start}, {end}] on tid {} overlaps its parent's end {open_end}",
                    e.tid
                );
                break;
            }
        }
        stack.push((start, end));
    }
    assert!(spans > 0, "the run recorded spans");

    // The serialized artifact is valid JSON with the expected shape.
    let trace = vardelay_obs::chrome_trace(&rec, "trace-invariance test");
    let v: serde::Value = serde_json::from_str(&trace).expect("trace is valid JSON");
    let Some(serde::Value::Array(events)) = v.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    assert!(!events.is_empty());
    for e in events {
        let ph = match e.get("ph") {
            Some(serde::Value::String(s)) => s.as_str(),
            _ => panic!("event without ph"),
        };
        if ph == "X" {
            let dur = match e.get("dur") {
                Some(serde::Value::Number(n)) => match *n {
                    serde::Number::F64(f) => f,
                    serde::Number::U64(u) => u as f64,
                    serde::Number::I64(i) => i as f64,
                },
                _ => panic!("X event without dur"),
            };
            assert!(dur >= 0.0, "negative duration in trace");
        }
    }
}

/// The metrics JSON carries the run accounting: phase table, trial
/// counters and executed-vs-resumed unit counts.
#[test]
fn metrics_json_reports_phases_and_unit_accounting() {
    let sweep = small_sweep();
    let session = vardelay_obs::Session::start();
    let stats = run_units(
        &sweep,
        &WorkloadOptions::sequential(),
        |_slot, _id, _result, _resumed| Ok(()),
    )
    .expect("traced run");
    let rec = session.finish();

    let agg = vardelay_obs::aggregate(&rec);
    assert!(agg.phase_ns("mc/block") > 0, "MC blocks were attributed");
    let expected_trials: u64 = 600 * stats.units as u64;
    assert!(
        agg.counter("trials") >= expected_trials,
        "trial counter covers the run ({} < {expected_trials})",
        agg.counter("trials")
    );

    let info = vardelay_obs::RunInfo {
        kind: "sweep",
        name: "t",
        workers: 1,
        simd_tier: vardelay_stats::simd::SimdTier::detected().name(),
        wall_ms: 12.5,
        units_total: stats.units,
        units_executed: stats.executed,
        units_resumed: stats.resumed,
        units_cached: stats.cached,
        torn_tail_normalized: false,
        steps: stats.steps,
    };
    let json = vardelay_obs::metrics_json(&info, &agg);
    let v: serde::Value = serde_json::from_str(&json).expect("metrics is valid JSON");
    let units = v.get("units").expect("units section");
    assert_eq!(
        units.get("executed"),
        Some(&serde::Value::Number(serde::Number::U64(
            stats.executed as u64
        )))
    );
    assert_eq!(
        units.get("resumed"),
        Some(&serde::Value::Number(serde::Number::U64(0)))
    );
    let phases = v.get("phases").expect("phases section");
    assert!(
        phases.get("mc/block{kernel=v1,plan=plain}").is_some(),
        "{json}"
    );
    assert!(phases.get("step/scenario").is_some(), "{json}");
}
