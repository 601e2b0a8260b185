//! What a `--metrics` file of a `vardelay optimize … --out --resume
//! --cache --workers 2` run attributes: one `spec/expand` span, one
//! `io/resume_parse` span valued at the journal's bytes, one
//! `io/cache_open` span, one `opt/resolve_target` span per distinct
//! baseline (the two runs share one, and the second to ask is counted
//! as a `cell/baseline_hit`, whether it found the cell filled or waited
//! for the other worker to fill it), one
//! `io/serialize` span per streamed unit, one `report/assemble` span and
//! one `io/aggregate` span whose value is the bytes of the `--out` file;
//! its run section, and the `vardelay report` header, name the SIMD tier
//! the kernels ran under. The run is a child process, so no other test's
//! spans reach its recording and the counts are exact.

use std::process::Command;

use serde::{Number, Value};

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Number(Number::U64(n))) => *n as f64,
        Some(Value::Number(Number::F64(x))) => *x,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn campaign_metrics_count_one_target_resolution_per_baseline_and_the_aggregate_write() {
    let mut campaign = vardelay_engine::OptimizationCampaign::example();
    campaign.grid = None;
    campaign.runs.truncate(2);
    for run in &mut campaign.runs {
        run.rounds = 1;
        run.verify_trials = 0;
        if let vardelay_opt::TargetDelayPolicy::FrontierQuantile { refine, .. } =
            &mut run.target_delay
        {
            *refine = 1;
        }
    }
    let dir = std::env::temp_dir().join(format!("vardelay-cli-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (spec, out, metrics, journal) = (
        dir.join("campaign.json"),
        dir.join("out.json"),
        dir.join("metrics.json"),
        dir.join("journal.jsonl"),
    );
    std::fs::write(&spec, campaign.to_json()).unwrap();
    // An empty journal: the resume parse runs and every unit executes.
    std::fs::write(&journal, "").unwrap();

    let run = Command::new(env!("CARGO_BIN_EXE_vardelay"))
        .arg("optimize")
        .arg(&spec)
        .arg("--out")
        .arg(&out)
        .arg("--metrics")
        .arg(&metrics)
        .arg("--resume")
        .arg(&journal)
        .arg("--cache")
        .arg(dir.join("cache"))
        .args(["--workers", "2"])
        .output()
        .expect("the binary runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let m: Value = serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let phases = m.get("phases").expect("phases section");
    let phase = |name: &str| {
        phases
            .get(name)
            .unwrap_or_else(|| panic!("no {name} phase"))
    };
    // The two runs differ only in their in-loop yield backend, so they
    // share one target resolution.
    assert_eq!(num(phase("opt/resolve_target").get("count")), 1.0);
    let counters = m.get("counters").expect("counters section");
    assert_eq!(num(counters.get("cell/baseline_hit")), 1.0);
    let expand = phase("spec/expand");
    assert_eq!(num(expand.get("count")), 1.0);
    assert_eq!(num(expand.get("value_sum")), 2.0, "units expanded");
    assert_eq!(num(phase("io/serialize").get("count")), 2.0);
    let resume = phase("io/resume_parse");
    assert_eq!(num(resume.get("count")), 1.0);
    assert_eq!(num(resume.get("value_sum")), 0.0, "the journal was empty");
    assert_eq!(num(phase("io/cache_open").get("count")), 1.0);
    assert_eq!(num(phase("report/assemble").get("count")), 1.0);
    let tier = match m.get("simd_tier") {
        Some(Value::String(t)) => t.clone(),
        other => panic!("simd_tier is not a string: {other:?}"),
    };
    assert_eq!(tier, vardelay_stats::simd::SimdTier::detected().name());
    assert!(["portable", "avx2-fma", "avx512"].contains(&tier.as_str()));
    let report = Command::new(env!("CARGO_BIN_EXE_vardelay"))
        .arg("report")
        .arg(&metrics)
        .output()
        .expect("the binary runs");
    assert!(report.status.success());
    let header = String::from_utf8_lossy(&report.stdout);
    let header = header.lines().next().unwrap_or_default();
    assert!(
        header.ends_with(&format!(", simd tier {tier})")),
        "{header}"
    );
    let aggregate = phase("io/aggregate");
    assert_eq!(num(aggregate.get("count")), 1.0);
    let bytes = std::fs::metadata(&out).unwrap().len();
    assert_eq!(num(aggregate.get("value_sum")), bytes as f64);
    std::fs::remove_dir_all(&dir).unwrap();
}
