//! perfbench — the vardelay benchmark harness.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0` times the
//! release `vardelay` binary end to end on workload `W` and prints the
//! end-to-end metrics; `--trace 1` instead runs the traced per-layer pass
//! over the crates' public entry points and prints the per-layer
//! metrics. `perfbench selfcheck --workload W --seed N --seconds S --runs
//! K` runs two back-to-back sets of K end-to-end runs and reports whether
//! each metric's medians agree within the bound in `BENCHMARK.json`.
//!
//! The last line of standard output is always the result object
//! `{"correct", "attempted", "failed", "metrics"}`; diagnostics (raw
//! seconds, reference-loop seconds, host parallelism) come before it.

mod e2e;
mod measure;
mod results;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::{Number, Value};

use crate::measure::{median, quartiles, relative_spread};

/// Where the design record (reference-loop nominal, pinned digests,
/// workload and layer mapping) lives, relative to the checkout root.
const DESIGN: &str = "perfbench/design.json";
const CONTRACT: &str = "BENCHMARK.json";
/// Scratch space for generated specs, results and caches.
const WORK_DIR: &str = ".bench_work";

struct Args {
    selfcheck: bool,
    /// Host effective parallelism, measured before pinning.
    parallelism: f64,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let selfcheck = argv.first().is_some_and(|a| a == "selfcheck");
    if selfcheck {
        argv.remove(0);
    }
    let mut args = Args {
        selfcheck,
        parallelism: f64::NAN,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: 5,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--runs" if selfcheck => args.runs = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Number(Number::F64(x)) => Some(*x),
        Value::Number(Number::U64(x)) => Some(*x as f64),
        _ => None,
    }
}

/// The design record's pinned result digest for `(workload, seed)`, if
/// that seed is one of the recorded ones.
fn pinned_digest(design: &Value, workload: &str, seed: u64) -> Option<String> {
    match design
        .get("digests")?
        .get(workload)?
        .get(&seed.to_string())?
    {
        Value::String(s) => Some(s.clone()),
        _ => None,
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

fn list(values: impl Iterator<Item = f64>) -> String {
    let v: Vec<String> = values.map(json_num).collect();
    format!("[{}]", v.join(", "))
}

fn vardelay_bin() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("release").join("vardelay")
}

/// End-to-end metrics of one run, plus whether every check held.
struct E2eRun {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn e2e_run(args: &Args, design: &Value, seed: u64, work: &Path) -> Result<E2eRun, String> {
    let nominal = as_f64(design.get("ref_nominal_s")).ok_or("design: ref_nominal_s missing")?;
    let w = workloads::generate(&args.workload, seed).expect("workload name checked");
    let files = e2e::Files::new(work.to_path_buf());
    let bin = vardelay_bin();
    let run = e2e::run(&bin, &w, &files, args.seconds, nominal, args.parallelism)
        .map_err(|e| format!("{}: {e}", args.workload))?;
    let _ = std::fs::remove_dir_all(work);

    let pinned = pinned_digest(design, &args.workload, seed);
    let digest_ok = run.digest_workers2 == run.reference.digest
        && pinned.as_ref().is_none_or(|d| *d == run.reference.digest);
    let wall_s = run.wall_s();
    let gap = run.reference.yield_gap_pp;

    let mut diag = String::new();
    let _ = write!(
        diag,
        r#"{{"workload": "{}", "seed": {seed}, "ops": {}, "failed": {}, "digest": "{}", "digest_workers2": "{}", "digest_pinned": {}, "trials": {}, "host": {{"parallelism": {}, "ref_nominal_s": {nominal}, "ref_s": {}, "raw_wall_s": {}, "setup_ref_s": {}, "setup_raw_s": {}}}}}"#,
        args.workload,
        run.iterations.len(),
        run.failed(),
        run.reference.digest,
        run.digest_workers2,
        pinned.map_or("null".into(), |d| format!("\"{d}\"")),
        run.reference.trials,
        json_num(run.parallelism),
        list(run.iterations.iter().map(|i| i.ref_before_s)),
        list(run.iterations.iter().map(|i| i.raw_s)),
        list(run.setup.iter().map(|i| i.ref_before_s)),
        list(run.setup.iter().map(|i| i.raw_s)),
    );
    println!("{diag}");
    let metrics = vec![
        metric("wall_s", "s", wall_s),
        metric("setup_s", "s", run.setup_s()),
        metric(
            "trials_per_s",
            "trials/s",
            run.reference.trials as f64 / wall_s,
        ),
        metric("peak_rss_mb", "MiB", run.peak_rss_mib()),
        metric("yield_gap_pp", "pct-points", gap.unwrap_or(f64::NAN)),
    ];
    for m in &metrics {
        eprintln!("{:<14} {:>14.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{:<14} {:>14} (failed {})",
        "ops",
        run.iterations.len(),
        run.failed()
    );
    Ok(E2eRun {
        correct: digest_ok && run.failed() == 0 && gap.is_some() && run.reference.trials > 0,
        attempted: run.iterations.len(),
        failed: run.failed(),
        metrics,
    })
}

/// Two back-to-back sets of end-to-end runs; per metric, each set's
/// median and quartiles and whether the medians agree within the bound.
fn selfcheck(args: &Args, design: &Value, work: &Path) -> Result<bool, String> {
    let contract = read_json(CONTRACT)?;
    let bounds: Vec<(String, f64)> = match contract.get("end_to_end") {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|m| match m.get("name") {
                Some(Value::String(n)) => Some((n.clone(), as_f64(m.get("bound"))?)),
                _ => None,
            })
            .collect(),
        _ => return Err(format!("{CONTRACT}: no end_to_end list")),
    };
    let mut sets: Vec<Vec<E2eRun>> = Vec::new();
    for set in 0..2 {
        let mut runs = Vec::new();
        for k in 0..args.runs {
            let seed = args.seed + k as u64;
            eprintln!("selfcheck set {} run {} (seed {seed})", set + 1, k + 1);
            runs.push(e2e_run(args, design, seed, work)?);
        }
        sets.push(runs);
    }
    let mut all_ok = sets.iter().flatten().all(|r| r.correct);
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>7} | {:>12} {:>12} {:>12} {:>7} | {:>6} {:>6}",
        "metric", "med1", "q1_1", "q3_1", "iqr1", "med2", "q1_2", "q3_2", "iqr2", "bound", "agree"
    );
    for (name, bound) in &bounds {
        let values = |set: &Vec<E2eRun>| -> Vec<f64> {
            set.iter()
                .filter_map(|r| r.metrics.iter().find(|m| &m.name == name).map(|m| m.value))
                .collect()
        };
        let (a, b) = (values(&sets[0]), values(&sets[1]));
        let (ma, mb) = (median(&a), median(&b));
        let (a1, a3) = quartiles(&a);
        let (b1, b3) = quartiles(&b);
        let agree = ((mb - ma) / ma).abs() <= *bound;
        all_ok &= agree;
        println!(
            "{name:<14} {ma:>12.6} {a1:>12.6} {a3:>12.6} {:>7.4} | {mb:>12.6} {b1:>12.6} {b3:>12.6} {:>7.4} | {bound:>6} {:>6}",
            relative_spread(&a),
            relative_spread(&b),
            if agree { "yes" } else { "NO" }
        );
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Parallelism needs both CPUs, so it is measured before pinning.
    args.parallelism = measure::host_parallelism();
    match measure::pin_to_current_cpu() {
        Ok(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
        Err(e) => eprintln!("perfbench: running unpinned (timings are noisier): {e}"),
    }
    let design = match read_json(DESIGN) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = if args.selfcheck {
        selfcheck(&args, &design, &work).inspect(|&ok| {
            println!("selfcheck: {}", if ok { "steady" } else { "NOT steady" });
        })
    } else if args.trace {
        trace::run(
            &args.workload,
            args.seed,
            args.seconds,
            &design,
            &work,
            args.parallelism,
        )
        .map(|t| println!("{}", result_line(t.correct, t.attempted, 0, &t.metrics)))
        .map(|()| true)
    } else {
        e2e_run(&args, &design, args.seed, &work)
            .map(|r| {
                println!(
                    "{}",
                    result_line(r.correct, r.attempted, r.failed, &r.metrics)
                )
            })
            .map(|()| true)
    };
    let _ = std::fs::remove_dir_all(&work);
    // A printed result exits 0 even when `correct` is false (the result
    // line reports it); a selfcheck that is not steady exits 1.
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
