//! `vardelay report` — phase breakdown of a `--trace`/`--metrics` file.
//!
//! Both observability artifacts carry the same story at different
//! granularity: the Chrome trace file (`--trace`) holds every span, the
//! metrics file (`--metrics`) holds the pre-aggregated per-phase sums.
//! This module renders either as one fixed-width table — wall time per
//! phase (count, total, mean, share of wall), trial throughput, worker
//! utilization, units executed vs resumed — so a campaign's time budget
//! can be read off a file instead of hand-timed.
//!
//! The file kind is sniffed from its top-level keys: `traceEvents`
//! (Chrome trace-event format) vs `phases` (the metrics schema of
//! [`vardelay_obs::metrics_json`]).

use std::collections::BTreeMap;

use serde::Value;

use crate::cli::CliError;

/// One phase row assembled from either file kind.
#[derive(Debug, Default, Clone, Copy)]
struct Phase {
    count: u64,
    total_ms: f64,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(match *n {
            serde::Number::U64(u) => u as f64,
            serde::Number::I64(i) => i as f64,
            serde::Number::F64(f) => f,
        }),
        _ => None,
    }
}

fn string(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn get_num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(num)
}

/// Renders the phase table shared by both inputs.
///
/// `wall_ms` is the run's wall clock; the share column is each phase's
/// total against it. Phases nest (`opt/flow` contains `opt/size_stage`
/// contains `opt/yield_eval`), so shares are a profile, not a partition
/// — they legitimately sum past 100%.
fn render(
    header: String,
    wall_ms: f64,
    phases: &BTreeMap<String, Phase>,
    counters: &BTreeMap<String, f64>,
    extra: &[String],
) -> String {
    let mut out = header;
    out.push('\n');
    let name_w = phases
        .keys()
        .map(|k| k.len())
        .chain(["phase".len()])
        .max()
        .unwrap_or(5);
    out.push_str(&format!(
        "\n{:<name_w$}  {:>9}  {:>12}  {:>11}  {:>6}\n",
        "phase", "count", "total ms", "mean us", "wall%"
    ));
    let mut rows: Vec<(&String, &Phase)> = phases.iter().collect();
    rows.sort_by(|a, b| {
        b.1.total_ms
            .partial_cmp(&a.1.total_ms)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (name, p) in rows {
        let mean_us = if p.count > 0 {
            1e3 * p.total_ms / p.count as f64
        } else {
            0.0
        };
        let share = if wall_ms > 0.0 {
            100.0 * p.total_ms / wall_ms
        } else {
            0.0
        };
        out.push_str(&format!(
            "{name:<name_w$}  {:>9}  {:>12.3}  {:>11.2}  {:>5.1}%\n",
            p.count, p.total_ms, mean_us, share
        ));
    }
    out.push_str(&format!(
        "\nwall time: {:.3} ms (phases nest, so shares can exceed 100%)\n",
        wall_ms
    ));
    for (name, v) in counters {
        out.push_str(&format!("counter {name}: {v}\n"));
        // Trial counters are per kernel version: "trials" is the v1
        // kernel, "trials_v3" the wide kernel. Each gets a wall-rate line
        // so per-kernel throughput is visible side by side.
        if matches!(name.as_str(), "trials" | "trials_v3") && wall_ms > 0.0 {
            out.push_str(&format!(
                "counter {name} rate: {:.0}/s of wall\n",
                *v / (wall_ms / 1e3)
            ));
        }
    }
    for line in extra {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Builds the table from a metrics file (`--metrics` schema).
fn from_metrics(v: &Value) -> Result<String, CliError> {
    let err = |what: &str| CliError(format!("metrics file: {what}"));
    let kind = v.get("kind").and_then(string).unwrap_or("run");
    let name = v.get("name").and_then(string).unwrap_or("?");
    let workers = get_num(v, "workers").unwrap_or(0.0);
    let wall_ms = get_num(v, "wall_ms").ok_or_else(|| err("missing wall_ms"))?;
    let mut phases = BTreeMap::new();
    if let Value::Object(fields) = v.field("phases").map_err(|e| err(&e.to_string()))? {
        for (pname, pv) in fields {
            phases.insert(
                pname.clone(),
                Phase {
                    count: get_num(pv, "count").unwrap_or(0.0) as u64,
                    total_ms: get_num(pv, "total_ms").unwrap_or(0.0),
                },
            );
        }
    }
    let mut counters = BTreeMap::new();
    if let Some(Value::Object(fields)) = v.get("counters") {
        for (cname, cv) in fields {
            if let Some(n) = num(cv) {
                counters.insert(cname.clone(), n);
            }
        }
    }
    let mut extra = Vec::new();
    if let Some(units) = v.get("units") {
        let cached = get_num(units, "cached").unwrap_or(0.0);
        extra.push(format!(
            "units: {} total, {} executed, {} resumed from journal{}{}",
            get_num(units, "total").unwrap_or(0.0),
            get_num(units, "executed").unwrap_or(0.0),
            get_num(units, "resumed").unwrap_or(0.0),
            if cached > 0.0 {
                format!(", {cached} from cache")
            } else {
                String::new()
            },
            if units.get("torn_tail_normalized") == Some(&Value::Bool(true)) {
                " (torn tail normalized)"
            } else {
                ""
            }
        ));
    }
    if let Some(cache) = v.get("cache") {
        let hits = get_num(cache, "hits").unwrap_or(0.0);
        let misses = get_num(cache, "misses").unwrap_or(0.0);
        // Cache-less runs carry an all-zero section; say nothing then.
        if hits + misses > 0.0 {
            extra.push(format!(
                "cache: {hits} hits, {misses} misses ({:.1}% hit rate), {} result bytes served from cache",
                100.0 * get_num(cache, "hit_rate").unwrap_or(0.0),
                get_num(cache, "bytes_saved").unwrap_or(0.0),
            ));
        }
    }
    if let Some(rate) = get_num(v, "trials_per_sec") {
        extra.push(format!("trials/s (recorded): {rate:.0}"));
    }
    if let Some(by_kernel) = v.get("trials_by_kernel") {
        let n = |k| get_num(by_kernel, k).unwrap_or(0.0);
        let (v1, v3) = (n("v1"), n("v3"));
        if v1 > 0.0 || v3 > 0.0 {
            extra.push(format!("trials by kernel: v1 {v1:.0}, v3 {v3:.0}"));
        }
    }
    if let Some(Value::Object(fields)) = v.get("trials_by_strategy") {
        // Only worth a line when some plan other than plain actually ran.
        let shaped: f64 = fields
            .iter()
            .filter(|(name, _)| name != "plain")
            .filter_map(|(_, n)| num(n))
            .sum();
        if shaped > 0.0 {
            let parts: Vec<String> = fields
                .iter()
                .filter_map(|(name, n)| num(n).map(|n| (name, n)))
                .filter(|&(_, n)| n > 0.0)
                .map(|(name, n)| format!("{name} {n:.0}"))
                .collect();
            extra.push(format!("trials by strategy: {}", parts.join(", ")));
        }
    }
    if let Some(ess) = get_num(v, "effective_samples") {
        // Present only for weighted (blockade) runs: raw trial count vs
        // the Kish effective sample size their weights amount to.
        extra.push(format!("effective sample size (weighted runs): {ess:.0}"));
    }
    if let Some(Value::Array(ws)) = v.get("worker_util") {
        for w in ws {
            extra.push(format!(
                "worker tid {}: busy {:.3} ms of {:.3} ms ({:.1}%)",
                get_num(w, "tid").unwrap_or(0.0),
                get_num(w, "busy_ms").unwrap_or(0.0),
                get_num(w, "lifetime_ms").unwrap_or(0.0),
                100.0 * get_num(w, "utilization").unwrap_or(0.0),
            ));
        }
    }
    let header = format!("{kind} '{name}' — metrics ({workers} workers)");
    Ok(render(header, wall_ms, &phases, &counters, &extra))
}

/// Builds the table from a Chrome trace file (`--trace` schema):
/// aggregates the complete (`"X"`) events by `cat/name`, takes the last
/// cumulative value of each `"C"` counter track, and measures wall time
/// as the span of all event timestamps.
fn from_trace(v: &Value) -> Result<String, CliError> {
    let err = |what: &str| CliError(format!("trace file: {what}"));
    let Value::Array(events) = v.field("traceEvents").map_err(|e| err(&e.to_string()))? else {
        return Err(err("traceEvents is not an array"));
    };
    let mut phases: BTreeMap<String, Phase> = BTreeMap::new();
    let mut counters: BTreeMap<String, f64> = BTreeMap::new();
    let mut t_min = f64::INFINITY;
    let mut t_max = f64::NEG_INFINITY;
    let mut process_name = None;
    for e in events {
        let ph = e.get("ph").and_then(string).unwrap_or("");
        match ph {
            "X" => {
                let cat = e.get("cat").and_then(string).unwrap_or("?");
                let name = e.get("name").and_then(string).unwrap_or("?");
                let ts = get_num(e, "ts").ok_or_else(|| err("X event without ts"))?;
                let dur = get_num(e, "dur").ok_or_else(|| err("X event without dur"))?;
                let p = phases.entry(format!("{cat}/{name}")).or_default();
                p.count += 1;
                p.total_ms += dur / 1e3;
                t_min = t_min.min(ts);
                t_max = t_max.max(ts + dur);
            }
            "C" => {
                let name = e.get("name").and_then(string).unwrap_or("?");
                // Counter tracks are cumulative; the last sample is the
                // total. Events are emitted in time order.
                if let Some(val) = e.get("args").and_then(|a| get_num(a, "value")) {
                    counters.insert(name.to_owned(), val);
                }
            }
            "i" => {
                if let Some(ts) = get_num(e, "ts") {
                    t_min = t_min.min(ts);
                    t_max = t_max.max(ts);
                }
            }
            "M" if e.get("name").and_then(string) == Some("process_name") => {
                process_name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(string)
                    .map(str::to_owned);
            }
            _ => {}
        }
    }
    let wall_ms = if t_max > t_min {
        (t_max - t_min) / 1e3
    } else {
        0.0
    };
    let header = format!(
        "{} — trace ({} spans)",
        process_name.as_deref().unwrap_or("trace"),
        phases.values().map(|p| p.count).sum::<u64>()
    );
    Ok(render(header, wall_ms, &phases, &counters, &[]))
}

/// `vardelay report <file>`: sniffs the file kind and prints the table.
///
/// # Errors
///
/// Returns a [`CliError`] when the file is not valid JSON or matches
/// neither the trace nor the metrics schema.
pub fn report_cmd(path: &str, text: &str) -> Result<String, CliError> {
    let v: Value = serde_json::from_str(text)
        .map_err(|e| CliError(format!("'{path}' is not valid JSON: {e}")))?;
    if v.get("traceEvents").is_some() {
        from_trace(&v)
    } else if v.get("phases").is_some() {
        from_metrics(&v)
    } else {
        Err(CliError(format!(
            "'{path}' is neither a trace (traceEvents) nor a metrics (phases) file"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_report_renders_phases_and_units() {
        let text = r#"{
            "kind": "campaign", "name": "t", "workers": 2, "wall_ms": 100.0,
            "units": {"total": 6, "executed": 2, "resumed": 1, "cached": 3, "torn_tail_normalized": true},
            "cache": {"hits": 3, "misses": 2, "hit_rate": 0.6, "bytes_saved": 420},
            "steps": 2, "trials": 6000,
            "trials_by_kernel": {"v1": 1000, "v3": 5000},
            "trials_by_strategy": {"plain": 5000, "antithetic": 0, "stratified": 0, "sobol": 0, "blockade": 1000},
            "effective_samples": 380,
            "trials_per_sec": 40000.0,
            "phases": {
                "mc/verify": {"count": 4, "total_ms": 60.0, "mean_us": 15000.0, "value_sum": 4000.0},
                "opt/size_stage": {"count": 9, "total_ms": 30.0, "mean_us": 3333.3, "value_sum": 90.0}
            },
            "counters": {"trials": 1000, "trials_v3": 5000},
            "worker_util": [{"tid": 1, "lifetime_ms": 100.0, "busy_ms": 90.0, "utilization": 0.9}],
            "events_dropped": 0
        }"#;
        let out = report_cmd("m.json", text).expect("valid metrics");
        assert!(out.contains("campaign 't'"), "{out}");
        assert!(out.contains("mc/verify"), "{out}");
        assert!(out.contains("60.000"), "{out}");
        assert!(
            out.contains("6 total, 2 executed, 1 resumed from journal, 3 from cache"),
            "{out}"
        );
        assert!(out.contains("torn tail normalized"), "{out}");
        assert!(
            out.contains("cache: 3 hits, 2 misses (60.0% hit rate), 420 result bytes"),
            "{out}"
        );
        assert!(out.contains("trials by kernel: v1 1000, v3 5000"), "{out}");
        assert!(
            out.contains("trials by strategy: plain 5000, blockade 1000"),
            "{out}"
        );
        assert!(
            out.contains("effective sample size (weighted runs): 380"),
            "{out}"
        );
        assert!(
            out.contains("counter trials rate: 10000/s of wall"),
            "{out}"
        );
        assert!(
            out.contains("counter trials_v3 rate: 50000/s of wall"),
            "{out}"
        );
        assert!(out.contains("worker tid 1"), "{out}");
        // mc/verify (60 ms) sorts above opt/size_stage (30 ms).
        let verify_at = out.find("mc/verify").expect("row");
        let size_at = out.find("opt/size_stage").expect("row");
        assert!(verify_at < size_at, "{out}");
    }

    #[test]
    fn trace_report_aggregates_x_events() {
        let text = r#"{"traceEvents": [
            {"name":"process_name","ph":"M","pid":1,"args":{"name":"vardelay sweep 's'"}},
            {"name":"block","cat":"mc","ph":"X","ts":0.0,"dur":1000.0,"pid":1,"tid":1},
            {"name":"block","cat":"mc","ph":"X","ts":1000.0,"dur":500.0,"pid":1,"tid":1},
            {"name":"trials","ph":"C","ts":1000.0,"pid":1,"args":{"value":256}},
            {"name":"trials","ph":"C","ts":1500.0,"pid":1,"args":{"value":512}}
        ]}"#;
        let out = report_cmd("t.json", text).expect("valid trace");
        assert!(out.contains("vardelay sweep 's'"), "{out}");
        assert!(out.contains("mc/block"), "{out}");
        // 2 spans, 1.5 ms total, last cumulative counter value 512.
        assert!(out.contains("1.500"), "{out}");
        assert!(out.contains("counter trials: 512"), "{out}");
    }

    #[test]
    fn unknown_schema_is_rejected() {
        assert!(report_cmd("x.json", "{}").is_err());
        assert!(report_cmd("x.json", "not json").is_err());
    }
}
