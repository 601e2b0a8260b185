//! Facts read back from result bytes: Monte-Carlo trial counts and the
//! analytic-vs-Monte-Carlo yield gap. Both are read from the JSON the
//! program wrote, never from its `--metrics` side channel.

use serde::{Number, Value};

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Number(Number::F64(x)) => Some(*x),
        Value::Number(Number::U64(x)) => Some(*x as f64),
        Value::Number(Number::I64(x)) => Some(*x as f64),
        _ => None,
    }
}

fn path<'a>(v: &'a Value, keys: &[&str]) -> Option<&'a Value> {
    keys.iter().try_fold(v, |v, k| v.get(k))
}

fn array(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Array(items)) => items,
        _ => &[],
    }
}

/// `(analytic, Monte-Carlo)` yield pairs: per target of every sweep
/// scenario that has both sides, and per design (optimized and
/// individually-optimized baseline) of every campaign run that was
/// verified.
fn yield_pairs(report: &Value) -> Vec<(f64, f64)> {
    let mut pairs = Vec::new();
    for s in array(report.get("scenarios")) {
        let model = array(path(s, &["analytic", "yields"]));
        let mc = array(path(s, &["mc", "yields"]));
        for (a, m) in model.iter().zip(mc) {
            if let (Some(a), Some(m)) = (a.get("value").and_then(num), m.get("value").and_then(num))
            {
                pairs.push((a, m));
            }
        }
    }
    for r in array(report.get("runs")) {
        let designs = [
            (r.get("analytic_yield_after"), path(r, &["mc", "value"])),
            (
                path(r, &["individual", "analytic_yield"]),
                path(r, &["individual", "mc", "value"]),
            ),
        ];
        for (a, m) in designs {
            if let (Some(a), Some(m)) = (a.and_then(num), m.and_then(num)) {
                pairs.push((a, m));
            }
        }
    }
    pairs
}

/// Mean |analytic yield − Monte-Carlo yield| in percentage points over
/// every pair the report holds; `None` when it holds no pair.
pub fn yield_gap_pp(report: &Value) -> Option<f64> {
    let pairs = yield_pairs(report);
    (!pairs.is_empty())
        .then(|| 100.0 * pairs.iter().map(|(a, m)| (a - m).abs()).sum::<f64>() / pairs.len() as f64)
}

/// Monte-Carlo trials the report accounts for: every sweep scenario's
/// `mc.trials`, and every campaign run's verification trials for both
/// designs.
pub fn mc_trials(report: &Value) -> u64 {
    let count = |v: Option<&Value>| v.and_then(num).map_or(0, |x| x as u64);
    let sweep: u64 = array(report.get("scenarios"))
        .iter()
        .map(|s| count(path(s, &["mc", "trials"])))
        .sum();
    let campaign: u64 = array(report.get("runs"))
        .iter()
        .map(|r| {
            count(path(r, &["mc", "trials"])) + count(path(r, &["individual", "mc", "trials"]))
        })
        .sum();
    sweep + campaign
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).expect("test JSON parses")
    }

    #[test]
    fn sweep_gap_pairs_targets_and_skips_model_only_scenarios() {
        let report = parse(
            r#"{"name":"s","seed":1,"scenarios":[
              {"analytic":{"yields":[{"target_ps":1.0,"value":0.80},{"target_ps":2.0,"value":0.90}]},
               "mc":{"trials":512,"yields":[{"target_ps":1.0,"value":0.75},{"target_ps":2.0,"value":0.93}]}},
              {"analytic":{"yields":[{"target_ps":1.0,"value":0.5}]}},
              {"analytic":{"yields":[{"target_ps":1.0,"value":0.6}]},"mc":null}
            ]}"#,
        );
        // (5 + 3) / 2 percentage points.
        assert!((yield_gap_pp(&report).unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(mc_trials(&report), 512);
    }

    #[test]
    fn campaign_gap_covers_both_designs_when_verified() {
        let report = parse(
            r#"{"name":"c","seed":1,"runs":[
              {"analytic_yield_after":0.82,"mc":{"trials":4096,"value":0.80},
               "individual":{"analytic_yield":0.86,"mc":{"trials":4096,"value":0.84}}},
              {"analytic_yield_after":0.9,"mc":null,
               "individual":{"analytic_yield":0.9,"mc":null}}
            ]}"#,
        );
        assert!((yield_gap_pp(&report).unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(mc_trials(&report), 8192);
    }

    #[test]
    fn no_pairs_means_no_gap() {
        let report = parse(r#"{"name":"s","seed":1,"scenarios":[]}"#);
        assert_eq!(yield_gap_pp(&report), None);
        assert_eq!(mc_trials(&report), 0);
    }
}
