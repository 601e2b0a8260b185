//! The sweep and campaign spec wire format, one row per spec object.
//!
//! Every object rejects a typo'd key (naming it and the full valid-key
//! list) and a duplicated key (naming it), omits each defaulted field
//! while it holds its default, and round-trips that field when it does
//! not — the rules that keep old specs' bytes, and with them their
//! content-hash IDs, stable.

use std::fmt::Debug;

use serde::{Deserialize, Serialize, Value};
use vardelay_engine::optimize::{DEFAULT_EVAL_TRIALS, DEFAULT_ROUNDS, DEFAULT_VERIFY_TRIALS};
use vardelay_engine::{
    BackendSpec, CircuitSpec, KernelSpec, OptimizationCampaign, StrategySpec, Sweep, TrialPlanSpec,
    YieldBackendSpec,
};

/// One spec object under test.
struct Case<T> {
    /// `T` with every defaulted field of the object at its default.
    defaults: T,
    /// `T` with every defaulted field of the object off its default.
    set: T,
    /// Where the object sits inside `T`'s serialized form.
    path: &'static [&'static str],
    /// Every valid key, in wire order.
    keys: &'static [&'static str],
    /// The keys omitted while their field holds its default.
    defaulted: &'static [&'static str],
    /// Keys that are always written but may be left out on read, each
    /// with the JSON value an absent key reads as.
    omissible: &'static [(&'static str, &'static str)],
}

fn object_at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Vec<(String, Value)> {
    let mut v = v;
    for key in path {
        let Value::Object(fields) = v else {
            panic!("no object at `{key}`")
        };
        v = &mut fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("path key")
            .1;
    }
    match v {
        Value::Object(fields) => fields,
        other => panic!("expected an object at {path:?}, found {other:?}"),
    }
}

fn keys_at(mut v: Value, path: &[&str]) -> Vec<String> {
    object_at(&mut v, path)
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn parse_err<T: Deserialize + Debug>(v: &Value) -> String {
    T::from_value(v).expect_err("must be rejected").to_string()
}

fn check<T: Serialize + Deserialize + PartialEq + Debug>(name: &str, case: Case<T>) {
    let omitting = |extra: &[&str]| -> Vec<String> {
        case.keys
            .iter()
            .filter(|k| !case.defaulted.contains(k) || extra.contains(k))
            .map(|k| (*k).to_owned())
            .collect()
    };
    // Defaults are omitted on write and restored on read.
    let defaults = case.defaults.to_value();
    assert_eq!(
        keys_at(defaults.clone(), case.path),
        omitting(&[]),
        "{name}"
    );
    assert_eq!(T::from_value(&defaults).unwrap(), case.defaults, "{name}");
    // Off-default fields are written, in wire order, and round-trip.
    let set = case.set.to_value();
    assert_eq!(keys_at(set.clone(), case.path), case.keys, "{name}");
    assert_eq!(T::from_value(&set).unwrap(), case.set, "{name}");
    let set_fields = object_at(&mut set.clone(), case.path).clone();
    // Each defaulted field on its own: it round-trips, the rest stay out.
    for &key in case.defaulted {
        let mut one = defaults.clone();
        let value = set_fields.iter().find(|(k, _)| k == key).unwrap().1.clone();
        object_at(&mut one, case.path).push((key.to_owned(), value));
        let back = T::from_value(&one).unwrap().to_value();
        assert_eq!(keys_at(back, case.path), omitting(&[key]), "{name}.{key}");
    }
    // An absent omissible key reads as its empty value and is written
    // back.
    for &(key, empty) in case.omissible {
        let mut absent = set.clone();
        object_at(&mut absent, case.path).retain(|(k, _)| k != key);
        let mut emptied = set.clone();
        object_at(&mut emptied, case.path)
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("omissible key is written")
            .1 = serde_json::from_str(empty).unwrap();
        let read = T::from_value(&absent).unwrap();
        assert_eq!(read, T::from_value(&emptied).unwrap(), "{name}.{key}");
        assert_eq!(
            keys_at(read.to_value(), case.path),
            case.keys,
            "{name}.{key}"
        );
    }
    let expected = format!("(expected one of {})", case.keys.join(", "));
    for i in 0..set_fields.len() {
        let key = set_fields[i].0.clone();
        // A typo'd key fails with that key and the full valid-key list.
        let mut typo = set.clone();
        object_at(&mut typo, case.path)[i].0 = format!("{key}_x");
        let err = parse_err::<T>(&typo);
        assert!(err.contains(&format!("`{key}_x`")), "{name}: {err}");
        assert!(err.contains(&expected), "{name}: {err}");
        // A second copy of any key fails too, instead of first-wins.
        let mut dup = set.clone();
        let fields = object_at(&mut dup, case.path);
        fields.push(fields[i].clone());
        let err = parse_err::<T>(&dup);
        assert!(
            err.contains(&format!("duplicate field `{key}`")),
            "{name}: {err}"
        );
    }
}

#[test]
fn every_spec_object_follows_the_key_rules() {
    let sweep = Sweep::example();
    check(
        "Sweep",
        Case {
            defaults: sweep.clone(),
            set: sweep.clone(),
            path: &[],
            keys: &["name", "seed", "scenarios", "grid"],
            defaulted: &[],
            omissible: &[("scenarios", "[]"), ("grid", "null")],
        },
    );

    let scenario = sweep.scenarios[1].clone();
    let mut scenario_set = scenario.clone();
    scenario_set.backend = BackendSpec::Netlist;
    scenario_set.kernel = KernelSpec::V3;
    scenario_set.histogram_bins = 16;
    check(
        "Scenario",
        Case {
            defaults: scenario.clone(),
            set: scenario_set,
            path: &[],
            keys: &[
                "label",
                "pipeline",
                "variation",
                "trials",
                "yield_targets",
                "auto_target_sigmas",
                "backend",
                "kernel",
                "histogram_bins",
            ],
            defaulted: &["backend", "kernel", "histogram_bins"],
            omissible: &[],
        },
    );

    let grid = sweep.grid.clone().unwrap();
    let mut grid_set = grid.clone();
    grid_set.backend = BackendSpec::Analytic;
    grid_set.kernel = KernelSpec::V3;
    grid_set.histogram_bins = 8;
    check(
        "GridSpec",
        Case {
            defaults: grid,
            set: grid_set,
            path: &[],
            keys: &[
                "stage_counts",
                "logic_depths",
                "sizes",
                "variations",
                "latch",
                "trials",
                "yield_targets",
                "auto_target_sigmas",
                "backend",
                "kernel",
                "histogram_bins",
            ],
            defaulted: &["backend", "kernel", "histogram_bins"],
            omissible: &[],
        },
    );

    // A non-default plan widens `trials` to an object with its own keys.
    let mut trials = scenario.clone();
    trials.trial_plan.strategy = StrategySpec::Blockade;
    let mut trials_set = trials.clone();
    trials_set.trial_plan.shift_sigmas = Some(2.0);
    trials_set.trial_plan.ci_half_width = Some(0.01);
    check(
        "trials",
        Case {
            defaults: trials,
            set: trials_set,
            path: &["trials"],
            keys: &["count", "strategy", "shift_sigmas", "ci_half_width"],
            defaulted: &["shift_sigmas", "ci_half_width"],
            omissible: &[],
        },
    );

    let campaign = OptimizationCampaign::example();
    check(
        "OptimizationCampaign",
        Case {
            defaults: campaign.clone(),
            set: campaign.clone(),
            path: &[],
            keys: &["name", "seed", "runs", "grid"],
            defaulted: &[],
            omissible: &[("runs", "[]"), ("grid", "null")],
        },
    );

    let mut run = campaign.runs[0].clone();
    run.rounds = DEFAULT_ROUNDS;
    let mut run_set = run.clone();
    run_set.rounds = 3;
    run_set.yield_backend = YieldBackendSpec::Netlist;
    run_set.kernel = KernelSpec::V3;
    run_set.eval_trials = 1_024;
    run_set.verify_trials = 100;
    check(
        "OptimizeSpec",
        Case {
            defaults: run.clone(),
            set: run_set,
            path: &[],
            keys: &[
                "label",
                "pipeline",
                "variation",
                "yield_target",
                "target_delay",
                "goal",
                "rounds",
                "yield_backend",
                "kernel",
                "eval_trials",
                "verify_trials",
            ],
            defaulted: &[
                "rounds",
                "yield_backend",
                "kernel",
                "eval_trials",
                "verify_trials",
            ],
            omissible: &[],
        },
    );

    let mut run_grid = campaign.grid.clone().unwrap();
    run_grid.rounds = DEFAULT_ROUNDS;
    run_grid.eval_trials = DEFAULT_EVAL_TRIALS;
    run_grid.verify_trials = DEFAULT_VERIFY_TRIALS;
    let mut run_grid_set = run_grid.clone();
    run_grid_set.rounds = 2;
    run_grid_set.yield_backend = YieldBackendSpec::Netlist;
    run_grid_set.kernel = KernelSpec::V3;
    run_grid_set.eval_trials = 512;
    run_grid_set.verify_trials = 8_192;
    check(
        "OptimizeGridSpec",
        Case {
            defaults: run_grid,
            set: run_grid_set,
            path: &[],
            keys: &[
                "pipelines",
                "yield_targets",
                "target_delays",
                "goals",
                "variations",
                "rounds",
                "yield_backend",
                "kernel",
                "eval_trials",
                "verify_trials",
            ],
            defaulted: &[
                "rounds",
                "yield_backend",
                "kernel",
                "eval_trials",
                "verify_trials",
            ],
            omissible: &[],
        },
    );

    let random = CircuitSpec::Random {
        seed: 7,
        inputs: 16,
        gates: 120,
        depth: 9,
        outputs: 8,
    };
    check(
        "CircuitSpec::Random",
        Case {
            defaults: random.clone(),
            set: random,
            path: &["Random"],
            keys: &["seed", "inputs", "gates", "depth", "outputs"],
            defaulted: &[],
            omissible: &[],
        },
    );

    // `verify_trials` is omitted only when the count is the default AND
    // the plan is plain: a plan alone keeps the key, as an object.
    assert_eq!(run.verify_trials, DEFAULT_VERIFY_TRIALS);
    let mut plan_only = run;
    plan_only.verify_plan = TrialPlanSpec {
        strategy: StrategySpec::Antithetic,
        ..TrialPlanSpec::default()
    };
    let json = serde_json::to_string(&plan_only).unwrap();
    assert!(
        json.contains(r#""verify_trials":{"count":4096,"strategy":"antithetic"}"#),
        "{json}"
    );
    let back: vardelay_engine::OptimizeSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back, plan_only);

    // The smallest specs: no grid, and no list either.
    let bare = Sweep::from_json(r#"{"name":"x","seed":1,"scenarios":[]}"#).unwrap();
    assert_eq!((bare.scenarios.len(), bare.grid), (0, None));
    let bare = OptimizationCampaign::from_json(r#"{"name":"x","seed":1}"#).unwrap();
    assert_eq!((bare.runs.len(), bare.grid), (0, None));
}

#[test]
fn a_duplicated_trials_key_is_rejected_not_first_wins() {
    // `Value::get` takes the first occurrence, so without the duplicate
    // check this spec would quietly run 100 trials.
    let json = r#"{"name": "dup", "seed": 1, "grid": null, "scenarios": [{
        "label": "s", "trials": 100,
        "pipeline": {"Moments": {"stages": [{"mu_ps": 100.0, "sigma_ps": 5.0}], "rho": 0.0}},
        "variation": "Nominal", "yield_targets": [], "auto_target_sigmas": [],
        "trials": 5000000}]}"#;
    let err = Sweep::from_json(json).unwrap_err().to_string();
    assert!(err.contains("duplicate field `trials`"), "{err}");
    let single = json.replace(r#""trials": 100,"#, "");
    assert_eq!(
        Sweep::from_json(&single).unwrap().scenarios[0].trials,
        5_000_000
    );
}

#[test]
fn ascii_escaped_specs_parse_like_utf8_ones() {
    // Python's `json.dumps` escapes every non-ASCII character by
    // default, writing non-BMP ones as UTF-16 surrogate pairs.
    let mut sweep = Sweep::example();
    sweep.scenarios[0].label = "µ-pipeline 😀".to_owned();
    let ascii: String = sweep
        .to_json()
        .chars()
        .map(|c| match c {
            c if c.is_ascii() => c.to_string(),
            c => c
                .encode_utf16(&mut [0; 2])
                .iter()
                .map(|u| format!("\\u{u:04x}"))
                .collect(),
        })
        .collect();
    assert!(
        ascii.contains(r#""\u00b5-pipeline \ud83d\ude00""#),
        "{ascii}"
    );
    assert_eq!(Sweep::from_json(&ascii).unwrap(), sweep);

    // A JSON number has no leading `+`; the error says so instead of
    // blaming the field's type.
    let plus = ascii.replacen("\"seed\": 7", "\"seed\": +7", 1);
    let err = Sweep::from_json(&plus).unwrap_err().to_string();
    assert!(err.contains("invalid number `+7`"), "{err}");
}

/// Round-trips every keyword of a `keyword_enum!` type and checks its
/// keyword list and both parse errors.
macro_rules! check_keywords {
    ($t:ty, $list:literal, $what:literal) => {{
        assert_eq!(<$t>::keyword_list(), $list);
        let keywords: Vec<&str> = <$t>::ALL.iter().map(|k| k.keyword()).collect();
        assert_eq!(keywords.join("|"), $list);
        for k in <$t>::ALL {
            let v = k.to_value();
            assert_eq!(v, Value::String(k.keyword().to_owned()));
            assert_eq!(<$t>::from_value(&v).unwrap(), k);
        }
        let err = parse_err::<$t>(&Value::String("spice".to_owned()));
        assert_eq!(
            err,
            concat!("unknown ", $what, " 'spice' (use ", $list, ")")
        );
        let err = parse_err::<$t>(&Value::Bool(true));
        assert_eq!(err, concat!($what, " must be a string"));
    }};
}

#[test]
fn keyword_enums_roundtrip_and_list_their_keywords() {
    check_keywords!(BackendSpec, "pipeline|netlist|analytic", "backend");
    check_keywords!(KernelSpec, "v1|v3", "kernel");
    // The retired v2 kernel fails at parse wherever a spec can name a
    // kernel: a sweep scenario and grid, a campaign run and grid.
    let v2 = |spec: &mut Value, list: &str| {
        let mut at = &mut object_at(spec, &[])
            .iter_mut()
            .find(|(k, _)| k == list)
            .expect("spec has the list")
            .1;
        if let Value::Array(items) = at {
            at = &mut items[0];
        }
        let Value::Object(fields) = at else {
            panic!("no object under `{list}`")
        };
        fields.retain(|(k, _)| k != "kernel");
        fields.push(("kernel".to_owned(), Value::String("v2".to_owned())));
    };
    let retired = "unknown kernel 'v2' (use v1|v3)";
    for list in ["scenarios", "grid"] {
        let mut spec = Sweep::example().to_value();
        v2(&mut spec, list);
        let err = parse_err::<Sweep>(&spec);
        assert!(err.contains(retired), "sweep {list}: {err}");
    }
    for list in ["runs", "grid"] {
        let mut spec = OptimizationCampaign::example().to_value();
        v2(&mut spec, list);
        let err = parse_err::<OptimizationCampaign>(&spec);
        assert!(err.contains(retired), "campaign {list}: {err}");
    }
    check_keywords!(
        StrategySpec,
        "plain|antithetic|stratified|sobol|blockade",
        "trial strategy"
    );
    check_keywords!(YieldBackendSpec, "analytic|netlist", "yield backend");
}
