//! Workload generators. Every spec the program sees is written here from
//! a seed: the seed namespaces the spec's Monte-Carlo streams, while the
//! shape of the work (circuits, trial budgets, unit counts) is fixed, so
//! any two seeds cost the same to run and time comparably.

/// Which `vardelay` subcommand runs a workload's spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sweep,
    Optimize,
}

impl Kind {
    pub fn subcommand(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Optimize => "optimize",
        }
    }
}

/// One generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    /// The spec every timed iteration runs.
    pub spec: String,
    /// When set, set-up runs this spec once into a result cache that
    /// every timed iteration starts from (a fresh copy each time) with
    /// `--cache` and `--checkpoint`.
    pub prefill: Option<String>,
}

pub const NAMES: [&str; 3] = ["sweep-mc", "campaign", "grid-refine"];

/// Builds workload `name` for `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    // Keep spec seeds well away from the small integers a user passes.
    let spec_seed = 0x5eed_0000_0000 ^ (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16);
    match name {
        "sweep-mc" => Some(Workload {
            kind: Kind::Sweep,
            spec: sweep_mc(spec_seed),
            prefill: None,
        }),
        "campaign" => Some(Workload {
            kind: Kind::Optimize,
            spec: campaign(spec_seed),
            prefill: None,
        }),
        "grid-refine" => {
            let (refined, unrefined) = grid_refine(spec_seed);
            Some(Workload {
                kind: Kind::Sweep,
                spec: refined,
                prefill: Some(unrefined),
            })
        }
        _ => None,
    }
}

const COMBINED: &str = r#"{"Combined":{"inter_mv":20.0,"random_mv":35.0,"systematic_mv":15.0}}"#;
const RANDOM35: &str = r#"{"RandomOnly":{"sigma_mv":35.0}}"#;

fn circuits(stages: &[&str], latch: &str) -> String {
    format!(
        r#"{{"Circuits":{{"stages":[{}],"latch":"{latch}"}}}}"#,
        stages.join(",")
    )
}

fn inverter_grid(stages: usize, depth: usize, size: f64) -> String {
    format!(
        r#"{{"InverterGrid":{{"stages":{stages},"depth":{depth},"size":{size:?},"latch":"TgMsff70nm"}}}}"#
    )
}

/// One sweep scenario. `trials` is the JSON trial value (a count, or an
/// object naming a trial plan).
fn scenario(
    label: &str,
    pipeline: &str,
    variation: &str,
    trials: &str,
    backend: &str,
    kernel: &str,
) -> String {
    format!(
        r#"{{"label":"{label}","pipeline":{pipeline},"variation":{variation},"trials":{trials},"yield_targets":[],"auto_target_sigmas":[0.0,0.6,1.2,1.8],"backend":"{backend}","kernel":"{kernel}"}}"#
    )
}

fn sweep(name: &str, seed: u64, scenarios: &[String]) -> String {
    format!(
        r#"{{"name":"{name}","seed":{seed},"scenarios":[{}],"grid":null}}"#,
        scenarios.join(",")
    )
}

/// Trial budget of each gate-level scenario's v1 twin; its v3 twin runs
/// `V3_OVER_V1` times as many so each kernel takes about half the time.
const V1_TRIALS: u64 = 4_096;
const V3_OVER_V1: u64 = 6;

/// Large-budget gate-level Monte Carlo: the trial layers (normal fill,
/// process model, prepared kernel and block fold) do nearly all the work.
fn sweep_mc(seed: u64) -> String {
    let pipelines = [
        ("inverter grid 6x12", inverter_grid(6, 12, 1.0)),
        (
            "alu-decoder-alu",
            circuits(
                &[
                    r#"{"Alu1":{"width":16}}"#,
                    r#"{"Decoder":{"bits":4}}"#,
                    r#"{"Alu2":{"width":16}}"#,
                ],
                "TgMsff70nm",
            ),
        ),
        (
            "iscas c432",
            circuits(&[r#"{"Iscas":{"name":"c432"}}"#], "Ideal"),
        ),
        (
            "random logic 2-stage",
            circuits(
                &[
                    r#"{"Random":{"seed":7,"inputs":16,"gates":120,"depth":9,"outputs":8}}"#,
                    r#"{"Random":{"seed":8,"inputs":16,"gates":150,"depth":11,"outputs":8}}"#,
                ],
                "TgMsff70nm",
            ),
        ),
    ];
    let mut scenarios = Vec::new();
    for (label, pipe) in &pipelines {
        let v1 = V1_TRIALS.to_string();
        let v3 = (V1_TRIALS * V3_OVER_V1).to_string();
        scenarios.push(scenario(
            &format!("{label} v1"),
            pipe,
            COMBINED,
            &v1,
            "netlist",
            "v1",
        ));
        scenarios.push(scenario(
            &format!("{label} v3"),
            pipe,
            COMBINED,
            &v3,
            "netlist",
            "v3",
        ));
    }
    let plan = |strategy: &str| {
        format!(
            r#"{{"count":{},"strategy":"{strategy}"}}"#,
            V1_TRIALS * V3_OVER_V1
        )
    };
    let (grid_label, grid) = &pipelines[0];
    let (alu_label, alu) = &pipelines[1];
    scenarios.push(scenario(
        &format!("{alu_label} v3 stratified"),
        alu,
        COMBINED,
        &plan("stratified"),
        "netlist",
        "v3",
    ));
    scenarios.push(scenario(
        &format!("{grid_label} v3 blockade"),
        grid,
        COMBINED,
        &plan("blockade"),
        "netlist",
        "v3",
    ));
    sweep("perfbench-sweep-mc", seed, &scenarios)
}

/// A Fig. 9 campaign on kernel v3: balanced and imbalanced stage-depth
/// mixes × both goals × 80/90% yield targets × analytic and netlist
/// in-loop yield, each verified with a fixed plain budget.
fn campaign(seed: u64) -> String {
    let mixes = [("balanced", "[9,9,9,9]"), ("imbalanced", "[12,9,7,6]")];
    let goals = [("ensure", "EnsureYield"), ("min-area", "MinimizeArea")];
    let backends = ["analytic", "netlist"];
    let mut runs = Vec::new();
    for (mix, depths) in mixes {
        for (goal_label, goal) in goals {
            for target in [0.8, 0.9] {
                for backend in backends {
                    runs.push(format!(
                        r#"{{"label":"{mix} {goal_label} y{pct} {backend}","pipeline":{{"InverterStages":{{"depths":{depths},"size":1.0,"latch":"TgMsff70nm"}}}},"variation":{RANDOM35},"yield_target":{target:?},"target_delay":{{"FrontierQuantile":{{"q":0.9,"refine":1}}}},"goal":"{goal}","rounds":2,"yield_backend":"{backend}","kernel":"v3","eval_trials":1024,"verify_trials":4096}}"#,
                        pct = (target * 100.0) as u32,
                    ));
                }
            }
        }
    }
    format!(
        r#"{{"name":"perfbench-campaign","seed":{seed},"runs":[{}],"grid":null}}"#,
        runs.join(",")
    )
}

/// Stage counts of the refined grid; the unrefined grid (the cache's
/// contents before the run) lacks `INSERTED_STAGES`, so about a fifth of
/// the units execute and the rest splice from the cache.
const GRID_STAGES: [usize; 5] = [3, 4, 5, 6, 8];
const INSERTED_STAGES: usize = 5;
const GRID_DEPTHS: [usize; 7] = [6, 8, 10, 12, 14, 16, 20];
const GRID_SIZES: [f64; 2] = [1.0, 2.0];

/// A wide refined grid of small v3 scenarios plus analytic twins (the
/// per-unit layers dominate), and the unrefined grid that pre-fills the
/// cache.
fn grid_refine(seed: u64) -> (String, String) {
    let variations = [("rand35", RANDOM35), ("combined", COMBINED)];
    let mut refined = Vec::new();
    let mut unrefined = Vec::new();
    for ns in GRID_STAGES {
        for nl in GRID_DEPTHS {
            for size in GRID_SIZES {
                for (vlabel, variation) in variations {
                    let pipe = inverter_grid(ns, nl, size);
                    let label = format!("{ns}x{nl} s{size:?} {vlabel}");
                    let pair = [
                        scenario(
                            &format!("{label} mc"),
                            &pipe,
                            variation,
                            "256",
                            "netlist",
                            "v3",
                        ),
                        scenario(
                            &format!("{label} model"),
                            &pipe,
                            variation,
                            "0",
                            "analytic",
                            "v3",
                        ),
                    ];
                    if ns != INSERTED_STAGES {
                        unrefined.extend(pair.iter().cloned());
                    }
                    refined.extend(pair);
                }
            }
        }
    }
    (
        sweep("perfbench-grid-refine", seed, &refined),
        sweep("perfbench-grid-refine", seed, &unrefined),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_specs_and_seeds_differ() {
        for name in NAMES {
            let a = generate(name, 3).unwrap();
            let b = generate(name, 3).unwrap();
            let c = generate(name, 4).unwrap();
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.prefill, b.prefill);
            assert_ne!(a.spec, c.spec, "{name}: the seed must reach the spec");
        }
        assert!(generate("nope", 1).is_none());
    }

    #[test]
    fn specs_parse_and_have_the_documented_shape() {
        let sweep =
            vardelay_engine::Sweep::from_json(&generate("sweep-mc", 1).unwrap().spec).unwrap();
        assert_eq!(sweep.expand().len(), 10);
        let camp = vardelay_engine::OptimizationCampaign::from_json(
            &generate("campaign", 1).unwrap().spec,
        )
        .unwrap();
        assert_eq!(camp.expand().len(), 16);
        let grid = generate("grid-refine", 1).unwrap();
        let refined = vardelay_engine::Sweep::from_json(&grid.spec)
            .unwrap()
            .expand()
            .len();
        let unrefined = vardelay_engine::Sweep::from_json(grid.prefill.as_deref().unwrap())
            .unwrap()
            .expand()
            .len();
        assert_eq!(refined, 280);
        assert_eq!(unrefined, 224);
    }
}
