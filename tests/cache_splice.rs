//! The journal and `--out` lines of a `--cache` run splice the cache's
//! bytes: a hit's line carries its stored record's payload, an executed
//! unit's line the string its new record was encoded to. This pins that
//! the splice changes no byte, on a fully warm spec (every unit a hit)
//! and a half-warm, refined one (the grid gains a stage count, so only
//! the new points execute):
//!
//! * `--out` is byte-identical to the cold run's at `--workers 1` and 8;
//! * at `--workers 1` the journal is byte-identical to the one a sink
//!   that encodes every typed result with `checkpoint_line` writes for
//!   the same cache, and every line is `checkpoint_line(id, &parsed)`;
//! * with `--resume` and `--cache` together, a unit in both sinks once,
//!   from the journal.
//!
//! Labels carry quotes, a backslash, a tab and non-ASCII text, so the
//! string writer's escapes are on the path.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Number, Value};
use vardelay_cache::{ResultStore, UnitCache};
use vardelay_engine::{
    checkpoint_line, run_units, split_checkpoint_line, KernelSpec, ScenarioResult, Sweep,
    WorkloadOptions,
};

/// A small v3 sweep: two explicit scenarios and an 8-point grid over
/// `stage_counts`.
fn sweep(stage_counts: Vec<usize>) -> Sweep {
    let mut sweep = Sweep::example();
    sweep.scenarios[0].label = "moments \"quoted\" é".to_owned();
    sweep.scenarios[1].label = "5xvar back\\slash\ttab €".to_owned();
    for s in &mut sweep.scenarios {
        s.trials = 256;
        s.kernel = KernelSpec::V3;
    }
    let grid = sweep.grid.as_mut().expect("the example has a grid");
    grid.stage_counts = stage_counts;
    grid.logic_depths = vec![5, 8];
    grid.trials = 256;
    grid.kernel = KernelSpec::V3;
    sweep
}

/// `vardelay sweep <spec> --workers <w>` plus `extra` flags; must
/// succeed.
fn sweep_run(spec: &Path, workers: usize, extra: &[(&str, &Path)]) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vardelay"));
    cmd.arg("sweep")
        .arg(spec)
        .args(["--workers", &workers.to_string()]);
    for (flag, path) in extra {
        cmd.arg(flag).arg(path);
    }
    let out = cmd.output().expect("the binary runs");
    assert!(
        out.status.success(),
        "{extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every journal line is the `checkpoint_line` of its parsed result;
/// returns the lines' unit keys in order.
fn lines_reencode_exactly(journal: &str) -> Vec<u64> {
    journal
        .lines()
        .map(|line| {
            let (id, compact) = split_checkpoint_line(line).expect("a checkpoint line");
            let parsed: ScenarioResult = serde_json::from_str(compact).unwrap();
            assert_eq!(checkpoint_line(id, &parsed), line);
            id
        })
        .collect()
}

/// The journal a sink that encodes every typed result writes for
/// `sweep` at one worker, against a copy of the cache at `cache`.
fn encoded_journal(sweep: &Sweep, cache: &Path, scratch: &Path) -> String {
    copy_dir(cache, scratch);
    let cache = UnitCache::new(ResultStore::open(scratch).unwrap());
    let opts = WorkloadOptions::sequential().with_cache(&cache);
    let mut journal = String::new();
    run_units(sweep, &opts, |_, id, result, _| {
        journal.push_str(&checkpoint_line(id, &result));
        journal.push('\n');
        Ok(())
    })
    .unwrap();
    journal
}

fn units(metrics: &Path) -> [u64; 3] {
    let m: Value = serde_json::from_str(&read(metrics)).unwrap();
    let units = m.get("units").expect("units section");
    ["resumed", "cached", "executed"].map(|k| match units.get(k) {
        Some(Value::Number(Number::U64(n))) => *n,
        other => panic!("units.{k} is {other:?}"),
    })
}

#[test]
fn spliced_cache_bytes_leave_out_and_journal_unchanged() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("vardelay-cache-splice-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name);

    let warm = sweep(vec![4, 8]);
    let refined = sweep(vec![4, 6, 8]);
    fs::write(p("warm.json"), warm.to_json()).unwrap();
    fs::write(p("refined.json"), refined.to_json()).unwrap();

    // Cold runs: the warm spec fills the cache; the refined spec's
    // reference output comes from a cache of its own.
    sweep_run(
        &p("warm.json"),
        1,
        &[
            ("--cache", &p("cache")),
            ("--checkpoint", &p("cold.jsonl")),
            ("--out", &p("cold.json")),
        ],
    );
    sweep_run(
        &p("refined.json"),
        1,
        &[
            ("--cache", &p("cache-refined")),
            ("--out", &p("refined-cold.json")),
        ],
    );
    let cold_journal = read(&p("cold.jsonl"));
    assert_eq!(lines_reencode_exactly(&cold_journal).len(), 10);

    for (name, spec, units, cold_out) in [
        ("warm", &warm, 10, p("cold.json")),
        ("refined", &refined, 14, p("refined-cold.json")),
    ] {
        let expected_journal = encoded_journal(spec, &p("cache"), &p(&format!("{name}-enc")));
        for workers in [1, 8] {
            let tag = format!("{name}-w{workers}");
            let (cache, journal, out) = (
                p(&format!("{tag}-cache")),
                p(&format!("{tag}.jsonl")),
                p(&format!("{tag}.json")),
            );
            copy_dir(&p("cache"), &cache);
            sweep_run(
                &p(&format!("{name}.json")),
                workers,
                &[
                    ("--cache", &cache),
                    ("--checkpoint", &journal),
                    ("--out", &out),
                ],
            );
            assert!(read(&out) == read(&cold_out), "{tag}: --out differs");
            let journal = read(&journal);
            let mut keys = lines_reencode_exactly(&journal);
            if workers == 1 {
                assert!(journal == expected_journal, "{tag}: journal differs");
            }
            let n = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!((n, keys.len()), (units, units), "{tag}: every unit once");
        }
    }

    // `--resume` + `--cache`: the journal holds half of the warm units
    // and the cache all of them. Those units sink once, from the journal.
    let half: String = cold_journal
        .lines()
        .take(5)
        .map(|l| l.to_owned() + "\n")
        .collect();
    for separate_checkpoint in [false, true] {
        let tag = format!("resume-{separate_checkpoint}");
        let (cache, journal, checkpoint, out, metrics) = (
            p(&format!("{tag}-cache")),
            p(&format!("{tag}.jsonl")),
            p(&format!("{tag}-ckpt.jsonl")),
            p(&format!("{tag}.json")),
            p(&format!("{tag}-metrics.json")),
        );
        copy_dir(&p("cache"), &cache);
        fs::write(&journal, &half).unwrap();
        let mut extra = vec![
            ("--resume", journal.as_path()),
            ("--cache", &cache),
            ("--out", &out),
            ("--metrics", &metrics),
        ];
        if separate_checkpoint {
            extra.push(("--checkpoint", &checkpoint));
        }
        sweep_run(&p("refined.json"), 1, &extra);
        assert!(read(&out) == read(&p("refined-cold.json")), "{tag}");
        assert_eq!(
            units(&metrics),
            [5, 5, 4],
            "{tag}: resumed, cached, executed"
        );
        let written = read(if separate_checkpoint {
            &checkpoint
        } else {
            &journal
        });
        let mut keys = lines_reencode_exactly(&written);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 14, "{tag}: every unit once");
        assert_eq!(written.lines().count(), 14, "{tag}: every unit once");
    }
    fs::remove_dir_all(&dir).unwrap();
}
