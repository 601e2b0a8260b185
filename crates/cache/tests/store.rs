//! Store-level contract tests: durability, corruption handling,
//! multi-writer segments, compaction/eviction, and the engine adapter.

use std::fs;
use std::path::PathBuf;

use vardelay_cache::{compact_dir, verify_dir, ResultStore, UnitCache};
use vardelay_engine::{
    checkpoint_line, run_units, Checkpoint, ResultCache, Sweep, UnitOrigin, WorkloadOptions,
};

/// A fresh per-test cache directory under the system temp dir.
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vardelay-cache-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seg_files(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("seg-") && n.ends_with(".jsonl"))
        .collect();
    names.sort();
    names
}

#[test]
fn append_get_roundtrip_and_reopen() {
    let dir = tmp("roundtrip");
    let mut store = ResultStore::open(&dir).unwrap();
    assert!(store.is_empty());
    assert_eq!(store.get(1, 1).unwrap(), None);
    store.append(1, 1, "{\"x\":1.5}").unwrap();
    store.append(2, 1, "[1,2,3]").unwrap();
    // Same-session lookups hit the freshly appended records.
    assert_eq!(store.get(1, 1).unwrap().as_deref(), Some("{\"x\":1.5}"));
    assert!(store.contains(2, 1) && !store.contains(3, 1));
    drop(store);

    // A reopen rebuilds the index from the segment files alone.
    let mut store = ResultStore::open_read_only(&dir).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(store.get(2, 1).unwrap().as_deref(), Some("[1,2,3]"));
    let stats = store.stats();
    assert_eq!((stats.segments, stats.records, stats.live_units), (1, 2, 2));
    assert_eq!(stats.contracts, vec![(1, 2)]);
    assert!(
        store.append(3, 1, "0").is_err(),
        "read-only store must refuse appends"
    );
}

#[test]
fn contract_version_mismatch_is_a_miss() {
    let dir = tmp("contract");
    let mut store = ResultStore::open(&dir).unwrap();
    store.append(7, 1, "42").unwrap();
    assert_eq!(store.get(7, 1).unwrap().as_deref(), Some("42"));
    assert_eq!(
        store.get(7, 2).unwrap(),
        None,
        "a contract bump must invalidate stored results"
    );
    // The same unit can coexist under both contracts.
    store.append(7, 2, "43").unwrap();
    assert_eq!(store.get(7, 1).unwrap().as_deref(), Some("42"));
    assert_eq!(store.get(7, 2).unwrap().as_deref(), Some("43"));
}

#[test]
fn duplicate_appends_keep_the_last_record() {
    let dir = tmp("dup");
    let mut store = ResultStore::open(&dir).unwrap();
    store.append(5, 1, "\"old\"").unwrap();
    store.append(5, 1, "\"new\"").unwrap();
    assert_eq!(store.get(5, 1).unwrap().as_deref(), Some("\"new\""));
    drop(store);
    let mut store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.get(5, 1).unwrap().as_deref(), Some("\"new\""));
    let stats = store.stats();
    assert_eq!((stats.records, stats.live_units), (2, 1));
}

#[test]
fn checksum_corruption_hard_errors_on_get_and_shows_in_verify() {
    let dir = tmp("corrupt");
    let mut store = ResultStore::open(&dir).unwrap();
    store.append(1, 1, "{\"v\":111}").unwrap();
    store.append(2, 1, "{\"v\":222}").unwrap();
    drop(store);

    // Flip payload bytes in place (same length: structure stays valid).
    let seg = dir.join(&seg_files(&dir)[0]);
    let text = fs::read_to_string(&seg).unwrap().replace("222", "999");
    fs::write(&seg, text).unwrap();

    let mut store = ResultStore::open(&dir).unwrap();
    assert_eq!(
        store.get(1, 1).unwrap().as_deref(),
        Some("{\"v\":111}"),
        "intact records keep working"
    );
    let err = store.get(2, 1).unwrap_err().to_string();
    assert!(err.contains("checksum mismatch"), "{err}");

    let report = verify_dir(&dir).unwrap();
    assert_eq!((report.segments, report.valid_records), (1, 1));
    assert_eq!(report.corrupt.len(), 1);
    assert!(report.corrupt[0].contains("0000000000000002"), "{report:?}");
}

#[test]
fn torn_final_record_is_recovered_and_never_fuses() {
    let dir = tmp("torn");
    let mut store = ResultStore::open(&dir).unwrap();
    store.append(1, 1, "{\"v\":1}").unwrap();
    store.append(2, 1, "{\"v\":2}").unwrap();
    drop(store);

    // Tear the final record mid-payload, as a kill would.
    let seg = dir.join(&seg_files(&dir)[0]);
    let text = fs::read_to_string(&seg).unwrap();
    fs::write(&seg, &text[..text.len() - 7]).unwrap();

    let mut store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.get(1, 1).unwrap().as_deref(), Some("{\"v\":1}"));
    assert_eq!(store.get(2, 1).unwrap(), None, "the torn record is lost");
    assert_eq!(store.stats().torn_segments, 1);

    // Re-recording the lost unit goes to a fresh segment — appends
    // never touch a torn file, so records can never fuse.
    store.append(2, 1, "{\"v\":2}").unwrap();
    drop(store);
    assert_eq!(seg_files(&dir).len(), 2);
    let mut store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.get(2, 1).unwrap().as_deref(), Some("{\"v\":2}"));
}

#[test]
fn concurrent_writers_get_disjoint_segments() {
    let dir = tmp("writers");
    let mut a = ResultStore::open(&dir).unwrap();
    let mut b = ResultStore::open(&dir).unwrap();
    a.append(1, 1, "\"a\"").unwrap();
    b.append(2, 1, "\"b\"").unwrap();
    a.append(3, 1, "\"a2\"").unwrap();
    drop(a);
    drop(b);
    assert_eq!(seg_files(&dir).len(), 2, "one segment per writer");
    let mut store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.len(), 3);
    assert_eq!(store.get(2, 1).unwrap().as_deref(), Some("\"b\""));
}

#[test]
fn compact_merges_dedups_and_drops_stale_contracts() {
    let dir = tmp("compact");
    for (unit, contract, payload) in [(1, 1, "\"old\""), (2, 0, "\"stale\""), (9, 1, "\"keep\"")] {
        let mut store = ResultStore::open(&dir).unwrap();
        store.append(unit, contract, payload).unwrap();
    }
    let mut store = ResultStore::open(&dir).unwrap();
    store.append(1, 1, "\"new\"").unwrap();
    drop(store);
    assert_eq!(seg_files(&dir).len(), 4);

    let report = compact_dir(&dir, 1, None).unwrap();
    assert_eq!(report.segments_before, 4);
    assert_eq!(report.segments_after, 1);
    assert_eq!(report.kept_records, 2, "units 1 and 9 survive");
    assert_eq!(report.dropped_records, 2, "superseded + stale-contract");
    assert!(report.bytes_after < report.bytes_before);

    let mut store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.get(1, 1).unwrap().as_deref(), Some("\"new\""));
    assert_eq!(store.get(9, 1).unwrap().as_deref(), Some("\"keep\""));
    assert_eq!(store.get(2, 0).unwrap(), None);
    assert_eq!(verify_dir(&dir).unwrap().corrupt.len(), 0);
}

#[test]
fn compact_budget_evicts_least_recently_used_segment_first() {
    let dir = tmp("lru");
    for (unit, payload) in [(1u64, "\"cold\""), (2, "\"warm\"")] {
        let mut store = ResultStore::open(&dir).unwrap();
        store.append(unit, 1, payload).unwrap();
    }
    // Serve a hit from unit 2's segment so its `.used` stamp is newest.
    let mut store = ResultStore::open(&dir).unwrap();
    assert!(store.get(2, 1).unwrap().is_some());
    drop(store);

    let total: u64 = seg_files(&dir)
        .iter()
        .map(|n| fs::metadata(dir.join(n)).unwrap().len())
        .sum();
    let report = compact_dir(&dir, 1, Some(total - 1)).unwrap();
    assert_eq!(report.evicted_segments, 1);

    let mut store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.get(1, 1).unwrap(), None, "cold segment evicted");
    assert_eq!(store.get(2, 1).unwrap().as_deref(), Some("\"warm\""));
}

#[test]
fn compact_skips_live_writers_and_respects_the_lock() {
    let dir = tmp("lock");
    let mut live = ResultStore::open(&dir).unwrap();
    live.append(1, 1, "\"live\"").unwrap();

    // Budget 0 wants everything gone, but the live writer is pinned.
    let report = compact_dir(&dir, 1, Some(0)).unwrap();
    assert_eq!((report.evicted_segments, report.segments_after), (0, 1));
    drop(live);
    let report = compact_dir(&dir, 1, Some(0)).unwrap();
    assert_eq!((report.evicted_segments, report.segments_after), (1, 0));

    // A lock held by a live process excludes compaction...
    fs::write(
        dir.join("compact.lock"),
        format!("{}\n", std::process::id()),
    )
    .unwrap();
    let err = compact_dir(&dir, 1, None).unwrap_err().to_string();
    assert!(err.contains("compact.lock"), "{err}");
    // ...but a dead holder's stale lock is broken.
    fs::write(dir.join("compact.lock"), "999999999\n").unwrap();
    compact_dir(&dir, 1, None).unwrap();
    assert!(!dir.join("compact.lock").exists(), "lock released after");
}

#[test]
fn unit_cache_adapter_roundtrips_results_bit_exactly() {
    let dir = tmp("adapter");
    let result = vec![1.0f64, -0.0, 1e-300, 12_345.678_901_234_5];
    let cache = UnitCache::new(ResultStore::open(&dir).unwrap());
    let c: &dyn ResultCache<Vec<f64>> = &cache;
    assert!(c.fetch(0xABCD).unwrap().is_none());
    c.store(0xABCD, &result).unwrap();
    let back = c.fetch(0xABCD).unwrap().expect("stored entry hits");
    for (a, b) in result.iter().zip(&back) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} round-tripped as {b}");
    }
    assert_eq!(cache.into_store().len(), 1);

    // Binding the same store to a bumped contract turns it into a miss.
    let cache = UnitCache::with_contract(ResultStore::open(&dir).unwrap(), u32::MAX);
    let c: &dyn ResultCache<Vec<f64>> = &cache;
    assert!(c.fetch(0xABCD).unwrap().is_none());
}

#[test]
fn too_deep_records_fail_cleanly_on_fetch() {
    use serde::Value;
    let dir = tmp("deep");
    let mut store = ResultStore::open(&dir).unwrap();
    let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    for (key, depth) in [(128u64, 128usize), (129, 129), (200_000, 200_000)] {
        store
            .append(key, vardelay_engine::CONTRACT_VERSION, &nested(depth))
            .unwrap();
    }
    let cache = UnitCache::new(store);
    let c: &dyn ResultCache<Value> = &cache;
    assert!(c.fetch(128).unwrap().is_some(), "128 containers parse");
    for key in [129u64, 200_000] {
        let err = c.fetch(key).unwrap_err().to_string();
        assert_eq!(
            err,
            format!(
                "cache: invalid record for unit {key:016x}: nesting deeper than 128 at byte 128"
            )
        );
    }
}

#[test]
fn unit_cache_lists_exactly_what_it_can_fetch() {
    let dir = tmp("contains");
    let cache = UnitCache::new(ResultStore::open(&dir).unwrap());
    let c: &dyn ResultCache<f64> = &cache;
    assert!(!c.contains(7));
    c.store(7, &1.5).unwrap();
    assert!(c.contains(7) && !c.contains(8));
    assert_eq!(c.fetch(7).unwrap(), Some(1.5));
    drop(cache);

    let cache = UnitCache::with_contract(ResultStore::open(&dir).unwrap(), u32::MAX);
    let c: &dyn ResultCache<f64> = &cache;
    assert!(!c.contains(7), "a stale contract is not listed");
}

#[test]
fn a_warm_unit_cache_run_builds_no_units() {
    let mut sweep = Sweep::example();
    sweep.grid = None;
    for s in &mut sweep.scenarios {
        s.trials = 256;
    }
    let dir = tmp("warm-builds");
    let run = |dir: &PathBuf| {
        let cache = UnitCache::new(ResultStore::open(dir).unwrap());
        let opts = WorkloadOptions::sequential().with_cache(&cache);
        let session = vardelay_obs::Session::start();
        let stats = run_units(&sweep, &opts, |_, _, _, _| Ok(())).unwrap();
        let agg = vardelay_obs::aggregate(&session.finish());
        let builds = agg.phases.get("unit/prepare").map_or(0, |p| p.count);
        (stats, builds)
    };
    let (cold, cold_builds) = run(&dir);
    assert_eq!(cold.executed, 2);
    assert_eq!(cold_builds, 2);
    let (warm, warm_builds) = run(&dir);
    assert_eq!((warm.cached, warm.executed), (2, 0));
    assert_eq!(warm_builds, 0, "cache hits skip the build");
}

#[test]
fn unit_cache_hands_bytes_only_to_the_key_it_just_served_or_stored() {
    let dir = tmp("take-bytes");
    let (a, b) = (vec![1.5f64, -0.0, 1e-300], vec![2.25f64]);
    let (a_json, b_json) = (
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
    );
    let cache = UnitCache::new(ResultStore::open(&dir).unwrap());
    let c: &dyn ResultCache<Vec<f64>> = &cache;

    // A store's bytes go to its own key, once.
    c.store(1, &a).unwrap();
    assert_eq!(cache.take_bytes(1), Some(a_json.clone()));
    assert_eq!(cache.take_bytes(1), None, "handed out at most once");

    // Another key gets nothing, and the record is released.
    c.store(1, &a).unwrap();
    assert_eq!(cache.take_bytes(2), None);
    assert_eq!(cache.take_bytes(1), None);

    // At most one record: a second store replaces the first.
    c.store(2, &b).unwrap();
    c.store(1, &a).unwrap();
    assert_eq!(cache.take_bytes(2), None, "only the last record is held");
    c.store(2, &b).unwrap();
    assert_eq!(cache.take_bytes(2), Some(b_json.clone()));

    // A hit's bytes are the stored payload, as the encoder writes it.
    assert_eq!(c.fetch(1).unwrap(), Some(a.clone()));
    assert_eq!(cache.take_bytes(1), Some(a_json));

    // A miss holds nothing, and releases what an earlier call held.
    c.store(2, &b).unwrap();
    assert!(c.fetch(3).unwrap().is_none());
    assert_eq!(cache.take_bytes(3), None);
    assert_eq!(cache.take_bytes(2), None);
    drop(cache);

    // A failed fetch (checksum mismatch) holds nothing either.
    let seg = dir.join(&seg_files(&dir)[0]);
    let text = fs::read_to_string(&seg).unwrap().replace("2.25", "9.25");
    fs::write(&seg, text).unwrap();
    let cache = UnitCache::new(ResultStore::open(&dir).unwrap());
    let c: &dyn ResultCache<Vec<f64>> = &cache;
    c.store(1, &a).unwrap();
    assert!(c.fetch(2).is_err());
    assert_eq!(cache.take_bytes(2), None);
    assert_eq!(cache.take_bytes(1), None);
}

#[test]
fn every_cached_or_executed_unit_sinks_right_after_its_bytes() {
    // Four units: the journal holds the first, the cache the first two,
    // the last two execute (over two workers, so steps finish in the
    // pool). Each sink finds the bytes of its own unit, and only there.
    let mut sweep = Sweep::example();
    sweep.grid = None;
    for s in &mut sweep.scenarios {
        s.trials = 512;
    }
    let mut twins = sweep.scenarios.clone();
    for s in &mut twins {
        s.label.push_str(" twin");
    }
    sweep.scenarios.extend(twins);
    let dir = tmp("sink-order");
    let warm = Sweep {
        scenarios: sweep.scenarios[..2].to_vec(),
        ..sweep.clone()
    };
    let cache = UnitCache::new(ResultStore::open(&dir).unwrap());
    let mut journal = String::new();
    run_units(
        &warm,
        &WorkloadOptions::sequential().with_cache(&cache),
        |_, id, r, _| {
            if journal.is_empty() {
                journal = checkpoint_line(id, &r);
            }
            Ok(())
        },
    )
    .unwrap();
    let resume = Checkpoint::parse(&journal).unwrap();

    let opts = WorkloadOptions::sequential()
        .with_workers(2)
        .with_resume(&resume)
        .with_cache(&cache);
    let mut origins = Vec::new();
    run_units(&sweep, &opts, |_, id, result, origin| {
        let bytes = cache.take_bytes(id);
        match origin {
            UnitOrigin::Journal => assert_eq!(bytes, None),
            _ => assert_eq!(bytes, Some(serde_json::to_string(&result).unwrap())),
        }
        origins.push(origin);
        Ok(())
    })
    .unwrap();
    origins.sort_by_key(|o| *o as u8);
    assert_eq!(
        origins,
        [
            UnitOrigin::Executed,
            UnitOrigin::Executed,
            UnitOrigin::Journal,
            UnitOrigin::Cache
        ]
    );
}
