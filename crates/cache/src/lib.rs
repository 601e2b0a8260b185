//! # vardelay-cache — the persistent content-addressed result cache
//!
//! The engine's determinism contract makes every unit's result bytes a
//! pure function of `(unit_key, CONTRACT_VERSION)`: the key content-
//! hashes the unit's full sub-spec and seed, the contract version pins
//! the algorithms behind them. That purity is exactly the precondition
//! for memoized recompute, and this crate is the memo table: a
//! log-structured store on disk ([`ResultStore`]) plus the adapter that
//! plugs it into the engine pipeline ([`UnitCache`], implementing
//! [`vardelay_engine::ResultCache`]) so `--cache DIR` splices stored
//! results byte-exactly instead of re-running units.
//!
//! ## Store format
//!
//! A cache directory holds append-only **segment** files
//! (`seg-NNNNN.jsonl`), each a JSONL journal of records:
//!
//! ```text
//! {"unit":"<016x key>","contract":N,"len":N,"crc":"<016x fnv1a64>","result":<compact JSON>}
//! ```
//!
//! The header fields are fixed-layout so a reader can index a record
//! without parsing its payload: `result` is always last, its byte
//! length is recorded in `len`, and `crc` is the FNV-1a hash of exactly
//! those bytes. Opening a store scans every segment once and builds an
//! in-memory index of `(unit, contract) → (segment, offset, len, crc)`;
//! a hit reads the payload at its offset through the segment's one read
//! handle (opened on the segment's first hit) and hard-errors if the
//! checksum disagrees. Torn **final** records (a writer killed
//! mid-append) are tolerated per segment, exactly like the engine's
//! resume journals — the scan is
//! [`vardelay_engine::journal::scan_jsonl`], the same implementation
//! `--resume` uses.
//!
//! ## Concurrency
//!
//! Writers never share a segment: each read-write store lazily creates
//! a fresh segment (`create_new`, so creation is atomic) on its first
//! append and fsyncs every record, which makes concurrent processes
//! safe without byte-range locking — a torn tail in one writer's
//! segment can never fuse with another writer's records. A live writer
//! advertises itself with a `seg-NNNNN.writer` marker (removed on drop,
//! ignored once its pid is gone) so compaction never deletes a segment
//! under an active writer; compaction itself is serialized by a
//! `compact.lock` file.
//!
//! ## Eviction and invalidation
//!
//! [`compact_dir`] merges segments (keeping the newest record per
//! `(unit, contract)`, dropping checksum-corrupt and stale-contract
//! records) and enforces an optional size budget by evicting whole
//! least-recently-used segments first — recency comes from sidecar
//! `.used` stamps a store refreshes for the segments that served hits.
//! Invalidation is a non-event: bumping
//! [`vardelay_engine::CONTRACT_VERSION`] makes every stored record a
//! miss, and the stale records age out at the next budgeted compaction.

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use vardelay_engine::journal::scan_jsonl;
use vardelay_engine::run::EngineError;
use vardelay_engine::seed::fnv1a64;

/// A result-store failure: I/O, corruption, or misuse.
#[derive(Debug)]
pub struct CacheError(String);

impl CacheError {
    fn new(msg: impl Into<String>) -> Self {
        CacheError(msg.into())
    }
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CacheError {}

/// The parsed fixed-layout header of one segment record.
struct RecordHeader {
    unit: u64,
    contract: u32,
    len: usize,
    crc: u64,
    /// Byte offset of the result payload within the record line.
    result_off: usize,
}

fn expect<'a>(s: &'a str, lit: &'static str) -> Result<&'a str, String> {
    s.strip_prefix(lit)
        .ok_or_else(|| format!("malformed record (expected `{lit}`)"))
}

fn take_hex16(s: &str) -> Result<(u64, &str), String> {
    let hex = s.get(..16).ok_or("malformed record (short hex field)")?;
    let v = u64::from_str_radix(hex, 16).map_err(|_| format!("invalid hex field '{hex}'"))?;
    Ok((v, &s[16..]))
}

fn take_digits(s: &str) -> Result<(&str, &str), String> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    if end == 0 {
        return Err("malformed record (expected digits)".to_owned());
    }
    Ok((&s[..end], &s[end..]))
}

/// Parses one record line's fixed-layout header, validating that the
/// recorded `len` matches the actual payload span. The checksum is
/// *not* verified here — that happens on every read ([`ResultStore::get`])
/// and in [`verify_dir`] — so opening a large store stays a single
/// cheap scan.
fn parse_record(line: &str) -> Result<RecordHeader, String> {
    let rest = expect(line, "{\"unit\":\"")?;
    let (unit, rest) = take_hex16(rest)?;
    let rest = expect(rest, "\",\"contract\":")?;
    let (num, rest) = take_digits(rest)?;
    let contract: u32 = num
        .parse()
        .map_err(|_| format!("invalid contract '{num}'"))?;
    let rest = expect(rest, ",\"len\":")?;
    let (num, rest) = take_digits(rest)?;
    let len: usize = num.parse().map_err(|_| format!("invalid len '{num}'"))?;
    let rest = expect(rest, ",\"crc\":\"")?;
    let (crc, rest) = take_hex16(rest)?;
    let rest = expect(rest, "\",\"result\":")?;
    let body = rest.strip_suffix('}').ok_or("record does not end in `}`")?;
    if body.len() != len {
        return Err(format!(
            "result payload is {} bytes but len records {len}",
            body.len()
        ));
    }
    Ok(RecordHeader {
        unit,
        contract,
        len,
        crc,
        result_off: line.len() - 1 - len,
    })
}

fn record_line(unit: u64, contract: u32, result: &str) -> String {
    debug_assert!(!result.contains('\n'), "result JSON is compact, one line");
    let crc = fnv1a64(result.as_bytes());
    format!(
        "{{\"unit\":\"{unit:016x}\",\"contract\":{contract},\"len\":{},\"crc\":\"{crc:016x}\",\"result\":{result}}}\n",
        result.len()
    )
}

/// One on-disk segment file's open-time snapshot.
struct Segment {
    path: PathBuf,
    bytes: u64,
    records: usize,
    torn: bool,
    /// The read handle hits share, opened on the segment's first hit.
    reader: Option<fs::File>,
}

/// Where a unit's newest payload lives.
struct Loc {
    seg: usize,
    offset: u64,
    len: usize,
    crc: u64,
}

/// An active writer: this store's private segment, advertised by a
/// `.writer` marker so compaction leaves it alone.
struct Writer {
    seg: usize,
    marker: PathBuf,
    file: fs::File,
}

fn segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("seg-")?
        .strip_suffix(".jsonl")?
        .parse()
        .ok()
}

fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, CacheError> {
    let entries = fs::read_dir(dir)
        .map_err(|e| CacheError::new(format!("cannot read cache dir '{}': {e}", dir.display())))?;
    let mut segs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| CacheError::new(format!("cannot list '{}': {e}", dir.display())))?
            .path();
        if let Some(idx) = segment_index(&path) {
            segs.push((idx, path));
        }
    }
    segs.sort();
    Ok(segs.into_iter().map(|(_, p)| p).collect())
}

fn used_stamp_path(seg: &Path) -> PathBuf {
    seg.with_extension("used")
}

fn writer_marker_path(seg: &Path) -> PathBuf {
    seg.with_extension("writer")
}

fn now_nanos() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// When the segment last served a hit: the sidecar `.used` stamp if
/// present, else the segment file's mtime, else the epoch (evict
/// first).
fn last_used_nanos(seg: &Path) -> u128 {
    if let Ok(text) = fs::read_to_string(used_stamp_path(seg)) {
        if let Ok(n) = text.trim().parse() {
            return n;
        }
    }
    fs::metadata(seg)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos())
}

fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true // no cheap portable probe: assume alive, never steal
    }
}

/// Whether another process is actively appending to this segment. A
/// marker left behind by a dead writer is cleaned up on sight.
fn has_live_writer(seg: &Path) -> bool {
    let marker = writer_marker_path(seg);
    match fs::read_to_string(&marker) {
        Err(_) => false,
        Ok(text) => {
            if text.trim().parse().is_ok_and(pid_alive) {
                true
            } else {
                let _ = fs::remove_file(&marker);
                false
            }
        }
    }
}

/// Aggregate store health, as reported by `vardelay cache stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Segment files in the store.
    pub segments: usize,
    /// Total records across all segments, superseded duplicates
    /// included.
    pub records: usize,
    /// Distinct `(unit, contract)` entries a lookup can hit.
    pub live_units: usize,
    /// Total segment bytes on disk.
    pub bytes: u64,
    /// Segments whose final record is torn (writer killed mid-append).
    pub torn_segments: usize,
    /// Live entries per contract version, ascending.
    pub contracts: Vec<(u32, usize)>,
}

/// The outcome of a full [`verify_dir`] sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Segments scanned.
    pub segments: usize,
    /// Records whose checksum matched their payload.
    pub valid_records: usize,
    /// Segments ending in a tolerated torn record.
    pub torn_segments: usize,
    /// Human-readable description of every corrupt record found.
    pub corrupt: Vec<String>,
}

/// The outcome of a [`compact_dir`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Segment count before / after.
    pub segments_before: usize,
    /// Segment count after eviction and merging.
    pub segments_after: usize,
    /// Total segment bytes before / after.
    pub bytes_before: u64,
    /// Total segment bytes after eviction and merging.
    pub bytes_after: u64,
    /// Whole segments evicted to meet the size budget (LRU first).
    pub evicted_segments: usize,
    /// Records dropped while merging: superseded duplicates,
    /// stale-contract records, and checksum-corrupt records.
    pub dropped_records: usize,
    /// Live records carried into the merged segment.
    pub kept_records: usize,
}

/// A log-structured store of `(unit_key, contract) → result bytes`
/// records under one directory. See the crate docs for the format and
/// concurrency story.
pub struct ResultStore {
    dir: PathBuf,
    read_only: bool,
    segments: Vec<Segment>,
    index: HashMap<(u64, u32), Loc>,
    writer: Option<Writer>,
    /// Segments that served a hit this session — their `.used` stamps
    /// are refreshed on drop, feeding LRU eviction.
    used: HashSet<usize>,
}

impl ResultStore {
    /// Opens (creating if absent) a store for reading and appending.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] for I/O failures or a structurally
    /// corrupt segment (a torn *final* record is tolerated, not an
    /// error).
    pub fn open(dir: &Path) -> Result<Self, CacheError> {
        fs::create_dir_all(dir)
            .map_err(|e| CacheError::new(format!("cannot create '{}': {e}", dir.display())))?;
        Self::open_mode(dir, false)
    }

    /// Opens an existing store read-only ([`ResultStore::append`] will
    /// refuse).
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] if the directory does not exist, on I/O
    /// failure, or for a structurally corrupt segment.
    pub fn open_read_only(dir: &Path) -> Result<Self, CacheError> {
        if !dir.is_dir() {
            return Err(CacheError::new(format!("no cache at '{}'", dir.display())));
        }
        Self::open_mode(dir, true)
    }

    fn open_mode(dir: &Path, read_only: bool) -> Result<Self, CacheError> {
        let mut store = ResultStore {
            dir: dir.to_path_buf(),
            read_only,
            segments: Vec::new(),
            index: HashMap::new(),
            writer: None,
            used: HashSet::new(),
        };
        for path in list_segments(dir)? {
            let text = fs::read_to_string(&path)
                .map_err(|e| CacheError::new(format!("cannot read '{}': {e}", path.display())))?;
            let scan = scan_jsonl(&text, parse_record).map_err(|e| {
                CacheError::new(format!("corrupt segment '{}': {e}", path.display()))
            })?;
            let seg = store.segments.len();
            for line in &scan.lines {
                let h = &line.value;
                store.index.insert(
                    (h.unit, h.contract),
                    Loc {
                        seg,
                        offset: (line.offset + h.result_off) as u64,
                        len: h.len,
                        crc: h.crc,
                    },
                );
            }
            store.segments.push(Segment {
                path,
                bytes: text.len() as u64,
                records: scan.lines.len(),
                torn: scan.torn_tail,
                reader: None,
            });
        }
        Ok(store)
    }

    /// Number of distinct `(unit, contract)` entries a lookup can hit.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether the store holds a result for this unit under this
    /// contract version (no I/O, no checksum verification).
    pub fn contains(&self, unit: u64, contract: u32) -> bool {
        self.index.contains_key(&(unit, contract))
    }

    /// Reads and checksum-verifies the stored result bytes for a unit
    /// under a contract version. A record under a *different* contract
    /// version is a miss, never served.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] on I/O failure or — the hard-error
    /// contract — when the payload's checksum disagrees with its
    /// record.
    pub fn get(&mut self, unit: u64, contract: u32) -> Result<Option<String>, CacheError> {
        let Some(loc) = self.index.get(&(unit, contract)) else {
            return Ok(None);
        };
        let seg = &mut self.segments[loc.seg];
        let read = |reader: &mut Option<fs::File>| -> std::io::Result<Vec<u8>> {
            let f = match reader {
                Some(f) => f,
                None => reader.insert(fs::File::open(&seg.path)?),
            };
            let mut buf = vec![0u8; loc.len];
            f.read_exact_at(&mut buf, loc.offset)?;
            Ok(buf)
        };
        let buf = read(&mut seg.reader)
            .map_err(|e| CacheError::new(format!("'{}': {e}", seg.path.display())))?;
        if fnv1a64(&buf) != loc.crc {
            return Err(CacheError::new(format!(
                "corrupt cache record for unit {unit:016x} in '{}': checksum mismatch \
                 (run `vardelay cache verify`)",
                seg.path.display()
            )));
        }
        let text = String::from_utf8(buf).map_err(|_| {
            CacheError::new(format!(
                "corrupt cache record for unit {unit:016x} in '{}': invalid UTF-8",
                seg.path.display()
            ))
        })?;
        self.used.insert(loc.seg);
        Ok(Some(text))
    }

    /// Durably appends a result record (write + fsync before
    /// returning) and indexes it for immediate lookup. `result` must be
    /// compact single-line JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] on a read-only store or I/O failure.
    pub fn append(&mut self, unit: u64, contract: u32, result: &str) -> Result<(), CacheError> {
        if self.read_only {
            return Err(CacheError::new(format!(
                "cache '{}' is open read-only",
                self.dir.display()
            )));
        }
        self.ensure_writer()?;
        let w = self.writer.as_mut().expect("writer just ensured");
        let seg = &mut self.segments[w.seg];
        let line = record_line(unit, contract, result);
        w.file
            .write_all(line.as_bytes())
            .and_then(|()| w.file.sync_data())
            .map_err(|e| CacheError::new(format!("'{}': {e}", seg.path.display())))?;
        self.index.insert(
            (unit, contract),
            Loc {
                seg: w.seg,
                offset: seg.bytes + (line.len() - 2 - result.len()) as u64,
                len: result.len(),
                crc: fnv1a64(result.as_bytes()),
            },
        );
        seg.bytes += line.len() as u64;
        seg.records += 1;
        Ok(())
    }

    /// Creates this store's private segment on first append: a fresh
    /// file claimed atomically with `create_new` (racing writers each
    /// get their own number), advertised by a `.writer` marker.
    fn ensure_writer(&mut self) -> Result<(), CacheError> {
        if self.writer.is_some() {
            return Ok(());
        }
        let mut next = list_segments(&self.dir)?
            .iter()
            .filter_map(|p| segment_index(p))
            .max()
            .map_or(0, |n| n + 1);
        let (path, file) = loop {
            let path = self.dir.join(format!("seg-{next:05}.jsonl"));
            match fs::OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)
            {
                Ok(file) => break (path, file),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => next += 1,
                Err(e) => {
                    return Err(CacheError::new(format!(
                        "cannot create '{}': {e}",
                        path.display()
                    )));
                }
            }
        };
        let marker = writer_marker_path(&path);
        fs::write(&marker, format!("{}\n", std::process::id()))
            .map_err(|e| CacheError::new(format!("cannot create '{}': {e}", marker.display())))?;
        // Make the new directory entry itself durable (best effort).
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        let seg = self.segments.len();
        self.segments.push(Segment {
            path,
            bytes: 0,
            records: 0,
            torn: false,
            reader: None,
        });
        self.writer = Some(Writer { seg, marker, file });
        Ok(())
    }

    /// Aggregate store health for `vardelay cache stats`.
    pub fn stats(&self) -> StoreStats {
        let mut per_contract: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, contract) in self.index.keys() {
            *per_contract.entry(*contract).or_default() += 1;
        }
        StoreStats {
            segments: self.segments.len(),
            records: self.segments.iter().map(|s| s.records).sum(),
            live_units: self.index.len(),
            bytes: self.segments.iter().map(|s| s.bytes).sum(),
            torn_segments: self.segments.iter().filter(|s| s.torn).count(),
            contracts: per_contract.into_iter().collect(),
        }
    }
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        if let Some(w) = self.writer.take() {
            // fsync'd appends mean the file itself needs no flush; the
            // marker disappearing is what frees the segment for
            // compaction.
            drop(w.file);
            let _ = fs::remove_file(&w.marker);
        }
        let stamp = format!("{}\n", now_nanos());
        for &seg in &self.used {
            let _ = fs::write(used_stamp_path(&self.segments[seg].path), &stamp);
        }
    }
}

/// Re-reads every segment from disk and checksum-verifies every record
/// — the `vardelay cache verify` sweep. Structural mid-file corruption
/// is a hard error; per-record checksum mismatches are collected in
/// [`VerifyReport::corrupt`].
///
/// # Errors
///
/// Returns a [`CacheError`] for I/O failures or a structurally corrupt
/// segment.
pub fn verify_dir(dir: &Path) -> Result<VerifyReport, CacheError> {
    let mut report = VerifyReport {
        segments: 0,
        valid_records: 0,
        torn_segments: 0,
        corrupt: Vec::new(),
    };
    for path in list_segments(dir)? {
        let text = fs::read_to_string(&path)
            .map_err(|e| CacheError::new(format!("cannot read '{}': {e}", path.display())))?;
        let scan = scan_jsonl(&text, parse_record)
            .map_err(|e| CacheError::new(format!("corrupt segment '{}': {e}", path.display())))?;
        report.segments += 1;
        report.torn_segments += usize::from(scan.torn_tail);
        for line in &scan.lines {
            let h = &line.value;
            let payload = &text[line.offset + h.result_off..line.offset + h.result_off + h.len];
            if fnv1a64(payload.as_bytes()) == h.crc {
                report.valid_records += 1;
            } else {
                report.corrupt.push(format!(
                    "'{}' line {}: unit {:016x} checksum mismatch",
                    path.display(),
                    line.lineno + 1,
                    h.unit
                ));
            }
        }
    }
    Ok(report)
}

/// Removes `compact.lock` when the compaction pass ends, however it
/// ends.
struct LockGuard(PathBuf);

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

fn take_compact_lock(dir: &Path) -> Result<LockGuard, CacheError> {
    let lock = dir.join("compact.lock");
    for attempt in 0..2 {
        match fs::OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&lock)
        {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                return Ok(LockGuard(lock));
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder: Option<u32> = fs::read_to_string(&lock)
                    .ok()
                    .and_then(|t| t.trim().parse().ok());
                if attempt == 0 && holder.is_some_and(|pid| !pid_alive(pid)) {
                    // The holding process is gone: break its stale lock.
                    let _ = fs::remove_file(&lock);
                    continue;
                }
                return Err(CacheError::new(format!(
                    "another compaction holds '{}'",
                    lock.display()
                )));
            }
            Err(e) => {
                return Err(CacheError::new(format!(
                    "cannot create '{}': {e}",
                    lock.display()
                )));
            }
        }
    }
    unreachable!("second attempt either locks or returns")
}

/// Compacts a cache directory: evicts whole least-recently-used
/// segments until total size fits `max_bytes` (when given), then merges
/// the surviving segments into one, keeping only the newest record per
/// `(unit, contract)` and dropping checksum-corrupt records and records
/// under contracts other than `current_contract`. Segments with a live
/// writer are never touched, and concurrent compactions are excluded by
/// `compact.lock`.
///
/// # Errors
///
/// Returns a [`CacheError`] for I/O failures, a structurally corrupt
/// segment, or a concurrent compaction.
pub fn compact_dir(
    dir: &Path,
    current_contract: u32,
    max_bytes: Option<u64>,
) -> Result<CompactReport, CacheError> {
    let _lock = take_compact_lock(dir)?;
    let all = list_segments(dir)?;
    let seg_bytes = |p: &PathBuf| fs::metadata(p).map_or(0, |m| m.len());
    let mut total: u64 = all.iter().map(seg_bytes).sum();
    let mut report = CompactReport {
        segments_before: all.len(),
        segments_after: 0,
        bytes_before: total,
        bytes_after: 0,
        evicted_segments: 0,
        dropped_records: 0,
        kept_records: 0,
    };
    let (pinned, mut compactable): (Vec<PathBuf>, Vec<PathBuf>) =
        all.into_iter().partition(|p| has_live_writer(p));

    // Size budget first: evict whole segments, coldest first.
    compactable.sort_by_key(|p| last_used_nanos(p));
    if let Some(budget) = max_bytes {
        while total > budget && !compactable.is_empty() {
            let victim = compactable.remove(0);
            total -= seg_bytes(&victim);
            let _ = fs::remove_file(used_stamp_path(&victim));
            fs::remove_file(&victim).map_err(|e| {
                CacheError::new(format!("cannot evict '{}': {e}", victim.display()))
            })?;
            report.evicted_segments += 1;
        }
    }

    // Merge survivors: newest record per (unit, contract) under the
    // current contract, in segment order so later appends win.
    compactable.sort_by_key(|p| segment_index(p));
    let mut live: BTreeMap<u64, String> = BTreeMap::new();
    let mut merged_records = 0usize;
    for path in &compactable {
        let text = fs::read_to_string(path)
            .map_err(|e| CacheError::new(format!("cannot read '{}': {e}", path.display())))?;
        let scan = scan_jsonl(&text, parse_record)
            .map_err(|e| CacheError::new(format!("corrupt segment '{}': {e}", path.display())))?;
        for line in &scan.lines {
            merged_records += 1;
            let h = &line.value;
            let payload = &text[line.offset + h.result_off..line.offset + h.result_off + h.len];
            if h.contract == current_contract && fnv1a64(payload.as_bytes()) == h.crc {
                live.insert(h.unit, payload.to_owned());
            }
        }
    }
    report.kept_records = live.len();
    report.dropped_records = merged_records - live.len();

    // Rewrite only when merging actually changes something.
    let needs_rewrite = report.dropped_records > 0 || compactable.len() > 1;
    if needs_rewrite && !live.is_empty() {
        let next = 1 + pinned
            .iter()
            .chain(&compactable)
            .filter_map(|p| segment_index(p))
            .max()
            .unwrap_or(0);
        let merged_path = dir.join(format!("seg-{next:05}.jsonl"));
        let mut f = fs::OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&merged_path)
            .map_err(|e| {
                CacheError::new(format!("cannot create '{}': {e}", merged_path.display()))
            })?;
        for (unit, payload) in &live {
            f.write_all(record_line(*unit, current_contract, payload).as_bytes())
                .map_err(|e| {
                    CacheError::new(format!("cannot write '{}': {e}", merged_path.display()))
                })?;
        }
        f.sync_data().map_err(|e| {
            CacheError::new(format!("cannot sync '{}': {e}", merged_path.display()))
        })?;
        let _ = fs::write(used_stamp_path(&merged_path), format!("{}\n", now_nanos()));
    }
    if needs_rewrite {
        // The merged segment (if any) is durable; retire the originals.
        for path in &compactable {
            let _ = fs::remove_file(used_stamp_path(path));
            fs::remove_file(path)
                .map_err(|e| CacheError::new(format!("cannot remove '{}': {e}", path.display())))?;
        }
    }
    let remaining = list_segments(dir)?;
    report.segments_after = remaining.len();
    report.bytes_after = remaining.iter().map(seg_bytes).sum();
    Ok(report)
}

/// The engine adapter: a [`ResultStore`] bound to one contract version,
/// implementing [`vardelay_engine::ResultCache`] so
/// [`vardelay_engine::run_units`] can splice hits and record executed
/// units. Fetch/store take `&self` in the engine trait, so the store
/// sits behind a `RefCell` (the pipeline only calls from one thread).
///
/// The adapter also keeps the compact bytes of the one record it last
/// served or wrote, for [`UnitCache::take_bytes`]: `run_units` sinks a
/// unit right after that unit's fetch or store, so the sink can splice
/// a hit's checksummed payload, or the string an executed unit was just
/// encoded to, into its journal and `--out` lines without encoding the
/// result again.
pub struct UnitCache {
    store: RefCell<ResultStore>,
    contract: u32,
    /// `(key, compact result bytes)` of the last record served or
    /// written; at most one record.
    last: RefCell<Option<(u64, String)>>,
}

impl UnitCache {
    /// Binds a store to the engine's current
    /// [`vardelay_engine::CONTRACT_VERSION`].
    pub fn new(store: ResultStore) -> Self {
        Self::with_contract(store, vardelay_engine::CONTRACT_VERSION)
    }

    /// Binds a store to an explicit contract version — test hook for
    /// pinning that a version bump turns every entry into a miss.
    // Kept: crates/cache/tests/store.rs calls it.
    pub fn with_contract(store: ResultStore, contract: u32) -> Self {
        UnitCache {
            store: RefCell::new(store),
            contract,
            last: RefCell::new(None),
        }
    }

    /// Releases the underlying store (e.g. to read
    /// [`ResultStore::stats`] after a run).
    // Kept: crates/cache/tests/store.rs calls it.
    pub fn into_store(self) -> ResultStore {
        self.store.into_inner()
    }

    /// The compact result bytes of the record the last fetch served or
    /// the last store wrote, if that record's key is `key` — the exact
    /// bytes [`serde_json::to_string`] writes for the result. Either
    /// way the held record is released, so each is handed out at most
    /// once; a miss, a failed call or another key yields `None`.
    pub fn take_bytes(&self, key: u64) -> Option<String> {
        self.last
            .take()
            .and_then(|(held, bytes)| (held == key).then_some(bytes))
    }
}

impl<R: Serialize + Deserialize> vardelay_engine::ResultCache<R> for UnitCache {
    fn fetch(&self, key: u64) -> Result<Option<R>, EngineError> {
        let _sp = vardelay_obs::span("io", "cache_lookup").key(key);
        self.last.take();
        let text = self
            .store
            .borrow_mut()
            .get(key, self.contract)
            .map_err(|e| EngineError::new(format!("cache: {e}")))?;
        let Some(text) = text else {
            vardelay_obs::counter("cache/miss", 1);
            return Ok(None);
        };
        vardelay_obs::counter("cache/hit", 1);
        vardelay_obs::counter("cache/bytes_saved", text.len() as u64);
        let result: R = serde_json::from_str(&text).map_err(|e| {
            EngineError::new(format!("cache: invalid record for unit {key:016x}: {e}"))
        })?;
        self.last.replace(Some((key, text)));
        Ok(Some(result))
    }

    fn contains(&self, key: u64) -> bool {
        self.store.borrow().contains(key, self.contract)
    }

    fn store(&self, key: u64, result: &R) -> Result<(), EngineError> {
        let _sp = vardelay_obs::span("io", "cache_append").key(key);
        self.last.take();
        let json = serde_json::to_string(result)
            .map_err(|e| EngineError::new(format!("cache: cannot serialize result: {e}")))?;
        self.store
            .borrow_mut()
            .append(key, self.contract, &json)
            .map_err(|e| EngineError::new(format!("cache: {e}")))?;
        self.last.replace(Some((key, json)));
        Ok(())
    }
}
