//! Out-of-band tracing and metrics for the vardelay workload pipeline.
//!
//! Hand-rolled (the build environment has no crates.io access) and
//! deliberately tiny: a process-global, atomically-gated event stream
//! with per-thread buffers. When no [`Session`] is active the entire
//! API degrades to a single relaxed atomic load per call site, so the
//! allocation-free hot kernels pay nothing.
//!
//! Design constraints, in priority order:
//!
//! 1. **Out-of-band.** Instrumentation never touches result bytes, RNG
//!    streams, scheduling, or I/O ordering. Nothing here returns data
//!    to the instrumented code; spans and counters are fire-and-forget.
//! 2. **Zero-cost when disabled.** [`span`] returns an inert guard and
//!    [`counter`] early-returns after one `Relaxed` load; no clocks are
//!    read, nothing allocates.
//! 3. **No locks on the hot path.** Enabled-path events go to a
//!    thread-local buffer; the global sink is only locked on buffer
//!    overflow, thread exit, and [`Session::finish`].
//!
//! A [`Session`] is process-exclusive (guarded by a mutex) so parallel
//! tests cannot interleave their event streams. Recordings render to
//! Chrome trace-event JSON ([`chrome_trace`], loadable in Perfetto or
//! `chrome://tracing`) or aggregate into phase/counter/utilization
//! metrics ([`aggregate`], [`metrics_json`]).

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Upper bound on buffered events per session; further records are
/// counted in [`Recording::dropped`] instead of growing without bound.
pub const MAX_EVENTS: usize = 4_000_000;

/// Thread-local buffers spill to the global sink at this size.
const FLUSH_AT: usize = 8_192;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SESSION_LOCK: Mutex<()> = Mutex::new(());
static SESSION_GEN: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static RECORDED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide tracing epoch.
fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn lock_sink() -> MutexGuard<'static, Vec<Event>> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What a single recorded [`Event`] represents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A completed span; `t_ns` is the start time.
    Span {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A monotonic counter increment (cumulated at render time).
    Counter {
        /// Amount added to the counter.
        delta: u64,
    },
}

/// One recorded observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Nanoseconds since the tracing epoch (span start for spans).
    pub t_ns: u64,
    /// Recording thread, numbered in first-use order.
    pub tid: u64,
    /// Category (e.g. `"mc"`, `"pool"`, `"opt"`).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// Optional association key (e.g. a workload `unit_key`).
    pub key: Option<u64>,
    /// Optional magnitude (e.g. trials in a block, worker index).
    pub value: Option<f64>,
    /// Span / instant / counter payload.
    pub kind: EventKind,
}

impl Event {
    fn dur_ns(&self) -> u64 {
        match self.kind {
            EventKind::Span { dur_ns } => dur_ns,
            _ => 0,
        }
    }
}

struct LocalBuf {
    tid: u64,
    gen: u64,
    events: Vec<Event>,
}

impl LocalBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        // A newer session may have started since these were buffered
        // (only possible for threads that outlive a session); stale
        // generations are discarded rather than polluting the stream.
        if self.gen == SESSION_GEN.load(Ordering::SeqCst) {
            lock_sink().append(&mut self.events);
        } else {
            self.events.clear();
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        gen: u64::MAX,
        events: Vec::new(),
    });
}

fn record(mut ev: Event) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    if RECORDED.fetch_add(1, Ordering::Relaxed) >= MAX_EVENTS as u64 {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let gen = SESSION_GEN.load(Ordering::Relaxed);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.gen != gen {
            l.events.clear();
            l.gen = gen;
        }
        ev.tid = l.tid;
        l.events.push(ev);
        if l.events.len() >= FLUSH_AT {
            l.flush();
        }
    });
}

/// RAII span guard returned by [`span`]; records a completed-span event
/// on drop. Inert (no clock read, no allocation) when tracing is off.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    start_ns: u64,
    cat: &'static str,
    name: &'static str,
    key: Option<u64>,
    value: Option<f64>,
}

impl Span {
    /// Attaches an association key (e.g. a workload `unit_key`).
    pub fn key(mut self, key: u64) -> Self {
        if let Some(a) = &mut self.0 {
            a.key = Some(key);
        }
        self
    }

    /// Attaches a magnitude (e.g. trials executed under this span).
    pub fn value(mut self, value: f64) -> Self {
        if let Some(a) = &mut self.0 {
            a.value = Some(value);
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.0.take() {
            let end = now_ns();
            record(Event {
                t_ns: a.start_ns,
                tid: 0,
                cat: a.cat,
                name: a.name,
                key: a.key,
                value: a.value,
                kind: EventKind::Span {
                    dur_ns: end.saturating_sub(a.start_ns),
                },
            });
        }
    }
}

/// Opens a span covering the guard's lifetime. Free when disabled.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span(None);
    }
    Span(Some(ActiveSpan {
        start_ns: now_ns(),
        cat,
        name,
        key: None,
        value: None,
    }))
}

/// Adds `delta` to the named monotonic counter. Free when disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    record(Event {
        t_ns: now_ns(),
        tid: 0,
        cat: "counter",
        name,
        key: None,
        value: None,
        kind: EventKind::Counter { delta },
    });
}

/// Records a point-in-time marker. Free when disabled.
#[inline]
pub fn instant(cat: &'static str, name: &'static str, key: Option<u64>) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    record(Event {
        t_ns: now_ns(),
        tid: 0,
        cat,
        name,
        key,
        value: None,
        kind: EventKind::Instant,
    });
}

/// Whether a tracing session is currently active.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flushes the calling thread's buffered events to the global sink.
///
/// Pool workers must call this as the last statement of their thread
/// body. The thread-local buffer is also flushed by its destructor,
/// but that is not enough for `std::thread::scope` workers: the scope
/// unblocks as soon as the closure returns, while thread-local
/// destructors only run later during OS-thread teardown — so a
/// [`Session::finish`] racing that teardown can drain the sink before
/// the worker's buffer lands in it, silently losing the whole thread.
pub fn flush_thread() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

/// The events captured by a finished [`Session`].
#[derive(Debug)]
pub struct Recording {
    /// Events sorted by start time (ties: longer spans first, so
    /// parents precede the children they enclose).
    pub events: Vec<Event>,
    /// Events discarded after the [`MAX_EVENTS`] cap was hit.
    pub dropped: u64,
}

/// An exclusive process-wide tracing session.
///
/// Only one session can be active at a time; [`Session::start`] blocks
/// until any other session (e.g. in a concurrently running test)
/// finishes. Dropping a session without calling [`Session::finish`]
/// disables tracing and discards the buffered events.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

impl Session {
    /// Starts recording, clearing any leftover buffered state.
    pub fn start() -> Session {
        let guard = SESSION_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        SESSION_GEN.fetch_add(1, Ordering::SeqCst);
        lock_sink().clear();
        RECORDED.store(0, Ordering::SeqCst);
        DROPPED.store(0, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
        Session { _guard: guard }
    }

    /// Stops recording and returns the captured events.
    ///
    /// Threads spawned by the instrumented code must have called
    /// [`flush_thread`] (or fully exited, running their thread-local
    /// destructors) by now; the engine's worker pools flush explicitly
    /// before their closures return, because a scoped thread's
    /// destructors may still be pending when the scope unblocks. Spans
    /// still open on *other* threads when the session ends are lost by
    /// design.
    pub fn finish(self) -> Recording {
        ENABLED.store(false, Ordering::SeqCst);
        LOCAL.with(|l| l.borrow_mut().flush());
        let mut events = std::mem::take(&mut *lock_sink());
        events.sort_by_key(|e| (e.t_ns, u64::MAX - e.dur_ns(), e.tid));
        Recording {
            events,
            dropped: DROPPED.load(Ordering::SeqCst),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Rendering: Chrome trace-event JSON
// ---------------------------------------------------------------------------

/// Escapes a string for embedding in a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (integral values print without a
/// fractional part).
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_owned();
    }
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn micros(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000.0)
}

/// Renders a recording as Chrome trace-event JSON.
///
/// The output loads directly in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing`: spans become `"X"` complete events, counters
/// become cumulative `"C"` events, instants become `"i"` events.
pub fn chrome_trace(rec: &Recording, process_name: &str) -> String {
    let mut out = String::with_capacity(rec.events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
        esc(process_name)
    ));
    let mut cumulative: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in &rec.events {
        out.push_str(",\n");
        match ev.kind {
            EventKind::Span { dur_ns } => {
                out.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"{}\",\"name\":\"{}\"",
                    ev.tid,
                    micros(ev.t_ns),
                    micros(dur_ns),
                    esc(ev.cat),
                    esc(ev.name),
                ));
                push_args(&mut out, ev);
                out.push('}');
            }
            EventKind::Instant => {
                out.push_str(&format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\"cat\":\"{}\",\"name\":\"{}\"",
                    ev.tid,
                    micros(ev.t_ns),
                    esc(ev.cat),
                    esc(ev.name),
                ));
                push_args(&mut out, ev);
                out.push('}');
            }
            EventKind::Counter { delta } => {
                let total = cumulative.entry(ev.name).or_insert(0);
                *total += delta;
                out.push_str(&format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\"args\":{{\"{}\":{}}}}}",
                    ev.tid,
                    micros(ev.t_ns),
                    esc(ev.name),
                    esc(ev.name),
                    total,
                ));
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

fn push_args(out: &mut String, ev: &Event) {
    if ev.key.is_none() && ev.value.is_none() {
        return;
    }
    out.push_str(",\"args\":{");
    let mut first = true;
    if let Some(k) = ev.key {
        out.push_str(&format!("\"key\":\"{k:016x}\""));
        first = false;
    }
    if let Some(v) = ev.value {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("\"value\":{}", json_num(v)));
    }
    out.push('}');
}

// ---------------------------------------------------------------------------
// Aggregation: phase totals, counters, worker utilization
// ---------------------------------------------------------------------------

/// Accumulated statistics for one `cat/name` span phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Number of spans recorded for this phase.
    pub count: u64,
    /// Total time inside the phase, nanoseconds (nested phases overlap
    /// their parents, so totals across phases can exceed wall time).
    pub total_ns: u64,
    /// Sum of the spans' attached [`Event::value`] magnitudes.
    pub value_sum: f64,
}

/// Busy-vs-lifetime accounting for one pool worker thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStat {
    /// Recording thread id.
    pub tid: u64,
    /// Total lifetime covered by `pool/worker` spans, nanoseconds.
    pub lifetime_ns: u64,
    /// Time inside `pool/exec` spans, nanoseconds.
    pub busy_ns: u64,
}

/// The aggregate view of a recording consumed by `--metrics` and the
/// benchmark harness.
#[derive(Debug, Default)]
pub struct Aggregate {
    /// Span statistics keyed by `"cat/name"`.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Final values of the monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Per-worker utilization, sorted by thread id.
    pub workers: Vec<WorkerStat>,
    /// Events discarded after the buffer cap was hit.
    pub dropped: u64,
}

impl Aggregate {
    /// Total span nanoseconds for a `"cat/name"` phase (0 if absent).
    pub fn phase_ns(&self, key: &str) -> u64 {
        self.phases.get(key).map_or(0, |p| p.total_ns)
    }

    /// Final value of a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Aggregates a recording into phase totals, counter values, and
/// per-worker utilization.
pub fn aggregate(rec: &Recording) -> Aggregate {
    let mut agg = Aggregate {
        dropped: rec.dropped,
        ..Aggregate::default()
    };
    let mut by_tid: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for ev in &rec.events {
        match ev.kind {
            EventKind::Span { dur_ns } => {
                let stat = agg
                    .phases
                    .entry(format!("{}/{}", ev.cat, ev.name))
                    .or_default();
                stat.count += 1;
                stat.total_ns += dur_ns;
                stat.value_sum += ev.value.unwrap_or(0.0);
                if ev.cat == "pool" {
                    let slot = by_tid.entry(ev.tid).or_insert((0, 0));
                    if ev.name == "worker" {
                        slot.0 += dur_ns;
                    } else if ev.name == "exec" {
                        slot.1 += dur_ns;
                    }
                }
            }
            EventKind::Counter { delta } => {
                *agg.counters.entry(ev.name.to_owned()).or_insert(0) += delta;
            }
            EventKind::Instant => {
                let stat = agg
                    .phases
                    .entry(format!("{}/{}", ev.cat, ev.name))
                    .or_default();
                stat.count += 1;
            }
        }
    }
    agg.workers = by_tid
        .into_iter()
        .filter(|&(_, (lifetime, _))| lifetime > 0)
        .map(|(tid, (lifetime_ns, busy_ns))| WorkerStat {
            tid,
            lifetime_ns,
            busy_ns,
        })
        .collect();
    agg
}

// ---------------------------------------------------------------------------
// Rendering: aggregated metrics JSON
// ---------------------------------------------------------------------------

/// Run-level facts the caller knows but the event stream does not.
#[derive(Debug, Clone, Copy)]
pub struct RunInfo<'a> {
    /// Workload kind (`"sweep"`, `"campaign"`, ...).
    pub kind: &'a str,
    /// Workload name from the spec.
    pub name: &'a str,
    /// Worker count the run was configured with.
    pub workers: usize,
    /// Wall-clock time of the run, milliseconds.
    pub wall_ms: f64,
    /// Total units in (this shard of) the workload.
    pub units_total: usize,
    /// Units actually executed.
    pub units_executed: usize,
    /// Units spliced from a resume journal.
    pub units_resumed: usize,
    /// Units spliced from the persistent result cache.
    pub units_cached: usize,
    /// Whether a torn journal tail was normalized during resume.
    pub torn_tail_normalized: bool,
    /// Total steps executed.
    pub steps: usize,
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1.0e6)
}

/// Renders the aggregate plus run info as a stable, human-diffable
/// metrics JSON document (the `--metrics` file format).
pub fn metrics_json(info: &RunInfo<'_>, agg: &Aggregate) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"kind\": \"{}\",\n", esc(info.kind)));
    out.push_str(&format!("  \"name\": \"{}\",\n", esc(info.name)));
    out.push_str(&format!("  \"workers\": {},\n", info.workers));
    out.push_str(&format!("  \"wall_ms\": {:.3},\n", info.wall_ms));
    out.push_str(&format!(
        "  \"units\": {{\"total\": {}, \"executed\": {}, \"resumed\": {}, \"cached\": {}, \"torn_tail_normalized\": {}}},\n",
        info.units_total,
        info.units_executed,
        info.units_resumed,
        info.units_cached,
        info.torn_tail_normalized,
    ));
    out.push_str(&format!("  \"steps\": {},\n", info.steps));
    // The result cache's effectiveness, from its own counters: lookups
    // split into hits and misses, plus the result bytes served instead
    // of recomputed.
    let (hits, misses) = (agg.counter("cache/hit"), agg.counter("cache/miss"));
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {hit_rate:.4}, \"bytes_saved\": {}}},\n",
        agg.counter("cache/bytes_saved"),
    ));
    // Trials are counted per kernel version ("trials" = v1, "trials_v3"
    // = v3) so throughput can be attributed to the kernel that produced
    // it; the top-level totals fold them together.
    let trials_v1 = agg.counter("trials");
    let trials_v3 = agg.counter("trials_v3");
    let trials = trials_v1 + trials_v3;
    out.push_str(&format!("  \"trials\": {trials},\n"));
    out.push_str(&format!(
        "  \"trials_by_kernel\": {{\"v1\": {trials_v1}, \"v3\": {trials_v3}}},\n"
    ));
    // Trial-plan attribution: each non-plain strategy counts its trials
    // under its own counter (in addition to the kernel counter above);
    // plain is the remainder. The "ess" counter is the summed Kish
    // effective sample size of weighted (blockade) runs.
    let by_strategy: Vec<(&str, u64)> = [
        ("antithetic", "trials_antithetic"),
        ("stratified", "trials_stratified"),
        ("sobol", "trials_sobol"),
        ("blockade", "trials_blockade"),
    ]
    .iter()
    .map(|&(label, counter)| (label, agg.counter(counter)))
    .collect();
    let shaped: u64 = by_strategy.iter().map(|&(_, n)| n).sum();
    out.push_str(&format!(
        "  \"trials_by_strategy\": {{\"plain\": {}",
        trials.saturating_sub(shaped)
    ));
    for (label, n) in &by_strategy {
        out.push_str(&format!(", \"{label}\": {n}"));
    }
    out.push_str("},\n");
    let ess = agg.counter("ess");
    if ess > 0 {
        out.push_str(&format!("  \"effective_samples\": {ess},\n"));
    }
    let tps = if info.wall_ms > 0.0 {
        trials as f64 / (info.wall_ms / 1.0e3)
    } else {
        0.0
    };
    out.push_str(&format!("  \"trials_per_sec\": {tps:.1},\n"));
    out.push_str("  \"phases\": {");
    let mut first = true;
    for (name, stat) in &agg.phases {
        if !first {
            out.push(',');
        }
        first = false;
        let mean_us = if stat.count > 0 {
            stat.total_ns as f64 / stat.count as f64 / 1.0e3
        } else {
            0.0
        };
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"total_ms\": {}, \"mean_us\": {:.3}, \"value_sum\": {}}}",
            esc(name),
            stat.count,
            ms(stat.total_ns),
            mean_us,
            json_num(stat.value_sum),
        ));
    }
    out.push_str("\n  },\n");
    out.push_str("  \"counters\": {");
    first = true;
    for (name, value) in &agg.counters {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", esc(name), value));
    }
    out.push_str("\n  },\n");
    out.push_str("  \"worker_util\": [");
    first = true;
    for w in &agg.workers {
        if !first {
            out.push(',');
        }
        first = false;
        let util = if w.lifetime_ns > 0 {
            w.busy_ns as f64 / w.lifetime_ns as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "\n    {{\"tid\": {}, \"lifetime_ms\": {}, \"busy_ms\": {}, \"utilization\": {:.4}}}",
            w.tid,
            ms(w.lifetime_ns),
            ms(w.busy_ns),
            util,
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str(&format!("  \"events_dropped\": {}\n", agg.dropped));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_api_is_inert() {
        // No session active: spans and counters must record nothing.
        // Holding the session lock keeps a concurrently running test's
        // session from being active (and collecting these events).
        {
            let _no_session = SESSION_LOCK
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _sp = span("t", "noop").key(1).value(2.0);
            counter("noop", 5);
            instant("t", "mark", None);
        }
        let s = Session::start();
        let rec = s.finish();
        assert!(rec.events.is_empty(), "stale events leaked: {rec:?}");
        assert_eq!(rec.dropped, 0);
    }

    #[test]
    fn session_captures_spans_counters_instants() {
        let s = Session::start();
        {
            let _outer = span("t", "outer").value(2.0);
            {
                let _inner = span("t", "inner").key(0xAB);
            }
            counter("things", 3);
            counter("things", 4);
            instant("t", "mark", Some(7));
        }
        let rec = s.finish();
        assert_eq!(rec.events.len(), 5);
        // Sorted with parents before children.
        assert_eq!(rec.events[0].name, "outer");
        assert_eq!(rec.events[1].name, "inner");
        assert_eq!(rec.events[1].key, Some(0xAB));
        let agg = aggregate(&rec);
        assert_eq!(agg.counter("things"), 7);
        assert_eq!(agg.phases["t/outer"].count, 1);
        assert_eq!(agg.phases["t/outer"].value_sum, 2.0);
        assert_eq!(agg.phases["t/mark"].count, 1);
        // Inner span nests within outer.
        let outer = &rec.events[0];
        let inner = &rec.events[1];
        assert!(inner.t_ns >= outer.t_ns);
        assert!(inner.t_ns + inner.dur_ns() <= outer.t_ns + outer.dur_ns());
    }

    #[test]
    fn cross_thread_events_are_collected_and_tids_differ() {
        let s = Session::start();
        let main_tid;
        {
            let _sp = span("t", "main");
            main_tid = LOCAL.with(|l| l.borrow().tid);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    drop(span("t", "worker"));
                    // A scoped thread's destructors may still be pending
                    // when the scope unblocks; flush as the pools do.
                    flush_thread();
                });
            });
        }
        let rec = s.finish();
        assert_eq!(rec.events.len(), 2);
        let worker = rec.events.iter().find(|e| e.name == "worker").unwrap();
        assert_ne!(worker.tid, main_tid);
    }

    #[test]
    fn explicit_flush_beats_session_finish_racing_thread_teardown() {
        // A scoped worker's thread-local destructor runs during OS
        // thread teardown, which `thread::scope` does NOT wait for —
        // it unblocks when the closure returns. Finish the session
        // while the worker thread is provably still alive: its events
        // must already be in the sink because it called flush_thread()
        // from the closure body.
        let s = Session::start();
        let (flushed_tx, flushed_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                {
                    let _sp = span("t", "scoped_worker");
                }
                flush_thread();
                flushed_tx.send(()).unwrap();
                // Stay alive (destructors not yet run) until the main
                // thread has finished the session.
                release_rx.recv().unwrap();
            });
            flushed_rx.recv().unwrap();
            let rec = s.finish();
            release_tx.send(()).unwrap();
            assert!(
                rec.events.iter().any(|e| e.name == "scoped_worker"),
                "explicitly flushed worker events lost: {rec:?}"
            );
        });
    }

    #[test]
    fn worker_utilization_is_aggregated() {
        let s = Session::start();
        {
            let _w = span("pool", "worker").value(0.0);
            let _e = span("pool", "exec");
        }
        let rec = s.finish();
        let agg = aggregate(&rec);
        assert_eq!(agg.workers.len(), 1);
        assert!(agg.workers[0].lifetime_ns >= agg.workers[0].busy_ns);
    }

    #[test]
    fn chrome_trace_renders_all_event_kinds() {
        let s = Session::start();
        {
            let _sp = span("mc", "block").key(0x12).value(256.0);
            counter("trials", 256);
            instant("unit", "resumed", Some(0x34));
        }
        let rec = s.finish();
        let json = chrome_trace(&rec, "vardelay test");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"key\":\"0000000000000012\""));
        assert!(json.contains("\"trials\":256"));
        // Crude structural check; real JSON validation lives in the
        // engine's trace-invariance tests (obs itself has no parser).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn metrics_json_contains_run_and_phase_fields() {
        let s = Session::start();
        {
            let _sp = span("mc", "block").value(256.0);
            counter("trials", 256);
            let _sp2 = span("mc", "block_v3").value(768.0);
            counter("trials_v3", 768);
            let _sp3 = span("mc", "block_stratified").value(256.0);
            counter("trials", 256);
            counter("trials_stratified", 256);
            counter("ess", 100);
        }
        let rec = s.finish();
        let agg = aggregate(&rec);
        let info = RunInfo {
            kind: "sweep",
            name: "demo",
            workers: 2,
            wall_ms: 10.0,
            units_total: 4,
            units_executed: 3,
            units_resumed: 1,
            units_cached: 0,
            torn_tail_normalized: true,
            steps: 12,
        };
        let json = metrics_json(&info, &agg);
        assert!(json.contains("\"kind\": \"sweep\""));
        assert!(json.contains("\"resumed\": 1"));
        assert!(json.contains("\"cached\": 0"));
        assert!(json.contains(
            "\"cache\": {\"hits\": 0, \"misses\": 0, \"hit_rate\": 0.0000, \"bytes_saved\": 0}"
        ));
        assert!(json.contains("\"torn_tail_normalized\": true"));
        assert!(json.contains("\"mc/block\""));
        assert!(json.contains("\"mc/block_v3\""));
        // The top-level total folds every kernel's trial counter; the
        // per-kernel split is reported alongside.
        assert!(json.contains("\"trials\": 1280"));
        assert!(json.contains("\"trials_by_kernel\": {\"v1\": 512, \"v3\": 768}"));
        // Strategy attribution: the stratified trials came out of the
        // kernel totals, plain is the remainder.
        assert!(json.contains(
            "\"trials_by_strategy\": {\"plain\": 1024, \"antithetic\": 0, \
             \"stratified\": 256, \"sobol\": 0, \"blockade\": 0}"
        ));
        assert!(json.contains("\"effective_samples\": 100"));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_num_prints_integral_values_without_fraction() {
        assert_eq!(json_num(256.0), "256");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
