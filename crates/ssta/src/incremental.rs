//! Incremental timing: change-driven recomputation for the sizing flow.
//!
//! The statistical sizer's inner loop asks one question thousands of
//! times per stage: *what does the timing look like if gate `g` changes
//! size?* Answering it with a full [`crate::sta::arrival_times`] pass
//! costs O(n) per candidate (plus a fresh allocation), which made the
//! Fig. 9 flow O(moves × candidates × n). [`StageTimer`] keeps the whole
//! timing state — per-signal loads, per-gate nominal delays, per-signal
//! arrival times — materialized between moves and repropagates only the
//! *dirty cone* of a resize: the fanin drivers whose load changed, the
//! resized gate itself, and the downstream gates whose arrivals actually
//! moved.
//!
//! ## The bit-identity contract
//!
//! Incremental timing is only admissible here if it is **invisible**:
//! optimization campaigns promise byte-identical JSON for any worker
//! count, and that promise extends across this refactor. `StageTimer`
//! therefore reproduces the full pass *to the bit*, not merely to a
//! tolerance:
//!
//! * per-signal loads are recomputed from scratch in the exact
//!   contribution order of [`vardelay_circuit::Netlist::loads`]
//!   (gate-major, then primary-output occurrences), never nudged by
//!   `+= new − old` deltas, which would accumulate rounding drift;
//! * nominal delays call the same
//!   [`vardelay_circuit::CellLibrary::nominal_delay`] with bit-equal
//!   inputs;
//! * arrival propagation visits dirty gates in increasing gate index —
//!   the topological order of the full forward scan — and applies the
//!   identical `max(fanins) + d` arithmetic, pruning a cone branch only
//!   when a recomputed arrival is bit-equal to the stored one.
//!
//! Undo is resize-symmetric: setting a gate back to its previous size
//! repropagates the same cone back to bit-identical state, so candidate
//! scoring can speculate freely ("apply, score, undo") without cloning.
//!
//! [`PipelineTimingCache`] applies the same idea one level up: the
//! global Fig. 9 flow re-analyzes the whole pipeline after each round,
//! but only the stages it actually re-sized have changed — cache each
//! stage's canonical combinational delay and recombine the Clark
//! max/correlation matrix from the cached moments.

use vardelay_circuit::{CellLibrary, Netlist, SignalId, StagedPipeline};
use vardelay_stats::{CorrelationMatrix, Normal, SymMatrix};

use crate::analysis::{PipelineTiming, SstaEngine};
use crate::canonical::CanonicalDelay;
use crate::sta::{arrival_times_into, nominal_gate_delays};

/// Persistent nominal-timing state of one stage netlist, updated
/// incrementally as gates are resized.
///
/// See the [module docs](self) for the bit-identity contract; the
/// invariant maintained after every [`StageTimer::set_size`] is that
/// [`StageTimer::arrivals`] equals a from-scratch
/// [`crate::sta::arrival_times`] pass over the current netlist, bit for
/// bit.
#[derive(Debug, Clone)]
pub struct StageTimer<'a> {
    lib: &'a CellLibrary,
    netlist: Netlist,
    output_load: f64,
    /// CSR fanout adjacency: `fanout_gate[fanout_start[s]..fanout_start[s+1]]`
    /// are the gates signal `s` drives, in (gate, pin) order — the exact
    /// contribution order of [`Netlist::loads`].
    fanout_start: Vec<u32>,
    fanout_gate: Vec<u32>,
    /// Occurrences of each signal in the primary-output list (each adds
    /// `output_load` to the signal's load).
    output_uses: Vec<u32>,
    /// Capacitive load per signal.
    loads: Vec<f64>,
    /// Nominal delay per gate under the current loads.
    nominal: Vec<f64>,
    /// Arrival time per signal.
    at: Vec<f64>,
    /// Dirty-cone worklist: membership flags scanned in increasing gate
    /// index (topological order) so every recompute reads settled fanin
    /// arrivals. A linear scan beats a heap here — fanouts always lie
    /// ahead of the scan cursor, so one forward pass drains the cone.
    queued: Vec<bool>,
    /// Dirty gates outstanding (the scan stops when it reaches zero).
    pending: u32,
    /// Smallest dirty gate index (scan start).
    scan_from: usize,
    /// Undo log of a speculative move (see [`StageTimer::try_size`]).
    journal: Vec<Undo>,
    /// Whether mutations are currently being journaled.
    journaling: bool,
}

/// One overwritten value of a speculative move, restored on rollback.
#[derive(Debug, Clone, Copy)]
enum Undo {
    Size { gate: u32, v: f64 },
    Load { sig: u32, v: f64 },
    Nominal { gate: u32, v: f64 },
    At { sig: u32, v: f64 },
}

impl<'a> StageTimer<'a> {
    /// Builds the timer with a full from-scratch pass (the reference
    /// state every later incremental update preserves).
    pub fn new(netlist: Netlist, lib: &'a CellLibrary, output_load: f64) -> StageTimer<'a> {
        let ns = netlist.input_count() + netlist.gate_count();
        let mut counts = vec![0u32; ns];
        for g in netlist.gates() {
            for &f in &g.fanins {
                counts[f.0] += 1;
            }
        }
        let mut fanout_start = vec![0u32; ns + 1];
        for i in 0..ns {
            fanout_start[i + 1] = fanout_start[i] + counts[i];
        }
        let mut fill: Vec<u32> = fanout_start[..ns].to_vec();
        let mut fanout_gate = vec![0u32; fanout_start[ns] as usize];
        for (gi, g) in netlist.gates().iter().enumerate() {
            for &f in &g.fanins {
                fanout_gate[fill[f.0] as usize] = gi as u32;
                fill[f.0] += 1;
            }
        }
        let mut output_uses = vec![0u32; ns];
        for &o in netlist.outputs() {
            output_uses[o.0] += 1;
        }
        let loads = netlist.loads(output_load);
        let nominal = nominal_gate_delays(&netlist, lib, output_load);
        let mut at = Vec::new();
        arrival_times_into(&netlist, &nominal, None, &mut at);
        let queued = vec![false; netlist.gate_count()];
        StageTimer {
            lib,
            netlist,
            output_load,
            fanout_start,
            fanout_gate,
            output_uses,
            loads,
            nominal,
            at,
            queued,
            pending: 0,
            scan_from: usize::MAX,
            journal: Vec::new(),
            journaling: false,
        }
    }

    /// The current netlist (sizes reflect every `set_size` so far).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consumes the timer, returning the sized netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Current size of gate `gate`.
    pub fn size_of(&self, gate: usize) -> f64 {
        self.netlist.gates()[gate].size
    }

    /// Arrival time of every signal — bit-identical to
    /// [`crate::sta::arrival_times`] on the current netlist.
    pub fn arrivals(&self) -> &[f64] {
        &self.at
    }

    /// Nominal combinational delay: max arrival over primary outputs
    /// (the [`crate::sta::nominal_delay`] fold).
    pub fn delay(&self) -> f64 {
        self.netlist
            .outputs()
            .iter()
            .map(|o| self.at[o.0])
            .fold(0.0, f64::max)
    }

    /// Total negative slack against `t_ref`: the sum over primary
    /// outputs of arrival time beyond `t_ref`.
    pub fn tns(&self, t_ref: f64) -> f64 {
        self.netlist
            .outputs()
            .iter()
            .map(|o| (self.at[o.0] - t_ref).max(0.0))
            .sum()
    }

    /// Gate indices along the nominal critical path (the
    /// [`crate::sta::critical_path`] walk on the materialized arrivals —
    /// no timing recompute).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no outputs.
    pub fn critical_path(&self) -> Vec<usize> {
        assert!(
            !self.netlist.outputs().is_empty(),
            "critical path requires at least one primary output"
        );
        let at = &self.at;
        let mut cur = *self
            .netlist
            .outputs()
            .iter()
            .max_by(|a, b| at[a.0].partial_cmp(&at[b.0]).expect("finite arrivals"))
            .expect("non-empty outputs");
        let mut path_rev = Vec::new();
        while let Some(gi) = self.netlist.driver_of(cur) {
            path_rev.push(gi);
            let g = &self.netlist.gates()[gi];
            cur = *g
                .fanins
                .iter()
                .max_by(|a, b| at[a.0].partial_cmp(&at[b.0]).expect("finite arrivals"))
                .expect("gates have at least one fanin");
        }
        path_rev.reverse();
        path_rev
    }

    /// Capacitive load per signal — bit-identical to
    /// [`Netlist::loads`] on the current netlist.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Resizes gate `gate` and repropagates the affected cone: the
    /// fanin loads it changes, the drivers those loads feed, its own
    /// delay, and every downstream arrival that actually moves.
    ///
    /// Calling again with the previous size is an exact undo.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range or `size <= 0`.
    pub fn set_size(&mut self, gate: usize, size: f64) {
        debug_assert!(
            self.journal.is_empty(),
            "resolve the speculative move (rollback/commit) before set_size"
        );
        self.set_size_inner(gate, size);
    }

    /// Applies `size` to `gate` as a **speculative** move: identical to
    /// [`StageTimer::set_size`], but every overwritten value is
    /// journaled so [`StageTimer::rollback`] can restore the previous
    /// state bit-for-bit *without repropagating the cone* — candidate
    /// scoring pays one propagation per probe instead of two. Resolve
    /// with [`StageTimer::rollback`] or [`StageTimer::commit`] before
    /// the next move.
    ///
    /// # Panics
    ///
    /// Panics if a previous speculative move is still unresolved, if
    /// `gate` is out of range, or `size <= 0`.
    pub fn try_size(&mut self, gate: usize, size: f64) {
        assert!(
            self.journal.is_empty(),
            "resolve the previous speculative move first"
        );
        self.journaling = true;
        self.set_size_inner(gate, size);
        self.journaling = false;
    }

    /// Reverts the outstanding speculative move (no-op if none).
    pub fn rollback(&mut self) {
        while let Some(u) = self.journal.pop() {
            match u {
                Undo::Size { gate, v } => self.netlist.set_gate_size(gate as usize, v),
                Undo::Load { sig, v } => self.loads[sig as usize] = v,
                Undo::Nominal { gate, v } => self.nominal[gate as usize] = v,
                Undo::At { sig, v } => self.at[sig as usize] = v,
            }
        }
    }

    /// Accepts the outstanding speculative move (no-op if none).
    pub fn commit(&mut self) {
        self.journal.clear();
    }

    fn set_size_inner(&mut self, gate: usize, size: f64) {
        let old = self.netlist.gates()[gate].size;
        if old.to_bits() == size.to_bits() {
            return;
        }
        if self.journaling {
            self.journal.push(Undo::Size {
                gate: gate as u32,
                v: old,
            });
        }
        self.netlist.set_gate_size(gate, size);
        // Fanin loads change with this gate's input cap (distinct
        // signals only; arity is at most 4, so a fixed array suffices).
        let mut fsigs = [usize::MAX; 4];
        let mut nf = 0;
        for &f in &self.netlist.gates()[gate].fanins {
            if !fsigs[..nf].contains(&f.0) {
                fsigs[nf] = f.0;
                nf += 1;
            }
        }
        for &sig in &fsigs[..nf] {
            let new_load = self.recompute_load(sig);
            if new_load.to_bits() != self.loads[sig].to_bits() {
                if self.journaling {
                    self.journal.push(Undo::Load {
                        sig: sig as u32,
                        v: self.loads[sig],
                    });
                }
                self.loads[sig] = new_load;
                if let Some(d) = self.netlist.driver_of(SignalId(sig)) {
                    self.refresh_nominal(d);
                }
            }
        }
        // The gate's own drive strength changed.
        self.refresh_nominal(gate);
        self.propagate();
    }

    /// Gates driven by `sig`, in (gate, pin) order.
    pub(crate) fn fanout_gates(&self, sig: usize) -> &[u32] {
        &self.fanout_gate[self.fanout_start[sig] as usize..self.fanout_start[sig + 1] as usize]
    }

    /// Recomputes one signal's load from scratch, in the exact
    /// contribution order of [`Netlist::loads`]: fanout gates in
    /// (gate, pin) order, then one `output_load` per primary-output
    /// occurrence.
    fn recompute_load(&self, sig: usize) -> f64 {
        let lo = self.fanout_start[sig] as usize;
        let hi = self.fanout_start[sig + 1] as usize;
        let mut l = 0.0;
        for &gi in &self.fanout_gate[lo..hi] {
            let g = &self.netlist.gates()[gi as usize];
            l += g.size * g.kind.logical_effort();
        }
        for _ in 0..self.output_uses[sig] {
            l += self.output_load;
        }
        l
    }

    /// Re-evaluates one gate's nominal delay; queues it for arrival
    /// repropagation only if the bits changed.
    fn refresh_nominal(&mut self, gate: usize) {
        let g = &self.netlist.gates()[gate];
        let out = self.netlist.input_count() + gate;
        let d = self.lib.nominal_delay(g.kind, g.size, self.loads[out]);
        if d.to_bits() != self.nominal[gate].to_bits() {
            if self.journaling {
                self.journal.push(Undo::Nominal {
                    gate: gate as u32,
                    v: self.nominal[gate],
                });
            }
            self.nominal[gate] = d;
            self.queue(gate);
        }
    }

    fn queue(&mut self, gate: usize) {
        if !self.queued[gate] {
            self.queued[gate] = true;
            self.pending += 1;
            if gate < self.scan_from {
                self.scan_from = gate;
            }
        }
    }

    /// Drains the worklist in increasing gate index. Every visit reads
    /// settled fanin arrivals (fanins have smaller signal ids, hence
    /// smaller gate indices, and dirtied fanouts always lie ahead of the
    /// cursor), so the recomputed value equals what the full forward
    /// scan would produce; a branch is pruned exactly when the
    /// recomputed arrival is bit-equal to the stored one.
    fn propagate(&mut self) {
        let ni = self.netlist.input_count();
        let mut gi = self.scan_from;
        while self.pending > 0 {
            if !self.queued[gi] {
                gi += 1;
                continue;
            }
            self.queued[gi] = false;
            self.pending -= 1;
            let g = &self.netlist.gates()[gi];
            let t_in = g
                .fanins
                .iter()
                .map(|f| self.at[f.0])
                .fold(f64::NEG_INFINITY, f64::max);
            let new_at = t_in + self.nominal[gi];
            let out = ni + gi;
            if new_at.to_bits() != self.at[out].to_bits() {
                if self.journaling {
                    self.journal.push(Undo::At {
                        sig: out as u32,
                        v: self.at[out],
                    });
                }
                self.at[out] = new_at;
                let lo = self.fanout_start[out] as usize;
                let hi = self.fanout_start[out + 1] as usize;
                for k in lo..hi {
                    let fg = self.fanout_gate[k] as usize;
                    if !self.queued[fg] {
                        self.queued[fg] = true;
                        self.pending += 1;
                    }
                }
            }
            gi += 1;
        }
        self.scan_from = usize::MAX;
    }
}

/// Bitwise equality of two canonical delays (the pruning predicate of
/// the incremental canonical analyzer).
fn canon_bits_eq(a: &CanonicalDelay, b: &CanonicalDelay) -> bool {
    a.mean().to_bits() == b.mean().to_bits()
        && a.indep().to_bits() == b.indep().to_bits()
        && a.shared().len() == b.shared().len()
        && a.shared()
            .iter()
            .zip(b.shared())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Incremental canonical (statistical) stage analysis on top of a
/// [`StageTimer`].
///
/// The sizing loop re-runs whole-stage SSTA once per corrective
/// iteration — after a *single* gate move. `StageSsta` keeps every
/// signal's canonical arrival materialized and, on each
/// [`StageSsta::stage_delay`] call, bit-compares each gate's (size,
/// load) against the previous analysis, recomputes only the canonical
/// gate delays that changed, and repropagates their cone in gate-index
/// order with bit-equality pruning — the statistical mirror of the
/// nominal kernel, with the same contract: the returned moments are
/// bit-identical to [`SstaEngine::stage_delay`] on the same netlist.
///
/// The timer passed to `stage_delay` must be the one the analyzer was
/// built from (it supplies the netlist, the loads, and the fanout
/// adjacency).
#[derive(Debug)]
pub struct StageSsta<'a> {
    engine: &'a SstaEngine,
    region: usize,
    /// Per-gate (size, output load) of the last analysis, bit-compared
    /// to detect changed gates without a change log.
    sizes: Vec<f64>,
    loads_out: Vec<f64>,
    /// Canonical delay per gate.
    canon_gate: Vec<CanonicalDelay>,
    /// Canonical arrival per signal.
    canon_at: Vec<CanonicalDelay>,
    /// Dirty-cone worklist (same scan-in-index-order discipline as the
    /// nominal timer).
    queued: Vec<bool>,
    pending: u32,
    scan_from: usize,
    /// Reusable scratch for in-place canonical arithmetic.
    scratch: CanonicalDelay,
    scratch_gate: CanonicalDelay,
    /// Result of the last analysis, reused verbatim when a call finds
    /// nothing changed (recomputing the output fold on bit-identical
    /// inputs would reproduce the same bits anyway).
    last: Option<vardelay_stats::Normal>,
}

impl<'a> StageSsta<'a> {
    /// Builds the analyzer with a full canonical pass over the timer's
    /// current netlist (the reference state later calls update).
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range for the engine's grid.
    pub fn new(engine: &'a SstaEngine, timer: &StageTimer<'_>, region: usize) -> StageSsta<'a> {
        let nl = timer.netlist();
        let ni = nl.input_count();
        let ng = nl.gate_count();
        let basis = engine.basis();
        let mut canon_at: Vec<CanonicalDelay> = Vec::with_capacity(ni + ng);
        for _ in 0..ni {
            canon_at.push(basis.zero());
        }
        let mut canon_gate = Vec::with_capacity(ng);
        let mut sizes = Vec::with_capacity(ng);
        let mut loads_out = Vec::with_capacity(ng);
        let mut d = basis.zero();
        let mut t_in = basis.zero();
        for (i, g) in nl.gates().iter().enumerate() {
            let load = timer.loads()[ni + i];
            basis.gate_delay_into(
                &mut d,
                engine.library(),
                engine.variation(),
                g.kind,
                g.size,
                load,
                region,
            );
            // Fold fanins left-to-right exactly like
            // `CanonicalDelay::max_of`, then + gate delay.
            let mut fanins = g.fanins.iter();
            let first = fanins.next().expect("gates have at least one fanin");
            t_in.copy_from(&canon_at[first.0]);
            for f in fanins {
                t_in.max_assign(&canon_at[f.0]);
            }
            t_in.add_assign(&d);
            canon_at.push(t_in.clone());
            canon_gate.push(d.clone());
            sizes.push(g.size);
            loads_out.push(load);
        }
        StageSsta {
            engine,
            region,
            sizes,
            loads_out,
            canon_gate,
            canon_at,
            queued: vec![false; ng],
            pending: 0,
            scan_from: usize::MAX,
            scratch: basis.zero(),
            scratch_gate: basis.zero(),
            last: None,
        }
    }

    /// Marginal statistical stage delay (combinational), bit-identical
    /// to [`SstaEngine::stage_delay`] on the timer's current netlist —
    /// recomputing only the gates whose (size, load) changed since the
    /// previous call and the arrivals they actually move.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no outputs.
    pub fn stage_delay(&mut self, timer: &StageTimer<'_>) -> vardelay_stats::Normal {
        let nl = timer.netlist();
        let ni = nl.input_count();
        assert!(
            !nl.outputs().is_empty(),
            "stage delay requires at least one primary output"
        );
        let basis = self.engine.basis();
        for (i, g) in nl.gates().iter().enumerate() {
            let load = timer.loads()[ni + i];
            if g.size.to_bits() != self.sizes[i].to_bits()
                || load.to_bits() != self.loads_out[i].to_bits()
            {
                self.sizes[i] = g.size;
                self.loads_out[i] = load;
                basis.gate_delay_into(
                    &mut self.scratch_gate,
                    self.engine.library(),
                    self.engine.variation(),
                    g.kind,
                    g.size,
                    load,
                    self.region,
                );
                if !canon_bits_eq(&self.scratch_gate, &self.canon_gate[i]) {
                    self.canon_gate[i].copy_from(&self.scratch_gate);
                    if !self.queued[i] {
                        self.queued[i] = true;
                        self.pending += 1;
                        if i < self.scan_from {
                            self.scan_from = i;
                        }
                    }
                }
            }
        }
        let mut any_arrival_moved = false;
        let mut gi = self.scan_from;
        while self.pending > 0 {
            if !self.queued[gi] {
                gi += 1;
                continue;
            }
            self.queued[gi] = false;
            self.pending -= 1;
            let g = &nl.gates()[gi];
            // t_in = max over fanins, folded left-to-right exactly like
            // `CanonicalDelay::max_of`, then + gate delay — in scratch.
            let mut fanins = g.fanins.iter();
            let first = fanins.next().expect("gates have at least one fanin");
            self.scratch.copy_from(&self.canon_at[first.0]);
            for f in fanins {
                self.scratch.max_assign(&self.canon_at[f.0]);
            }
            self.scratch.add_assign(&self.canon_gate[gi]);
            let out = ni + gi;
            if !canon_bits_eq(&self.scratch, &self.canon_at[out]) {
                any_arrival_moved = true;
                self.canon_at[out].copy_from(&self.scratch);
                for &fg in timer.fanout_gates(out) {
                    let fg = fg as usize;
                    if !self.queued[fg] {
                        self.queued[fg] = true;
                        self.pending += 1;
                    }
                }
            }
            gi += 1;
        }
        self.scan_from = usize::MAX;
        if !any_arrival_moved {
            if let Some(last) = self.last {
                return last;
            }
        }
        let mut outputs = nl.outputs().iter();
        let first = outputs.next().expect("non-empty outputs");
        self.scratch.copy_from(&self.canon_at[first.0]);
        for o in outputs {
            self.scratch.max_assign(&self.canon_at[o.0]);
        }
        let result = self.scratch.to_normal();
        self.last = Some(result);
        result
    }
}

/// Per-stage canonical-delay cache for repeated whole-pipeline analysis.
///
/// [`SstaEngine::analyze_pipeline`] re-propagates every stage's
/// canonical SSTA from scratch; the Fig. 9 flow calls it after every
/// round even though only the stages it re-sized changed. This cache
/// keeps each stage's canonical *combinational* delay and recomputes
/// only invalidated entries, then recombines the latch overhead, stage
/// moments, and correlation matrix exactly as the full analysis does —
/// the resulting [`PipelineTiming`] is bit-identical.
///
/// The caller owns invalidation: call
/// [`PipelineTimingCache::invalidate_stage`] whenever a stage's netlist
/// is replaced. Stage positions are assumed fixed (the optimizer never
/// moves stages on the die); a stage-count change resets the cache.
#[derive(Debug, Clone, Default)]
pub struct PipelineTimingCache {
    comb: Vec<Option<CanonicalDelay>>,
}

impl PipelineTimingCache {
    /// An empty cache; entries fill lazily on first analysis.
    pub fn new() -> Self {
        PipelineTimingCache::default()
    }

    /// Marks stage `i`'s cached timing stale (call after replacing the
    /// stage's netlist). Out-of-range indices are ignored — the next
    /// analysis resizes the cache anyway.
    pub fn invalidate_stage(&mut self, i: usize) {
        if let Some(slot) = self.comb.get_mut(i) {
            *slot = None;
        }
    }

    /// Recomputes stale entries against `pipeline`.
    fn sync(&mut self, engine: &SstaEngine, pipeline: &StagedPipeline) {
        let n = pipeline.stage_count();
        if self.comb.len() != n {
            self.comb = vec![None; n];
        }
        for (i, (stage, pos)) in pipeline
            .stages()
            .iter()
            .zip(pipeline.positions())
            .enumerate()
        {
            if self.comb[i].is_none() {
                let region = engine.grid().map_or(0, |g| g.region_of(*pos));
                self.comb[i] = Some(engine.stage_delay_canonical(stage, region));
            }
        }
    }

    /// Marginal combinational delay of stage `i` (the
    /// [`SstaEngine::stage_delay`] number), from cache when fresh.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the stage has no outputs.
    pub fn stage_delay(
        &mut self,
        engine: &SstaEngine,
        pipeline: &StagedPipeline,
        i: usize,
    ) -> Normal {
        assert!(i < pipeline.stage_count(), "stage index out of range");
        self.sync(engine, pipeline);
        self.comb[i].as_ref().expect("synced above").to_normal()
    }

    /// Full-pipeline analysis recombined from cached stage canonicals —
    /// bit-identical to [`SstaEngine::analyze_pipeline`], recomputing
    /// only invalidated stages.
    ///
    /// # Panics
    ///
    /// Panics if any (recomputed) stage has no outputs.
    pub fn analyze(&mut self, engine: &SstaEngine, pipeline: &StagedPipeline) -> PipelineTiming {
        self.sync(engine, pipeline);
        let latch = pipeline.latch();
        let canonical: Vec<CanonicalDelay> = self
            .comb
            .iter()
            .map(|c| {
                c.as_ref()
                    .expect("synced above")
                    .add_independent(latch.overhead_ps(), latch.overhead_sigma_ps())
            })
            .collect();
        let stage_delays: Vec<Normal> = canonical.iter().map(CanonicalDelay::to_normal).collect();
        let n = canonical.len();
        let corr = SymMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                canonical[i].correlation(&canonical[j])
            }
        });
        let correlation = CorrelationMatrix::from_matrix(corr)
            .expect("canonical correlations are valid by construction");
        PipelineTiming {
            stage_delays,
            canonical,
            correlation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::{arrival_times, critical_path, nominal_delay};
    use vardelay_circuit::generators::{random_logic, RandomLogicConfig};
    use vardelay_circuit::LatchParams;
    use vardelay_process::VariationConfig;

    fn lib() -> CellLibrary {
        CellLibrary::default()
    }

    #[test]
    fn fresh_timer_matches_full_pass() {
        let l = lib();
        let n = random_logic(&RandomLogicConfig::new("it0", 11));
        let t = StageTimer::new(n.clone(), &l, 3.0);
        assert_eq!(t.arrivals(), &arrival_times(&n, &l, 3.0, None)[..]);
        assert_eq!(t.delay(), nominal_delay(&n, &l, 3.0));
        assert_eq!(t.critical_path(), critical_path(&n, &l, 3.0));
    }

    #[test]
    fn resize_tracks_full_pass_bit_for_bit() {
        let l = lib();
        let mut n = random_logic(&RandomLogicConfig::new("it1", 23));
        let mut t = StageTimer::new(n.clone(), &l, 3.0);
        // A deterministic pseudo-random walk over gates and sizes.
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..50 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let gi = (x >> 33) as usize % n.gate_count();
            let size = 0.5 + ((x >> 11) & 0xFF) as f64 / 32.0;
            t.set_size(gi, size);
            n.set_gate_size(gi, size);
            assert_eq!(t.arrivals(), &arrival_times(&n, &l, 3.0, None)[..]);
            assert_eq!(t.size_of(gi), size);
        }
        assert_eq!(t.into_netlist(), n);
    }

    #[test]
    fn undo_restores_exact_state() {
        let l = lib();
        let n = random_logic(&RandomLogicConfig::new("it2", 5));
        let mut t = StageTimer::new(n.clone(), &l, 3.0);
        let before = t.arrivals().to_vec();
        let d_before = t.delay();
        for gi in [0, n.gate_count() / 2, n.gate_count() - 1] {
            let s = t.size_of(gi);
            t.set_size(gi, s * 2.0);
            t.set_size(gi, s);
        }
        assert_eq!(t.arrivals(), &before[..]);
        assert_eq!(t.delay(), d_before);
        assert_eq!(t.netlist(), &n);
    }

    #[test]
    fn speculative_move_rolls_back_without_repropagation() {
        let l = lib();
        let n = random_logic(&RandomLogicConfig::new("it4", 13));
        let mut t = StageTimer::new(n.clone(), &l, 3.0);
        let before_at = t.arrivals().to_vec();
        let before_loads = t.loads().to_vec();
        // Probe several gates speculatively; rollback must restore the
        // exact bits each time.
        for gi in [0, n.gate_count() / 3, n.gate_count() - 1] {
            let s = t.size_of(gi);
            t.try_size(gi, s * 1.15);
            assert_ne!(t.size_of(gi), s);
            t.rollback();
            assert_eq!(t.arrivals(), &before_at[..]);
            assert_eq!(t.loads(), &before_loads[..]);
            assert_eq!(t.size_of(gi), s);
        }
        // Commit keeps the speculative state, bit-identical to a plain
        // set_size.
        let gi = 1;
        let s = t.size_of(gi);
        t.try_size(gi, s * 2.0);
        t.commit();
        let mut want = n.clone();
        want.set_gate_size(gi, s * 2.0);
        assert_eq!(t.arrivals(), &arrival_times(&want, &l, 3.0, None)[..]);
    }

    #[test]
    #[should_panic(expected = "resolve the previous speculative move")]
    fn unresolved_speculation_rejected() {
        let l = lib();
        let n = random_logic(&RandomLogicConfig::new("it5", 3));
        let mut t = StageTimer::new(n, &l, 3.0);
        t.try_size(0, 2.0);
        t.try_size(1, 2.0); // must panic: neither rollback nor commit
    }

    #[test]
    fn incremental_ssta_matches_engine_stage_delay() {
        let l = lib();
        for var in [
            VariationConfig::random_only(35.0),
            VariationConfig::inter_only(40.0),
            VariationConfig::combined(20.0, 35.0, 15.0),
        ] {
            let engine = SstaEngine::new(l.clone(), var, None);
            let mut n = random_logic(&RandomLogicConfig::new("it6", 31));
            let mut timer = StageTimer::new(n.clone(), engine.library(), engine.output_load());
            let mut ssta = StageSsta::new(&engine, &timer, 0);
            assert_eq!(ssta.stage_delay(&timer), engine.stage_delay(&n, 0));
            // Resize a few gates (committed and speculative+rolled-back
            // moves alike); the incremental analysis must stay bit-equal
            // to the from-scratch engine pass.
            let mut x = 77u64;
            for _ in 0..12 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let gi = (x >> 33) as usize % n.gate_count();
                let size = 0.5 + ((x >> 13) & 0x7F) as f64 / 16.0;
                timer.try_size(gi, size);
                timer.rollback();
                timer.set_size(gi, size);
                n.set_gate_size(gi, size);
                assert_eq!(
                    ssta.stage_delay(&timer),
                    engine.stage_delay(&n, 0),
                    "{var:?}"
                );
            }
        }
    }

    #[test]
    fn tns_matches_manual_sum() {
        let l = lib();
        let n = random_logic(&RandomLogicConfig::new("it3", 7));
        let t = StageTimer::new(n.clone(), &l, 3.0);
        let at = arrival_times(&n, &l, 3.0, None);
        let t_ref = t.delay() * 0.9;
        let want: f64 = n.outputs().iter().map(|o| (at[o.0] - t_ref).max(0.0)).sum();
        assert_eq!(t.tns(t_ref), want);
        assert_eq!(t.tns(f64::INFINITY), 0.0);
    }

    #[test]
    fn timing_cache_matches_full_analysis() {
        let engine = SstaEngine::new(lib(), VariationConfig::combined(20.0, 35.0, 15.0), None);
        let mut p = StagedPipeline::inverter_grid(4, 8, 1.0, LatchParams::tg_msff_70nm());
        let mut cache = PipelineTimingCache::new();
        let a = cache.analyze(&engine, &p);
        let b = engine.analyze_pipeline(&p);
        assert_eq!(a.stage_delays, b.stage_delays);
        assert_eq!(a.correlation, b.correlation);
        assert_eq!(cache.comb.iter().flatten().count(), 4);

        // Mutate one stage; only that entry is recomputed, and the
        // recombined analysis still matches the full pass bit for bit.
        let mut s1 = p.stages()[1].clone();
        s1.scale_sizes(2.0);
        p.set_stage(1, s1);
        cache.invalidate_stage(1);
        assert_eq!(cache.comb.iter().flatten().count(), 3);
        let a = cache.analyze(&engine, &p);
        let b = engine.analyze_pipeline(&p);
        assert_eq!(a.stage_delays, b.stage_delays);
        assert_eq!(a.correlation, b.correlation);

        // Per-stage marginals match the engine's stage_delay.
        for i in 0..4 {
            let region = engine.grid().map_or(0, |g| g.region_of(p.positions()[i]));
            let want = engine.stage_delay(&p.stages()[i], region);
            assert_eq!(cache.stage_delay(&engine, &p, i), want);
        }
    }

    #[test]
    fn stale_cache_detects_stage_count_change() {
        let engine = SstaEngine::new(lib(), VariationConfig::random_only(35.0), None);
        let p3 = StagedPipeline::inverter_grid(3, 6, 1.0, LatchParams::ideal());
        let p5 = StagedPipeline::inverter_grid(5, 6, 1.0, LatchParams::ideal());
        let mut cache = PipelineTimingCache::new();
        cache.analyze(&engine, &p3);
        let a = cache.analyze(&engine, &p5);
        let b = engine.analyze_pipeline(&p5);
        assert_eq!(a.stage_delays, b.stage_delays);
    }
}
