//! Statistical gate sizing: minimize area under a yield-implied delay
//! constraint.
//!
//! The optimization problem of §4.1 for a single stage:
//!
//! ```text
//! minimize   Σᵢ areaᵢ(xᵢ)
//! subject to μ(x) + κ·σ(x) ≤ T          (κ = Φ⁻¹(Y_stage))
//!            L ≤ xᵢ ≤ U
//! ```
//!
//! Structure (mirroring Fig. 9's inner steps 4–7):
//!
//! 1. **Outer loop** — run SSTA on the stage to get `σ(x)`, convert the
//!    statistical constraint into a deterministic guard-banded target
//!    `T_det = T − κ·σ(x)`, and repeat until the band stops moving.
//! 2. **Upsizing (TILOS-style sensitivity greedy)** — while the nominal
//!    delay exceeds `T_det`, bump the size of the critical-path gate with
//!    the best local `Δdelay/Δarea`, accounting for the extra load imposed
//!    on the critical fanin driver.
//! 3. **Downsizing** — shrink off-critical gates while the target still
//!    holds, recovering area (this pass is what converts slack into the
//!    area savings of Table III).
//!
//! ## The incremental kernel
//!
//! Every candidate move used to be scored with a full O(n) arrival-time
//! pass (allocating a fresh buffer each time), making the hot path
//! O(moves × candidates × n). The sizer now runs on a persistent
//! [`StageTimer`]: candidate scoring is "apply size, repropagate the
//! dirty cone, score TNS, undo", which drops the per-candidate cost to
//! the cone actually touched. The kernel is **bit-identical** to the
//! full pass (see [`vardelay_ssta::incremental`]), so the sizing
//! trajectory — and with it every campaign result byte — is unchanged;
//! the original full-pass kernel is kept behind
//! [`StatisticalSizer::with_full_pass_kernel`] as the reference for
//! equivalence tests and old-vs-new benchmarks.

use vardelay_circuit::{Netlist, SignalId};
use vardelay_ssta::sta::{arrival_times, critical_path, nominal_delay};
use vardelay_ssta::{SstaEngine, StageSsta, StageTimer};
use vardelay_stats::inv_cap_phi;

/// Sizing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingConfig {
    /// Minimum gate size factor `L`.
    pub min_size: f64,
    /// Maximum gate size factor `U`.
    pub max_size: f64,
    /// Multiplicative sizing step (e.g. 1.15 = ±15% moves).
    pub step: f64,
    /// Maximum upsizing iterations per outer pass.
    pub max_upsize_iters: usize,
    /// Number of outer (guard-band refresh) passes.
    pub outer_passes: usize,
    /// Number of downsizing sweeps per outer pass.
    pub downsize_sweeps: usize,
}

impl Default for SizingConfig {
    fn default() -> Self {
        SizingConfig {
            min_size: 0.5,
            max_size: 16.0,
            step: 1.15,
            max_upsize_iters: 4000,
            outer_passes: 3,
            downsize_sweeps: 2,
        }
    }
}

/// Result of sizing one stage.
#[derive(Debug, Clone)]
pub struct SizingResult {
    /// The sized netlist.
    pub netlist: Netlist,
    /// Final cell area.
    pub area: f64,
    /// Final statistical delay `μ + κσ` (ps).
    pub stat_delay_ps: f64,
    /// Final stage delay mean (ps).
    pub mean_ps: f64,
    /// Final stage delay sd (ps).
    pub sd_ps: f64,
    /// Whether the statistical constraint was met.
    pub met: bool,
    /// Upsizing moves taken.
    pub moves: usize,
}

impl SizingResult {
    /// The stage yield at a target delay implied by the final moments
    /// (Gaussian stage model).
    pub fn yield_at(&self, target_ps: f64) -> f64 {
        vardelay_stats::cap_phi((target_ps - self.mean_ps) / self.sd_ps.max(1e-12))
    }
}

/// Which timing kernel drives candidate scoring. The incremental kernel
/// is the production path; the full pass is retained as the reference
/// implementation the incremental one must match bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SizingKernel {
    Incremental,
    FullPass,
}

/// Reusable scratch for the sizing inner loop: candidate list, the
/// seen-bitmask replacing the old O(n²) `contains` scan, and the
/// downsize ordering buffer. One instance serves a whole
/// `size_stage_kappa` call, so the hot path allocates nothing per move.
#[derive(Debug, Default)]
struct SizerScratch {
    violating: Vec<SignalId>,
    candidates: Vec<usize>,
    /// One bit per gate; bits set during candidate collection are
    /// cleared via `candidates` at the start of the next call.
    seen: Vec<u64>,
    order: Vec<usize>,
}

impl SizerScratch {
    fn new(gate_count: usize) -> Self {
        SizerScratch {
            seen: vec![0u64; gate_count.div_ceil(64)],
            ..SizerScratch::default()
        }
    }
}

/// The statistical sizer: an [`SstaEngine`] plus a [`SizingConfig`].
#[derive(Debug, Clone)]
pub struct StatisticalSizer {
    engine: SstaEngine,
    config: SizingConfig,
    kernel: SizingKernel,
}

impl StatisticalSizer {
    /// Creates a sizer.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical config (bounds inverted, step ≤ 1).
    pub fn new(engine: SstaEngine, config: SizingConfig) -> Self {
        assert!(
            config.min_size > 0.0 && config.max_size > config.min_size,
            "size bounds must satisfy 0 < L < U"
        );
        assert!(config.step > 1.0, "sizing step must exceed 1");
        StatisticalSizer {
            engine,
            config,
            kernel: SizingKernel::Incremental,
        }
    }

    /// Switches candidate scoring to the original full-pass timing
    /// kernel. This is the reference implementation kept for
    /// equivalence tests and old-vs-new benchmarks — it produces
    /// bit-identical results, only slower.
    // Kept: bench_summary and the kernel tests in sizing.rs and global.rs call it.
    #[doc(hidden)]
    pub fn with_full_pass_kernel(mut self) -> Self {
        self.kernel = SizingKernel::FullPass;
        self
    }

    /// The timing engine.
    pub fn engine(&self) -> &SstaEngine {
        &self.engine
    }

    /// The configuration.
    pub fn config(&self) -> &SizingConfig {
        &self.config
    }

    /// Sizes a stage to meet `target_ps` with probability `stage_yield`,
    /// minimizing area. The input netlist is not modified.
    ///
    /// # Panics
    ///
    /// Panics if `stage_yield` is outside `(0, 1)`.
    pub fn size_stage(
        &self,
        netlist: &Netlist,
        region: usize,
        target_ps: f64,
        stage_yield: f64,
    ) -> SizingResult {
        assert!(
            stage_yield > 0.0 && stage_yield < 1.0,
            "stage yield must be in (0, 1), got {stage_yield}"
        );
        let kappa = inv_cap_phi(stage_yield);
        self.size_stage_kappa(netlist, region, target_ps, kappa)
    }

    /// Whether `netlist`, as currently sized, already meets the
    /// statistical constraint `μ + κ·σ ≤ budget_ps` at `stage_yield`
    /// (`κ = Φ⁻¹(stage_yield)`) — the incumbent check the global flow
    /// uses to avoid churning a stage the greedy sizer cannot improve.
    ///
    /// # Panics
    ///
    /// Panics if `stage_yield` is outside `(0, 1)`.
    // Kept: the reference moments_meet's test compares against.
    pub fn stage_meets(
        &self,
        netlist: &Netlist,
        region: usize,
        budget_ps: f64,
        stage_yield: f64,
    ) -> bool {
        Self::moments_meet(
            &self.engine.stage_delay(netlist, region),
            budget_ps,
            stage_yield,
        )
    }

    /// The incumbent check of [`StatisticalSizer::stage_meets`] on
    /// already-computed stage moments — lets callers that cache
    /// per-stage timing skip the SSTA pass entirely.
    pub fn moments_meet(d: &vardelay_stats::Normal, budget_ps: f64, stage_yield: f64) -> bool {
        assert!(
            stage_yield > 0.0 && stage_yield < 1.0,
            "stage yield must be in (0, 1), got {stage_yield}"
        );
        let kappa = inv_cap_phi(stage_yield);
        d.mean() + kappa * d.sd() <= budget_ps
    }

    /// Sizes with an explicit sigma multiplier `κ` (negative κ allowed —
    /// it relaxes the constraint below the mean, useful for
    /// area-recovery-only runs).
    pub fn size_stage_kappa(
        &self,
        netlist: &Netlist,
        region: usize,
        target_ps: f64,
        kappa: f64,
    ) -> SizingResult {
        let _sp = vardelay_obs::span("opt", "size_stage").value(netlist.gate_count() as f64);
        match self.kernel {
            SizingKernel::Incremental => {
                self.size_stage_kappa_incremental(netlist, region, target_ps, kappa)
            }
            SizingKernel::FullPass => self.size_stage_kappa_full(netlist, region, target_ps, kappa),
        }
    }

    fn size_stage_kappa_incremental(
        &self,
        netlist: &Netlist,
        region: usize,
        target_ps: f64,
        kappa: f64,
    ) -> SizingResult {
        let cfg = self.config;
        let mut work = netlist.clone();
        // Clamp initial sizes into bounds.
        for i in 0..work.gate_count() {
            let s = work.gates()[i].size.clamp(cfg.min_size, cfg.max_size);
            work.set_gate_size(i, s);
        }
        // The persistent timing state: built once, repropagated
        // cone-by-cone for every candidate move from here on. The
        // statistical side gets the same treatment: `StageSsta` keeps
        // canonical arrivals materialized so the per-iteration SSTA of
        // the corrective loop only re-propagates what a move changed.
        let mut timer = StageTimer::new(work, self.engine.library(), self.engine.output_load());
        let mut ssta = StageSsta::new(&self.engine, &timer, region);
        let mut scratch = SizerScratch::new(timer.netlist().gate_count());

        let mut moves = 0usize;
        for _pass in 0..cfg.outer_passes.max(1) {
            // Step 6 of Fig. 9: statistical analysis => guard band.
            let stat = ssta.stage_delay(&timer);
            let t_det = target_ps - kappa * stat.sd();

            // Upsize until the nominal delay meets the banded target.
            let mut iter = 0;
            while iter < cfg.max_upsize_iters {
                if timer.delay() <= t_det {
                    break;
                }
                if !self.upsize_best(&mut timer, t_det, &mut scratch) {
                    break; // saturated — infeasible at these bounds
                }
                moves += 1;
                iter += 1;
            }

            // Downsize off-critical gates while a slightly conservative
            // band still holds (downsizing raises σ, so leave headroom).
            let t_down = target_ps - kappa * stat.sd() * 1.05;
            for _ in 0..cfg.downsize_sweeps {
                if !self.downsize_sweep(&mut timer, t_down.min(t_det), &mut scratch) {
                    break;
                }
            }
        }

        // Corrective loop: the guard band uses the σ from the start of each
        // pass, which drifts as sizes change. Enforce the true statistical
        // constraint directly for the last few percent.
        let _corr = vardelay_obs::span("opt", "corrective");
        let mut corrective = 0usize;
        while corrective < cfg.max_upsize_iters {
            let stat = ssta.stage_delay(&timer);
            let overshoot = stat.mean() + kappa * stat.sd() - target_ps;
            if overshoot <= 0.0 {
                break;
            }
            // Anchor the violation reference to the *nominal* timing:
            // the statistical mean (Clark max over many near-critical
            // outputs) sits above the deterministic max, so a band derived
            // from it can report zero nominal violation while the
            // statistical constraint is still missed.
            let t_ref = timer.delay() - overshoot;
            if !self.upsize_best(&mut timer, t_ref, &mut scratch) {
                // Upsizing saturated: try unloading the critical cone by
                // shrinking gates whose downsizing strictly reduces delay.
                if !self.reduce_load_sweep(&mut timer) {
                    break;
                }
            }
            moves += 1;
            corrective += 1;
        }
        drop(_corr);

        let stat = ssta.stage_delay(&timer);
        let stat_delay = stat.mean() + kappa * stat.sd();
        SizingResult {
            area: timer.netlist().area(),
            stat_delay_ps: stat_delay,
            mean_ps: stat.mean(),
            sd_ps: stat.sd(),
            met: stat_delay <= target_ps * (1.0 + 1e-9),
            moves,
            netlist: timer.into_netlist(),
        }
    }

    /// One TILOS move on the incremental kernel: bump the size of the
    /// candidate gate with the best TNS-reduction-per-area sensitivity.
    /// Scoring by total negative slack (rather than the worst path
    /// alone) makes progress on circuits with many tied parallel
    /// critical paths — decoders and datapaths — where no single-gate
    /// move can lower the max immediately. Each candidate is evaluated
    /// by repropagating only its dirty cone ("apply, score, undo"), with
    /// arithmetic bit-identical to a full timing pass, so load-coupling
    /// effects on drivers and sibling paths are captured exactly.
    ///
    /// Returns false if no move reduces the violation.
    fn upsize_best(&self, timer: &mut StageTimer, t_ref: f64, scratch: &mut SizerScratch) -> bool {
        let cfg = self.config;
        let tns_base = timer.tns(t_ref);
        if tns_base <= 0.0 {
            return false;
        }

        // Candidates: gates on the critical paths of the worst few
        // violating outputs (bounded so large stages stay fast). The
        // seen-bitmask replaces a `contains` scan that was quadratic in
        // the candidate count.
        for &gi in &scratch.candidates {
            scratch.seen[gi >> 6] &= !(1u64 << (gi & 63));
        }
        scratch.candidates.clear();
        scratch.violating.clear();
        {
            let at = timer.arrivals();
            let nl = timer.netlist();
            scratch
                .violating
                .extend(nl.outputs().iter().copied().filter(|o| at[o.0] > t_ref));
            scratch
                .violating
                .sort_by(|a, b| at[b.0].partial_cmp(&at[a.0]).expect("finite arrivals"));
            for k in 0..scratch.violating.len().min(4) {
                let mut cur = scratch.violating[k];
                while let Some(gi) = nl.driver_of(cur) {
                    let (w, b) = (gi >> 6, 1u64 << (gi & 63));
                    if scratch.seen[w] & b == 0 {
                        scratch.seen[w] |= b;
                        scratch.candidates.push(gi);
                    }
                    let g = &nl.gates()[gi];
                    // Latest-arriving fanin.
                    cur = *g
                        .fanins
                        .iter()
                        .max_by(|a, b| at[a.0].partial_cmp(&at[b.0]).expect("finite arrivals"))
                        .expect("gates have fanins");
                }
            }
        }
        if scratch.candidates.is_empty() {
            // Fall back to the single worst path. (No seen-bits were set
            // above, so the bitmask stays consistent.)
            scratch.candidates = timer.critical_path();
        }

        let mut best: Option<(usize, f64)> = None; // (gate, score)
        for idx in 0..scratch.candidates.len() {
            let gi = scratch.candidates[idx];
            let size = timer.size_of(gi);
            let new_size = (size * cfg.step).min(cfg.max_size);
            if new_size <= size * (1.0 + 1e-9) {
                continue; // saturated at the upper bound
            }
            timer.try_size(gi, new_size);
            let tns_new = timer.tns(t_ref);
            timer.rollback(); // exact journaled undo — no repropagation
            let gain = tns_base - tns_new;
            if gain <= 1e-12 {
                continue; // bump would not help
            }
            let area_delta = (new_size - size) * timer.netlist().gates()[gi].kind.area_unit();
            let score = gain / area_delta; // violation removed per area
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((gi, score));
            }
        }
        match best {
            Some((gi, _)) => {
                let s = timer.size_of(gi);
                timer.set_size(gi, (s * cfg.step).min(cfg.max_size));
                true
            }
            None => false,
        }
    }

    /// Shrinks every gate whose downsizing *strictly reduces* the nominal
    /// delay (off-critical fanout gates loading the critical cone).
    /// Monotone in delay, so always safe. Returns true if anything moved.
    fn reduce_load_sweep(&self, timer: &mut StageTimer) -> bool {
        let cfg = self.config;
        let mut changed = false;
        let mut d_cur = timer.delay();
        for gi in 0..timer.netlist().gate_count() {
            let s = timer.size_of(gi);
            let new_size = s / cfg.step;
            if new_size < cfg.min_size {
                continue;
            }
            timer.try_size(gi, new_size);
            let d_new = timer.delay();
            if d_new < d_cur - 1e-12 {
                d_cur = d_new;
                changed = true;
                timer.commit();
            } else {
                timer.rollback();
            }
        }
        changed
    }

    /// One downsizing sweep: shrink gates (largest-area first) while the
    /// nominal delay stays within `t_det`. Returns true if anything moved.
    fn downsize_sweep(
        &self,
        timer: &mut StageTimer,
        t_det: f64,
        scratch: &mut SizerScratch,
    ) -> bool {
        let cfg = self.config;
        let mut changed = false;
        // Largest cells first: most area to recover.
        scratch.order.clear();
        scratch.order.extend(0..timer.netlist().gate_count());
        {
            let nl = timer.netlist();
            scratch.order.sort_by(|&a, &b| {
                let aa = nl.gates()[a].size * nl.gates()[a].kind.area_unit();
                let bb = nl.gates()[b].size * nl.gates()[b].kind.area_unit();
                bb.partial_cmp(&aa).expect("finite areas")
            });
        }
        for idx in 0..scratch.order.len() {
            let gi = scratch.order[idx];
            let s = timer.size_of(gi);
            let new_size = s / cfg.step;
            if new_size < cfg.min_size {
                continue;
            }
            timer.try_size(gi, new_size);
            if timer.delay() > t_det {
                timer.rollback();
            } else {
                timer.commit();
                changed = true;
            }
        }
        changed
    }

    // ------------------------------------------------------------------
    // Reference (full-pass) kernel — the pre-incremental implementation,
    // kept verbatim so tests and benches can pin the bit-identity
    // contract against it.
    // ------------------------------------------------------------------

    fn size_stage_kappa_full(
        &self,
        netlist: &Netlist,
        region: usize,
        target_ps: f64,
        kappa: f64,
    ) -> SizingResult {
        let lib = self.engine.library().clone();
        let load = self.engine.output_load();
        let cfg = self.config;
        let mut work = netlist.clone();
        for i in 0..work.gate_count() {
            let s = work.gates()[i].size.clamp(cfg.min_size, cfg.max_size);
            work.set_gate_size(i, s);
        }

        let mut moves = 0usize;
        for _pass in 0..cfg.outer_passes.max(1) {
            let stat = self.engine.stage_delay(&work, region);
            let t_det = target_ps - kappa * stat.sd();

            let mut iter = 0;
            while iter < cfg.max_upsize_iters {
                let d = nominal_delay(&work, &lib, load);
                if d <= t_det {
                    break;
                }
                if !self.upsize_best_full(&mut work, t_det) {
                    break;
                }
                moves += 1;
                iter += 1;
            }

            let t_down = target_ps - kappa * stat.sd() * 1.05;
            for _ in 0..cfg.downsize_sweeps {
                if !self.downsize_sweep_full(&mut work, t_down.min(t_det)) {
                    break;
                }
            }
        }

        let _corr = vardelay_obs::span("opt", "corrective");
        let mut corrective = 0usize;
        while corrective < cfg.max_upsize_iters {
            let stat = self.engine.stage_delay(&work, region);
            let overshoot = stat.mean() + kappa * stat.sd() - target_ps;
            if overshoot <= 0.0 {
                break;
            }
            let t_ref = nominal_delay(&work, &lib, load) - overshoot;
            // Upsizing saturated => unload the critical cone instead.
            if !self.upsize_best_full(&mut work, t_ref) && !self.reduce_load_sweep_full(&mut work) {
                break;
            }
            moves += 1;
            corrective += 1;
        }
        drop(_corr);

        let stat = self.engine.stage_delay(&work, region);
        let stat_delay = stat.mean() + kappa * stat.sd();
        SizingResult {
            area: work.area(),
            stat_delay_ps: stat_delay,
            mean_ps: stat.mean(),
            sd_ps: stat.sd(),
            met: stat_delay <= target_ps * (1.0 + 1e-9),
            moves,
            netlist: work,
        }
    }

    /// Total negative slack against a reference target: the sum over
    /// primary outputs of arrival time beyond `t_ref`.
    fn tns(work: &Netlist, at: &[f64], t_ref: f64) -> f64 {
        work.outputs()
            .iter()
            .map(|o| (at[o.0] - t_ref).max(0.0))
            .sum()
    }

    fn upsize_best_full(&self, work: &mut Netlist, t_ref: f64) -> bool {
        let lib = self.engine.library();
        let load = self.engine.output_load();
        let cfg = self.config;
        let at_base = arrival_times(work, lib, load, None);
        let tns_base = Self::tns(work, &at_base, t_ref);
        if tns_base <= 0.0 {
            return false;
        }

        let mut violating: Vec<_> = work
            .outputs()
            .iter()
            .filter(|o| at_base[o.0] > t_ref)
            .collect();
        violating.sort_by(|a, b| {
            at_base[b.0]
                .partial_cmp(&at_base[a.0])
                .expect("finite arrivals")
        });
        let mut candidates: Vec<usize> = Vec::new();
        for &out in violating.iter().take(4) {
            let mut cur = *out;
            while let Some(gi) = work.driver_of(cur) {
                if !candidates.contains(&gi) {
                    candidates.push(gi);
                }
                let g = &work.gates()[gi];
                cur = *g
                    .fanins
                    .iter()
                    .max_by(|a, b| {
                        at_base[a.0]
                            .partial_cmp(&at_base[b.0])
                            .expect("finite arrivals")
                    })
                    .expect("gates have fanins");
            }
        }
        if candidates.is_empty() {
            candidates = critical_path(work, lib, load);
        }

        let mut best: Option<(usize, f64)> = None;
        for &gi in &candidates {
            let size = work.gates()[gi].size;
            let new_size = (size * cfg.step).min(cfg.max_size);
            if new_size <= size * (1.0 + 1e-9) {
                continue;
            }
            work.set_gate_size(gi, new_size);
            let at_new = arrival_times(work, lib, load, None);
            let tns_new = Self::tns(work, &at_new, t_ref);
            work.set_gate_size(gi, size);
            let gain = tns_base - tns_new;
            if gain <= 1e-12 {
                continue;
            }
            let area_delta = (new_size - size) * work.gates()[gi].kind.area_unit();
            let score = gain / area_delta;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((gi, score));
            }
        }
        match best {
            Some((gi, _)) => {
                let s = work.gates()[gi].size;
                work.set_gate_size(gi, (s * cfg.step).min(cfg.max_size));
                true
            }
            None => false,
        }
    }

    fn reduce_load_sweep_full(&self, work: &mut Netlist) -> bool {
        let lib = self.engine.library();
        let load = self.engine.output_load();
        let cfg = self.config;
        let mut changed = false;
        let mut d_cur = nominal_delay(work, lib, load);
        for gi in 0..work.gate_count() {
            let s = work.gates()[gi].size;
            let new_size = s / cfg.step;
            if new_size < cfg.min_size {
                continue;
            }
            work.set_gate_size(gi, new_size);
            let d_new = nominal_delay(work, lib, load);
            if d_new < d_cur - 1e-12 {
                d_cur = d_new;
                changed = true;
            } else {
                work.set_gate_size(gi, s);
            }
        }
        changed
    }

    fn downsize_sweep_full(&self, work: &mut Netlist, t_det: f64) -> bool {
        let lib = self.engine.library();
        let load = self.engine.output_load();
        let cfg = self.config;
        let mut changed = false;
        let mut order: Vec<usize> = (0..work.gate_count()).collect();
        order.sort_by(|&a, &b| {
            let aa = work.gates()[a].size * work.gates()[a].kind.area_unit();
            let bb = work.gates()[b].size * work.gates()[b].kind.area_unit();
            bb.partial_cmp(&aa).expect("finite areas")
        });
        for gi in order {
            let s = work.gates()[gi].size;
            let new_size = s / cfg.step;
            if new_size < cfg.min_size {
                continue;
            }
            work.set_gate_size(gi, new_size);
            if nominal_delay(work, lib, load) > t_det {
                work.set_gate_size(gi, s);
            } else {
                changed = true;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::generators::{inverter_chain, random_logic, RandomLogicConfig};
    use vardelay_circuit::CellLibrary;
    use vardelay_process::VariationConfig;

    fn sizer(var: VariationConfig) -> StatisticalSizer {
        let engine = SstaEngine::new(CellLibrary::default(), var, None);
        StatisticalSizer::new(engine, SizingConfig::default())
    }

    #[test]
    fn loose_target_recovers_area() {
        let s = sizer(VariationConfig::random_only(35.0));
        let mut chain = inverter_chain(8, 4.0); // over-sized start
        chain.scale_sizes(1.0);
        let res = s.size_stage(&chain, 0, 400.0, 0.9);
        assert!(res.met);
        assert!(
            res.area < chain.area(),
            "area should shrink: {} -> {}",
            chain.area(),
            res.area
        );
    }

    #[test]
    fn tight_target_forces_upsizing() {
        let s = sizer(VariationConfig::random_only(35.0));
        let n = random_logic(&RandomLogicConfig::new("sz", 11));
        let engine = s.engine();
        let d0 = engine.stage_delay(&n, 0);
        // Ask for 10% faster than the min-size nominal at 90% yield.
        let target = d0.mean() * 0.9;
        let res = s.size_stage(&n, 0, target, 0.9);
        assert!(
            res.met,
            "stat delay {} vs target {}",
            res.stat_delay_ps, target
        );
        assert!(res.moves > 0, "must have upsized");
        assert!(res.area > 0.0);
    }

    #[test]
    fn higher_yield_costs_area() {
        let s = sizer(VariationConfig::random_only(35.0));
        let n = random_logic(&RandomLogicConfig::new("sz2", 13));
        let d0 = s.engine().stage_delay(&n, 0);
        let target = d0.mean() * 1.0;
        let lo = s.size_stage(&n, 0, target, 0.60);
        let hi = s.size_stage(&n, 0, target, 0.99);
        assert!(lo.met && hi.met);
        assert!(
            hi.area >= lo.area,
            "99% yield needs at least as much area: {} vs {}",
            hi.area,
            lo.area
        );
    }

    #[test]
    fn infeasible_target_reported_unmet() {
        let s = sizer(VariationConfig::random_only(35.0));
        let chain = inverter_chain(20, 1.0);
        // Parasitic delay alone exceeds this target: cannot be met.
        let res = s.size_stage(&chain, 0, 10.0, 0.9);
        assert!(!res.met);
    }

    #[test]
    fn sizes_stay_within_bounds() {
        let s = sizer(VariationConfig::random_only(35.0));
        let n = random_logic(&RandomLogicConfig::new("sz3", 17));
        let d0 = s.engine().stage_delay(&n, 0);
        let res = s.size_stage(&n, 0, d0.mean() * 0.85, 0.9);
        let cfg = s.config();
        for g in res.netlist.gates() {
            assert!(g.size >= cfg.min_size * (1.0 - 1e-12));
            assert!(g.size <= cfg.max_size * (1.0 + 1e-12));
        }
    }

    #[test]
    fn sizing_reduces_sigma_not_just_mean() {
        // Upsizing shrinks Pelgrom randomness: the sized stage should have
        // lower sigma than the min-size stage.
        let s = sizer(VariationConfig::random_only(35.0));
        let n = random_logic(&RandomLogicConfig::new("sz4", 19));
        let before = s.engine().stage_delay(&n, 0);
        let res = s.size_stage(&n, 0, before.mean() * 0.85, 0.9);
        assert!(res.met);
        assert!(
            res.sd_ps < before.sd(),
            "sigma should fall with upsizing: {} -> {}",
            before.sd(),
            res.sd_ps
        );
    }

    /// The refactor's load-bearing property at the sizer level: the
    /// incremental kernel reproduces the full-pass reference bit for bit
    /// — same sized netlist, same move count, same moments — across
    /// random stages and target regimes (upsizing-heavy, area-recovery,
    /// infeasible).
    #[test]
    fn incremental_kernel_matches_full_pass_bit_for_bit() {
        let inc = sizer(VariationConfig::random_only(35.0));
        let full = inc.clone().with_full_pass_kernel();
        for seed in [3u64, 29, 71] {
            let n = random_logic(&RandomLogicConfig::new("eqv", seed));
            let d0 = inc.engine().stage_delay(&n, 0);
            for target_frac in [0.85, 1.05, 1.6] {
                let target = d0.mean() * target_frac;
                let a = inc.size_stage(&n, 0, target, 0.9);
                let b = full.size_stage(&n, 0, target, 0.9);
                assert_eq!(a.netlist, b.netlist, "seed {seed} frac {target_frac}");
                assert_eq!(a.moves, b.moves);
                assert_eq!(a.area, b.area);
                assert_eq!(a.stat_delay_ps, b.stat_delay_ps);
                assert_eq!(a.mean_ps, b.mean_ps);
                assert_eq!(a.sd_ps, b.sd_ps);
                assert_eq!(a.met, b.met);
            }
        }
        // An infeasible target exercises the reduce-load path.
        let chain = inverter_chain(16, 1.0);
        let a = inc.size_stage(&chain, 0, 15.0, 0.9);
        let b = full.size_stage(&chain, 0, 15.0, 0.9);
        assert_eq!(a.netlist, b.netlist);
        assert_eq!(a.moves, b.moves);
        assert!(!a.met);
    }

    #[test]
    fn moments_meet_matches_stage_meets() {
        let s = sizer(VariationConfig::random_only(35.0));
        let n = random_logic(&RandomLogicConfig::new("mm", 41));
        let d = s.engine().stage_delay(&n, 0);
        for budget in [d.mean() * 0.9, d.mean() * 1.2] {
            assert_eq!(
                StatisticalSizer::moments_meet(&d, budget, 0.9),
                s.stage_meets(&n, 0, budget, 0.9)
            );
        }
    }
}
