//! Allocation-free gate-level Monte-Carlo: the sweep engine's hot path.
//!
//! [`PipelineMc::sample_trial`] allocates several vectors per trial (the
//! die's region values, the per-gate slowdowns, the arrival-time array,
//! the stage-delay vector) and re-evaluates every gate's load-dependent
//! nominal delay from scratch. At sweep scale — millions of trials per
//! scenario — that allocator traffic dominates. [`PreparedPipelineMc`]
//! splits a trial into the parts that never change (topological order,
//! loads, per-gate nominal delays, per-gate Pelgrom sigmas, stage
//! regions — all precomputed once in `new`) and the parts that do (one
//! [`TrialWorkspace`] of scratch buffers, reused across every trial a
//! worker runs).
//!
//! Every gate-level Monte-Carlo surface runs through one entry point,
//! [`PreparedPipelineMc::run_block_plan`]: one per-trial sampler per
//! trial kernel, each consuming the trial plan as a draw overlay (plain
//! is the identity overlay), folded by the kernel's [`LaneFold`]. Under
//! the v1 kernel and the plain plan the RNG consumption order and
//! floating-point arithmetic are **identical** to
//! [`PipelineMc::sample_trial`], so for the same per-trial seeds the
//! prepared runner produces bit-identical statistics — a property the
//! test suite asserts against that reference loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vardelay_circuit::{CellLibrary, LatchParams, Netlist, StagedPipeline};
use vardelay_process::{pelgrom_sigma, DieLanes, DieSample, ProcessSampler};
use vardelay_ssta::sta::{arrival_times_into, nominal_gate_delays};
use vardelay_stats::batch::{
    fill_standard_normals_inv_cdf_fma_multi, fill_standard_normals_inv_cdf_multi,
};
use vardelay_stats::normal::sample_standard_normal;
use vardelay_stats::{DrawOverlay, NormalFill};

use crate::kernel::{LaneFold, TrialKernel, V3_WIDTH};
use crate::pipeline_mc::PipelineMc;
use crate::results::PipelineBlockStats;
use crate::strategy::{PlanSampler, TrialPlan};

/// One stage's precomputed timing data.
#[derive(Debug, Clone)]
struct PreparedStage {
    netlist: Netlist,
    /// Per-gate nominal delay under the stage's static loads (ps).
    nominal: Vec<f64>,
    /// Per-gate Pelgrom-scaled random σVth (V); empty when the variation
    /// config has no random component (in which case no RNG is drawn per
    /// gate, matching [`ProcessSampler::sample_gate_random`]).
    rand_sigma: Vec<f64>,
    /// Spatial region of the stage on the die.
    region: usize,
}

impl PreparedStage {
    /// Combinational delay under per-gate `slowdown` factors: arrival
    /// times into `at`, then the latest primary output.
    fn comb_delay(&self, slowdown: &[f64], at: &mut Vec<f64>) -> f64 {
        arrival_times_into(&self.netlist, &self.nominal, Some(slowdown), at);
        self.netlist
            .outputs()
            .iter()
            .map(|o| at[o.0])
            .fold(0.0, f64::max)
    }
}

/// Reusable per-worker scratch buffers for [`PreparedPipelineMc`].
///
/// Create one per worker thread with
/// [`PreparedPipelineMc::workspace`] (or [`TrialWorkspace::new`] plus
/// [`PreparedPipelineMc::prepare_workspace`], which is grow-only and may
/// be re-used across scenarios). After the first trial warms the
/// buffers, running further trials performs **no heap allocation** — the
/// block runner debug-asserts that every buffer's storage is stable
/// across a block.
#[derive(Debug, Clone, Default)]
pub struct TrialWorkspace {
    /// The die-level standard normals: the inter-die draw, then one per
    /// spatial region.
    z: Vec<f64>,
    /// The die sample (its region vector is reused).
    die: DieSample,
    /// Per-gate slowdown factors of the stage currently being timed.
    slowdown: Vec<f64>,
    /// Arrival times of the stage currently being timed.
    at: Vec<f64>,
    /// Per-stage delays of the current trial.
    stage_delays: Vec<f64>,
    /// Structure-of-arrays buffers of the v3 wide kernel (empty under
    /// v1 — they are sized only when a v3 runner prepares the
    /// workspace).
    wide: WideScratch,
    /// Trials served since the buffers were last (re)allocated — the
    /// observable half of the zero-allocation contract.
    reuses: u64,
}

/// Structure-of-arrays scratch of the v3 wide kernel: every buffer holds
/// one `f64` per lane per item. The per-pass buffers (`dvth`, `slow`,
/// `at`) are packed at the pass's own width `w` (`item * w + lane`) so a
/// ragged final pass stays dense; the cross-pass buffers (`shared`,
/// `latch`, `sd`) keep the fixed `item * V3_WIDTH + lane` stride the
/// fill and record phases index by. Each lane's values are a pure
/// function of its own trial, so pass width cannot leak into result
/// bytes.
#[derive(Debug, Clone, Default)]
struct WideScratch {
    /// Die-phase draws, per-lane contiguous (`lane * row + k`): each
    /// lane's die-level normals past the plan's overridden leading dims,
    /// then its latch-jitter normals — one multi-stream inverse-CDF fill.
    die_rows: Vec<f64>,
    /// The pass's die-level normals, lane-major (`d * V3_WIDTH + lane`),
    /// overrides and sign applied.
    die_z: Vec<f64>,
    /// The pass's dies, lane-major.
    die: DieLanes<V3_WIDTH>,
    /// Fill-phase gate normals, per-lane contiguous
    /// (`lane * rand_total + g`): each lane's counter stream fills its
    /// own row in one batch inverse-CDF call.
    z_rows: Vec<f64>,
    /// Per-gate per-lane total ΔVth shifts (`shared + sigma·z`) of the
    /// stage currently being timed (`g * w + lane`), built while
    /// transposing `z_rows` so one wide polynomial call covers the
    /// stage.
    dvth: Vec<f64>,
    /// Per-stage per-lane shared die ΔVth (`s * V3_WIDTH + lane`).
    shared: Vec<f64>,
    /// Per-stage per-lane latch-jitter normals (`s * V3_WIDTH + lane`),
    /// drawn up front in the fill phase (only when the latch has
    /// jitter).
    latch: Vec<f64>,
    /// Per-gate per-lane slowdown factors of the stage currently being
    /// timed (`g * w + lane`).
    slow: Vec<f64>,
    /// Per-signal per-lane arrival times of the stage currently being
    /// timed (`signal * w + lane`).
    at: Vec<f64>,
    /// Per-stage per-lane stage delays (`s * V3_WIDTH + lane`).
    sd: Vec<f64>,
    /// Per-lane pipeline delays (max over stages).
    maxd: [f64; V3_WIDTH],
    /// Per-lane importance weights (`1.0` unless the plan shifts).
    weight: [f64; V3_WIDTH],
    /// Per-lane generators parked after the die/latch draws so the
    /// gate-normal rows can be filled with interleaved streams
    /// (independent lanes hide each other's serial generator latency).
    rngs: Vec<StdRng>,
}

impl TrialWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        TrialWorkspace::default()
    }

    /// Trials served since the scratch buffers last (re)grew. A long
    /// block run keeping this counter monotone is direct evidence the
    /// hot path allocated nothing.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Every scratch buffer, in a fixed order — what the zero-allocation
    /// checks watch for capacity growth and storage moves.
    fn buffers(&self) -> [&Vec<f64>; 15] {
        let w = &self.wide;
        [
            &self.z,
            &self.die.region_dvth,
            &self.slowdown,
            &self.at,
            &self.stage_delays,
            &w.die_rows,
            &w.die_z,
            w.die.storage(),
            &w.z_rows,
            &w.dvth,
            &w.shared,
            &w.latch,
            &w.slow,
            &w.at,
            &w.sd,
        ]
    }
}

/// A [`StagedPipeline`] compiled for repeated zero-allocation trials.
#[derive(Debug, Clone)]
pub struct PreparedPipelineMc {
    lib: CellLibrary,
    sampler: ProcessSampler,
    stages: Vec<PreparedStage>,
    /// Total per-gate random-σ count across all stages: the length of
    /// each lane's gate-normal row in the v3 kernel's up-front fill.
    rand_total: usize,
    latch: LatchParams,
    output_load: f64,
    kernel: TrialKernel,
}

impl PreparedPipelineMc {
    /// Compiles `pipeline` against the runner's library, variation and
    /// output load: loads and per-gate nominal delays are evaluated once
    /// here, never again per trial.
    pub fn new(mc: &PipelineMc, pipeline: &StagedPipeline) -> Self {
        let inner = mc.netlist_mc();
        let mut prepared = PreparedPipelineMc {
            lib: inner.library().clone(),
            sampler: inner.sampler().clone(),
            stages: Vec::new(),
            rand_total: 0,
            latch: pipeline.latch(),
            output_load: inner.output_load(),
            kernel: mc.kernel(),
        };
        prepared.reprepare(pipeline);
        prepared
    }

    /// The trial-kernel contract this runner executes (inherited from
    /// the [`PipelineMc`] it was compiled from).
    pub fn kernel(&self) -> TrialKernel {
        self.kernel
    }

    /// Compiles one stage in `region`: its per-gate nominal delays and
    /// Pelgrom sigmas.
    fn prepare_stage(&self, netlist: &Netlist, region: usize) -> PreparedStage {
        let variation = self.sampler.variation();
        let rand_sigma = if variation.has_random() {
            netlist
                .gates()
                .iter()
                .map(|g| {
                    pelgrom_sigma(
                        variation.sigma_vth_rand_v(),
                        g.size * g.kind.mismatch_area(),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        PreparedStage {
            netlist: netlist.clone(),
            nominal: nominal_gate_delays(netlist, &self.lib, self.output_load),
            rand_sigma,
            region,
        }
    }

    /// Re-prepares against `pipeline`, recompiling **only the stages
    /// whose netlist changed** since the last (re)prepare — the
    /// change-driven path for callers like the Fig. 9 sizing loop, which
    /// queries Monte-Carlo yield on a pipeline that differs from the
    /// previous query in at most a few stages. Stages that compare equal
    /// keep their precomputed loads, nominal delays and Pelgrom sigmas
    /// (which are pure functions of the netlist, so the reuse is
    /// bit-exact); a stage-count change falls back to a full rebuild.
    pub fn reprepare(&mut self, pipeline: &StagedPipeline) {
        self.latch = pipeline.latch();
        let mut old = std::mem::take(&mut self.stages);
        if old.len() != pipeline.stage_count() {
            old.clear();
        }
        let mut old = old.into_iter();
        self.stages = pipeline
            .stages()
            .iter()
            .zip(pipeline.positions())
            .map(|(netlist, pos)| {
                let region = self.sampler.region_of(*pos);
                match old.next() {
                    Some(stage) if stage.netlist == *netlist => PreparedStage { region, ..stage },
                    _ => self.prepare_stage(netlist, region),
                }
            })
            .collect();
        self.rand_total = self.stages.iter().map(|s| s.rand_sigma.len()).sum();
    }

    /// Number of pipeline stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Grows `ws` to fit this pipeline (no-op when already large
    /// enough). Grow-only, so one workspace can serve interleaved blocks
    /// of different scenarios without reallocating per block.
    pub fn prepare_workspace(&self, ws: &mut TrialWorkspace) {
        let grow = |v: &mut Vec<f64>, n: usize| v.reserve(n.saturating_sub(v.len()));
        let max_gates = self
            .stages
            .iter()
            .map(|s| s.netlist.gate_count())
            .max()
            .unwrap_or(0);
        let max_signals = self
            .stages
            .iter()
            .map(|s| s.netlist.input_count() + s.netlist.gate_count())
            .max()
            .unwrap_or(0);
        let regions = self.sampler.region_value_count();
        let before = ws.buffers().map(Vec::capacity);
        // +1: the inter-die draw shares the buffer with the region draws.
        grow(&mut ws.z, regions + 1);
        grow(&mut ws.die.region_dvth, regions);
        grow(&mut ws.slowdown, max_gates);
        grow(&mut ws.at, max_signals);
        ws.stage_delays.resize(self.stages.len(), 0.0);
        if self.kernel == TrialKernel::V3 {
            // The wide buffers are indexed, not pushed, so they carry
            // their working length (grow-only in capacity: `resize` never
            // shrinks a Vec's allocation).
            let stages = self.stages.len();
            let dims = self.die_dims();
            ws.wide.die_rows.resize((dims + stages) * V3_WIDTH, 0.0);
            ws.wide.die_z.resize(dims * V3_WIDTH, 0.0);
            ws.wide.die.reserve(regions);
            ws.wide.z_rows.resize(self.rand_total * V3_WIDTH, 0.0);
            ws.wide.dvth.resize(max_gates * V3_WIDTH, 0.0);
            ws.wide.shared.resize(stages * V3_WIDTH, 0.0);
            ws.wide.latch.resize(stages * V3_WIDTH, 0.0);
            ws.wide.slow.resize(max_gates * V3_WIDTH, 0.0);
            ws.wide.at.resize(max_signals * V3_WIDTH, 0.0);
            ws.wide.sd.resize(stages * V3_WIDTH, 0.0);
        }
        if before != ws.buffers().map(Vec::capacity) {
            ws.reuses = 0;
        }
    }

    /// A fresh workspace sized for this pipeline.
    pub fn workspace(&self) -> TrialWorkspace {
        let mut ws = TrialWorkspace::new();
        self.prepare_workspace(&mut ws);
        ws
    }

    /// One **v1-kernel** trial into the workspace under the plan's draw
    /// `overlay`; returns `(pipeline delay, importance weight)`. The
    /// per-stage delays are left in the workspace's stage buffer.
    ///
    /// Scalar Box–Muller normals drawn one at a time in trial order (die,
    /// then per stage its gate normals and the latch-overhead normal) and
    /// exact `powf` slowdown factors — the [`PipelineMc::sample_trial`]
    /// stream, which the identity overlay reproduces bit for bit.
    fn sample_trial(
        &self,
        ws: &mut TrialWorkspace,
        rng: &mut StdRng,
        overlay: &DrawOverlay<'_>,
    ) -> (f64, f64) {
        let weight =
            self.sampler
                .sample_die_with(NormalFill::Scalar, overlay, rng, &mut ws.z, &mut ws.die);
        let sign = overlay.sign;
        let mut max_d = f64::NEG_INFINITY;
        for (s, stage) in self.stages.iter().enumerate() {
            let shared = ws.die.shared_dvth(stage.region);
            ws.slowdown.clear();
            if stage.rand_sigma.is_empty() {
                let f = self.lib.vth_slowdown_factor(shared);
                ws.slowdown.resize(stage.netlist.gate_count(), f);
            } else {
                ws.slowdown.extend(stage.rand_sigma.iter().map(|&sig| {
                    let rand = sig * (sign * sample_standard_normal(rng));
                    self.lib.vth_slowdown_factor(shared + rand)
                }));
            }
            let comb = stage.comb_delay(&ws.slowdown, &mut ws.at);
            let overhead = self.latch.overhead_ps()
                + self.latch.overhead_sigma_ps() * (sign * sample_standard_normal(rng));
            let sd = comb + overhead;
            max_d = max_d.max(sd);
            ws.stage_delays[s] = sd;
        }
        ws.reuses += 1;
        (max_d, weight)
    }

    /// Number of die-level standard-normal dims one trial draws (the
    /// inter-die normal plus the correlated-region normals) — the dims a
    /// stratified or Sobol trial plan overrides.
    pub fn die_dims(&self) -> usize {
        self.sampler.die_dims()
    }

    /// Fill phase of one **v3-kernel** pass over trials
    /// `start..start + w` (`w <= V3_WIDTH`), then the shared compute
    /// phase. Leaves lane `i`'s stage delays in
    /// `ws.wide.sd[s * V3_WIDTH + i]`, its pipeline delay in
    /// `ws.wide.maxd[i]` and its importance weight in `ws.wide.weight[i]`.
    /// `ps` prepares each lane's overlay, which applies to every normal
    /// the lane draws (die, latch and gate).
    ///
    /// The v3 RNG consumption order per trial is part of the contract:
    /// die draws (batch inverse-CDF, not Box–Muller), then **all**
    /// latch-jitter normals up front (one per stage, only when the latch
    /// has jitter), then every gate normal in one FMA-fused batch
    /// inverse-CDF fill ([`fill_standard_normals_inv_cdf_fma_multi`]).
    /// The fused fill consumes one `u64` per normal but evaluates the
    /// quantile through `mul_add`-fused Acklam polynomials — correctly
    /// rounded on every target, so its bytes are stable across dispatch
    /// targets. Each lane consumes only its own seeded RNG, so a trial's
    /// values are a pure function of its index — pass grouping
    /// (including the ragged final pass) cannot reach the result bytes.
    fn sample_pass_v3(
        &self,
        ws: &mut TrialWorkspace,
        ps: &mut PlanSampler,
        start: u64,
        w: usize,
        seed_of: &impl Fn(u64) -> u64,
    ) {
        let signs = self.draw_dies_v3(ws, ps, start, w, seed_of);
        let wide = &mut ws.wide;
        fill_standard_normals_inv_cdf_fma_multi(
            &mut wide.rngs,
            &mut wide.z_rows[..w * self.rand_total],
        );
        for (lane, &sign) in signs.iter().enumerate().take(w) {
            if sign != 1.0 {
                let row = &mut wide.z_rows[lane * self.rand_total..(lane + 1) * self.rand_total];
                for zi in row.iter_mut() {
                    *zi *= sign;
                }
            }
        }
        self.compute_pass_v3(ws, w);
    }

    /// Die phase of one v3 pass: seeds each lane's generator from its
    /// overlay's seed index, draws every lane's die and latch-jitter
    /// normals, and shapes the dies lane-major. Leaves each stage's
    /// per-lane shared ΔVth in `ws.wide.shared`, the latch normals in
    /// `ws.wide.latch`, the weights in `ws.wide.weight` and the
    /// generators, positioned at the first gate normal, in
    /// `ws.wide.rngs`; returns the lanes' antithetic signs.
    ///
    /// Each lane gets the bits of
    /// [`ProcessSampler::sample_die_with`] (inverse-CDF fill) followed by
    /// one [`vardelay_stats::sample_standard_normal_inv_cdf`] per stage:
    /// one multi-stream fill ([`fill_standard_normals_inv_cdf_multi`])
    /// draws the same values from the same stream positions, except that
    /// a leading dim the overlay overrides has its `u64` consumed and its
    /// quantile skipped; [`ProcessSampler::shape_die_lanes`] then applies
    /// the shift and correlates the regions in `transform_into`'s
    /// per-element order.
    fn draw_dies_v3(
        &self,
        ws: &mut TrialWorkspace,
        ps: &mut PlanSampler,
        start: u64,
        w: usize,
        seed_of: &impl Fn(u64) -> u64,
    ) -> [f64; V3_WIDTH] {
        const W: usize = V3_WIDTH;
        debug_assert!(w <= W);
        let dims = self.die_dims();
        let latch_n = if self.latch.overhead_sigma_ps() != 0.0 {
            self.stages.len()
        } else {
            0
        };
        let wide = &mut ws.wide;
        let z = &mut wide.die_z.as_chunks_mut::<W>().0[..dims];
        let mut signs = [1.0f64; W];
        // Every trial of a plan overrides the same number of leading
        // dims and shifts by the same amount.
        let (mut skip, mut shift) = (0, 0.0);
        wide.rngs.clear();
        for (lane, sign) in signs.iter_mut().enumerate().take(w) {
            let (seed_index, overlay) = ps.prepare_trial(start + lane as u64);
            debug_assert!(lane == 0 || (overlay.lead.len(), overlay.shift) == (skip, shift));
            (*sign, skip, shift) = (overlay.sign, overlay.lead.len(), overlay.shift);
            for (zd, &l) in z.iter_mut().zip(overlay.lead) {
                zd[lane] = l;
            }
            let mut rng = StdRng::seed_from_u64(seed_of(seed_index));
            for _ in 0..skip {
                rng.next_u64();
            }
            wide.rngs.push(rng);
        }
        let row = dims + latch_n - skip;
        let rows = &mut wide.die_rows[..w * row];
        fill_standard_normals_inv_cdf_multi(&mut wide.rngs, rows);
        for (lane, &sign) in signs.iter().enumerate().take(w) {
            let (die, latch) = rows[lane * row..(lane + 1) * row].split_at(dims - skip);
            for (zd, &v) in z[skip..].iter_mut().zip(die) {
                zd[lane] = v;
            }
            if sign != 1.0 {
                for zd in z.iter_mut() {
                    zd[lane] *= sign;
                }
            }
            for (s, &v) in latch.iter().enumerate() {
                wide.latch[s * W + lane] = sign * v;
            }
        }
        self.sampler
            .shape_die_lanes(z, shift, &mut wide.weight, &mut wide.die);
        for (s, stage) in self.stages.iter().enumerate() {
            wide.shared[s * W..(s + 1) * W].copy_from_slice(&wide.die.shared_dvth(stage.region));
        }
        signs
    }

    /// Lane-major compute phase of one v3 pass over `w` filled lanes,
    /// visiting each stage and gate **once for the whole pass**: the
    /// per-gate normal rows are transposed out of `z_rows` directly into
    /// total ΔVth shifts (`shared + sigma·z`, fusing the transpose with
    /// the shift build), one wide polynomial call turns a whole stage's
    /// `gates × w` shift block into slowdown factors, then wide
    /// arrival-time propagation (the fanin metadata of each gate is
    /// loaded once per pass instead of once per trial) and per-lane
    /// combinational max / latch overhead / stage delay. The per-pass
    /// buffers are packed at width `w`; the per-lane arithmetic is
    /// element-wise throughout, so a lane's bits never depend on its
    /// pass-mates.
    fn compute_pass_v3(&self, ws: &mut TrialWorkspace, w: usize) {
        const W: usize = V3_WIDTH;
        let WideScratch {
            z_rows,
            dvth,
            shared,
            latch,
            slow,
            at,
            sd,
            maxd,
            ..
        } = &mut ws.wide;
        let latch_base = self.latch.overhead_ps();
        let latch_sigma = self.latch.overhead_sigma_ps();
        maxd[..w].fill(f64::NEG_INFINITY);
        let mut rand_off = 0usize;
        for (s, stage) in self.stages.iter().enumerate() {
            let gates = stage.netlist.gate_count();
            let sh = &shared[s * W..s * W + w];
            if stage.rand_sigma.is_empty() {
                // No per-gate randomness: one slowdown factor per lane
                // covers the stage (same fused polynomial kernels as the
                // wide helper, so the bits match the per-gate form —
                // and stay on the v3 kernel family even when no stage
                // draws per-gate normals).
                let mut f = [0.0f64; W];
                for (lane, fl) in f[..w].iter_mut().enumerate() {
                    *fl = self.lib.vth_slowdown_factor_v3(sh[lane]);
                }
                for g in 0..gates {
                    slow[g * w..(g + 1) * w].copy_from_slice(&f[..w]);
                }
            } else {
                for (g, &sig) in stage.rand_sigma.iter().enumerate() {
                    let row = &mut dvth[g * w..(g + 1) * w];
                    for (lane, dv) in row.iter_mut().enumerate() {
                        *dv = sh[lane] + sig * z_rows[lane * self.rand_total + rand_off + g];
                    }
                }
                self.lib
                    .vth_slowdown_factors_v3_shift_into(&dvth[..gates * w], &mut slow[..gates * w]);
                rand_off += gates;
            }
            // Wide arrival times: inputs arrive at 0, each gate takes
            // `max(fanin arrivals) + nominal * slowdown` per lane — the
            // same operations in the same order as `arrival_times_into`,
            // so each lane's bits match the scalar propagation.
            let inputs = stage.netlist.input_count();
            at[..inputs * w].fill(0.0);
            for (i, g) in stage.netlist.gates().iter().enumerate() {
                let out_off = (inputs + i) * w;
                let (pre, rest) = at.split_at_mut(out_off);
                let row = &mut rest[..w];
                row.fill(f64::NEG_INFINITY);
                for f in &g.fanins {
                    let fr = &pre[f.0 * w..(f.0 + 1) * w];
                    for (r, &a) in row.iter_mut().zip(fr) {
                        *r = r.max(a);
                    }
                }
                let nom = stage.nominal[i];
                let srow = &slow[i * w..(i + 1) * w];
                for (r, &sl) in row.iter_mut().zip(srow) {
                    *r += nom * sl;
                }
            }
            let mut comb = [0.0f64; W];
            for o in stage.netlist.outputs() {
                let orow = &at[o.0 * w..(o.0 + 1) * w];
                for (c, &a) in comb[..w].iter_mut().zip(orow) {
                    *c = c.max(a);
                }
            }
            for (lane, &c) in comb[..w].iter().enumerate() {
                let mut overhead = latch_base;
                if latch_sigma != 0.0 {
                    overhead += latch_sigma * latch[s * W + lane];
                }
                let sdv = c + overhead;
                maxd[lane] = maxd[lane].max(sdv);
                sd[s * W + lane] = sdv;
            }
        }
    }

    /// Monte-Carlo pipeline yield at one target delay: runs the given
    /// trial range (plain plan) and returns the fraction of trials whose
    /// pipeline delay met `target_ps`, with its 95% Wilson interval. This
    /// is the yield-at-target-delay evaluation the optimization campaigns
    /// use both as a pluggable sizing-loop backend and to cross-check the
    /// analytic yield prediction (the paper's Table II "actual yield"
    /// column) — same hot path, same bit-reproducibility, as a sweep's
    /// gate-level backend.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is empty.
    pub fn yield_at_target(
        &self,
        ws: &mut TrialWorkspace,
        target_ps: f64,
        trials: std::ops::Range<u64>,
        seed_of: impl Fn(u64) -> u64,
    ) -> crate::results::YieldEstimate {
        assert!(!trials.is_empty(), "yield estimate needs trials");
        let mut stats = PipelineBlockStats::new(self.stage_count(), &[target_ps]);
        self.run_block_plan(ws, trials, seed_of, TrialPlan::plain(), &mut stats);
        stats.yield_estimate(0)
    }

    /// Runs trials `trials.start..trials.end` under a [`TrialPlan`], with
    /// per-trial seeds `seed_of(seed_index)`, folding each trial into
    /// `stats` — the one Monte-Carlo entry point of every gate-level
    /// backend, campaign verifier and in-loop yield evaluation.
    ///
    /// Each trial's draw overlay comes from a [`PlanSampler`] keyed on
    /// `seed_of(0)` — a pure function of the spec, so all workers,
    /// shards and resumed runs agree; the plain plan is the identity
    /// overlay, which leaves every drawn bit as the unmodified stream
    /// produced it. The kernel's sampler then runs the trial and its
    /// [`LaneFold`] records it: under v1, straight into `stats`
    /// (bit-identical to [`PipelineMc::sample_trial`] for the same seeds
    /// under the plain plan); under v3 through the kernel's fixed
    /// lanes, folded in ascending order at the end of the call, so the
    /// output is a pure function of the trial range — identical however
    /// ranges are split across workers or shards, as long as the block
    /// boundaries themselves are fixed.
    ///
    /// Weighted plans ([`TrialPlan::is_weighted`]) require `stats` built
    /// with [`PipelineBlockStats::with_weighted_tail`]; unweighted plans
    /// require it absent.
    ///
    /// # Panics
    ///
    /// Panics if `stats` was built for a different stage count or its
    /// weighted-tail configuration does not match the plan.
    pub fn run_block_plan(
        &self,
        ws: &mut TrialWorkspace,
        trials: std::ops::Range<u64>,
        seed_of: impl Fn(u64) -> u64,
        plan: TrialPlan,
        stats: &mut PipelineBlockStats,
    ) {
        assert_eq!(
            stats.has_weighted_tail(),
            plan.is_weighted(),
            "stats weighted-tail configuration does not match the plan"
        );
        self.prepare_workspace(ws);
        // The zero-allocation contract, made checkable: after the
        // workspace is warm, no buffer may move for the rest of the
        // block.
        let fingerprint = |ws: &TrialWorkspace| ws.buffers().map(Vec::as_ptr);
        let warm = fingerprint(ws);
        let mut ps = PlanSampler::new(plan, self.die_dims(), seed_of(0));
        let mut fold = LaneFold::new(self.kernel, stats);
        match self.kernel {
            TrialKernel::V1 => {
                for t in trials {
                    let (seed_index, overlay) = ps.prepare_trial(t);
                    let mut rng = StdRng::seed_from_u64(seed_of(seed_index));
                    let (maxd, w) = self.sample_trial(ws, &mut rng, &overlay);
                    fold.record(t, &ws.stage_delays, maxd, w);
                    debug_assert_eq!(
                        fingerprint(ws),
                        warm,
                        "hot-path buffer reallocated mid-block"
                    );
                }
            }
            TrialKernel::V3 => {
                let mut t = trials.start;
                while t < trials.end {
                    let w = ((trials.end - t) as usize).min(V3_WIDTH);
                    self.sample_pass_v3(ws, &mut ps, t, w, &seed_of);
                    for i in 0..w {
                        for s in 0..self.stages.len() {
                            ws.stage_delays[s] = ws.wide.sd[s * V3_WIDTH + i];
                        }
                        fold.record(
                            t + i as u64,
                            &ws.stage_delays,
                            ws.wide.maxd[i],
                            ws.wide.weight[i],
                        );
                    }
                    ws.reuses += w as u64;
                    t += w as u64;
                    debug_assert_eq!(
                        fingerprint(ws),
                        warm,
                        "hot-path buffer reallocated mid-block"
                    );
                }
            }
        }
        fold.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::LatchParams;
    use vardelay_process::VariationConfig;
    use vardelay_stats::batch::sample_standard_normal_inv_cdf;

    fn pipe(ns: usize, nl: usize) -> StagedPipeline {
        StagedPipeline::inverter_grid(ns, nl, 1.0, LatchParams::tg_msff_70nm())
    }

    fn seed_of(t: u64) -> u64 {
        t.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(17)
    }

    /// A plain-plan block on the prepared runner.
    fn run(
        prepared: &PreparedPipelineMc,
        ws: &mut TrialWorkspace,
        trials: std::ops::Range<u64>,
        stats: &mut PipelineBlockStats,
    ) {
        prepared.run_block_plan(ws, trials, seed_of, TrialPlan::plain(), stats);
    }

    /// The reference v1 trial loop: [`PipelineMc::sample_trial`] with
    /// fresh vectors every trial, recorded in trial order.
    fn oracle(
        mc: &PipelineMc,
        p: &StagedPipeline,
        trials: std::ops::Range<u64>,
        stats: &mut PipelineBlockStats,
    ) {
        for t in trials {
            let mut rng = StdRng::seed_from_u64(seed_of(t));
            let (stages, maxd) = mc.sample_trial(p, &mut rng);
            stats.record(&stages, maxd);
        }
    }

    /// The refactor's load-bearing property: the prepared runner's plain
    /// v1 path is a pure optimization of the `PipelineMc::sample_trial`
    /// loop — same seeds, same bits — under every variation mode.
    #[test]
    fn prepared_matches_pipeline_mc_bit_for_bit() {
        for var in [
            VariationConfig::none(),
            VariationConfig::random_only(35.0),
            VariationConfig::inter_only(40.0),
            VariationConfig::combined(20.0, 35.0, 15.0),
        ] {
            let mc = PipelineMc::new(CellLibrary::default(), var, None);
            let p = pipe(4, 6);
            let prepared = PreparedPipelineMc::new(&mc, &p);

            let targets = [150.0, 200.0];
            let mut a = PipelineBlockStats::new(p.stage_count(), &targets);
            oracle(&mc, &p, 0..300, &mut a);

            let mut b = PipelineBlockStats::new(p.stage_count(), &targets);
            let mut ws = prepared.workspace();
            run(&prepared, &mut ws, 0..300, &mut b);

            assert_eq!(a, b, "prepared path diverged under {var:?}");
        }
    }

    #[test]
    fn yield_at_target_matches_block_stats() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::random_only(35.0),
            None,
        );
        let p = pipe(3, 6);
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let mut ws = prepared.workspace();
        let target = 200.0;
        let est = prepared.yield_at_target(&mut ws, target, 0..500, seed_of);
        let mut want = PipelineBlockStats::new(p.stage_count(), &[target]);
        oracle(&mc, &p, 0..500, &mut want);
        assert_eq!(est, want.yield_estimate(0));
        assert!(est.lo <= est.value && est.value <= est.hi);
    }

    /// `reprepare` is a pure optimization of building a fresh prepared
    /// pipeline: after mutating some stages, the re-prepared runner
    /// produces bit-identical statistics to a from-scratch compile.
    #[test]
    fn reprepare_matches_fresh_compile_bit_for_bit() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::combined(20.0, 35.0, 15.0),
            None,
        );
        let p0 = pipe(4, 6);
        let mut prepared = PreparedPipelineMc::new(&mc, &p0);

        // Resize one stage; leave the rest untouched.
        let mut p1 = p0.clone();
        let mut s2 = p1.stages()[2].clone();
        s2.scale_sizes(1.7);
        p1.set_stage(2, s2);
        prepared.reprepare(&p1);

        let fresh = PreparedPipelineMc::new(&mc, &p1);
        let mut a = PipelineBlockStats::new(4, &[150.0]);
        let mut b = PipelineBlockStats::new(4, &[150.0]);
        run(&prepared, &mut prepared.workspace(), 0..200, &mut a);
        run(&fresh, &mut fresh.workspace(), 0..200, &mut b);
        assert_eq!(a, b, "reprepared stage diverged from fresh compile");

        // A stage-count change falls back to a full rebuild.
        let p5 = pipe(5, 6);
        prepared.reprepare(&p5);
        assert_eq!(prepared.stage_count(), 5);
        let fresh5 = PreparedPipelineMc::new(&mc, &p5);
        let mut a = PipelineBlockStats::new(5, &[150.0]);
        let mut b = PipelineBlockStats::new(5, &[150.0]);
        run(&prepared, &mut prepared.workspace(), 0..200, &mut a);
        run(&fresh5, &mut fresh5.workspace(), 0..200, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn workspace_is_reused_across_blocks() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::combined(20.0, 35.0, 15.0),
            None,
        );
        let p = pipe(3, 5);
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let mut ws = prepared.workspace();
        let mut stats = PipelineBlockStats::new(p.stage_count(), &[]);
        run(&prepared, &mut ws, 0..64, &mut stats);
        run(&prepared, &mut ws, 64..128, &mut stats);
        assert_eq!(
            ws.reuses(),
            128,
            "every trial after warm-up must reuse the buffers"
        );
        assert_eq!(stats.trials(), 128);
    }

    /// The v3 contract in miniature: a block's v3 bytes are a pure
    /// function of its trial range — fresh or reused workspace, aligned
    /// or ragged range (a final pass narrower than [`V3_WIDTH`] must not
    /// perturb any lane's bits).
    #[test]
    fn v3_block_bytes_are_a_pure_function_of_the_range() {
        for var in [
            VariationConfig::none(),
            VariationConfig::random_only(35.0),
            VariationConfig::inter_only(40.0),
            VariationConfig::combined(20.0, 35.0, 15.0),
        ] {
            let mc =
                PipelineMc::new(CellLibrary::default(), var, None).with_kernel(TrialKernel::V3);
            let p = pipe(4, 6);
            let prepared = PreparedPipelineMc::new(&mc, &p);
            assert_eq!(prepared.kernel(), TrialKernel::V3);

            let targets = [150.0, 200.0];
            // 256..517 ends on a ragged 5-wide pass.
            let range = 256..517u64;
            let mut a = PipelineBlockStats::new(p.stage_count(), &targets);
            let mut ws = prepared.workspace();
            run(&prepared, &mut ws, range.clone(), &mut a);
            assert_eq!(a.trials(), 261);

            // Same range again, same (now warm) workspace.
            let mut b = PipelineBlockStats::new(p.stage_count(), &targets);
            run(&prepared, &mut ws, range.clone(), &mut b);
            assert_eq!(a, b, "v3 block not reproducible under {var:?}");
        }
    }

    /// v1 and v3 are different byte streams drawn from the same
    /// distributions: moments and yields agree within Monte-Carlo error
    /// at matched trial counts, and the bytes must differ (if they
    /// didn't, v3 would not need to be a separate contract).
    #[test]
    fn v3_statistically_matches_v1() {
        let var = VariationConfig::combined(20.0, 35.0, 15.0);
        let p = pipe(4, 6);
        let n = 40_000u64;
        let target = [115.0];
        let stats_for = |kernel: TrialKernel| {
            let mc = PipelineMc::new(CellLibrary::default(), var, None).with_kernel(kernel);
            let prepared = PreparedPipelineMc::new(&mc, &p);
            let mut s = PipelineBlockStats::new(p.stage_count(), &target);
            run(&prepared, &mut prepared.workspace(), 0..n, &mut s);
            s
        };
        let (s, s3) = (stats_for(TrialKernel::V1), stats_for(TrialKernel::V3));
        assert_ne!(s, s3, "the kernels must be distinct byte streams");
        let (m, m3) = (s.pipeline().mean(), s3.pipeline().mean());
        let (d, d3) = (s.pipeline().sample_sd(), s3.pipeline().sample_sd());
        // Means of two independent n-trial estimates differ by
        // ~sd·sqrt(2/n); allow 5 of those.
        let tol = 5.0 * d * (2.0 / n as f64).sqrt();
        assert!((m - m3).abs() < tol, "means {m} vs {m3} (tol {tol})");
        assert!((d - d3).abs() / d < 0.05, "sds {d} vs {d3}");
        let (y, y3) = (s.yield_estimate(0), s3.yield_estimate(0));
        assert!(
            y.lo <= y3.hi && y3.lo <= y.hi,
            "yield CIs disjoint: {y:?} vs {y3:?}"
        );
        for (a, b) in s.stage_stats().iter().zip(s3.stage_stats()) {
            assert!((a.mean() - b.mean()).abs() < 5.0 * a.sample_sd() * (2.0 / n as f64).sqrt());
        }
    }

    /// Asserts the die phase of the v3 pass over `start..start + w`
    /// gives each lane the bits of `sample_die_with` under its overlay
    /// plus one inverse-CDF latch draw per stage (when the latch has
    /// jitter), and parks its generator where that reference leaves it.
    fn assert_die_pass_matches_per_lane(
        prepared: &PreparedPipelineMc,
        ws: &mut TrialWorkspace,
        plan: TrialPlan,
        start: u64,
        w: usize,
    ) {
        let dims = prepared.die_dims();
        let signs = prepared.draw_dies_v3(
            ws,
            &mut PlanSampler::new(plan, dims, seed_of(0)),
            start,
            w,
            &seed_of,
        );
        let mut ps = PlanSampler::new(plan, dims, seed_of(0));
        let (mut z, mut die) = (Vec::new(), DieSample::default());
        let wide = &ws.wide;
        for (lane, sign) in signs.iter().enumerate().take(w) {
            let t = start + lane as u64;
            let what = format!("{:?} trial {t}", plan.strategy);
            let (seed_index, o) = ps.prepare_trial(t);
            let mut rng = StdRng::seed_from_u64(seed_of(seed_index));
            let weight = prepared.sampler.sample_die_with(
                NormalFill::InvCdf,
                &o,
                &mut rng,
                &mut z,
                &mut die,
            );
            assert_eq!(sign.to_bits(), o.sign.to_bits(), "{what}");
            assert_eq!(wide.weight[lane].to_bits(), weight.to_bits(), "{what}");
            for (s, stage) in prepared.stages.iter().enumerate() {
                let want = die.shared_dvth(stage.region);
                let got = wide.shared[s * V3_WIDTH + lane];
                assert_eq!(got.to_bits(), want.to_bits(), "{what} stage {s}");
            }
            if prepared.latch.overhead_sigma_ps() != 0.0 {
                for s in 0..prepared.stage_count() {
                    let want = o.sign * sample_standard_normal_inv_cdf(&mut rng);
                    let got = wide.latch[s * V3_WIDTH + lane];
                    assert_eq!(got.to_bits(), want.to_bits(), "{what} latch {s}");
                }
            }
            let mut parked = wide.rngs[lane].clone();
            assert_eq!(parked.next_u64(), rng.next_u64(), "{what}: stream position");
        }
    }

    /// The lane-major die phase of a v3 pass equals the per-lane
    /// `sample_die_with` path, for every plan, with and without latch
    /// jitter, under `Combined` and `RandomOnly` variation, on full and
    /// ragged passes.
    #[test]
    fn lane_major_die_draws_match_sample_die_with() {
        use crate::strategy::TrialStrategy;
        for var in [
            VariationConfig::combined(20.0, 35.0, 15.0),
            VariationConfig::random_only(35.0),
        ] {
            let mc =
                PipelineMc::new(CellLibrary::default(), var, None).with_kernel(TrialKernel::V3);
            for latch in [LatchParams::tg_msff_70nm(), LatchParams::ideal()] {
                let p = StagedPipeline::inverter_grid(4, 3, 1.0, latch);
                let prepared = PreparedPipelineMc::new(&mc, &p);
                let mut ws = prepared.workspace();
                for strategy in [
                    TrialStrategy::Plain,
                    TrialStrategy::Antithetic,
                    TrialStrategy::Stratified,
                    TrialStrategy::Sobol,
                    TrialStrategy::Blockade,
                ] {
                    for (start, w) in [(0u64, V3_WIDTH), (496, V3_WIDTH), (507, 5)] {
                        let plan = TrialPlan::of(strategy);
                        assert_die_pass_matches_per_lane(&prepared, &mut ws, plan, start, w);
                    }
                }
            }
        }
    }

    #[test]
    fn v3_workspace_is_reused_across_blocks() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::combined(20.0, 35.0, 15.0),
            None,
        )
        .with_kernel(TrialKernel::V3);
        let p = pipe(3, 5);
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let mut ws = prepared.workspace();
        let mut stats = PipelineBlockStats::new(p.stage_count(), &[]);
        run(&prepared, &mut ws, 0..64, &mut stats);
        run(&prepared, &mut ws, 64..128, &mut stats);
        assert_eq!(ws.reuses(), 128, "v3 hot path must not reallocate");
        assert_eq!(stats.trials(), 128);
    }

    /// The trial-plan contract in miniature: for every strategy × kernel,
    /// a block's bytes are a pure function of the trial range, and the
    /// bytes are never the plain bytes.
    #[test]
    fn plan_blocks_are_reproducible_and_never_plain_bytes() {
        use crate::strategy::{TrialPlan, TrialStrategy};
        let var = VariationConfig::combined(30.0, 15.0, 10.0);
        for strategy in [
            TrialStrategy::Antithetic,
            TrialStrategy::Stratified,
            TrialStrategy::Sobol,
            TrialStrategy::Blockade,
        ] {
            for kernel in TrialKernel::ALL {
                let mc = PipelineMc::new(CellLibrary::default(), var, None).with_kernel(kernel);
                let p = pipe(3, 5);
                let prepared = PreparedPipelineMc::new(&mc, &p);
                let plan = TrialPlan::of(strategy);
                let targets = [150.0];
                let make = || {
                    let s = PipelineBlockStats::new(p.stage_count(), &targets);
                    if plan.is_weighted() {
                        s.with_weighted_tail()
                    } else {
                        s
                    }
                };
                let mut a = make();
                let mut ws = prepared.workspace();
                prepared.run_block_plan(&mut ws, 0..256, seed_of, plan, &mut a);
                // Same range, warm workspace: identical bytes.
                let mut b = make();
                prepared.run_block_plan(&mut ws, 0..256, seed_of, plan, &mut b);
                assert_eq!(a, b, "{strategy:?}/{kernel:?} not reproducible");
                // Never the plain bytes.
                let mut plain = PipelineBlockStats::new(p.stage_count(), &targets);
                run(&prepared, &mut prepared.workspace(), 0..256, &mut plain);
                assert_ne!(
                    a.pipeline(),
                    plain.pipeline(),
                    "{strategy:?}/{kernel:?} produced plain bytes"
                );
            }
        }
    }

    /// Every strategy estimates the same distribution as plain MC:
    /// yields agree at matched confidence intervals, and the weighted
    /// (blockade) estimator reports its effective sample size.
    #[test]
    fn plan_statistics_agree_with_plain_at_matched_cis() {
        use crate::strategy::{TrialPlan, TrialStrategy};
        let var = VariationConfig::combined(30.0, 15.0, 0.0);
        let mc = PipelineMc::new(CellLibrary::default(), var, None).with_kernel(TrialKernel::V3);
        let p = pipe(3, 5);
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let n = 8192u64;
        let mut plain = PipelineBlockStats::new(p.stage_count(), &[]);
        run(&prepared, &mut prepared.workspace(), 0..n, &mut plain);
        // Variance reduction compares at a ~90% target; the blockade
        // (whose shift targets the deep tail) compares at mean + 3σ,
        // the regime it exists for.
        let targets = [
            plain.pipeline().mean() + 1.3 * plain.pipeline().sample_sd(),
            plain.pipeline().mean() + 3.0 * plain.pipeline().sample_sd(),
        ];
        let mut plain = PipelineBlockStats::new(p.stage_count(), &targets);
        run(&prepared, &mut prepared.workspace(), 0..n, &mut plain);
        for strategy in [
            TrialStrategy::Antithetic,
            TrialStrategy::Stratified,
            TrialStrategy::Sobol,
            TrialStrategy::Blockade,
        ] {
            let plan = TrialPlan::of(strategy);
            let mut s = PipelineBlockStats::new(p.stage_count(), &targets);
            if plan.is_weighted() {
                s = s.with_weighted_tail();
            }
            prepared.run_block_plan(&mut prepared.workspace(), 0..n, seed_of, plan, &mut s);
            let idx = usize::from(plan.is_weighted());
            let py = plain.yield_estimate(idx);
            let y = if plan.is_weighted() {
                s.weighted_yield_estimate(idx)
            } else {
                s.yield_estimate(idx)
            };
            assert!(
                y.lo <= py.hi && py.lo <= y.hi,
                "{strategy:?} yield CI {y:?} disjoint from plain {py:?}"
            );
            if plan.is_weighted() {
                let ess = s.effective_samples();
                assert!(ess > 0.0 && ess < n as f64, "blockade ESS {ess}");
            } else {
                assert_eq!(s.effective_samples(), s.trials() as f64);
            }
        }
    }

    #[test]
    fn workspace_grows_across_scenarios_without_losing_validity() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::random_only(35.0),
            None,
        );
        let small = PreparedPipelineMc::new(&mc, &pipe(2, 3));
        let large = PreparedPipelineMc::new(&mc, &pipe(5, 9));
        let mut ws = small.workspace();
        let mut s1 = PipelineBlockStats::new(2, &[]);
        run(&small, &mut ws, 0..32, &mut s1);
        // Re-using the same workspace for a bigger pipeline must grow it
        // and still produce the reference numbers.
        let mut s2 = PipelineBlockStats::new(5, &[]);
        run(&large, &mut ws, 0..32, &mut s2);
        let p = pipe(5, 9);
        let mut want = PipelineBlockStats::new(5, &[]);
        oracle(&mc, &p, 0..32, &mut want);
        assert_eq!(s2, want);
    }
}
