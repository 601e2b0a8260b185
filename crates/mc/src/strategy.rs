//! The versioned trial-plan (sampling-strategy) contracts.
//!
//! A *trial plan* selects how the counter-based per-trial streams are
//! turned into variation draws, orthogonally to the [`crate::kernel`]
//! contract (which pins the arithmetic). Every plan is a determinism
//! contract exactly like `kernel: v3`: for a fixed spec and plan, result
//! bytes are invariant across worker counts, shard splits, resume
//! splices, tracing, and caching — and a non-plain plan is **never**
//! byte-identical to plain Monte-Carlo (it agrees statistically, at
//! matched confidence intervals, in fewer trials).
//!
//! A plan is a *draw overlay* ([`DrawOverlay`]: sign, leading-dim
//! overrides, mean shift) that each kernel's one sampler applies to the
//! normals it draws; plain Monte-Carlo is the identity overlay, which
//! leaves every drawn bit untouched. The overlay modifies only the
//! *leading die-level* draws of each trial (the inter-die normal, then
//! the correlated-region normals, or the stage normals of the moments
//! backend), apart from the antithetic sign, and leaves the rest of the
//! stream to the plain counter-based RNG:
//!
//! * **antithetic** — trial `2k+1` replays trial `2k`'s stream with
//!   every produced standard normal negated. Pairs never straddle the
//!   engine's 256-trial blocks (the block size is even), so block
//!   scheduling cannot split a pair.
//! * **stratified** — within each aligned 256-trial block, the leading
//!   dims are replaced by jittered stratified quantiles under a keyed
//!   per-`(block, dim)` permutation (Latin-hypercube across dims).
//! * **sobol** — the leading dims are replaced by quantile-transformed
//!   digitally-shifted Sobol points addressed by the *global* trial
//!   index, so shards stay coordination-free.
//! * **blockade** — the inter-die normal is mean-shifted toward the
//!   failure region by `shift_sigmas` and every trial carries the
//!   likelihood-ratio weight; yields come from the self-normalized
//!   reweighted estimator with a delta-method confidence interval.
//!
//! Stratified and Sobol values are derived block-wise: the first trial
//! of an aligned 256-trial block that a [`PlanSampler`] prepares derives
//! the whole block's leading-dim values (one tabulated permutation per
//! dim, then one lane-interleaved quantile pass), and later trials of
//! the block look theirs up. Each value is still a pure function of
//! `(plan, stream key, global trial index)`, bit for bit the per-trial
//! derivation, so block-wise derivation cannot reach any result byte.
//!
//! Like the kernel, the plan is **excluded from scenario identity**:
//! identity pins what is simulated and the per-trial seed derivation
//! (shared by all plans), while the plan pins how draws are shaped.
//! Results land in distinct journal/cache entries per plan.

use vardelay_stats::sobol::{sobol_shift, SobolSequence, SOBOL_MAX_DIMS};
use vardelay_stats::strata::{stratified_uniform, stratum_key, Permute256};
use vardelay_stats::{inv_cap_phi_lanes, splitmix64_mix, uniform_open_from_u64, DrawOverlay};

/// Stratified plans partition trials into aligned blocks of this many
/// strata. Equal to the sweep engine's scheduling block (`BLOCK_TRIALS`)
/// so a scheduled block covers every stratum exactly once, but frozen
/// here as part of the stratified contract: the stratum of a trial is a
/// pure function of its global index, never of scheduling.
pub(crate) const STRATA_BLOCK: u64 = 256;

/// Domain-separation salt for plan stream keys (scrambles, permutation
/// keys, jitters) so they never collide with trial seeds.
const PLAN_SALT: u64 = 0x7121_A150_0B0C_0001;

/// Default mean shift (in sigmas of the inter-die normal) for the
/// blockade plan.
pub(crate) const DEFAULT_SHIFT_SIGMAS: f64 = 3.0;

/// Which sampling-plan contract a Monte-Carlo runner executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrialStrategy {
    /// Plain Monte-Carlo: the unmodified counter-based streams. Every
    /// result byte produced before plans were versioned is a plain byte.
    #[default]
    Plain,
    /// Antithetic pairs: odd trials replay their even partner reflected.
    Antithetic,
    /// Jittered stratified / Latin-hypercube sampling of the leading
    /// die-level dims per 256-trial block.
    Stratified,
    /// Digitally-shifted Sobol quasi-Monte-Carlo on the leading dims.
    Sobol,
    /// Statistical blockade: mean-shifted importance sampling of the
    /// inter-die normal with reweighted tail estimation.
    Blockade,
}

impl TrialStrategy {
    /// Stable lowercase name, used in specs, spans and reports.
    pub fn name(self) -> &'static str {
        match self {
            TrialStrategy::Plain => "plain",
            TrialStrategy::Antithetic => "antithetic",
            TrialStrategy::Stratified => "stratified",
            TrialStrategy::Sobol => "sobol",
            TrialStrategy::Blockade => "blockade",
        }
    }
}

/// A fully-resolved trial plan: the strategy plus its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialPlan {
    /// The sampling-strategy contract.
    pub strategy: TrialStrategy,
    /// Mean shift in sigmas for [`TrialStrategy::Blockade`] (ignored by
    /// every other strategy).
    pub shift_sigmas: f64,
}

impl TrialPlan {
    /// The plain plan — the byte-frozen pre-plan behavior.
    pub fn plain() -> Self {
        TrialPlan::of(TrialStrategy::Plain)
    }

    /// A plan for `strategy` with default parameters.
    pub fn of(strategy: TrialStrategy) -> Self {
        TrialPlan {
            strategy,
            shift_sigmas: DEFAULT_SHIFT_SIGMAS,
        }
    }

    /// Whether trials under this plan carry importance weights.
    pub fn is_weighted(&self) -> bool {
        self.strategy == TrialStrategy::Blockade
    }
}

impl Default for TrialPlan {
    fn default() -> Self {
        TrialPlan::plain()
    }
}

/// Per-block sampler deriving each trial's stream modifications: the
/// seed index to replay and the trial's [`DrawOverlay`] (sign,
/// leading-dim overrides, mean shift). Under the plain plan every trial
/// replays its own seed with the identity overlay.
///
/// Everything it produces is a pure function of
/// `(plan, stream key, global trial index)` — the stream key itself is
/// derived from the scenario's counter seed at trial 0 — so any worker,
/// shard, or resumed run derives identical modifications without
/// coordination. Stratified and Sobol values are derived a whole aligned
/// `STRATA_BLOCK` at a time (one permutation table and one
/// lane-interleaved quantile pass per block, [`inv_cap_phi_lanes`]) the
/// first time a trial of that block is prepared; a trial's values do
/// not depend on which of its block's trials are run, or in what order.
#[derive(Debug, Clone)]
pub struct PlanSampler {
    plan: TrialPlan,
    dims: usize,
    stream_key: u64,
    sobol: Option<SobolSequence>,
    shifts: Vec<u32>,
    /// Leading-dim values of every slot of block `block`, slot-major
    /// (`slot * dims + d`); empty unless the plan overrides dims.
    lead: Vec<f64>,
    /// The block `lead` holds, once one has been derived.
    block: Option<u64>,
}

impl PlanSampler {
    /// Builds the driver for one runner.
    ///
    /// `dims` is the number of leading die-level standard-normal dims the
    /// runner draws per trial (inter-die + correlated regions, or the
    /// moments dimension); stratified/sobol overrides are capped at
    /// [`SOBOL_MAX_DIMS`]. `seed0` must be the runner's counter seed for
    /// trial index 0 (`seed_of(0)`), from which the plan's scramble /
    /// permutation / jitter streams are derived.
    pub fn new(plan: TrialPlan, dims: usize, seed0: u64) -> Self {
        let dims = match plan.strategy {
            TrialStrategy::Stratified | TrialStrategy::Sobol => dims.min(SOBOL_MAX_DIMS),
            _ => 0,
        };
        let stream_key = splitmix64_mix(seed0 ^ PLAN_SALT);
        let sobol = (plan.strategy == TrialStrategy::Sobol).then(|| SobolSequence::new(dims));
        let shifts = if plan.strategy == TrialStrategy::Sobol {
            (0..dims).map(|d| sobol_shift(stream_key, d)).collect()
        } else {
            Vec::new()
        };
        PlanSampler {
            plan,
            dims,
            stream_key,
            sobol,
            shifts,
            lead: Vec::new(),
            block: None,
        }
    }

    /// Derives trial `t`'s modifications. Returns the seed index to
    /// replay (seed the trial RNG from `seed_of(seed_index)`) and the
    /// overlay to apply to every normal the trial draws.
    pub fn prepare_trial(&mut self, t: u64) -> (u64, DrawOverlay<'_>) {
        let (seed_index, sign, shift) = match self.plan.strategy {
            TrialStrategy::Blockade => (t, 1.0, self.plan.shift_sigmas),
            // Pair (2k, 2k+1): the odd trial replays the even seed
            // reflected. STRATA_BLOCK-aligned scheduling blocks are
            // even-sized, so a pair never straddles a block.
            TrialStrategy::Antithetic => (t & !1, if t & 1 == 0 { 1.0 } else { -1.0 }, 0.0),
            _ => (t, 1.0, 0.0),
        };
        let lead = if self.dims == 0 {
            &[][..]
        } else {
            let block = t / STRATA_BLOCK;
            if self.block != Some(block) {
                self.derive_block(block);
            }
            let slot = (t % STRATA_BLOCK) as usize;
            &self.lead[slot * self.dims..(slot + 1) * self.dims]
        };
        (seed_index, DrawOverlay { sign, lead, shift })
    }

    /// Derives every slot's leading-dim values of `block`: the uniforms
    /// first (stratified: one permutation table and key per dim; Sobol:
    /// the shifted points of the block's global indices), then one
    /// quantile pass over all of them.
    fn derive_block(&mut self, block: u64) {
        let dims = self.dims;
        self.lead.resize(STRATA_BLOCK as usize * dims, 0.0);
        if let Some(seq) = &self.sobol {
            let first = block * STRATA_BLOCK;
            for (t, row) in (first..).zip(self.lead.chunks_exact_mut(dims)) {
                for (d, u) in row.iter_mut().enumerate() {
                    *u = seq.scrambled_uniform(d, t, self.shifts[d]);
                }
            }
        } else {
            for d in 0..dims {
                let key = stratum_key(self.stream_key, block, d);
                let perm = Permute256::new(key);
                for (slot, row) in (0u8..=255).zip(self.lead.chunks_exact_mut(dims)) {
                    let stratum = u64::from(perm.apply(slot));
                    let jitter = uniform_open_from_u64(splitmix64_mix(
                        key ^ u64::from(slot).wrapping_mul(0xff51_afd7_ed55_8ccd),
                    ));
                    row[d] = stratified_uniform(stratum, jitter, STRATA_BLOCK);
                }
            }
        }
        inv_cap_phi_lanes(&mut self.lead);
        self.block = Some(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_stats::inv_cap_phi;
    use vardelay_stats::strata::permute256;

    /// One trial's modifications as owned values.
    #[derive(Debug)]
    struct Trial {
        seed_index: u64,
        sign: f64,
        shift: f64,
        lead: Vec<f64>,
    }

    impl Trial {
        fn of(seed_index: u64, o: &DrawOverlay<'_>) -> Self {
            Trial {
                seed_index,
                sign: o.sign,
                shift: o.shift,
                lead: o.lead.to_vec(),
            }
        }

        fn assert_bits_eq(&self, want: &Trial, what: &str) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(self.seed_index, want.seed_index, "{what}: seed index");
            assert_eq!(self.sign.to_bits(), want.sign.to_bits(), "{what}: sign");
            assert_eq!(self.shift.to_bits(), want.shift.to_bits(), "{what}: shift");
            assert_eq!(bits(&self.lead), bits(&want.lead), "{what}: lead");
        }
    }

    /// The per-trial derivation the block-wise sampler replaced: every
    /// value of trial `t` computed from scratch, one permutation and one
    /// scalar quantile per leading dim.
    fn reference_trial(plan: TrialPlan, dims: usize, seed0: u64, t: u64) -> Trial {
        let dims = match plan.strategy {
            TrialStrategy::Stratified | TrialStrategy::Sobol => dims.min(SOBOL_MAX_DIMS),
            _ => 0,
        };
        let stream_key = splitmix64_mix(seed0 ^ PLAN_SALT);
        let mut lead = Vec::new();
        let (seed_index, sign) = match plan.strategy {
            TrialStrategy::Plain | TrialStrategy::Blockade => (t, 1.0),
            TrialStrategy::Antithetic => (t & !1, if t & 1 == 0 { 1.0 } else { -1.0 }),
            TrialStrategy::Stratified => {
                let block = t / STRATA_BLOCK;
                let slot = (t % STRATA_BLOCK) as u8;
                for d in 0..dims {
                    let key = stratum_key(stream_key, block, d);
                    let stratum = u64::from(permute256(key, slot));
                    let jitter = uniform_open_from_u64(splitmix64_mix(
                        key ^ u64::from(slot).wrapping_mul(0xff51_afd7_ed55_8ccd),
                    ));
                    let u = stratified_uniform(stratum, jitter, STRATA_BLOCK);
                    lead.push(inv_cap_phi(u));
                }
                (t, 1.0)
            }
            TrialStrategy::Sobol => {
                let seq = SobolSequence::new(dims);
                for d in 0..dims {
                    let u = seq.scrambled_uniform(d, t, sobol_shift(stream_key, d));
                    lead.push(inv_cap_phi(u));
                }
                (t, 1.0)
            }
        };
        let shift = match plan.strategy {
            TrialStrategy::Blockade => plan.shift_sigmas,
            _ => 0.0,
        };
        Trial {
            seed_index,
            sign,
            shift,
            lead,
        }
    }

    /// The block-wise overlays equal the per-trial derivation bit for
    /// bit, for every plan, across the leading-dim cap, on aligned,
    /// straddling, single-trial and partial block ranges, with one fresh
    /// sampler per range (as the engine makes one per block) — and on a
    /// descending walk, which re-derives blocks out of order.
    #[test]
    fn block_wise_overlays_equal_the_per_trial_derivation() {
        let strategies = [
            TrialStrategy::Plain,
            TrialStrategy::Antithetic,
            TrialStrategy::Stratified,
            TrialStrategy::Sobol,
            TrialStrategy::Blockade,
        ];
        let ranges = [
            0..1u64,
            0..256,
            255..513,
            300..301,
            1000..1300,
            65_280..65_792,
        ];
        let seed0 = 0x005E_ED0F_0B1A;
        for strategy in strategies {
            let plan = TrialPlan::of(strategy);
            for dims in [0usize, 1, 2, 15, 16, 17] {
                for range in ranges.clone() {
                    let mut ps = PlanSampler::new(plan, dims, seed0);
                    for t in range.clone() {
                        let (seed_index, o) = ps.prepare_trial(t);
                        Trial::of(seed_index, &o).assert_bits_eq(
                            &reference_trial(plan, dims, seed0, t),
                            &format!("{strategy:?} dims {dims} trial {t}"),
                        );
                    }
                }
                let mut ps = PlanSampler::new(plan, dims, seed0);
                for t in (250..262u64).rev() {
                    let (seed_index, o) = ps.prepare_trial(t);
                    Trial::of(seed_index, &o).assert_bits_eq(
                        &reference_trial(plan, dims, seed0, t),
                        &format!("{strategy:?} dims {dims} trial {t} (descending)"),
                    );
                }
            }
        }
    }

    #[test]
    fn names_and_default() {
        assert_eq!(TrialStrategy::default(), TrialStrategy::Plain);
        assert_eq!(TrialStrategy::Plain.name(), "plain");
        assert_eq!(TrialStrategy::Antithetic.name(), "antithetic");
        assert_eq!(TrialStrategy::Stratified.name(), "stratified");
        assert_eq!(TrialStrategy::Sobol.name(), "sobol");
        assert_eq!(TrialStrategy::Blockade.name(), "blockade");
        assert_eq!(TrialPlan::default().strategy, TrialStrategy::Plain);
        assert!(!TrialPlan::default().is_weighted());
        assert!(TrialPlan::of(TrialStrategy::Blockade).is_weighted());
    }

    #[test]
    fn antithetic_pairs_share_seed_index_and_reflect() {
        let mut ps = PlanSampler::new(TrialPlan::of(TrialStrategy::Antithetic), 5, 42);
        let (s0, o0) = ps.prepare_trial(10);
        assert_eq!((s0, o0.sign), (10, 1.0));
        let (s1, o1) = ps.prepare_trial(11);
        assert_eq!(s1, 10, "odd trial must replay its even partner");
        assert_eq!(o1.sign, -1.0);
        assert!(o1.lead.is_empty());
        // Pairs never straddle a block boundary: the pair of the last
        // even trial of a block is in the same block.
        assert_eq!((STRATA_BLOCK - 1) & !1, STRATA_BLOCK - 2);
    }

    #[test]
    fn stratified_block_covers_every_stratum_once() {
        let mut ps = PlanSampler::new(TrialPlan::of(TrialStrategy::Stratified), 2, 7);
        for d in 0..2usize {
            let mut seen = [false; STRATA_BLOCK as usize];
            for t in 0..STRATA_BLOCK {
                let u = vardelay_stats::cap_phi(ps.prepare_trial(t).1.lead[d]);
                let cell = ((u * STRATA_BLOCK as f64) as usize).min(STRATA_BLOCK as usize - 1);
                assert!(!seen[cell], "dim {d}: stratum {cell} hit twice");
                seen[cell] = true;
            }
        }
    }

    #[test]
    fn sobol_overrides_are_index_addressed() {
        let mut a = PlanSampler::new(TrialPlan::of(TrialStrategy::Sobol), 3, 99);
        let mut b = PlanSampler::new(TrialPlan::of(TrialStrategy::Sobol), 3, 99);
        let mut c = PlanSampler::new(TrialPlan::of(TrialStrategy::Sobol), 3, 100);
        let point = a.prepare_trial(5000).1.lead.to_vec();
        assert_eq!(
            b.prepare_trial(5000).1.lead,
            &point[..],
            "same index must give same point"
        );
        assert_ne!(b.prepare_trial(5001).1.lead, &point[..]);
        // A different stream key re-scrambles the points.
        assert_ne!(c.prepare_trial(5000).1.lead, &point[..]);
    }

    #[test]
    fn blockade_shifts_without_overriding() {
        let mut ps = PlanSampler::new(TrialPlan::of(TrialStrategy::Blockade), 4, 1);
        let (s, o) = ps.prepare_trial(33);
        assert_eq!((s, o.sign), (33, 1.0));
        assert!(o.lead.is_empty());
        assert_eq!(o.shift, DEFAULT_SHIFT_SIGMAS);
        let mut st = PlanSampler::new(TrialPlan::of(TrialStrategy::Stratified), 4, 1);
        assert_eq!(st.prepare_trial(33).1.shift, 0.0);
    }

    #[test]
    fn plain_plan_is_the_identity_overlay() {
        let mut ps = PlanSampler::new(TrialPlan::plain(), 5, 0);
        for t in [0u64, 1, 255, 256, 70_001] {
            let (s, o) = ps.prepare_trial(t);
            assert_eq!(s, t);
            assert_eq!(o, DrawOverlay::IDENTITY);
        }
    }
}
