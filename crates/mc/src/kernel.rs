//! The versioned Monte-Carlo trial-kernel contract.
//!
//! A *trial kernel* is the complete recipe that turns a per-trial seed
//! into recorded statistics: how uniforms become normals, how slowdown
//! factors are evaluated, and in what order partial statistics merge.
//! Each kernel version is a **determinism contract**: for a fixed spec
//! and version, result bytes are invariant across worker counts, shard
//! splits, resume splices, and tracing. A faster kernel is therefore a
//! *new version* — never a silent change to an existing one — and two
//! versions agree only statistically (same distributions within Monte-
//! Carlo error), not byte-for-byte.
//!
//! The kernel version is deliberately **excluded from scenario identity
//! hashes**, exactly like the execution backend: identity pins *what is
//! simulated* (and the per-trial seed derivation, which all kernels
//! share), while the kernel pins *how the arithmetic runs*. Results land
//! in distinct journal entries per kernel, but a spec's seeds never move
//! when the kernel changes.
//!
//! How a kernel folds its trials into a block's statistics is part of
//! its contract. v1 records each trial straight into the block, in
//! trial order. v3 folds each pass into [`V3Fold`]'s per-lane rows with
//! one [`simd`] kernel, the Pébay step [`RunningStats::push`] runs, and
//! merges the lanes in the frozen `V3_LANES` order at the end of the
//! call.

use vardelay_stats::{pebay_step, simd, NormalFill, RunningStats};

use crate::results::PipelineBlockStats;

/// Which trial-kernel contract a Monte-Carlo runner executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrialKernel {
    /// The original scalar kernel: one Box–Muller normal at a time
    /// (cosine half only), exact `powf` slowdown factors, sequential
    /// statistics accumulation. Every result byte produced before
    /// kernels were versioned is a V1 byte.
    #[default]
    V1,
    /// The wide kernel: the loop order flips from trial-major to
    /// lane-major. Up to [`V3_WIDTH`] trials are processed per pass —
    /// every trial's normals (inverse-CDF, one generator stream per
    /// lane, drawn lane-interleaved) land gate-major in
    /// structure-of-arrays buffers, and each stage and gate is visited
    /// **once per pass** over contiguous per-lane `f64` rows, so the
    /// frozen polynomial `exp(α·ln(od/(od−ΔVth)))` slowdown evaluation
    /// and arrival-time propagation amortize their per-gate bookkeeping
    /// across the whole pass and vectorize. Statistics fold through
    /// `V3_LANES` lanes, one pass at a time ([`V3Fold`]), in a fixed
    /// merge order.
    V3,
}

impl TrialKernel {
    /// Every kernel contract, oldest first; the engine's `KernelSpec::ALL`
    /// keyword list mirrors it.
    // Kept: the mc tests run every kernel through it.
    pub const ALL: [TrialKernel; 2] = [TrialKernel::V1, TrialKernel::V3];

    /// Stable lowercase name (`"v1"` / `"v3"`), used in specs, spans and
    /// reports.
    pub fn name(self) -> &'static str {
        match self {
            TrialKernel::V1 => "v1",
            TrialKernel::V3 => "v3",
        }
    }

    /// The normal fill this kernel draws die-level and joint-Gaussian
    /// normals with: scalar Box–Muller (v1) or inverse-CDF (v3).
    pub fn normal_fill(self) -> NormalFill {
        match self {
            TrialKernel::V1 => NormalFill::Scalar,
            TrialKernel::V3 => NormalFill::InvCdf,
        }
    }
}

/// One row of per-lane values: element `p` belongs to pass position `p`.
type Lanes = [f64; V3_LANES];

/// One quantity's running moments, lane-parallel: the floating-point
/// fields of a [`RunningStats`], one [`V3_LANES`]-wide row each.
#[derive(Debug, Clone, Copy)]
struct LaneMoments {
    mean: Lanes,
    m2: Lanes,
    m3: Lanes,
    m4: Lanes,
    min: Lanes,
    max: Lanes,
}

impl LaneMoments {
    /// Every lane empty, as [`RunningStats::new`].
    const EMPTY: LaneMoments = LaneMoments {
        mean: [0.0; V3_LANES],
        m2: [0.0; V3_LANES],
        m3: [0.0; V3_LANES],
        m4: [0.0; V3_LANES],
        min: [f64::INFINITY; V3_LANES],
        max: [f64::NEG_INFINITY; V3_LANES],
    };

    /// Folds `x[p]` into lane `p` for every position `p < w`, each lane
    /// holding `n1` observations before: [`RunningStats::push`]'s step,
    /// lane by lane. Positions past `w` keep their values (a select, so
    /// the loop has no branch and vectorizes).
    #[inline(always)]
    fn push(&mut self, n1: f64, n: f64, x: &Lanes, w: usize) {
        for (p, &x) in x.iter().enumerate() {
            let on = p < w;
            let old = [self.mean[p], self.m2[p], self.m3[p], self.m4[p]];
            let new = pebay_step(n1, n, x, old);
            self.mean[p] = pick(on, new[0], old[0]);
            self.m2[p] = pick(on, new[1], old[1]);
            self.m3[p] = pick(on, new[2], old[2]);
            self.m4[p] = pick(on, new[3], old[3]);
            self.min[p] = pick(on, self.min[p].min(x), self.min[p]);
            self.max[p] = pick(on, self.max[p].max(x), self.max[p]);
        }
    }

    /// Lane `p`'s accumulator after `count` observations.
    fn lane(&self, p: usize, count: u64) -> RunningStats {
        let moments = [self.mean[p], self.m2[p], self.m3[p], self.m4[p]];
        RunningStats::from_parts(count, moments, self.min[p], self.max[p])
    }
}

impl Default for LaneMoments {
    fn default() -> Self {
        LaneMoments::EMPTY
    }
}

/// The v3 kernel's frozen statistics fold, structure-of-arrays.
///
/// Trial `t` of a call over `start..end` belongs to lane
/// `t % V3_LANES`; a pass over trials `t0..t0 + w` (`t0 - start` a
/// multiple of [`V3_WIDTH`]) feeds pass position `p` to lane
/// `(start + p) % V3_LANES`, so the rows are kept by pass position and
/// every pass folds one trial into each of its `w` positions with one
/// [`simd::dispatch`] kernel. The rows hold each lane's moments of the
/// pipeline delay and of every stage delay and, for weighted
/// (blockade) statistics, its weight sums; success counts and histogram
/// bins are integers and go straight into the block's statistics.
/// [`V3Fold::finish`] turns each lane into a [`RunningStats`] and
/// merges the lanes in ascending lane order — the same numbers, in the
/// same order, as folding each lane into its own
/// [`PipelineBlockStats`] and merging those, so a call's bytes are a
/// pure function of its trial range. Grow-only: once sized, a fold
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct V3Fold {
    /// Trials per pass position.
    count: [u64; V3_LANES],
    /// Pipeline-delay moments.
    pipeline: LaneMoments,
    /// Per-stage delay moments.
    stages: Vec<LaneMoments>,
    /// Whether the weight rows are kept.
    weighted: bool,
    sum_w: Lanes,
    sum_w2: Lanes,
    /// Per-target weight sums of the failing trials (`delay > target`).
    fail_w: Vec<Lanes>,
    fail_w2: Vec<Lanes>,
}

impl V3Fold {
    /// Empties the rows for a call that folds into `stats`.
    pub fn begin(&mut self, stats: &PipelineBlockStats) {
        self.count = [0; V3_LANES];
        self.pipeline = LaneMoments::EMPTY;
        self.stages.clear();
        self.stages
            .resize(stats.stage_stats().len(), LaneMoments::EMPTY);
        self.weighted = stats.has_weighted_tail();
        self.sum_w = [0.0; V3_LANES];
        self.sum_w2 = [0.0; V3_LANES];
        let targets = if self.weighted {
            stats.targets().len()
        } else {
            0
        };
        for rows in [&mut self.fail_w, &mut self.fail_w2] {
            rows.clear();
            rows.resize(targets, [0.0; V3_LANES]);
        }
    }

    /// Grows the rows to fit `stages` stages and `targets` weighted
    /// targets without emptying them.
    pub(crate) fn reserve(&mut self, stages: usize, targets: usize) {
        self.stages
            .reserve(stages.saturating_sub(self.stages.len()));
        for rows in [&mut self.fail_w, &mut self.fail_w2] {
            rows.reserve(targets.saturating_sub(rows.len()));
        }
    }

    /// Storage address and capacity of each row buffer, for the
    /// workspace's zero-allocation checks.
    pub(crate) fn storage(&self) -> [(*const u8, usize); 3] {
        [
            (self.stages.as_ptr().cast(), self.stages.capacity()),
            (self.fail_w.as_ptr().cast(), self.fail_w.capacity()),
            (self.fail_w2.as_ptr().cast(), self.fail_w2.capacity()),
        ]
    }

    /// Folds one pass of `w` trials (`1 <= w <= V3_WIDTH`): position
    /// `p`'s stage delays at `sd[s * V3_WIDTH + p]`, its pipeline delay
    /// `maxd[p]` and its importance weight `weight[p]`. Positions past
    /// `w` are never read into the result.
    ///
    /// # Panics
    ///
    /// Panics if `sd` does not hold one row per stage of the statistics
    /// [`V3Fold::begin`] was given.
    pub fn fold_pass(
        &mut self,
        sd: &[f64],
        maxd: &Lanes,
        weight: &Lanes,
        w: usize,
        stats: &mut PipelineBlockStats,
    ) {
        self.fold_pass_with(|k| simd::dispatch(k), sd, maxd, weight, w, stats);
    }

    /// [`V3Fold::fold_pass`] with its moment kernel run by `run` — how
    /// the tests pin every [`simd::SimdTier`].
    pub(crate) fn fold_pass_with(
        &mut self,
        run: impl FnOnce(FoldPass<'_>),
        sd: &[f64],
        maxd: &Lanes,
        weight: &Lanes,
        w: usize,
        stats: &mut PipelineBlockStats,
    ) {
        assert_eq!(
            sd.len(),
            self.stages.len() * V3_WIDTH,
            "stage count mismatch"
        );
        assert!((1..=V3_WIDTH).contains(&w), "pass width out of range");
        run(FoldPass {
            fold: self,
            sd,
            maxd,
            weight,
            w,
            targets: stats.targets(),
        });
        for &d in &maxd[..w] {
            stats.count_trial(d);
        }
    }

    /// Merges the lanes of a call that started at trial `start` into
    /// `stats`, in ascending lane order.
    pub fn finish(&self, start: u64, stats: &mut PipelineBlockStats) {
        let shift = (start % V3_LANES as u64) as usize;
        let (pipeline, stages, mut tail) = stats.moments_mut();
        for lane in 0..V3_LANES {
            let p = (lane + V3_LANES - shift) % V3_LANES;
            let n = self.count[p];
            pipeline.merge(&self.pipeline.lane(p, n));
            for (acc, m) in stages.iter_mut().zip(&self.stages) {
                acc.merge(&m.lane(p, n));
            }
            if let Some(tail) = tail.as_deref_mut() {
                tail.sum_w += self.sum_w[p];
                tail.sum_w2 += self.sum_w2[p];
                for (acc, row) in tail.fail_w.iter_mut().zip(&self.fail_w) {
                    *acc += row[p];
                }
                for (acc, row) in tail.fail_w2.iter_mut().zip(&self.fail_w2) {
                    *acc += row[p];
                }
            }
        }
    }
}

/// `new` where the lane is `on`, else `old`: a select per element,
/// never an add of zero, so the row loops carry no branch and
/// vectorize on every tier with a blend.
#[inline(always)]
fn pick(on: bool, new: f64, old: f64) -> f64 {
    if on {
        new
    } else {
        old
    }
}

/// One pass of [`V3Fold`]'s rows, compiled once per [`simd`] tier.
pub(crate) struct FoldPass<'a> {
    fold: &'a mut V3Fold,
    sd: &'a [f64],
    maxd: &'a Lanes,
    weight: &'a Lanes,
    w: usize,
    targets: &'a [f64],
}

impl simd::Kernel for FoldPass<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let FoldPass {
            fold,
            sd,
            maxd,
            weight,
            w,
            targets,
        } = self;
        // Every pass of a call but the last is full, so all `w` active
        // positions hold the same count: position 0's.
        debug_assert!(
            fold.count[..w].iter().all(|&c| c == fold.count[0]),
            "only a call's last pass may be ragged"
        );
        let n1 = fold.count[0] as f64;
        let n = (fold.count[0] + 1) as f64;
        fold.pipeline.push(n1, n, maxd, w);
        for (m, x) in fold.stages.iter_mut().zip(sd.chunks_exact(V3_WIDTH)) {
            m.push(n1, n, x.try_into().expect("a full row"), w);
        }
        if fold.weighted {
            for (p, &wt) in weight.iter().enumerate() {
                let on = p < w;
                fold.sum_w[p] = pick(on, fold.sum_w[p] + wt, fold.sum_w[p]);
                fold.sum_w2[p] = pick(on, fold.sum_w2[p] + wt * wt, fold.sum_w2[p]);
            }
            let rows = fold.fail_w.iter_mut().zip(&mut fold.fail_w2);
            for ((fw, fw2), &t) in rows.zip(targets) {
                for (p, (&wt, &d)) in weight.iter().zip(maxd).enumerate() {
                    let fail = p < w && d > t;
                    fw[p] = pick(fail, fw[p] + wt, fw[p]);
                    fw2[p] = pick(fail, fw2[p] + wt * wt, fw2[p]);
                }
            }
        }
        for c in &mut fold.count[..w] {
            *c += 1;
        }
    }
}

/// Trials processed per v3 pass — the width of every structure-of-
/// arrays buffer in the wide kernel.
///
/// A pass draws up to `V3_WIDTH` trials' normals gate-major, each lane
/// from its own counter-seeded RNG, four lanes per SIMD register: the
/// die and latch draws up front, then each stage's gate draws straight
/// into its `gates × W` block of shifts, with no transpose. It walks
/// the pipeline lane-major: one slowdown evaluation and one arrival-
/// time propagation per gate covers the whole pass. Per-trial values
/// are pure functions of the trial index, so pass grouping (including
/// the ragged final pass of a block) never changes result bytes.
pub const V3_WIDTH: usize = 16;

/// Number of statistics lanes in the v3 kernel's fixed merge tree.
///
/// Trial `t` accumulates into lane `t % V3_LANES` and lanes fold in
/// ascending order at the end of every block. The lane count and fold
/// order are **part of the v3 contract**: floating-point merging is
/// order-sensitive, so freezing the tree is what makes v3 byte-identical
/// to itself at any worker count, shard split, or resume point (all of
/// which preserve block boundaries). Equal to [`V3_WIDTH`], so one pass
/// feeds each lane exactly once and [`V3Fold`] keeps its rows by pass
/// position (lane `L` is position `(L − start) mod 16`); frozen
/// independently all the same, and the fold's row types only compile
/// while the two are equal.
pub(crate) const V3_LANES: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_default() {
        assert_eq!(TrialKernel::default(), TrialKernel::V1);
        assert_eq!(TrialKernel::V1.name(), "v1");
        assert_eq!(TrialKernel::V3.name(), "v3");
        assert_eq!(TrialKernel::ALL.len(), 2);
        assert_eq!(TrialKernel::ALL[0], TrialKernel::default());
    }
}
