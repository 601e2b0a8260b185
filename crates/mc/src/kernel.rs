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

use vardelay_stats::NormalFill;

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
    /// every trial's normals (inverse-CDF, die draws included) are
    /// generated up front into structure-of-arrays buffers, then each
    /// stage and gate is visited **once per pass** over contiguous
    /// per-lane `f64` rows, so frozen polynomial
    /// `exp(α·ln(od/(od−ΔVth)))` slowdown evaluation and arrival-time
    /// propagation amortize their per-gate bookkeeping across the whole
    /// pass and vectorize. Statistics fold through [`V3_LANES`] lanes in
    /// a fixed merge order.
    V3,
}

impl TrialKernel {
    /// Every kernel contract, oldest first — the one list the CLI help,
    /// spec parser and validators derive the valid keyword set from, so
    /// a new kernel version cannot leave a stale keyword list behind.
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

/// A kernel's frozen statistics fold over one block call.
///
/// v1 records every trial straight into the block's statistics, so a
/// sequence of calls accumulates exactly like one call over the joined
/// range. v3 accumulates trial `t` into lane `t % V3_LANES` and merges
/// the lanes into the statistics in ascending lane order at
/// [`LaneFold::finish`], so a call's bytes are a pure function of its
/// trial range. Weighted statistics (blockade) record each trial's
/// importance weight.
#[derive(Debug)]
pub struct LaneFold<'a> {
    kernel: TrialKernel,
    stats: &'a mut PipelineBlockStats,
    lanes: Vec<PipelineBlockStats>,
}

impl<'a> LaneFold<'a> {
    /// Starts `kernel`'s fold into `stats`.
    pub fn new(kernel: TrialKernel, stats: &'a mut PipelineBlockStats) -> Self {
        let lanes = match kernel {
            TrialKernel::V1 => 0,
            TrialKernel::V3 => V3_LANES,
        };
        let lanes = (0..lanes).map(|_| stats.fresh_like()).collect();
        LaneFold {
            kernel,
            stats,
            lanes,
        }
    }

    /// Records trial `t`: its stage delays, pipeline delay and
    /// importance weight (ignored unless the statistics are weighted).
    pub fn record(&mut self, t: u64, stage_delays: &[f64], maxd: f64, weight: f64) {
        let into = match self.kernel {
            TrialKernel::V1 => &mut *self.stats,
            TrialKernel::V3 => &mut self.lanes[(t % V3_LANES as u64) as usize],
        };
        if into.has_weighted_tail() {
            into.record_weighted(stage_delays, maxd, weight);
        } else {
            into.record(stage_delays, maxd);
        }
    }

    /// Merges the lanes into the statistics in ascending lane order.
    pub fn finish(self) {
        for lane in &self.lanes {
            self.stats.merge(lane);
        }
    }
}

/// Trials processed per v3 pass — the width of every structure-of-
/// arrays buffer in the wide kernel.
///
/// A pass generates all normals for up to `V3_WIDTH` trials up front
/// (die, latch, then gate draws, each lane from its own counter-seeded
/// RNG), transposes the gate draws into `W`-wide rows, and then walks
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
/// which preserve block boundaries). Equal to [`V3_WIDTH`] so one pass
/// feeds each lane exactly once, but frozen independently.
pub const V3_LANES: usize = 16;

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
