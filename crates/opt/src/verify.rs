//! CI-driven Monte-Carlo yield verification for campaign runs.
//!
//! Plain verification runs a fixed trial budget. Variance-reduced trial
//! plans make that budget negotiable: when the spec requests a
//! confidence half-width, verification runs in fixed-size chunks and
//! stops at the first chunk boundary where the 95% interval of the
//! yield estimate is tight enough — with the configured budget as a
//! ceiling, never a floor to overrun. Because trials are counter-seeded
//! and folded strictly in trial order, a chunked run accumulates the
//! exact same arithmetic as one full-range call over the trials that
//! did run, and the early-stop decision replays identically on every
//! machine and worker count.

use vardelay_mc::{
    PipelineBlockStats, PreparedPipelineMc, TrialKernel, TrialPlan, TrialStrategy, TrialWorkspace,
};

/// Trials per verification chunk. A multiple of the 256-trial strategy
/// block, so chunk boundaries never split an antithetic pair or a
/// stratified block; coarse enough that the early-stop check is
/// negligible next to the trials themselves.
pub const VERIFY_CHUNK_TRIALS: u64 = 1_024;

/// Outcome of a (possibly early-stopped) verification run.
#[derive(Debug)]
pub struct VerifiedYield {
    /// Trials actually run: `min(budget, first satisfying chunk
    /// boundary)` — a multiple of [`VERIFY_CHUNK_TRIALS`] unless the
    /// budget itself was reached.
    pub trials: u64,
    /// The accumulated statistics (weighted tail enabled when the plan
    /// reweights).
    pub stats: PipelineBlockStats,
}

/// Runs up to `budget` verification trials under `plan`, stopping at
/// the first [`VERIFY_CHUNK_TRIALS`] boundary where the 95% half-width
/// of the yield estimate at target 0 reaches `ci_half_width` (when one
/// is requested; `None` always runs the full budget).
///
/// The result is a pure function of `(plan, budget, ci_half_width,
/// seed_of, targets)`: trials fold in trial order and the stop rule
/// reads only accumulated statistics, so re-running anywhere reproduces
/// the same trial count and the same bits.
#[allow(clippy::too_many_arguments)] // mirrors run_block_plan's surface plus the stop rule
pub fn verify_yield(
    prepared: &PreparedPipelineMc,
    ws: &mut TrialWorkspace,
    plan: TrialPlan,
    budget: u64,
    ci_half_width: Option<f64>,
    seed_of: impl Fn(u64) -> u64,
    stages: usize,
    targets: &[f64],
) -> VerifiedYield {
    let mut stats = PipelineBlockStats::new(stages, targets);
    if plan.is_weighted() {
        stats = stats.with_weighted_tail();
    }
    // The frozen fold shapes. The v3 kernel's contract is *defined*
    // chunk-wise: every chunk accumulates into a fresh block and merges
    // in ascending order, which is what lets the engine dispatch chunks
    // across its worker pool and still reproduce this sequential fold
    // bit-for-bit at any worker count. The v1/v2 bytes are frozen as one
    // continuous accumulation: plain plans (which never stop early) as
    // one full-range call, every other plan as chunk calls into the one
    // running fold. Under v1 the two coincide; v2's lanes fold per call.
    let kernel = prepared.kernel();
    let chunk_trials = match (kernel, plan.strategy) {
        (TrialKernel::V1 | TrialKernel::V2, TrialStrategy::Plain) => budget,
        _ => VERIFY_CHUNK_TRIALS,
    };
    let mut done = 0;
    while done < budget {
        let end = (done + chunk_trials).min(budget);
        if kernel == TrialKernel::V3 {
            let mut chunk = stats.fresh_like();
            prepared.run_block_plan(ws, done..end, &seed_of, plan, &mut chunk);
            stats.merge(&chunk);
        } else {
            prepared.run_block_plan(ws, done..end, &seed_of, plan, &mut stats);
        }
        done = end;
        if let Some(target_hw) = ci_half_width {
            if stats.yield_half_width(0) <= target_hw {
                break;
            }
        }
    }
    VerifiedYield {
        trials: done,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::{CellLibrary, LatchParams, StagedPipeline};
    use vardelay_mc::{PipelineMc, TrialStrategy};
    use vardelay_process::VariationConfig;
    use vardelay_stats::counter_seed;

    fn setup() -> (StagedPipeline, PipelineMc, f64) {
        let p = StagedPipeline::inverter_grid(2, 6, 1.0, LatchParams::tg_msff_70nm());
        let var = VariationConfig::combined(10.0, 25.0, 0.0);
        let mc = PipelineMc::new(CellLibrary::default(), var, None);
        // Probe for a mid-body target so yield estimates carry real
        // uncertainty (a tail target would give a degenerate zero-width
        // interval and defeat the early-stop assertions).
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let mut ws = TrialWorkspace::new();
        let mut probe = PipelineBlockStats::new(p.stage_count(), &[]);
        prepared.run_block_plan(
            &mut ws,
            0..512,
            |t| counter_seed(7, t),
            TrialPlan::plain(),
            &mut probe,
        );
        let target = probe.pipeline().mean();
        (p, mc, target)
    }

    #[test]
    fn chunked_run_matches_one_full_range_call_bit_for_bit() {
        let (p, mc, target) = setup();
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let plan = TrialPlan::of(TrialStrategy::Stratified);
        let seed_of = |t| counter_seed(42, t);
        let mut ws = TrialWorkspace::new();
        let v = verify_yield(
            &prepared,
            &mut ws,
            plan,
            4 * VERIFY_CHUNK_TRIALS,
            None,
            seed_of,
            p.stage_count(),
            &[target],
        );
        assert_eq!(v.trials, 4 * VERIFY_CHUNK_TRIALS);
        let mut direct = PipelineBlockStats::new(p.stage_count(), &[target]);
        prepared.run_block_plan(
            &mut ws,
            0..4 * VERIFY_CHUNK_TRIALS,
            seed_of,
            plan,
            &mut direct,
        );
        let a = v.stats.yield_estimate(0);
        let b = direct.yield_estimate(0);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(
            v.stats.pipeline().mean().to_bits(),
            direct.pipeline().mean().to_bits()
        );
    }

    #[test]
    fn loose_ci_stops_early_and_tight_ci_exhausts_the_budget() {
        let (p, mc, target) = setup();
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let plan = TrialPlan::of(TrialStrategy::Stratified);
        let seed_of = |t| counter_seed(42, t);
        let mut ws = TrialWorkspace::new();
        let loose = verify_yield(
            &prepared,
            &mut ws,
            plan,
            16 * VERIFY_CHUNK_TRIALS,
            Some(0.25),
            seed_of,
            p.stage_count(),
            &[target],
        );
        assert_eq!(loose.trials, VERIFY_CHUNK_TRIALS, "one chunk suffices");
        let tight = verify_yield(
            &prepared,
            &mut ws,
            plan,
            2 * VERIFY_CHUNK_TRIALS,
            Some(1e-9),
            seed_of,
            p.stage_count(),
            &[target],
        );
        assert_eq!(tight.trials, 2 * VERIFY_CHUNK_TRIALS, "budget is a ceiling");
        // The early-stopped prefix folds the same trials as the full
        // run's first chunk — stopping never perturbs what already ran.
        let mut direct = PipelineBlockStats::new(p.stage_count(), &[target]);
        prepared.run_block_plan(&mut ws, 0..VERIFY_CHUNK_TRIALS, seed_of, plan, &mut direct);
        assert_eq!(
            loose.stats.yield_estimate(0).value.to_bits(),
            direct.yield_estimate(0).value.to_bits()
        );
    }
}
