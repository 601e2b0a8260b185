//! Pool-parallel Monte-Carlo verification for the v3 trial kernel.
//!
//! The v1/v2 verification paths are byte-frozen as strictly sequential
//! accumulations, so they cannot fan out across threads without
//! changing published bytes (the Pébay moment merge is not
//! associative). The v3 kernel's verification contract is instead
//! *defined* chunk-wise — partition the budget at fixed
//! [`VERIFY_CHUNK_TRIALS`] boundaries, accumulate every chunk into a
//! fresh statistics block, merge the blocks in ascending chunk order,
//! and evaluate the optional CI stop rule at each ascending boundary.
//! A fold defined that way is a pure function of the chunk sequence:
//! which thread computed which chunk can never leak into the result,
//! so dispatching chunks across the engine's worker pool reproduces
//! the single-threaded bytes at any `--workers` count.
//!
//! This module is that pooled execution: [`verify_yield_pooled`] is
//! bit-identical to [`vardelay_opt::verify_yield`] on a v3-kernel
//! prepared pipeline, just faster on multi-core hosts.

use std::collections::BTreeMap;

use vardelay_mc::{PipelineBlockStats, PreparedPipelineMc, TrialKernel, TrialPlan, TrialWorkspace};
use vardelay_opt::{VerifiedYield, VERIFY_CHUNK_TRIALS};

use crate::run::dispatch;

/// Runs up to `budget` verification trials under `plan` across
/// `workers` pool threads, stopping at the first ascending
/// [`VERIFY_CHUNK_TRIALS`] boundary where the 95% half-width of the
/// yield estimate at target 0 reaches `ci_half_width` (when one is
/// requested; `None` always runs the full budget).
///
/// Byte contract: the result is a pure function of `(plan, budget,
/// ci_half_width, seed_of, stages, targets)` — `workers` and thread
/// scheduling never reach the fold. Out-of-order chunk arrivals are
/// buffered and merged strictly ascending; once the stop rule fires,
/// chunks beyond the stopping boundary are discarded (their trials were
/// speculative overrun, exactly as if they had never run). At
/// `workers <= 1` the chunks execute inline in ascending order, which
/// is the sequential fold the pooled path reproduces.
///
/// Each chunk runs under an `mc/verify_block` span keyed by `obs_key`,
/// so `vardelay report` attributes verification time to the pool
/// workers that actually spent it.
///
/// # Panics
///
/// Panics if `prepared` was not built with [`TrialKernel::V3`] — the
/// frozen v1/v2 verification folds are sequential by contract and must
/// not be reproduced chunk-wise.
#[allow(clippy::too_many_arguments)] // mirrors vardelay_opt::verify_yield plus the pool knobs
pub fn verify_yield_pooled(
    prepared: &PreparedPipelineMc,
    plan: TrialPlan,
    budget: u64,
    ci_half_width: Option<f64>,
    seed_of: impl Fn(u64) -> u64 + Sync,
    stages: usize,
    targets: &[f64],
    workers: usize,
    obs_key: u64,
) -> VerifiedYield {
    assert_eq!(
        prepared.kernel(),
        TrialKernel::V3,
        "pooled verification is a v3-kernel contract"
    );
    let mut template = PipelineBlockStats::new(stages, targets);
    if plan.is_weighted() {
        template = template.with_weighted_tail();
    }
    let chunks = usize::try_from(budget.div_ceil(VERIFY_CHUNK_TRIALS)).expect("finite budget");
    let mut acc = template.fresh_like();
    let mut trials = 0u64;
    let mut next = 0usize;
    let mut pending: BTreeMap<usize, PipelineBlockStats> = BTreeMap::new();
    let mut stopped = false;
    dispatch(
        chunks,
        workers,
        |k, ws: &mut TrialWorkspace| {
            let start = k as u64 * VERIFY_CHUNK_TRIALS;
            let end = (start + VERIFY_CHUNK_TRIALS).min(budget);
            let _sp = vardelay_obs::span("mc", "verify_block")
                .key(obs_key)
                .value((end - start) as f64);
            let mut chunk = template.fresh_like();
            prepared.run_block_plan(ws, start..end, &seed_of, plan, &mut chunk);
            chunk
        },
        |k, chunk| {
            if stopped {
                // Post-cancel arrival from a worker that was already
                // executing: speculative overrun, discarded.
                return false;
            }
            pending.insert(k, chunk);
            while let Some(chunk) = pending.remove(&next) {
                acc.merge(&chunk);
                next += 1;
                trials = (next as u64 * VERIFY_CHUNK_TRIALS).min(budget);
                if let Some(target_hw) = ci_half_width {
                    if acc.yield_half_width(0) <= target_hw {
                        stopped = true;
                        pending.clear();
                        return false;
                    }
                }
            }
            true
        },
    );
    VerifiedYield { trials, stats: acc }
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
        let mc = PipelineMc::new(CellLibrary::default(), var, None).with_kernel(TrialKernel::V3);
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

    fn digest(v: &VerifiedYield) -> Vec<u64> {
        let mut d = vec![
            v.trials,
            v.stats.yield_estimate(0).value.to_bits(),
            v.stats.pipeline().mean().to_bits(),
            v.stats.pipeline().sample_sd().to_bits(),
        ];
        for s in v.stats.stage_stats() {
            d.push(s.mean().to_bits());
        }
        d
    }

    /// The tentpole byte contract: the pooled fold reproduces the
    /// sequential opt-layer fold bit-for-bit at every worker count,
    /// with and without the CI stop rule.
    #[test]
    fn pooled_fold_matches_sequential_at_any_worker_count() {
        let (p, mc, target) = setup();
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let seed_of = |t| counter_seed(42, t);
        for plan in [
            TrialPlan::of(TrialStrategy::Plain),
            TrialPlan::of(TrialStrategy::Stratified),
        ] {
            for ci in [None, Some(0.25)] {
                let mut ws = TrialWorkspace::new();
                let sequential = vardelay_opt::verify_yield(
                    &prepared,
                    &mut ws,
                    plan,
                    4 * VERIFY_CHUNK_TRIALS,
                    ci,
                    seed_of,
                    p.stage_count(),
                    &[target],
                );
                for workers in [1, 2, 4, 7] {
                    let pooled = verify_yield_pooled(
                        &prepared,
                        plan,
                        4 * VERIFY_CHUNK_TRIALS,
                        ci,
                        seed_of,
                        p.stage_count(),
                        &[target],
                        workers,
                        0,
                    );
                    assert_eq!(
                        digest(&pooled),
                        digest(&sequential),
                        "plan {:?} ci {ci:?} workers {workers}",
                        plan.strategy
                    );
                }
            }
        }
    }

    /// A ragged final chunk (budget not a multiple of the chunk size)
    /// folds identically pooled and sequential.
    #[test]
    fn ragged_budget_folds_identically() {
        let (p, mc, target) = setup();
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let seed_of = |t| counter_seed(9, t);
        let plan = TrialPlan::of(TrialStrategy::Plain);
        let budget = 2 * VERIFY_CHUNK_TRIALS + 300;
        let mut ws = TrialWorkspace::new();
        let sequential = vardelay_opt::verify_yield(
            &prepared,
            &mut ws,
            plan,
            budget,
            None,
            seed_of,
            p.stage_count(),
            &[target],
        );
        assert_eq!(sequential.trials, budget);
        let pooled = verify_yield_pooled(
            &prepared,
            plan,
            budget,
            None,
            seed_of,
            p.stage_count(),
            &[target],
            3,
            0,
        );
        assert_eq!(digest(&pooled), digest(&sequential));
    }
}
