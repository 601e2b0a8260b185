//! Golden byte identity. The Monte-Carlo matrix goldens (below) pin
//! every backend × kernel × trial plan and each kernel's verification
//! fold shape; their v1 and v3 entries were generated before the
//! samplers were unified.
//!
//! Campaign-golden byte identity: the checked-in result file was
//! generated **before** the incremental timing kernel landed, so this
//! test is the refactor's contract made executable — the kernel (and
//! any future timing-path optimization) must reproduce campaign JSON
//! byte for byte, at any worker count, or it is not a pure optimization.
//!
//! To regenerate after an *intentional* experiment change (new spec
//! fields, different defaults — anything that legitimately changes the
//! bytes), run:
//!
//! ```text
//! cargo run --release -- optimize crates/engine/tests/golden/campaign_spec.json \
//!     --out crates/engine/tests/golden/campaign_result.json
//! ```
//!
//! and say so in the PR — a diff in this file's fixtures is an
//! experiment change, never a by-product.

use vardelay_engine::optimize::{run_campaign, OptimizationCampaign};
use vardelay_engine::{run_sweep, Sweep, SweepOptions};

const SPEC: &str = include_str!("golden/campaign_spec.json");
const GOLDEN: &str = include_str!("golden/campaign_result.json");

#[test]
fn campaign_result_bytes_are_frozen() {
    let campaign = OptimizationCampaign::from_json(SPEC).expect("golden spec parses");
    // Covers both yield backends (the spec has one run on each), the
    // frontier-quantile target resolution, and MC verification.
    for workers in [1usize, 4] {
        let res = run_campaign(&campaign, &SweepOptions::sequential().with_workers(workers))
            .expect("golden campaign runs");
        assert_eq!(
            res.to_json(),
            GOLDEN,
            "campaign bytes drifted at {workers} workers — the timing kernel is no longer \
             a pure optimization (see this test's module docs before regenerating)"
        );
    }
}

const MATRIX_SPEC: &str = include_str!("golden/mc_matrix_spec.json");
const MATRIX_GOLDEN: &str = include_str!("golden/mc_matrix_result.json");
const MATRIX_CAMPAIGN_SPEC: &str = include_str!("golden/mc_matrix_campaign_spec.json");
const MATRIX_CAMPAIGN_GOLDEN: &str = include_str!("golden/mc_matrix_campaign_result.json");

/// Monte-Carlo matrix byte identity: every combination the validator
/// accepts of {moments, gate-level `pipeline`, gate-level `netlist`} ×
/// {v1, v3} × {plain, antithetic, stratified, sobol, blockade}, at 300
/// trials per scenario (two engine blocks, the second ending on a
/// ragged v3 pass). When the v2 kernel was retired its 15 scenarios
/// were dropped from the spec; every kept entry is unchanged. Regenerate
/// like the campaign golden:
///
/// ```text
/// cargo run --release -- sweep crates/engine/tests/golden/mc_matrix_spec.json \
///     --out crates/engine/tests/golden/mc_matrix_result.json
/// ```
#[test]
fn mc_matrix_result_bytes_are_frozen() {
    let sweep = Sweep::from_json(MATRIX_SPEC).expect("matrix spec parses");
    assert_eq!(sweep.expand().len(), 30, "3 backends x 2 kernels x 5 plans");
    for workers in [1usize, 4] {
        let res = run_sweep(&sweep, &SweepOptions::sequential().with_workers(workers))
            .expect("matrix sweep runs");
        assert_eq!(
            res.to_json(),
            MATRIX_GOLDEN,
            "mc-matrix bytes drifted at {workers} workers"
        );
    }
}

/// The frozen verification fold shapes, pinned per kernel: v1
/// antithetic (1024-trial chunks into one running fold), v3 plain with
/// in-loop netlist yield, and v3 blockade (each chunk merged
/// separately). A v3 fold stopped early by `ci_half_width` is pinned
/// by the `v3_plans` campaign golden below.
/// Regenerate with
/// `vardelay optimize crates/engine/tests/golden/mc_matrix_campaign_spec.json
/// --out crates/engine/tests/golden/mc_matrix_campaign_result.json`.
#[test]
fn mc_matrix_campaign_bytes_are_frozen() {
    let campaign = OptimizationCampaign::from_json(MATRIX_CAMPAIGN_SPEC).expect("spec parses");
    for workers in [1usize, 4] {
        let res = run_campaign(&campaign, &SweepOptions::sequential().with_workers(workers))
            .expect("matrix campaign runs");
        assert_eq!(
            res.to_json(),
            MATRIX_CAMPAIGN_GOLDEN,
            "mc-matrix campaign bytes drifted at {workers} workers"
        );
    }
}

const V3_PLANS_SPEC: &str = include_str!("golden/v3_plans_spec.json");
const V3_PLANS_GOLDEN: &str = include_str!("golden/v3_plans_result.json");
const V3_PLANS_CAMPAIGN_SPEC: &str = include_str!("golden/v3_plans_campaign_spec.json");
const V3_PLANS_CAMPAIGN_GOLDEN: &str = include_str!("golden/v3_plans_campaign_result.json");

/// The v3 stratified and Sobol bytes the matrix goldens miss: an
/// inter-only (one die dim) scenario, the 17-die-dim `Combined`
/// variation with and without latch jitter, each at 600 trials (a
/// ragged third block ending on a ragged pass), and v3 stratified and
/// Sobol campaign verification (one stopped by `ci_half_width`).
/// Generated before the v3 pass derived plan values block-wise and drew
/// dies lane-major. Regenerate with
/// `vardelay sweep crates/engine/tests/golden/v3_plans_spec.json
/// --out crates/engine/tests/golden/v3_plans_result.json` and
/// `vardelay optimize crates/engine/tests/golden/v3_plans_campaign_spec.json
/// --out crates/engine/tests/golden/v3_plans_campaign_result.json`.
#[test]
fn v3_plan_bytes_are_frozen() {
    let sweep = Sweep::from_json(V3_PLANS_SPEC).expect("v3 plan spec parses");
    let campaign = OptimizationCampaign::from_json(V3_PLANS_CAMPAIGN_SPEC).expect("spec parses");
    for workers in [1usize, 4] {
        let opts = SweepOptions::sequential().with_workers(workers);
        let res = run_sweep(&sweep, &opts).expect("v3 plan sweep runs");
        assert_eq!(
            res.to_json(),
            V3_PLANS_GOLDEN,
            "v3 plan sweep bytes drifted at {workers} workers"
        );
        let res = run_campaign(&campaign, &opts).expect("v3 plan campaign runs");
        assert_eq!(
            res.to_json(),
            V3_PLANS_CAMPAIGN_GOLDEN,
            "v3 plan campaign bytes drifted at {workers} workers"
        );
    }
}
