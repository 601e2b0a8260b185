//! Integration tests spanning crates: the §2.4 model-verification loop
//! (SSTA stage moments + Clark model vs full Monte-Carlo).

use rand::rngs::StdRng;
use rand::SeedableRng;
use vardelay::circuit::{CellLibrary, LatchParams, StagedPipeline};
use vardelay::core::{Pipeline, StageDelay};
use vardelay::mc::PipelineMc;
use vardelay::process::VariationConfig;
use vardelay::ssta::SstaEngine;
use vardelay::stats::RunningStats;

fn analytic_pipeline(var: VariationConfig, pipe: &StagedPipeline) -> Pipeline {
    let timing = SstaEngine::new(CellLibrary::default(), var, None).analyze_pipeline(pipe);
    let stages: Vec<StageDelay> = timing
        .stage_delays
        .iter()
        .map(|n| StageDelay::from_normal(*n))
        .collect();
    Pipeline::new(stages, timing.correlation).expect("consistent dims")
}

/// Pipeline delays of `trials` reference Monte-Carlo trials, drawn in
/// order from one `StdRng` stream seeded with `seed`.
fn mc_delays(var: VariationConfig, pipe: &StagedPipeline, trials: usize, seed: u64) -> Vec<f64> {
    let mc = PipelineMc::new(CellLibrary::default(), var, None);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..trials)
        .map(|_| mc.sample_trial(pipe, &mut rng).1)
        .collect()
}

fn run_case(var: VariationConfig, ns: usize, nl: usize, seed: u64) {
    let pipe = StagedPipeline::inverter_grid(ns, nl, 1.0, LatchParams::tg_msff_70nm());
    let model = analytic_pipeline(var, &pipe).delay_distribution();
    let mc: RunningStats = mc_delays(var, &pipe, 15_000, seed).into_iter().collect();
    let mean_err = (model.mean() - mc.mean()).abs() / mc.mean();
    let sd_err = (model.sd() - mc.sample_sd()).abs() / mc.sample_sd();
    assert!(
        mean_err < 0.01,
        "{ns}x{nl}: mean error {:.3}% too large (model {} vs MC {})",
        100.0 * mean_err,
        model.mean(),
        mc.mean()
    );
    assert!(
        sd_err < 0.25,
        "{ns}x{nl}: sd error {:.1}% too large (model {} vs MC {})",
        100.0 * sd_err,
        model.sd(),
        mc.sample_sd()
    );
}

#[test]
fn model_tracks_mc_random_intra() {
    run_case(VariationConfig::random_only(35.0), 5, 8, 11);
}

#[test]
fn model_tracks_mc_inter_only() {
    run_case(VariationConfig::inter_only(40.0), 5, 8, 12);
}

#[test]
fn model_tracks_mc_combined() {
    run_case(VariationConfig::combined(20.0, 35.0, 15.0), 5, 8, 13);
}

#[test]
fn model_tracks_mc_wide_shallow() {
    run_case(VariationConfig::random_only(35.0), 8, 5, 14);
}

#[test]
fn yield_model_tracks_mc_across_targets() {
    let var = VariationConfig::combined(20.0, 35.0, 15.0);
    let pipe = StagedPipeline::inverter_grid(5, 8, 1.0, LatchParams::tg_msff_70nm());
    let model = analytic_pipeline(var, &pipe);
    let delays = mc_delays(var, &pipe, 20_000, 15);
    let d = model.delay_distribution();
    for q in [0.25, 0.5, 0.75, 0.9] {
        let t = d.quantile(q);
        let y_model = model.yield_at(t);
        let y_mc = delays.iter().filter(|&&d| d <= t).count() as f64 / delays.len() as f64;
        assert!(
            (y_model - y_mc).abs() < 0.06,
            "q={q}: model {y_model} vs mc {y_mc}"
        );
    }
}

#[test]
fn inter_die_dominance_correlates_stages() {
    // Correlation matrix from SSTA should reflect the variation mix.
    let pipe = StagedPipeline::inverter_grid(4, 8, 1.0, LatchParams::ideal());
    let lib = CellLibrary::default;
    let rho_of = |var: VariationConfig| {
        SstaEngine::new(lib(), var, None)
            .analyze_pipeline(&pipe)
            .correlation
            .get(0, 1)
    };
    let rho_rand = rho_of(VariationConfig::random_only(35.0));
    let rho_mix = rho_of(VariationConfig::combined(20.0, 35.0, 0.0));
    let rho_inter = rho_of(VariationConfig::inter_only(40.0));
    assert!(rho_rand < 1e-9);
    assert!(rho_mix > 0.3 && rho_mix < 0.999, "rho_mix = {rho_mix}");
    assert!((rho_inter - 1.0).abs() < 1e-9);
}
