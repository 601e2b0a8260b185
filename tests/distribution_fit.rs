//! Distribution-level goodness-of-fit: the analytical pipeline-delay
//! Gaussian vs the full Monte-Carlo sample (the strongest form of the
//! paper's Fig. 2 comparison — not just moments, but the whole CDF).

use rand::rngs::StdRng;
use rand::SeedableRng;
use vardelay::circuit::{CellLibrary, LatchParams, StagedPipeline};
use vardelay::core::{Pipeline, StageDelay};
use vardelay::mc::PipelineMc;
use vardelay::process::VariationConfig;
use vardelay::ssta::SstaEngine;
use vardelay::stats::ks::ks_against_normal;

fn model_and_samples(
    var: VariationConfig,
    ns: usize,
    nl: usize,
) -> (vardelay::stats::Normal, Vec<f64>) {
    let pipe = StagedPipeline::inverter_grid(ns, nl, 1.0, LatchParams::tg_msff_70nm());
    let timing = SstaEngine::new(CellLibrary::default(), var, None).analyze_pipeline(&pipe);
    let stages: Vec<StageDelay> = timing
        .stage_delays
        .iter()
        .map(|n| StageDelay::from_normal(*n))
        .collect();
    let model = Pipeline::new(stages, timing.correlation)
        .expect("dims")
        .delay_distribution();
    // 12,000 reference trials drawn in order from one stream.
    let mc = PipelineMc::new(CellLibrary::default(), var, None);
    let mut rng = StdRng::seed_from_u64(99);
    let samples = (0..12_000)
        .map(|_| mc.sample_trial(&pipe, &mut rng).1)
        .collect();
    (model, samples)
}

#[test]
fn inter_die_distribution_fits_tightly() {
    // Perfectly correlated stages: the max is exactly Gaussian, so the KS
    // distance should be small (MC noise + nonlinearity only).
    let (model, samples) = model_and_samples(VariationConfig::inter_only(40.0), 5, 8);
    let d = ks_against_normal(&samples, &model);
    assert!(d < 0.03, "KS distance {d} too large for the exact case");
}

#[test]
fn independent_stage_distribution_fits_within_clark_error() {
    // Independent stages: the exact max is right-skewed; Clark's Gaussian
    // still fits the body within a modest KS distance.
    let (model, samples) = model_and_samples(VariationConfig::random_only(35.0), 5, 8);
    let d = ks_against_normal(&samples, &model);
    assert!(d < 0.12, "KS distance {d} beyond Clark's expected error");
    // And the skew is in the expected direction (right tail heavier).
    let stats: vardelay::stats::RunningStats = samples.iter().copied().collect();
    assert!(
        stats.skewness() > 0.0,
        "max of independent stages should be right-skewed, got {}",
        stats.skewness()
    );
}

#[test]
fn combined_distribution_fits() {
    let (model, samples) = model_and_samples(VariationConfig::combined(20.0, 35.0, 15.0), 5, 8);
    let d = ks_against_normal(&samples, &model);
    assert!(d < 0.09, "KS distance {d}");
}
