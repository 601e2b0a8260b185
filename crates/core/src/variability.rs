//! Closed-form σ/μ variability trends (Fig. 5).
//!
//! These are the analytic counterparts of the paper's inverter-chain
//! studies. A gate's fractional delay sigma splits into a *shared* part
//! (inter-die: identical for all gates) and a *random* part (independent
//! per gate). For a chain of `N_L` gates:
//!
//! ```text
//! μ_stage = N_L μ_g
//! σ_stage² = (N_L μ_g f_shared)² + N_L (μ_g f_rand)²
//! σ/μ      = sqrt(f_shared² + f_rand²/N_L)
//! ```
//!
//! — random variation averages away with depth (cancellation effect),
//! shared variation does not (Fig. 5a). Stacking `N_S` such stages into a
//! pipeline and taking the max *reduces* variability with `N_S`, but the
//! reduction weakens as stages become more correlated (Fig. 5b). With
//! `N_L·N_S` fixed, the two effects compete and the winner depends on the
//! inter-die strength (Fig. 5c).

use vardelay_stats::{max_of, CorrelationMatrix, Normal};

/// Stage-delay moments of an `nl`-deep chain of identical gates.
///
/// `f_shared`/`f_rand` are the *fractional* per-gate delay sigmas of the
/// shared (inter-die) and random (intra-die) components.
///
/// # Panics
///
/// Panics if `nl == 0`, `mu_gate_ps <= 0`, or a fraction is negative.
pub fn stage_moments(nl: usize, mu_gate_ps: f64, f_shared: f64, f_rand: f64) -> Normal {
    assert!(nl > 0, "logic depth must be positive");
    assert!(mu_gate_ps > 0.0, "gate delay must be positive");
    assert!(
        f_shared >= 0.0 && f_rand >= 0.0,
        "sigma fractions must be non-negative"
    );
    let nlf = nl as f64;
    let mu = nlf * mu_gate_ps;
    let var_shared = (nlf * mu_gate_ps * f_shared).powi(2);
    let var_rand = nlf * (mu_gate_ps * f_rand).powi(2);
    Normal::new(mu, (var_shared + var_rand).sqrt()).expect("moments are finite")
}

/// The stage-to-stage correlation implied by the shared/random split:
/// `ρ = σ_shared² / (σ_shared² + σ_rand²)` for identical stages.
///
/// # Panics
///
/// Panics on the same conditions as [`stage_moments`].
pub fn implied_stage_correlation(nl: usize, f_shared: f64, f_rand: f64) -> f64 {
    let nlf = nl as f64;
    let vs = (nlf * f_shared).powi(2);
    let vr = nlf * f_rand * f_rand;
    if vs + vr == 0.0 {
        0.0
    } else {
        vs / (vs + vr)
    }
}

/// σ/μ of the pipeline delay: max of `ns` identical stages with pairwise
/// correlation `rho` (Fig. 5b).
///
/// # Panics
///
/// Panics if `ns == 0` or `rho` is outside `[-1, 1]`.
pub fn pipeline_variability(ns: usize, stage: Normal, rho: f64) -> f64 {
    assert!(ns > 0, "need at least one stage");
    let stages = vec![stage; ns];
    let corr = CorrelationMatrix::uniform(ns, rho).expect("rho validated by caller contract");
    max_of(&stages, &corr).variability()
}

/// One point of the Fig. 5(c) sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Number of pipeline stages.
    pub ns: usize,
    /// Logic depth per stage.
    pub nl: usize,
    /// Stage-delay distribution.
    pub stage: Normal,
    /// Implied stage correlation.
    pub rho: f64,
    /// σ/μ of the pipeline delay.
    pub variability: f64,
}

/// Fig. 5(c): sweep all factorizations `ns × nl = total` and return the
/// pipeline variability of each configuration.
///
/// # Panics
///
/// Panics if `total == 0` or `mu_gate_ps <= 0`.
pub fn depth_stage_tradeoff(
    total: usize,
    mu_gate_ps: f64,
    f_shared: f64,
    f_rand: f64,
) -> Vec<TradeoffPoint> {
    assert!(total > 0, "total logic depth must be positive");
    let mut out = Vec::new();
    for ns in 1..=total {
        if !total.is_multiple_of(ns) {
            continue;
        }
        let nl = total / ns;
        let stage = stage_moments(nl, mu_gate_ps, f_shared, f_rand);
        let rho = implied_stage_correlation(nl, f_shared, f_rand);
        let variability = pipeline_variability(ns, stage, rho);
        out.push(TradeoffPoint {
            ns,
            nl,
            stage,
            rho,
            variability,
        });
    }
    out
}

/// The configuration minimizing pipeline-delay variability among all
/// factorizations of `total` (the design decision Fig. 5(c) informs:
/// "how deep should I pipeline under this variation mix?").
///
/// # Panics
///
/// Panics on the same conditions as [`depth_stage_tradeoff`].
pub fn optimal_stage_count(
    total: usize,
    mu_gate_ps: f64,
    f_shared: f64,
    f_rand: f64,
) -> TradeoffPoint {
    depth_stage_tradeoff(total, mu_gate_ps, f_shared, f_rand)
        .into_iter()
        .min_by(|a, b| {
            a.variability
                .partial_cmp(&b.variability)
                .expect("finite variability")
        })
        .expect("total > 0 yields at least the 1-stage configuration")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_stage_count_follows_variation_mix() {
        // Intra-dominated: shallow pipelines (few stages) win.
        let intra = optimal_stage_count(120, 10.0, 0.0, 0.06);
        assert_eq!(intra.ns, 1, "intra-only favors the fewest stages");
        // Inter-dominated: deep pipelines win.
        let inter = optimal_stage_count(120, 10.0, 0.10, 0.01);
        assert!(
            inter.ns > 10,
            "inter-dominated favors many stages, got {}",
            inter.ns
        );
    }

    /// σ/μ of a stage vs logic depth (Fig. 5a):
    /// `sqrt(f_shared² + f_rand²/N_L)`.
    fn stage_variability(nl: usize, f_shared: f64, f_rand: f64) -> f64 {
        stage_moments(nl, 1.0, f_shared, f_rand).variability()
    }

    #[test]
    fn random_only_variability_shrinks_with_depth() {
        // Fig. 5a "Only Random Intra-die": halves every 4x depth.
        let v5 = stage_variability(5, 0.0, 0.06);
        let v20 = stage_variability(20, 0.0, 0.06);
        assert!((v20 - v5 / 2.0).abs() < 1e-12, "v5 {v5} v20 {v20}");
    }

    #[test]
    fn inter_only_variability_depth_independent() {
        let v5 = stage_variability(5, 0.08, 0.0);
        let v40 = stage_variability(40, 0.08, 0.0);
        assert!((v5 - v40).abs() < 1e-15);
        assert!((v5 - 0.08).abs() < 1e-15);
    }

    #[test]
    fn mixed_variability_flattens_with_inter_strength() {
        // Fig. 5a: the stronger the inter-die component, the weaker the
        // depth dependence.
        let drop_weak: f64 = stage_variability(5, 0.02, 0.06) - stage_variability(40, 0.02, 0.06);
        let drop_strong: f64 = stage_variability(5, 0.08, 0.06) - stage_variability(40, 0.08, 0.06);
        assert!(drop_strong < drop_weak);
    }

    #[test]
    fn pipeline_variability_falls_with_stage_count() {
        // Fig. 5b, rho = 0.
        let stage = Normal::new(100.0, 5.0).unwrap();
        let v4 = pipeline_variability(4, stage, 0.0);
        let v16 = pipeline_variability(16, stage, 0.0);
        let v40 = pipeline_variability(40, stage, 0.0);
        assert!(v16 < v4 && v40 < v16, "{v4} {v16} {v40}");
    }

    #[test]
    fn correlation_weakens_max_effect() {
        // Fig. 5b: higher rho => variability decays less with NS.
        let stage = Normal::new(100.0, 5.0).unwrap();
        let drop_0 = pipeline_variability(4, stage, 0.0) - pipeline_variability(32, stage, 0.0);
        let drop_5 = pipeline_variability(4, stage, 0.5) - pipeline_variability(32, stage, 0.5);
        assert!(drop_5 < drop_0, "{drop_5} !< {drop_0}");
        // Perfect correlation: no reduction at all.
        let d1 = pipeline_variability(4, stage, 1.0);
        let d2 = pipeline_variability(32, stage, 1.0);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn tradeoff_direction_flips_with_inter_strength() {
        // Fig. 5c: with intra-only variation, more stages (smaller NL)
        // *increases* variability; with strong inter-die it decreases.
        let intra_only = depth_stage_tradeoff(120, 10.0, 0.0, 0.06);
        let inter_heavy = depth_stage_tradeoff(120, 10.0, 0.10, 0.02);
        let get = |pts: &[TradeoffPoint], ns: usize| {
            pts.iter()
                .find(|p| p.ns == ns)
                .map(|p| p.variability)
                .unwrap()
        };
        // Intra-only: ns=30 worse than ns=2.
        assert!(
            get(&intra_only, 30) > get(&intra_only, 2),
            "intra: {} !> {}",
            get(&intra_only, 30),
            get(&intra_only, 2)
        );
        // Inter-heavy: ns=30 better than ns=2.
        assert!(
            get(&inter_heavy, 30) < get(&inter_heavy, 2),
            "inter: {} !< {}",
            get(&inter_heavy, 30),
            get(&inter_heavy, 2)
        );
    }

    #[test]
    fn implied_correlation_limits() {
        assert_eq!(implied_stage_correlation(10, 0.0, 0.06), 0.0);
        assert_eq!(implied_stage_correlation(10, 0.08, 0.0), 1.0);
        let rho = implied_stage_correlation(10, 0.04, 0.04);
        assert!(rho > 0.5, "shared dominates at depth 10: {rho}");
    }
}
