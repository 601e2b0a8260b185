//! Area-vs-delay curves per stage (Fig. 8) and the `R_i` slope of eq. (14).
//!
//! A stage's area–delay curve is the Pareto front `A(T) = min area subject
//! to stat-delay ≤ T`, traced by running the statistical sizer at a sweep
//! of targets. The *normalized* slope at the operating point,
//! `R = |ΔA/A| / |ΔD/D|`, is the currency of the imbalance heuristic:
//! stages with `R < 1` buy delay cheaply (good receivers of area), stages
//! with `R > 1` sell delay dearly (good donors).

use serde::{Deserialize, Serialize};
use vardelay_circuit::Netlist;

use crate::sizing::StatisticalSizer;

/// One point on the area–delay front.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaDelayPoint {
    /// Target statistical delay requested (ps).
    pub target_ps: f64,
    /// Achieved statistical delay `μ + κσ` (ps).
    pub stat_delay_ps: f64,
    /// Achieved mean delay (ps).
    pub mean_ps: f64,
    /// Achieved delay sd (ps).
    pub sd_ps: f64,
    /// Minimum area found for the target.
    pub area: f64,
    /// Whether the target was met.
    pub met: bool,
}

/// The area-vs-delay curve of one stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AreaDelayCurve {
    stage_name: String,
    points: Vec<AreaDelayPoint>,
}

impl AreaDelayCurve {
    /// Traces the curve by sizing `netlist` at each target in
    /// `targets_ps` (any order; points are sorted by target).
    ///
    /// # Panics
    ///
    /// Panics if `targets_ps` is empty or `stage_yield` is outside (0, 1).
    pub fn generate(
        sizer: &StatisticalSizer,
        netlist: &Netlist,
        region: usize,
        targets_ps: &[f64],
        stage_yield: f64,
    ) -> Self {
        assert!(!targets_ps.is_empty(), "need at least one target");
        let mut points: Vec<AreaDelayPoint> = targets_ps
            .iter()
            .map(|&t| {
                let r = sizer.size_stage(netlist, region, t, stage_yield);
                AreaDelayPoint {
                    target_ps: t,
                    stat_delay_ps: r.stat_delay_ps,
                    mean_ps: r.mean_ps,
                    sd_ps: r.sd_ps,
                    area: r.area,
                    met: r.met,
                }
            })
            .collect();
        points.sort_by(|a, b| a.target_ps.partial_cmp(&b.target_ps).expect("finite"));
        AreaDelayCurve {
            stage_name: netlist.name().to_owned(),
            points,
        }
    }

    /// The stage name.
    pub fn stage_name(&self) -> &str {
        &self.stage_name
    }

    /// The traced points, sorted by target delay.
    pub fn points(&self) -> &[AreaDelayPoint] {
        &self.points
    }

    /// Feasible points only.
    pub fn feasible_points(&self) -> impl Iterator<Item = &AreaDelayPoint> {
        self.points.iter().filter(|p| p.met)
    }

    /// Normalized slope `R = |ΔA/A| / |ΔD/D|` at the feasible point whose
    /// achieved delay is closest to `at_delay_ps`, from a central
    /// difference over neighbors.
    ///
    /// Returns `None` with fewer than two feasible points.
    pub fn normalized_slope(&self, at_delay_ps: f64) -> Option<f64> {
        let pts: Vec<&AreaDelayPoint> = self.feasible_points().collect();
        if pts.len() < 2 {
            return None;
        }
        // Index of the closest feasible point.
        let mut k = 0;
        let mut best = f64::INFINITY;
        for (i, p) in pts.iter().enumerate() {
            let d = (p.stat_delay_ps - at_delay_ps).abs();
            if d < best {
                best = d;
                k = i;
            }
        }
        let (a, b) = if k == 0 {
            (pts[0], pts[1])
        } else if k == pts.len() - 1 {
            (pts[pts.len() - 2], pts[pts.len() - 1])
        } else {
            (pts[k - 1], pts[k + 1])
        };
        let dd = b.stat_delay_ps - a.stat_delay_ps;
        if dd.abs() < 1e-12 {
            return None;
        }
        let da = b.area - a.area;
        let p = pts[k];
        let r = (da / p.area).abs() / (dd / p.stat_delay_ps).abs();
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::{SizingConfig, StatisticalSizer};
    use vardelay_circuit::generators::random_logic;
    use vardelay_circuit::generators::RandomLogicConfig;
    use vardelay_circuit::CellLibrary;
    use vardelay_process::VariationConfig;
    use vardelay_ssta::SstaEngine;

    fn sizer() -> StatisticalSizer {
        let engine = SstaEngine::new(
            CellLibrary::default(),
            VariationConfig::random_only(35.0),
            None,
        );
        StatisticalSizer::new(engine, SizingConfig::default())
    }

    fn stage() -> Netlist {
        random_logic(&RandomLogicConfig {
            name: "adc".into(),
            inputs: 16,
            gates: 120,
            depth: 10,
            outputs: 8,
            seed: 23,
        })
    }

    #[test]
    fn curve_is_monotone_area_vs_delay() {
        let s = sizer();
        let n = stage();
        let d0 = s.engine().stage_delay(&n, 0).mean();
        let targets: Vec<f64> = [0.85, 0.95, 1.1, 1.4].iter().map(|f| f * d0).collect();
        let c = AreaDelayCurve::generate(&s, &n, 0, &targets, 0.9);
        let feas: Vec<_> = c.feasible_points().collect();
        assert!(feas.len() >= 3, "most targets should be feasible");
        for w in feas.windows(2) {
            assert!(
                w[0].area >= w[1].area * 0.999,
                "tighter target needs >= area: {} @{} vs {} @{}",
                w[0].area,
                w[0].target_ps,
                w[1].area,
                w[1].target_ps
            );
        }
    }

    #[test]
    fn slope_positive_and_finite() {
        let s = sizer();
        let n = stage();
        let d0 = s.engine().stage_delay(&n, 0).mean();
        let targets: Vec<f64> = (0..5).map(|i| d0 * (0.85 + 0.15 * i as f64)).collect();
        let c = AreaDelayCurve::generate(&s, &n, 0, &targets, 0.9);
        let r = c.normalized_slope(d0).expect("enough feasible points");
        assert!(r.is_finite() && r >= 0.0, "R = {r}");
    }
}
