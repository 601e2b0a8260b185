//! Block-based SSTA over netlists and whole pipelines.
//!
//! [`SstaEngine::stage_delay`] reproduces the paper's "SPICE Monte-Carlo
//! gives (μᵢ, σᵢ) per stage" step analytically: arrival times in canonical
//! form are propagated through the stage netlist (exact sums, Clark max at
//! multi-fanin joins). [`SstaEngine::analyze_pipeline`] runs every stage,
//! adds the latch overhead of eq. (1), and extracts the stage-to-stage
//! correlation matrix from the shared canonical factors — precisely the
//! `(μᵢ, σᵢ, ρᵢⱼ)` inputs of the paper's pipeline model.

use vardelay_circuit::{CellLibrary, Netlist, StagedPipeline};
use vardelay_process::spatial::SpatialGrid;
use vardelay_process::VariationConfig;
use vardelay_stats::{CorrelationMatrix, Normal, SymMatrix};

use crate::canonical::CanonicalDelay;
use crate::gate_delay::FactorBasis;
use crate::sta::DEFAULT_OUTPUT_LOAD;

/// Statistical timing results for a whole pipeline.
#[derive(Debug, Clone)]
pub struct PipelineTiming {
    /// Per-stage delay distributions (including latch overhead).
    pub stage_delays: Vec<Normal>,
    /// Per-stage canonical forms (for covariance queries).
    pub canonical: Vec<CanonicalDelay>,
    /// Stage-to-stage correlation matrix.
    pub correlation: CorrelationMatrix,
}

impl PipelineTiming {
    /// Per-stage means (ps).
    pub fn means(&self) -> Vec<f64> {
        self.stage_delays.iter().map(Normal::mean).collect()
    }

    /// Per-stage standard deviations (ps).
    pub fn sds(&self) -> Vec<f64> {
        self.stage_delays.iter().map(Normal::sd).collect()
    }

    /// Per-stage yields `Φ((T − μᵢ)/σᵢ)` at a target delay — the
    /// yield-at-target evaluation the sizing flow (and the Table II/III
    /// reports) read per stage.
    pub fn stage_yields(&self, target_ps: f64) -> Vec<f64> {
        self.stage_delays.iter().map(|n| n.cdf(target_ps)).collect()
    }
}

/// The SSTA engine: a cell library, a variation model, and a spatial grid.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct SstaEngine {
    lib: CellLibrary,
    variation: VariationConfig,
    grid: Option<SpatialGrid>,
    basis: FactorBasis,
    output_load: f64,
}

impl SstaEngine {
    /// Creates an engine. When the variation config has a systematic
    /// component and no grid is given, a default 4×4 grid is used.
    pub fn new(lib: CellLibrary, variation: VariationConfig, grid: Option<SpatialGrid>) -> Self {
        let grid = if variation.has_systematic() {
            Some(grid.unwrap_or_else(|| SpatialGrid::new(4, 4, variation.correlation_length())))
        } else {
            grid
        };
        let basis = FactorBasis::new(&variation, grid.as_ref());
        SstaEngine {
            lib,
            variation,
            grid,
            basis,
            output_load: DEFAULT_OUTPUT_LOAD,
        }
    }

    /// Sets the primary-output load (min-inverter units).
    ///
    /// # Panics
    ///
    /// Panics if `load < 0`.
    pub fn with_output_load(mut self, load: f64) -> Self {
        assert!(load >= 0.0, "output load must be non-negative");
        self.output_load = load;
        self
    }

    /// The cell library.
    pub fn library(&self) -> &CellLibrary {
        &self.lib
    }

    /// The variation configuration.
    pub fn variation(&self) -> &VariationConfig {
        &self.variation
    }

    /// The spatial grid, if any.
    pub fn grid(&self) -> Option<&SpatialGrid> {
        self.grid.as_ref()
    }

    /// The configured output load.
    pub fn output_load(&self) -> f64 {
        self.output_load
    }

    /// The shared factor basis (for the incremental analyzer).
    pub(crate) fn basis(&self) -> &FactorBasis {
        &self.basis
    }

    /// Canonical arrival time of every signal in a stage netlist placed in
    /// spatial region `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range for the configured grid.
    pub fn arrival_canonical(&self, netlist: &Netlist, region: usize) -> Vec<CanonicalDelay> {
        let loads = netlist.loads(self.output_load);
        let nsignals = netlist.input_count() + netlist.gate_count();
        let mut at: Vec<CanonicalDelay> = Vec::with_capacity(nsignals);
        for _ in 0..netlist.input_count() {
            at.push(self.basis.zero());
        }
        for (i, g) in netlist.gates().iter().enumerate() {
            let out = netlist.input_count() + i;
            let d = self.basis.gate_delay(
                &self.lib,
                &self.variation,
                g.kind,
                g.size,
                loads[out],
                region,
            );
            let t_in = CanonicalDelay::max_of(g.fanins.iter().map(|f| &at[f.0]));
            at.push(t_in.add(&d));
        }
        at
    }

    /// Canonical combinational delay of a stage: Clark max over primary
    /// outputs.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no outputs or `region` is out of range.
    pub fn stage_delay_canonical(&self, netlist: &Netlist, region: usize) -> CanonicalDelay {
        assert!(
            !netlist.outputs().is_empty(),
            "stage delay requires at least one primary output"
        );
        let at = self.arrival_canonical(netlist, region);
        CanonicalDelay::max_of(netlist.outputs().iter().map(|o| &at[o.0]))
    }

    /// Marginal stage delay distribution (combinational only).
    ///
    /// # Panics
    ///
    /// See [`Self::stage_delay_canonical`].
    pub fn stage_delay(&self, netlist: &Netlist, region: usize) -> Normal {
        self.stage_delay_canonical(netlist, region).to_normal()
    }

    /// Full-pipeline analysis: per-stage delay (combinational + latch
    /// overhead, eq. 1) and the stage correlation matrix.
    ///
    /// # Panics
    ///
    /// Panics if any stage has no outputs.
    pub fn analyze_pipeline(&self, pipeline: &StagedPipeline) -> PipelineTiming {
        let latch = pipeline.latch();
        let canonical: Vec<CanonicalDelay> = pipeline
            .stages()
            .iter()
            .zip(pipeline.positions())
            .map(|(stage, pos)| {
                let region = self.grid.as_ref().map_or(0, |g| g.region_of(*pos));
                self.stage_delay_canonical(stage, region)
                    .add_independent(latch.overhead_ps(), latch.overhead_sigma_ps())
            })
            .collect();
        let stage_delays: Vec<Normal> = canonical.iter().map(CanonicalDelay::to_normal).collect();
        let n = canonical.len();
        let corr = SymMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                canonical[i].correlation(&canonical[j])
            }
        });
        let correlation = CorrelationMatrix::from_matrix(corr)
            .expect("canonical correlations are valid by construction");
        PipelineTiming {
            stage_delays,
            canonical,
            correlation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::generators::inverter_chain;
    use vardelay_circuit::LatchParams;

    fn engine(var: VariationConfig) -> SstaEngine {
        SstaEngine::new(CellLibrary::default(), var, None).with_output_load(1.0)
    }

    #[test]
    fn chain_mean_is_nominal_sum() {
        let e = engine(VariationConfig::random_only(35.0));
        let c = inverter_chain(8, 1.0);
        let d = e.stage_delay(&c, 0);
        let nominal = crate::sta::nominal_delay(&c, e.library(), 1.0);
        assert!((d.mean() - nominal).abs() < 1e-9);
    }

    #[test]
    fn random_variability_falls_with_depth() {
        // Fig. 5(a): σ/μ of a stage shrinks as 1/sqrt(NL) under purely
        // random intra-die variation.
        let e = engine(VariationConfig::random_only(35.0));
        let v10 = e.stage_delay(&inverter_chain(10, 1.0), 0).variability();
        let v40 = e.stage_delay(&inverter_chain(40, 1.0), 0).variability();
        assert!(
            (v40 - v10 / 2.0).abs() < 0.1 * v10,
            "v10={v10} v40={v40} (expected 1/sqrt(4) scaling)"
        );
    }

    #[test]
    fn inter_variability_flat_with_depth() {
        // Fig. 5(a): under inter-die-only variation σ/μ is depth-independent.
        let e = engine(VariationConfig::inter_only(40.0));
        let v10 = e.stage_delay(&inverter_chain(10, 1.0), 0).variability();
        let v40 = e.stage_delay(&inverter_chain(40, 1.0), 0).variability();
        assert!(
            (v40 - v10).abs() < 1e-9 * v10.max(1.0),
            "v10={v10} v40={v40}"
        );
    }

    #[test]
    fn pipeline_correlation_matches_variation_mode() {
        let stages = |_n: usize| StagedPipeline::inverter_grid(4, 8, 1.0, LatchParams::ideal());
        // Random-only: stages independent.
        let t = engine(VariationConfig::random_only(35.0)).analyze_pipeline(&stages(4));
        assert!(t.correlation.get(0, 1).abs() < 1e-12);
        // Inter-only: stages perfectly correlated.
        let t = engine(VariationConfig::inter_only(40.0)).analyze_pipeline(&stages(4));
        assert!((t.correlation.get(0, 3) - 1.0).abs() < 1e-9);
        // Combined: partial correlation.
        let t = engine(VariationConfig::combined(20.0, 35.0, 15.0)).analyze_pipeline(&stages(4));
        let rho = t.correlation.get(0, 1);
        assert!(rho > 0.1 && rho < 0.999, "rho={rho}");
    }

    #[test]
    fn systematic_correlation_decays_along_pipeline() {
        let grid = SpatialGrid::new(1, 8, 0.25);
        let e = SstaEngine::new(
            CellLibrary::default(),
            VariationConfig::combined(0.0, 10.0, 30.0),
            Some(grid),
        );
        let p = StagedPipeline::inverter_grid(8, 8, 1.0, LatchParams::ideal());
        let t = e.analyze_pipeline(&p);
        assert!(
            t.correlation.get(0, 1) > t.correlation.get(0, 7),
            "near stages more correlated: {} vs {}",
            t.correlation.get(0, 1),
            t.correlation.get(0, 7)
        );
    }

    #[test]
    fn latch_overhead_added_per_stage() {
        let e = engine(VariationConfig::none());
        let with_latch = StagedPipeline::inverter_grid(2, 8, 1.0, LatchParams::tg_msff_70nm());
        let without = StagedPipeline::inverter_grid(2, 8, 1.0, LatchParams::ideal());
        let a = e.analyze_pipeline(&with_latch);
        let b = e.analyze_pipeline(&without);
        let diff = a.stage_delays[0].mean() - b.stage_delays[0].mean();
        assert!((diff - 8.0).abs() < 1e-9, "latch overhead 8 ps, got {diff}");
        assert!(a.stage_delays[0].sd() > b.stage_delays[0].sd());
    }
}
