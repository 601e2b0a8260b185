//! Whole-pipeline Monte-Carlo: the exact distribution of
//! `T_P = max_i (T_C-Q + T_comb,i + T_setup)`.

use rand::rngs::StdRng;
use vardelay_circuit::{CellLibrary, Netlist, StagedPipeline};
use vardelay_process::spatial::SpatialGrid;
use vardelay_process::{DieSample, ProcessSampler, VariationConfig};
use vardelay_ssta::sta::{arrival_times, DEFAULT_OUTPUT_LOAD};
use vardelay_stats::normal::sample_standard_normal;

use crate::kernel::TrialKernel;

/// Monte-Carlo configuration for a [`StagedPipeline`]: the library, the
/// process sampler, the output load and the trial kernel that
/// [`crate::PreparedPipelineMc`] compiles from it.
///
/// Each trial samples one die; all stages see the same inter-die shift and
/// the correlated systematic values of their respective regions, so the
/// stage-delay correlation structure of §2.1 emerges naturally rather than
/// being imposed. Gate delays use the exact (nonlinear) alpha-power
/// slowdown, and each stage delay is the exact max over its outputs — no
/// Gaussian assumptions.
#[derive(Debug, Clone)]
pub struct PipelineMc {
    pub(crate) lib: CellLibrary,
    pub(crate) sampler: ProcessSampler,
    pub(crate) output_load: f64,
    kernel: TrialKernel,
}

impl PipelineMc {
    /// Creates a runner (v1 trial kernel). A default grid is synthesized
    /// when systematic variation is configured without one.
    pub fn new(lib: CellLibrary, variation: VariationConfig, grid: Option<SpatialGrid>) -> Self {
        PipelineMc {
            lib,
            sampler: ProcessSampler::new(variation, grid),
            output_load: DEFAULT_OUTPUT_LOAD,
            kernel: TrialKernel::default(),
        }
    }

    /// Sets the primary-output load per stage.
    ///
    /// # Panics
    ///
    /// Panics if `load < 0`.
    // Kept: the mc tests match an `SstaEngine::with_output_load` load.
    pub fn with_output_load(mut self, load: f64) -> Self {
        assert!(load >= 0.0, "output load must be non-negative");
        self.output_load = load;
        self
    }

    /// Selects the trial-kernel contract that prepared runners compiled
    /// from this runner execute.
    pub fn with_kernel(mut self, kernel: TrialKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The selected trial-kernel contract.
    pub fn kernel(&self) -> TrialKernel {
        self.kernel
    }

    /// One pipeline trial: per-stage delays (including latch overhead)
    /// and their max, allocating fresh vectors. The reference v1 trial:
    /// [`crate::PreparedPipelineMc`] reproduces it bit for bit under the
    /// plain plan, and its tests use it as the oracle.
    pub fn sample_trial(&self, pipeline: &StagedPipeline, rng: &mut StdRng) -> (Vec<f64>, f64) {
        let die = self.sampler.sample_die(rng);
        let latch = pipeline.latch();
        let mut stage_delays = Vec::with_capacity(pipeline.stage_count());
        let mut max_d = f64::NEG_INFINITY;
        for (stage, pos) in pipeline.stages().iter().zip(pipeline.positions()) {
            let region = self.sampler.region_of(*pos);
            let comb = self.sample_delay_on_die(stage, region, &die, rng);
            let overhead =
                latch.overhead_ps() + latch.overhead_sigma_ps() * sample_standard_normal(rng);
            let sd = comb + overhead;
            max_d = max_d.max(sd);
            stage_delays.push(sd);
        }
        (stage_delays, max_d)
    }

    /// One netlist's delay on an existing die sample: an independent
    /// random shift per gate on top of the die's shared shift for
    /// `region`, then the exact max over outputs.
    fn sample_delay_on_die(
        &self,
        netlist: &Netlist,
        region: usize,
        die: &DieSample,
        rng: &mut StdRng,
    ) -> f64 {
        let shared = die.shared_dvth(if die.region_dvth.is_empty() {
            0
        } else {
            region
        });
        let slowdown: Vec<f64> = netlist
            .gates()
            .iter()
            .map(|g| {
                let rand = self
                    .sampler
                    .sample_gate_random(rng, g.size * g.kind.mismatch_area());
                self.lib.vth_slowdown_factor(shared + rand)
            })
            .collect();
        let at = arrival_times(netlist, &self.lib, self.output_load, Some(&slowdown));
        netlist
            .outputs()
            .iter()
            .map(|o| at[o.0])
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vardelay_circuit::generators::inverter_chain;
    use vardelay_circuit::LatchParams;
    use vardelay_ssta::sta::nominal_delay;
    use vardelay_ssta::SstaEngine;
    use vardelay_stats::{counter_seed, max_of, CorrelationMatrix, RunningStats};

    fn pipe(ns: usize, nl: usize) -> StagedPipeline {
        StagedPipeline::inverter_grid(ns, nl, 1.0, LatchParams::ideal())
    }

    /// `trials` reference trials drawn in order from one `StdRng` stream
    /// seeded with `seed`: per-stage and pipeline-delay statistics.
    fn sequential(
        mc: &PipelineMc,
        p: &StagedPipeline,
        trials: usize,
        seed: u64,
    ) -> (Vec<RunningStats>, RunningStats) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stages = vec![RunningStats::new(); p.stage_count()];
        let mut pipeline = RunningStats::new();
        for _ in 0..trials {
            let (sd, maxd) = mc.sample_trial(p, &mut rng);
            for (acc, d) in stages.iter_mut().zip(&sd) {
                acc.push(*d);
            }
            pipeline.push(maxd);
        }
        (stages, pipeline)
    }

    /// Single-netlist delay statistics over trials `0..trials`, trial `t`
    /// on its own stream `counter_seed(seed, t)`.
    fn netlist_delays(mc: &PipelineMc, c: &Netlist, trials: u64, seed: u64) -> RunningStats {
        (0..trials)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(counter_seed(seed, t));
                let die = mc.sampler.sample_die(&mut rng);
                mc.sample_delay_on_die(c, 0, &die, &mut rng)
            })
            .collect()
    }

    fn netlist_runner(var: VariationConfig) -> PipelineMc {
        PipelineMc::new(CellLibrary::default(), var, None).with_output_load(1.0)
    }

    #[test]
    fn pipeline_delay_is_max_of_stage_delays() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::random_only(35.0),
            None,
        );
        let p = pipe(4, 6);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let (stages, maxd) = mc.sample_trial(&p, &mut rng);
            let want = stages.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(maxd, want);
        }
    }

    #[test]
    fn mc_pipeline_matches_clark_model_random_only() {
        // The end-to-end validation of §2.4 in miniature: analytic stage
        // moments + Clark max vs full Monte-Carlo.
        let var = VariationConfig::random_only(35.0);
        let mc = PipelineMc::new(CellLibrary::default(), var, None).with_output_load(3.0);
        let p = pipe(5, 8);
        let (stage_stats, pipeline) = sequential(&mc, &p, 20_000, 13);

        // Analytic: per-stage Normal from MC stage stats, folded with Clark.
        let stages: Vec<vardelay_stats::Normal> = stage_stats
            .iter()
            .map(|s| vardelay_stats::Normal::new(s.mean(), s.sample_sd()).unwrap())
            .collect();
        let corr = CorrelationMatrix::identity(stages.len());
        let analytic = max_of(&stages, &corr);
        let mc_mean = pipeline.mean();
        let mc_sd = pipeline.sample_sd();
        assert!(
            ((analytic.mean() - mc_mean) / mc_mean).abs() < 0.005,
            "mean {} vs {}",
            analytic.mean(),
            mc_mean
        );
        assert!(
            ((analytic.sd() - mc_sd) / mc_sd).abs() < 0.10,
            "sd {} vs {}",
            analytic.sd(),
            mc_sd
        );
    }

    #[test]
    fn latch_variability_contributes() {
        let var = VariationConfig::none();
        let mc = PipelineMc::new(CellLibrary::default(), var, None);
        let latchy = StagedPipeline::inverter_grid(2, 8, 1.0, LatchParams::tg_msff_70nm());
        let (stage_stats, _) = sequential(&mc, &latchy, 4_000, 2);
        // Only latch sigma remains: stage sd ~ 0.32 ps.
        let sd = stage_stats[0].sample_sd();
        assert!((sd - 0.32).abs() < 0.03, "stage sd {sd}");
    }

    #[test]
    fn zero_variation_reproduces_nominal_delay() {
        let mc = netlist_runner(VariationConfig::none());
        let c = inverter_chain(6, 1.0);
        let res = netlist_delays(&mc, &c, 10, 1);
        let nominal = nominal_delay(&c, &mc.lib, 1.0);
        assert!((res.mean() - nominal).abs() < 1e-9);
        assert!(res.sample_sd() < 1e-12);
    }

    #[test]
    fn mc_matches_ssta_for_random_variation() {
        let var = VariationConfig::random_only(35.0);
        let mc = netlist_runner(var);
        let c = inverter_chain(10, 1.0);
        let res = netlist_delays(&mc, &c, 20_000, 7);
        let (mean, sd) = (res.mean(), res.sample_sd());
        let ssta = SstaEngine::new(CellLibrary::default(), var, None)
            .with_output_load(1.0)
            .stage_delay(&c, 0);
        // Paper §2.4: mean error < 0.2%, sd error < 3% (plus MC noise and
        // the nonlinear-vs-linearized model gap).
        assert!(
            ((mean - ssta.mean()) / ssta.mean()).abs() < 0.01,
            "mean {} vs {}",
            mean,
            ssta.mean()
        );
        assert!(
            ((sd - ssta.sd()) / ssta.sd()).abs() < 0.08,
            "sd {} vs {}",
            sd,
            ssta.sd()
        );
    }

    #[test]
    fn inter_die_shifts_whole_distribution() {
        let mc = netlist_runner(VariationConfig::inter_only(40.0));
        let c = inverter_chain(10, 1.0);
        let res = netlist_delays(&mc, &c, 5_000, 11);
        // All gates shift together: sd/mean should be close to the per-gate
        // fractional sensitivity times sigma (no sqrt-N averaging).
        let s = mc.lib.delay_vth_sensitivity() * 0.040;
        let v = res.variability();
        assert!((v - s).abs() < 0.2 * s, "variability {v} vs sens {s}");
    }
}
