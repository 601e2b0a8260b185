//! Whole-pipeline Monte-Carlo: the exact distribution of
//! `T_P = max_i (T_C-Q + T_comb,i + T_setup)`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vardelay_circuit::{CellLibrary, StagedPipeline};
use vardelay_process::spatial::SpatialGrid;
use vardelay_process::VariationConfig;
use vardelay_stats::normal::sample_standard_normal;
use vardelay_stats::RunningStats;

use crate::engine::NetlistMc;
use crate::kernel::TrialKernel;
use crate::results::{McConfig, McResult};

/// Results of a pipeline Monte-Carlo campaign.
#[derive(Debug, Clone)]
pub struct PipelineMcResult {
    /// Distribution of the pipeline delay `max_i SD_i`.
    pub pipeline: McResult,
    /// Per-stage streaming statistics (means/sds of each `SD_i`).
    pub stage_stats: Vec<RunningStats>,
}

impl PipelineMcResult {
    /// Per-stage empirical means.
    pub fn stage_means(&self) -> Vec<f64> {
        self.stage_stats.iter().map(RunningStats::mean).collect()
    }

    /// Per-stage empirical standard deviations.
    pub fn stage_sds(&self) -> Vec<f64> {
        self.stage_stats
            .iter()
            .map(RunningStats::sample_sd)
            .collect()
    }
}

/// Monte-Carlo runner for a [`StagedPipeline`].
///
/// Each trial samples one die; all stages see the same inter-die shift and
/// the correlated systematic values of their respective regions, so the
/// stage-delay correlation structure of §2.1 emerges naturally rather than
/// being imposed.
#[derive(Debug, Clone)]
pub struct PipelineMc {
    inner: NetlistMc,
    kernel: TrialKernel,
}

impl PipelineMc {
    /// Creates a runner (v1 trial kernel).
    pub fn new(lib: CellLibrary, variation: VariationConfig, grid: Option<SpatialGrid>) -> Self {
        PipelineMc {
            inner: NetlistMc::new(lib, variation, grid),
            kernel: TrialKernel::default(),
        }
    }

    /// Sets the primary-output load per stage.
    ///
    /// # Panics
    ///
    /// Panics if `load < 0`.
    pub fn with_output_load(mut self, load: f64) -> Self {
        self.inner = self.inner.with_output_load(load);
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

    /// Access to the single-netlist runner.
    pub fn netlist_mc(&self) -> &NetlistMc {
        &self.inner
    }

    /// One pipeline trial: per-stage delays (including latch overhead)
    /// and their max, allocating fresh vectors. The reference v1 trial:
    /// [`crate::PreparedPipelineMc`] reproduces it bit for bit under the
    /// plain plan, and its tests use it as the oracle.
    pub fn sample_trial(&self, pipeline: &StagedPipeline, rng: &mut StdRng) -> (Vec<f64>, f64) {
        let die = self.inner.sampler().sample_die(rng);
        let latch = pipeline.latch();
        let mut stage_delays = Vec::with_capacity(pipeline.stage_count());
        let mut max_d = f64::NEG_INFINITY;
        for (stage, pos) in pipeline.stages().iter().zip(pipeline.positions()) {
            let region = self.inner.sampler().region_of(*pos);
            let comb = self.inner.sample_delay_on_die(stage, region, &die, rng);
            let overhead =
                latch.overhead_ps() + latch.overhead_sigma_ps() * sample_standard_normal(rng);
            let sd = comb + overhead;
            max_d = max_d.max(sd);
            stage_delays.push(sd);
        }
        (stage_delays, max_d)
    }

    /// Runs a full campaign.
    ///
    /// # Panics
    ///
    /// Panics if `config.trials == 0`.
    pub fn run(&self, pipeline: &StagedPipeline, config: &McConfig) -> PipelineMcResult {
        assert!(config.trials > 0, "need at least one trial");
        let threads = config.effective_threads().min(config.trials);
        let run_chunk = |seed: u64, n: usize| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut samples = Vec::with_capacity(n);
            let mut stage_stats = vec![RunningStats::new(); pipeline.stage_count()];
            for _ in 0..n {
                let (stages, maxd) = self.sample_trial(pipeline, &mut rng);
                for (st, d) in stage_stats.iter_mut().zip(&stages) {
                    st.push(*d);
                }
                samples.push(maxd);
            }
            (samples, stage_stats)
        };

        if threads == 1 {
            let (samples, stage_stats) = run_chunk(config.seed, config.trials);
            return PipelineMcResult {
                pipeline: McResult::new(samples),
                stage_stats,
            };
        }

        let chunk = config.trials / threads;
        let rem = config.trials % threads;
        let mut all = Vec::with_capacity(config.trials);
        let mut stage_stats = vec![RunningStats::new(); pipeline.stage_count()];
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..threads {
                let n = chunk + usize::from(w < rem);
                let seed = config
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w as u64 + 1));
                let run_chunk = &run_chunk;
                handles.push(scope.spawn(move |_| run_chunk(seed, n)));
            }
            for h in handles {
                let (samples, stats) = h.join().expect("MC worker panicked");
                all.extend(samples);
                for (acc, s) in stage_stats.iter_mut().zip(&stats) {
                    acc.merge(s);
                }
            }
        })
        .expect("MC thread scope failed");
        PipelineMcResult {
            pipeline: McResult::new(all),
            stage_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::LatchParams;
    use vardelay_stats::{max_of, CorrelationMatrix};

    fn pipe(ns: usize, nl: usize) -> StagedPipeline {
        StagedPipeline::inverter_grid(ns, nl, 1.0, LatchParams::ideal())
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
        let res = mc.run(&p, &McConfig::quick(20_000, 13));

        // Analytic: per-stage Normal from MC stage stats, folded with Clark.
        let stages: Vec<vardelay_stats::Normal> = res
            .stage_stats
            .iter()
            .map(|s| vardelay_stats::Normal::new(s.mean(), s.sample_sd()).unwrap())
            .collect();
        let corr = CorrelationMatrix::identity(stages.len());
        let analytic = max_of(&stages, &corr);
        let mc_mean = res.pipeline.mean();
        let mc_sd = res.pipeline.sd();
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
    fn parallel_equals_sequential_sample_count() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::combined(20.0, 35.0, 15.0),
            None,
        );
        let p = pipe(3, 5);
        let res = mc.run(
            &p,
            &McConfig {
                trials: 500,
                seed: 1,
                threads: 3,
            },
        );
        assert_eq!(res.pipeline.samples().len(), 500);
        assert_eq!(res.stage_stats[0].count(), 500);
    }

    #[test]
    fn latch_variability_contributes() {
        let var = VariationConfig::none();
        let mc = PipelineMc::new(CellLibrary::default(), var, None);
        let latchy = StagedPipeline::inverter_grid(2, 8, 1.0, LatchParams::tg_msff_70nm());
        let res = mc.run(&latchy, &McConfig::quick(4_000, 2));
        // Only latch sigma remains: stage sd ~ 0.32 ps.
        let sd = res.stage_stats[0].sample_sd();
        assert!((sd - 0.32).abs() < 0.03, "stage sd {sd}");
    }
}
