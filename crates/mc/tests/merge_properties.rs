//! Property tests: merging partial results must equal single-pass
//! accumulation — the algebra behind the sweep engine's streaming
//! aggregation.

use proptest::prelude::*;
use vardelay_mc::PipelineBlockStats;
use vardelay_stats::RunningStats;

fn samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-50.0..450.0_f64, 2..120)
}

proptest! {
    #[test]
    fn running_stats_merge_equals_single_pass(xs in samples(), split in 1usize..100) {
        let cut = split.min(xs.len() - 1);
        let mut a: RunningStats = xs[..cut].iter().copied().collect();
        let b: RunningStats = xs[cut..].iter().copied().collect();
        a.merge(&b);
        let full: RunningStats = xs.iter().copied().collect();

        prop_assert_eq!(a.count(), full.count());
        prop_assert!((a.mean() - full.mean()).abs() < 1e-9);
        prop_assert!((a.sample_variance() - full.sample_variance()).abs() < 1e-6);
        prop_assert!((a.skewness() - full.skewness()).abs() < 1e-6);
        prop_assert!((a.excess_kurtosis() - full.excess_kurtosis()).abs() < 1e-6);
    }

    #[test]
    fn block_stats_merge_equals_single_pass(
        trials in proptest::collection::vec(
            (10.0..200.0_f64, 10.0..200.0_f64, 10.0..200.0_f64), 2..80
        ),
        split in 1usize..60,
        target in 50.0..180.0_f64
    ) {
        let cut = split.min(trials.len() - 1);
        let targets = [target, target + 20.0];
        let record_all = |stats: &mut PipelineBlockStats, rows: &[(f64, f64, f64)]| {
            for &(a, b, c) in rows {
                let maxd = a.max(b).max(c);
                stats.record(&[a, b, c], maxd);
            }
        };

        let mut left = PipelineBlockStats::new(3, &targets);
        record_all(&mut left, &trials[..cut]);
        let mut right = PipelineBlockStats::new(3, &targets);
        record_all(&mut right, &trials[cut..]);
        left.merge(&right);

        let mut full = PipelineBlockStats::new(3, &targets);
        record_all(&mut full, &trials);

        prop_assert_eq!(left.trials(), full.trials());
        prop_assert!((left.pipeline().mean() - full.pipeline().mean()).abs() < 1e-9);
        prop_assert!((left.pipeline().sample_sd() - full.pipeline().sample_sd()).abs() < 1e-9);
        for i in 0..2 {
            prop_assert_eq!(left.yield_estimate(i).value, full.yield_estimate(i).value);
        }
        for (l, f) in left.stage_stats().iter().zip(full.stage_stats()) {
            prop_assert!((l.mean() - f.mean()).abs() < 1e-9);
            prop_assert_eq!(l.min(), f.min());
            prop_assert_eq!(l.max(), f.max());
        }
    }
}
