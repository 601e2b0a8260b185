//! Criterion bench: per-trial cost of the gate-level Monte-Carlo hot
//! path.
//!
//! Two layers on the paper's Table-1 chain pipeline (5 stages × depth 8,
//! combined variation — the worst case for the allocator, since every
//! trial draws die + region values and times 40 gates):
//!
//! * `trial_block_256` — one 256-trial plain block through
//!   `PreparedPipelineMc::run_block_plan` (scratch buffers reused, loads
//!   and nominal delays precomputed). The bench first asserts the block's
//!   statistics match a `PipelineMc::sample_trial` oracle loop (fresh
//!   vectors every trial) bit for bit.
//! * `sweep` — the same scenario through `run_sweep` at 1/2/4/8 workers.
//!   The `pipeline` and `netlist` backends run the same code on
//!   gate-level scenarios, so one backend is timed.
//!
//! Run: `cargo bench -p vardelay-bench --bench netlist_hot_path`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use vardelay_circuit::{CellLibrary, LatchParams, StagedPipeline};
use vardelay_engine::{
    run_sweep, BackendSpec, CircuitSpec, KernelSpec, LatchSpec, PipelineSpec, Scenario, Sweep,
    SweepOptions, TrialPlanSpec, VariationSpec,
};
use vardelay_mc::{PipelineBlockStats, PipelineMc, PreparedPipelineMc, TrialPlan};
use vardelay_process::VariationConfig;

fn seed_of(t: u64) -> u64 {
    t.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x7AB1)
}

fn bench_trial(c: &mut Criterion) {
    let pipeline = StagedPipeline::inverter_grid(5, 8, 1.0, LatchParams::tg_msff_70nm());
    let mc = PipelineMc::new(
        CellLibrary::default(),
        VariationConfig::combined(20.0, 35.0, 15.0),
        None,
    );
    let prepared = PreparedPipelineMc::new(&mc, &pipeline);
    let plain = TrialPlan::plain();

    // Identical numerics first: the prepared path must be a pure
    // optimization of the reference trial loop.
    let mut a = PipelineBlockStats::new(5, &[]);
    for t in 0..256 {
        let (stages, maxd) = mc.sample_trial(&pipeline, &mut StdRng::seed_from_u64(seed_of(t)));
        a.record(&stages, maxd);
    }
    let mut b = PipelineBlockStats::new(5, &[]);
    let mut ws = prepared.workspace();
    prepared.run_block_plan(&mut ws, 0..256, seed_of, plain, &mut b);
    assert_eq!(a, b, "workspace path must be bit-identical");

    let mut group = c.benchmark_group("hot_path/trial_block_256");
    group.sample_size(20);
    group.bench_function("workspace (PreparedPipelineMc)", |bch| {
        bch.iter(|| {
            let mut stats = PipelineBlockStats::new(5, &[]);
            prepared.run_block_plan(&mut ws, 0..256, seed_of, plain, &mut stats);
            stats
        })
    });
    group.finish();
    assert!(
        ws.reuses() >= 256,
        "bench loop must have reused the workspace"
    );
}

fn chain_scenario() -> Scenario {
    Scenario {
        kernel: KernelSpec::default(),
        label: "5x8 netlist".to_owned(),
        pipeline: PipelineSpec::Circuits {
            stages: vec![
                CircuitSpec::Chain {
                    depth: 8,
                    size: 1.0,
                };
                5
            ],
            latch: LatchSpec::TgMsff70nm,
        },
        variation: VariationSpec::Combined {
            inter_mv: 20.0,
            random_mv: 35.0,
            systematic_mv: 15.0,
        },
        trials: 4_000,
        trial_plan: TrialPlanSpec::default(),
        yield_targets: vec![],
        auto_target_sigmas: vec![1.2],
        backend: BackendSpec::Netlist,
        histogram_bins: 0,
    }
}

fn bench_sweep(c: &mut Criterion) {
    let sweep = Sweep {
        name: "hot-path".to_owned(),
        seed: 41,
        scenarios: vec![chain_scenario()],
        grid: None,
    };
    let baseline = run_sweep(&sweep, &SweepOptions::sequential())
        .expect("valid spec")
        .to_json();
    let mut group = c.benchmark_group("hot_path/sweep");
    group.sample_size(10);
    for &workers in &[1usize, 2, 4, 8] {
        let run = run_sweep(&sweep, &SweepOptions { workers }).expect("valid spec");
        assert_eq!(run.to_json(), baseline, "determinism at {workers} workers");
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |bch, &workers| bch.iter(|| run_sweep(black_box(&sweep), &SweepOptions { workers })),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_trial, bench_sweep);
criterion_main!(benches);
