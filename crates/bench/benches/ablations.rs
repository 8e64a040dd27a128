//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * LIFO vs CLIP selection (the paper: "very similar results");
//! * V-cycling on vs off (the paper: "a net loss in terms of overall
//!   cost-runtime profile");
//! * free–fixed merging in coarsening (this reproduction found it harmful);
//! * the terminal-clustering equivalence transform vs the raw fixed set.

use std::hint::black_box;
use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;
use vlsi_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vlsi_experiments::harness::{find_good_solution, paper_balance};
use vlsi_experiments::regimes::{FixSchedule, Regime};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::terminal_cluster::cluster_terminals;
use vlsi_partition::{
    BipartFm, EngineConfig, FmConfig, MultilevelConfig, MultilevelPartitioner, Multistart,
    Partitioner, RunCtx, SelectionPolicy,
};

fn bench_ablations(c: &mut Criterion) {
    let circuit = ibm01_like_scaled(0.10, 1999);
    let hg = &circuit.hypergraph;
    let balance = paper_balance(hg);
    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, 7)
        .expect("reference solution");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);
    let fixed = schedule.at_percent(20.0);

    // LIFO vs CLIP flat FM.
    let mut group = c.benchmark_group("ablation/selection_policy");
    group.sample_size(10);
    for policy in [SelectionPolicy::Lifo, SelectionPolicy::Clip] {
        let fm = BipartFm::new(FmConfig {
            policy,
            ..FmConfig::default()
        });
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.to_string()),
            &fm,
            |b, fm| {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                b.iter(|| {
                    let ctx = RunCtx::new(&mut rng);
                    black_box(fm.partition_ctx(hg, &fixed, &balance, ctx).expect("runs"))
                })
            },
        );
    }
    group.finish();

    // V-cycling 0 vs 1 vs 2, as the quality phase of one multilevel start.
    let mut group = c.benchmark_group("ablation/vcycles");
    group.sample_size(10);
    let engine = EngineConfig::Multilevel(MultilevelConfig::default());
    for vcycles in [0usize, 1, 2] {
        let driver = Multistart::new(1).vcycles(vcycles);
        group.bench_with_input(
            BenchmarkId::from_parameter(vcycles),
            &driver,
            |b, driver| {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                b.iter(|| {
                    let ctx = RunCtx::new(&mut rng);
                    black_box(
                        driver
                            .run(hg, &fixed, &balance, &engine, ctx)
                            .expect("runs"),
                    )
                })
            },
        );
    }
    group.finish();

    // Terminal-clustering equivalence transform: run on the clustered
    // instance vs the raw one (the paper's conclusions predict comparable
    // difficulty; clustering shrinks the vertex set).
    let clustered = cluster_terminals(hg, &fixed).expect("transform succeeds");
    let clustered_balance = paper_balance(&clustered.hypergraph);
    let mut group = c.benchmark_group("ablation/terminal_clustering");
    group.sample_size(10);
    let ml = MultilevelPartitioner::new(MultilevelConfig::default());
    group.bench_function("raw", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        b.iter(|| {
            let ctx = RunCtx::new(&mut rng);
            black_box(ml.run(hg, &fixed, &balance, ctx).expect("runs"))
        })
    });
    group.bench_function("clustered", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        b.iter(|| {
            black_box(
                ml.run(
                    &clustered.hypergraph,
                    &clustered.fixed,
                    &clustered_balance,
                    RunCtx::new(&mut rng),
                )
                .expect("runs"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
