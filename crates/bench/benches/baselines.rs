//! Baseline-engine comparison benchmarks: multilevel vs flat FM vs
//! Kernighan–Lin vs simulated annealing, on free and fixed instances.

use std::hint::black_box;
use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;
use vlsi_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vlsi_experiments::harness::{find_good_solution, paper_balance};
use vlsi_experiments::regimes::{FixSchedule, Regime};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::{
    AnnealingConfig, EngineConfig, FmConfig, KlConfig, MultilevelConfig, Partitioner, RunCtx,
};

fn bench_baselines(c: &mut Criterion) {
    let circuit = ibm01_like_scaled(0.08, 1999); // ~1000 cells: KL is O(n^2)-ish
    let hg = &circuit.hypergraph;
    let balance = paper_balance(hg);
    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, 7)
        .expect("reference solution");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);

    let mut group = c.benchmark_group("baselines/engine");
    group.sample_size(10);
    for pct in [0.0f64, 30.0] {
        let fixed = schedule.at_percent(pct);
        for (name, engine) in [
            (
                "multilevel",
                EngineConfig::Multilevel(MultilevelConfig::default()),
            ),
            ("flat_fm", EngineConfig::Fm(FmConfig::default())),
            ("kernighan_lin", EngineConfig::Kl(KlConfig::default())),
            (
                "annealing",
                EngineConfig::Annealing(AnnealingConfig::default()),
            ),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{pct}pct")),
                &fixed,
                |b, fixed| {
                    let mut rng = ChaCha8Rng::seed_from_u64(5);
                    b.iter(|| {
                        let ctx = RunCtx::new(&mut rng);
                        black_box(
                            engine
                                .partition_ctx(hg, fixed, &balance, ctx)
                                .expect("runs"),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
