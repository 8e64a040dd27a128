//! Bench for Figures 1–2: multilevel partitioning at increasing fixed
//! fractions. The paper's right-hand plots show CPU time *decreasing* with
//! the fixed percentage; these benchmarks measure exactly that.
//!
//! Regenerate the figures with `cargo run -p vlsi-experiments --bin figures`.

use std::hint::black_box;
use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;
use vlsi_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vlsi_experiments::harness::{find_good_solution, paper_balance};
use vlsi_experiments::regimes::{FixSchedule, Regime};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::{MultilevelConfig, MultilevelPartitioner, Partitioner, RunCtx};

fn bench_figure_sweep(c: &mut Criterion) {
    let circuit = ibm01_like_scaled(0.10, 1999);
    let hg = &circuit.hypergraph;
    let balance = paper_balance(hg);
    let ml_config = MultilevelConfig::default();
    let good = find_good_solution(hg, &balance, &ml_config, 4, 7).expect("reference solution");
    let ml = MultilevelPartitioner::new(ml_config);

    let mut group = c.benchmark_group("figure/multilevel_start");
    group.sample_size(10);
    for regime in [Regime::Good, Regime::Random] {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let schedule = FixSchedule::new(hg, regime, &good.parts, &mut rng);
        for pct in [0.0, 5.0, 20.0, 50.0] {
            let fixed = schedule.at_percent(pct);
            group.bench_with_input(
                BenchmarkId::new(regime.label(), format!("{pct}pct")),
                &fixed,
                |b, fixed| {
                    let mut rng = ChaCha8Rng::seed_from_u64(11);
                    b.iter(|| {
                        black_box(
                            ml.partition_ctx(hg, fixed, &balance, RunCtx::new(&mut rng))
                                .expect("partitioning succeeds"),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_figure_sweep);
criterion_main!(benches);
