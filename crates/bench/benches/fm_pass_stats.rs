//! Bench for Table II: flat LIFO-FM runs at increasing fixed fractions.
//! Runtime should fall as terminals remove movable vertices and shorten
//! the useful part of each pass.
//!
//! Regenerate the table with `cargo run -p vlsi-experiments --bin table2`.

use std::hint::black_box;
use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;
use vlsi_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vlsi_experiments::harness::{find_good_solution, paper_balance};
use vlsi_experiments::regimes::{FixSchedule, Regime};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::{BipartFm, FmConfig, MultilevelConfig, Partitioner, RunCtx, SelectionPolicy};

fn bench_fm_pass_stats(c: &mut Criterion) {
    let circuit = ibm01_like_scaled(0.10, 1999);
    let hg = &circuit.hypergraph;
    let balance = paper_balance(hg);
    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, 7)
        .expect("reference solution");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);
    let fm = BipartFm::new(FmConfig {
        policy: SelectionPolicy::Lifo,
        ..FmConfig::default()
    });

    let mut group = c.benchmark_group("table2/lifo_fm_run");
    group.sample_size(10);
    for pct in [0.0, 10.0, 30.0, 50.0] {
        let fixed = schedule.at_percent(pct);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{pct}pct")),
            &fixed,
            |b, fixed| {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                b.iter(|| {
                    black_box(
                        fm.partition_ctx(hg, fixed, &balance, RunCtx::new(&mut rng))
                            .expect("fm succeeds"),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fm_pass_stats);
criterion_main!(benches);
