//! Bench for Table III: single LIFO-FM starts under pass cutoffs. The
//! paper's finding: "in all cases, limiting the number of moves in a pass
//! improves runtime".
//!
//! Regenerate the table with `cargo run -p vlsi-experiments --bin table3`.

use std::hint::black_box;
use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;
use vlsi_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vlsi_experiments::harness::{find_good_solution, paper_balance};
use vlsi_experiments::regimes::{FixSchedule, Regime};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::{
    BipartFm, FmConfig, MultilevelConfig, Partitioner, PassCutoff, RunCtx, SelectionPolicy,
};

fn bench_pass_cutoff(c: &mut Criterion) {
    let circuit = ibm01_like_scaled(0.10, 1999);
    let hg = &circuit.hypergraph;
    let balance = paper_balance(hg);
    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, 7)
        .expect("reference solution");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);
    let fixed = schedule.at_percent(30.0);

    let mut group = c.benchmark_group("table3/lifo_fm_cutoff");
    group.sample_size(10);
    for (label, cutoff) in [
        ("unlimited", PassCutoff::Unlimited),
        ("50pct", PassCutoff::Fraction(0.50)),
        ("25pct", PassCutoff::Fraction(0.25)),
        ("10pct", PassCutoff::Fraction(0.10)),
        ("5pct", PassCutoff::Fraction(0.05)),
    ] {
        let fm = BipartFm::new(FmConfig {
            policy: SelectionPolicy::Lifo,
            cutoff,
            ..FmConfig::default()
        });
        group.bench_with_input(BenchmarkId::from_parameter(label), &fm, |b, fm| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            b.iter(|| {
                black_box(
                    fm.partition_ctx(hg, &fixed, &balance, RunCtx::new(&mut rng))
                        .expect("fm succeeds"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pass_cutoff);
criterion_main!(benches);
