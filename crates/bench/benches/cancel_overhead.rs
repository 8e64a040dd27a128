//! Overhead of cooperative cancellation on the uncancelled fast path.
//!
//! Mirrors the `trace_overhead` methodology (same ibm01-like instance,
//! 10% fixed in the good regime, LIFO FM, sample size 10) for the
//! [`CancelToken`] threaded through every engine loop. Variants:
//!
//! * `plain` — the `RunCtx::new` default, [`CancelToken::never`]: one
//!   predictable branch per checkpoint, no atomics, no clock. This is what
//!   every caller that does not cancel pays.
//! * `armed` — a live manual token that never fires: a relaxed atomic
//!   load every [`CHECK_INTERVAL`] moves and at pass boundaries.
//! * `deadline_far` — a token with a far-future deadline: the atomic load
//!   plus an `Instant::now` comparison at each checkpoint, the worst
//!   uncancelled case (what a served job with a generous deadline pays).
//!
//! The `cancel/multistart` group repeats the comparison one driver up, on
//! the 4-start sequential multistart protocol — the acceptance budget for
//! this subsystem is ≤2% overhead of `armed`/`deadline_far` over `plain`
//! on uncancelled FM multistart.
//!
//! [`CancelToken`]: vlsi_partition::CancelToken
//! [`CHECK_INTERVAL`]: vlsi_partition::cancel::CHECK_INTERVAL

use std::hint::black_box;
use std::time::Duration;

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;
use vlsi_testkit::bench::{criterion_group, criterion_main, Criterion};

use vlsi_experiments::harness::{find_good_solution, paper_balance};
use vlsi_experiments::regimes::{FixSchedule, Regime};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::{
    BipartFm, CancelToken, EngineConfig, FmConfig, MultilevelConfig, Multistart, Partitioner,
    RunCtx, SelectionPolicy,
};

fn bench_cancel_overhead_fm(c: &mut Criterion) {
    let circuit = ibm01_like_scaled(0.10, 1999);
    let hg = &circuit.hypergraph;
    let balance = paper_balance(hg);
    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, 7)
        .expect("reference solution");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);
    let fixed = schedule.at_percent(10.0);
    let fm = BipartFm::new(FmConfig {
        policy: SelectionPolicy::Lifo,
        ..FmConfig::default()
    });

    let mut group = c.benchmark_group("cancel/fm");
    group.sample_size(10);
    for (name, cancel) in tokens() {
        group.bench_function(name, |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            b.iter(|| {
                let ctx = RunCtx::new(&mut rng).with_cancel(&cancel);
                black_box(
                    fm.partition_ctx(hg, &fixed, &balance, ctx)
                        .expect("fm succeeds"),
                )
            })
        });
    }
    group.finish();
}

/// The three uncancelled token kinds, by variant name.
fn tokens() -> [(&'static str, CancelToken); 3] {
    [
        ("plain", CancelToken::never()),
        ("armed", CancelToken::new()),
        (
            "deadline_far",
            CancelToken::with_deadline(Duration::from_secs(3600)),
        ),
    ]
}

fn bench_cancel_overhead_multistart(c: &mut Criterion) {
    let circuit = ibm01_like_scaled(0.10, 1999);
    let hg = &circuit.hypergraph;
    let balance = paper_balance(hg);
    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, 7)
        .expect("reference solution");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);
    let fixed = schedule.at_percent(10.0);
    let engine = EngineConfig::Fm(FmConfig {
        policy: SelectionPolicy::Lifo,
        ..FmConfig::default()
    });
    let starts = 4usize;

    let mut group = c.benchmark_group("cancel/multistart");
    group.sample_size(10);

    let driver = Multistart::new(starts);
    for (name, cancel) in tokens() {
        group.bench_function(name, |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            b.iter(|| {
                let ctx = RunCtx::new(&mut rng).with_cancel(&cancel);
                black_box(
                    driver
                        .run(hg, &fixed, &balance, &engine, ctx)
                        .expect("multistart succeeds"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cancel_overhead_fm,
    bench_cancel_overhead_multistart
);
criterion_main!(benches);
