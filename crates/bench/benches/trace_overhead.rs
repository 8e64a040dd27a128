//! Overhead of the vlsi-trace observability layer on the FM inner loop.
//!
//! Three variants of the same LIFO-FM workload as `fm_pass_stats` (10% of
//! vertices fixed, good regime), each one `partition_ctx` call whose
//! `RunCtx` carries a different sink:
//!
//! * `null` — [`NullSink`], the `RunCtx::new` default: `Sink::ENABLED =
//!   false` compiles every emission site out of the monomorphised engine,
//!   so this is the untraced baseline.
//! * `counters` — [`CounterSink`]: a few relaxed atomic adds per event.
//! * `jsonl_devnull` — [`JsonlSink`] into `std::io::sink()`: full event
//!   serialisation without disk I/O, an upper bound for `--trace` cost.
//!
//! The `trace/kway` group repeats the experiment for the k-way refinement
//! loop (its `KwayPassStart`/`KwayMove`/`KwayPassEnd` events).

use std::hint::black_box;
use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;
use vlsi_testkit::bench::{criterion_group, criterion_main, BenchmarkGroup, Criterion};

use vlsi_experiments::harness::{find_good_solution, paper_balance};
use vlsi_experiments::regimes::{FixSchedule, Regime};
use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Objective, PartId, Tolerance, VertexId};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::trace::{CounterSink, JsonlSink, NullSink, Sink};
use vlsi_partition::{
    random_initial, BipartFm, FmConfig, KwayRefiner, MultilevelConfig, Partitioner, Refiner,
    RunCtx, SelectionPolicy,
};

/// Times flat FM from a random start with its events going to `sink`.
fn bench_fm<S: Sink>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    fm: &BipartFm,
    w: &Workload,
    sink: &S,
) {
    group.bench_function(name, |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        b.iter(|| {
            let ctx = RunCtx::new(&mut rng).with_sink(sink);
            black_box(
                fm.partition_ctx(&w.hg, &w.fixed, &w.balance, ctx)
                    .expect("fm succeeds"),
            )
        })
    });
}

/// Times k-way refinement of `initial` with its events going to `sink`.
fn bench_kway<S: Sink>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    refiner: &KwayRefiner,
    w: &Workload,
    initial: &[PartId],
    sink: &S,
) {
    group.bench_function(name, |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        b.iter(|| {
            let ctx = RunCtx::new(&mut rng).with_sink(sink);
            black_box(
                refiner
                    .refine_ctx(&w.hg, &w.fixed, &w.balance, initial.to_vec(), ctx)
                    .expect("refine succeeds"),
            )
        })
    });
}

struct Workload {
    hg: vlsi_hypergraph::Hypergraph,
    fixed: FixedVertices,
    balance: BalanceConstraint,
}

fn bench_trace_overhead(c: &mut Criterion) {
    let hg = ibm01_like_scaled(0.10, 1999).hypergraph;
    let balance = paper_balance(&hg);
    let good = find_good_solution(&hg, &balance, &MultilevelConfig::default(), 4, 7)
        .expect("reference solution");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let schedule = FixSchedule::new(&hg, Regime::Good, &good.parts, &mut rng);
    let fixed = schedule.at_percent(10.0);
    let w = Workload { hg, fixed, balance };
    let fm = BipartFm::new(FmConfig {
        policy: SelectionPolicy::Lifo,
        ..FmConfig::default()
    });

    let mut group = c.benchmark_group("trace/overhead");
    group.sample_size(10);
    bench_fm(&mut group, "null", &fm, &w, &NullSink);
    bench_fm(&mut group, "counters", &fm, &w, &CounterSink::new());
    let jsonl = JsonlSink::from_writer(Box::new(std::io::sink()));
    bench_fm(&mut group, "jsonl_devnull", &fm, &w, &jsonl);
    group.finish();
}

fn bench_trace_overhead_kway(c: &mut Criterion) {
    let hg = ibm01_like_scaled(0.10, 1999).hypergraph;
    let k = 4usize;
    let balance = BalanceConstraint::even(k, &[hg.total_weight()], Tolerance::Relative(0.1));
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 10 {
        fixed.fix(VertexId(i as u32), PartId((i % k) as u32));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let initial: Vec<PartId> =
        random_initial(&hg, &fixed, &balance, k, &mut rng).expect("feasible instance");
    let w = Workload { hg, fixed, balance };
    let refiner = KwayRefiner {
        objective: Objective::Cut,
        max_passes: 2,
    };

    let mut group = c.benchmark_group("trace/kway");
    group.sample_size(10);
    bench_kway(&mut group, "null", &refiner, &w, &initial, &NullSink);
    bench_kway(
        &mut group,
        "counters",
        &refiner,
        &w,
        &initial,
        &CounterSink::new(),
    );
    let jsonl = JsonlSink::from_writer(Box::new(std::io::sink()));
    bench_kway(&mut group, "jsonl_devnull", &refiner, &w, &initial, &jsonl);
    group.finish();
}

criterion_group!(benches, bench_trace_overhead, bench_trace_overhead_kway);
criterion_main!(benches);
