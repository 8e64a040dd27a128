//! The generalized k-way gain container against the old BinaryHeap
//! selection.
//!
//! Both entry points run the identical k-way FM pass semantics on the same
//! synthetic netgen instance (10% of vertices fixed, quadrisection):
//!
//! * `kway_gains` — one sequential pass of [`vlsi_partition::KwayRefiner`],
//!   built on the bucket-array [`vlsi_partition::KwayGains`] container
//!   (O(1) updates, decaying max).
//! * `binary_heap` — `kway::refine_pass_reference`, the pre-refactor lazy
//!   BinaryHeap selection kept as a behavioural reference.
//!
//! Each iteration clones the same feasible initial assignment, so the two
//! variants differ only in the selection structure.

use std::hint::black_box;
use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;
use vlsi_testkit::bench::{criterion_group, criterion_main, Criterion};

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Objective, PartId, Tolerance, VertexId};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::{kway, random_initial, KwayRefiner, Refiner, RunCtx};

fn bench_kway_gains(c: &mut Criterion) {
    let circuit = ibm01_like_scaled(0.10, 2024);
    let hg = &circuit.hypergraph;
    let k = 4usize;
    let balance = BalanceConstraint::even(k, &[hg.total_weight()], Tolerance::Relative(0.1));

    // Round-robin fix 10% of the vertices across the four parts.
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 10 {
        fixed.fix(VertexId(i as u32), PartId((i % k) as u32));
    }

    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let initial: Vec<PartId> =
        random_initial(hg, &fixed, &balance, k, &mut rng).expect("feasible instance");

    let mut group = c.benchmark_group("kway/gain_container");
    group.sample_size(10);

    let one_pass = KwayRefiner {
        objective: Objective::Cut,
        max_passes: 1,
    };
    group.bench_function("kway_gains", |b| {
        b.iter(|| {
            let ctx = RunCtx::new(&mut rng);
            black_box(
                one_pass
                    .refine_ctx(hg, &fixed, &balance, initial.clone(), ctx)
                    .expect("pass succeeds"),
            )
        })
    });

    group.bench_function("binary_heap", |b| {
        b.iter(|| {
            black_box(
                kway::refine_pass_reference(hg, &fixed, &balance, initial.clone(), Objective::Cut)
                    .expect("pass succeeds"),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_kway_gains);
criterion_main!(benches);
