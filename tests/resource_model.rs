//! Heterogeneous resource-model invariants: the connectivity (km1)
//! objective and the multi-dimensional weight path.
//!
//! * **Objective dominance** — over a property corpus with 0–50% fixed
//!   vertices and k ∈ {2, 3, 4}, every engine solution satisfies
//!   `km1 == cut` at k = 2 and `km1 >= cut` at any k (each net spanning
//!   λ parts contributes `w` to the cut and `w·(λ−1) ≥ w` to km1).
//! * **Differential** — a single-resource instance pushed through the
//!   multi-resource side-table (`apply_multi_areas` at arity 1) must be
//!   byte-identical to the plain scalar instance for every engine and
//!   every thread count: the vector path is a strict superset, never a
//!   fork, of the scalar code.
//! * **Determinism** — the capacity-constrained km1 path returns one
//!   answer at every thread count: 1, 2, 4 and 8 threads agree.

use vlsi_rng::{ChaCha8Rng, Rng, RngCore, SeedableRng};
use vlsi_testkit::gen::{distinct_sorted, RawInstance};
use vlsi_testkit::{prop_test, TestRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    io::apply_multi_areas, BalanceConstraint, CutState, FixedVertices, Fixity, Hypergraph,
    HypergraphBuilder, Objective, PartCapacities, PartId, Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_netgen::instances::ibm01_like_scaled;
use fixed_vertices_repro::vlsi_partition::{EngineConfig, Partitioner, RunCtx};

/// Instances with a uniformly drawn fixed fraction in 0–50% (the paper's
/// sweep range); k ∈ {2, 3, 4} is derived from the instance seed.
fn instance_with_random_fix_fraction(rng: &mut TestRng) -> RawInstance {
    let n = rng.gen_range(50..120usize);
    let weights = vec![1u64; n];
    let num_nets = rng.gen_range(n..2 * n);
    let net_gen = distinct_sorted(n, 2..5);
    let nets: Vec<Vec<usize>> = (0..num_nets).map(|_| net_gen(rng)).collect();
    let frac = rng.gen_range(0.0..0.5);
    let fixities: Vec<Option<u8>> = (0..n)
        .map(|_| {
            if rng.gen_bool(frac) {
                Some(rng.gen_range(0..4u8))
            } else {
                None
            }
        })
        .collect();
    RawInstance {
        weights,
        nets,
        fixities,
        seed: rng.next_u64(),
    }
}

fn part_count(inst: &RawInstance) -> usize {
    2 + (inst.seed % 3) as usize
}

fn build(inst: &RawInstance, k: usize) -> (Hypergraph, FixedVertices) {
    let mut b = HypergraphBuilder::new();
    for &w in &inst.weights {
        b.add_vertex(w);
    }
    for net in &inst.nets {
        if net.len() >= 2 && net.iter().all(|&i| i < inst.weights.len()) {
            b.add_net(1, net.iter().map(|&i| VertexId::from_index(i)))
                .expect("valid net");
        }
    }
    let hg = b.build().expect("valid hypergraph");
    let fixities = inst
        .fixities
        .iter()
        .map(|f| match f {
            None => Fixity::Free,
            Some(p) => Fixity::Fixed(PartId((*p as usize % k) as u32)),
        })
        .chain(std::iter::repeat(Fixity::Free))
        .take(inst.weights.len())
        .collect();
    (hg, FixedVertices::from_fixities(fixities))
}

prop_test! {
    /// The km1-optimizing k-way engine returns solutions whose reported
    /// value matches an independent `CutState` recomputation, with
    /// `km1 == cut` at k = 2 and `km1 >= cut` at every k. Instances the
    /// fixity mask makes infeasible are skipped — refusing them is the
    /// engine's correct behaviour, not a corpus failure.
    #[cases(24)]
    fn km1_equals_cut_at_two_parts_and_dominates_beyond(inst in instance_with_random_fix_fraction) {
        let k = part_count(&inst);
        let (hg, fixed) = build(&inst, k);
        let balance = BalanceConstraint::even(k, hg.total_weights(), Tolerance::Relative(0.1));
        let engine = EngineConfig::by_name("kway")
            .expect("kway is registered")
            .with_objective(Objective::KMinus1);
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let Ok(r) = engine.partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng)) else {
            return; // fixity mask made the instance infeasible
        };
        let cs = CutState::new(&hg, k, &r.parts);
        let (cut, km1) = (cs.value(Objective::Cut), cs.value(Objective::KMinus1));
        assert_eq!(r.cut, km1, "engine must report the km1 objective it optimized");
        assert!(km1 >= cut, "km1 {km1} < cut {cut} at k={k}");
        if k == 2 {
            assert_eq!(km1, cut, "every cut net spans exactly 2 parts at k=2");
        }
    }
}

/// Pushing a scalar instance through the multi-resource side-table at
/// arity 1 must not perturb any engine: identical parts and identical
/// value at every thread count.
#[test]
fn arity_one_vector_path_is_byte_identical_to_scalar() {
    let circuit = ibm01_like_scaled(0.04, 23);
    let scalar = &circuit.hypergraph;
    let weights: Vec<u64> = scalar.vertices().map(|v| scalar.vertex_weight(v)).collect();
    let vector = apply_multi_areas(scalar, 1, &weights).expect("arity-1 table applies");
    assert_eq!(vector.num_resources(), 1);

    let mut fixed = FixedVertices::all_free(scalar.num_vertices());
    for i in 0..scalar.num_vertices() / 25 {
        fixed.fix(VertexId((i * 11) as u32), PartId((i % 2) as u32));
    }

    for (engine_name, k) in [("ml", 2), ("rb", 4), ("kway", 4)] {
        let balance = if k == 2 {
            BalanceConstraint::bisection(scalar.total_weight(), Tolerance::Relative(0.1))
        } else {
            BalanceConstraint::even(k, scalar.total_weights(), Tolerance::Relative(0.1))
        };
        let engine = EngineConfig::by_name(engine_name).expect("registered engine");
        for threads in [1usize, 2, 4, 8] {
            let run = |hg: &Hypergraph| {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                engine
                    .partition_ctx(
                        hg,
                        &fixed,
                        &balance,
                        RunCtx::new(&mut rng).with_threads(threads),
                    )
                    .expect("engine runs")
            };
            let a = run(scalar);
            let b = run(&vector);
            assert_eq!(
                a.parts, b.parts,
                "{engine_name} at {threads} threads: arity-1 vector path diverged from scalar"
            );
            assert_eq!(
                a.cut, b.cut,
                "{engine_name} at {threads} threads: value diverged"
            );
        }
    }
}

/// Determinism for the capacity-constrained km1 path: the answer replays
/// byte-identically and is the same at 1, 2, 4 and 8 threads.
#[test]
fn constrained_km1_keeps_two_regime_determinism() {
    const K: usize = 4;
    const DIMS: usize = 2;
    let circuit = ibm01_like_scaled(0.04, 31);
    let base = &circuit.hypergraph;
    let flat: Vec<u64> = base
        .vertices()
        .flat_map(|v| [base.vertex_weight(v), 1 + (v.index() as u64 % 3)])
        .collect();
    let hg = apply_multi_areas(base, DIMS, &flat).expect("resource table applies");

    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 20 {
        fixed.fix(VertexId((i * 13) as u32), PartId((i % K) as u32));
    }

    let per_part: Vec<u64> = hg
        .total_weights()
        .iter()
        .map(|&t| ((t as f64) * 1.15 / K as f64).ceil() as u64)
        .collect();
    let caps = PartCapacities::uniform(K, &per_part);
    caps.check_feasible(hg.total_weights())
        .expect("feasible by construction");
    let balance = caps.to_balance();

    let engine = EngineConfig::by_name("kway")
        .expect("kway is registered")
        .with_objective(Objective::KMinus1);
    let run = |threads: usize| {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        engine
            .partition_ctx(
                &hg,
                &fixed,
                &balance,
                RunCtx::new(&mut rng).with_threads(threads),
            )
            .expect("constrained engine runs")
    };

    let base = run(1);
    assert_eq!(base.parts, run(1).parts, "the answer must replay");
    for threads in [2usize, 4, 8] {
        let r = run(threads);
        assert_eq!(
            base.parts, r.parts,
            "{threads} workers changed the constrained km1 assignment"
        );
        assert_eq!(base.cut, r.cut);
    }

    // The answer is legal under the capacity balance and reports km1.
    let mut loads = [0u64; K * DIMS];
    for (i, p) in base.parts.iter().enumerate() {
        for (d, &w) in hg
            .vertex_weights(VertexId::from_index(i))
            .iter()
            .enumerate()
        {
            loads[p.index() * DIMS + d] += w;
        }
    }
    for part in 0..K {
        for d in 0..DIMS {
            assert!(
                loads[part * DIMS + d] <= caps.cap(PartId::from_index(part), d),
                "part {part} resource {d} over capacity"
            );
        }
    }
    let cs = CutState::new(&hg, K, &base.parts);
    assert_eq!(base.cut, cs.value(Objective::KMinus1));
    assert!(cs.value(Objective::KMinus1) >= cs.value(Objective::Cut));
}
