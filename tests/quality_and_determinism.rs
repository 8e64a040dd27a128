//! Solution-quality checks against brute force on tiny instances, and
//! bit-exact determinism of every seeded component.

use vlsi_rng::{ChaCha8Rng, Rng, RngCore, SeedableRng};
use vlsi_testkit::gen::{distinct_sorted, option_weighted, vec_of};
use vlsi_testkit::{prop_test, TestRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, CutState, FixedVertices, Fixity, Hypergraph, HypergraphBuilder, PartId,
    Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_netgen::instances::ibm01_like_scaled;
use fixed_vertices_repro::vlsi_partition::{
    BipartFm, FmConfig, MultilevelConfig, MultilevelPartitioner, Multistart, Partitioner, RunCtx,
};
use fixed_vertices_repro::vlsi_placer::{PlacerConfig, TopDownPlacer};

/// Exhaustive optimal bisection cut over all balanced assignments that
/// honour the fixities.
fn brute_force_best(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
) -> Option<u64> {
    let n = hg.num_vertices();
    assert!(n <= 16, "brute force only for tiny instances");
    let mut best = None;
    for mask in 0u32..(1 << n) {
        let parts: Vec<PartId> = (0..n).map(|i| PartId((mask >> i) & 1)).collect();
        let ok = (0..n).all(|i| fixed.fixity(VertexId(i as u32)).allows(parts[i]));
        if !ok {
            continue;
        }
        let mut loads = [0u64; 2];
        for i in 0..n {
            loads[parts[i].index()] += hg.vertex_weight(VertexId(i as u32));
        }
        if !balance.is_satisfied(&loads) {
            continue;
        }
        let cut = CutState::new(hg, 2, &parts).cut();
        best = Some(best.map_or(cut, |b: u64| b.min(cut)));
    }
    best
}

fn tiny_case_gen(rng: &mut TestRng) -> (Vec<Vec<usize>>, Vec<Option<u8>>, u64) {
    let nets = vec_of(2..20, distinct_sorted(10, 2..4))(rng);
    let fix_mask: Vec<Option<u8>> = {
        let g = option_weighted(0.2, |r: &mut TestRng| r.gen_range(0u8..2));
        (0..10).map(|_| g(rng)).collect()
    };
    let seed = rng.next_u64();
    (nets, fix_mask, seed)
}

prop_test! {
    #[cases(48)]
    fn fm_multistart_matches_brute_force_on_tiny_instances(
        case in tiny_case_gen
    ) {
        let (nets, mut fix_mask, seed) = case;
        // Shrinking may resize the mask or empty a net; restore the
        // generator's domain (10 vertices, >=2-pin nets).
        fix_mask.resize(10, None);
        let nets: Vec<Vec<usize>> = nets.into_iter().filter(|n| n.len() >= 2).collect();
        let mut b = HypergraphBuilder::new();
        for _ in 0..10 {
            b.add_vertex(1);
        }
        for net in &nets {
            b.add_net(1, net.iter().map(|&i| VertexId::from_index(i)))
                .expect("valid net");
        }
        let hg = b.build().expect("valid graph");
        let fixed = FixedVertices::from_fixities(
            fix_mask
                .iter()
                .map(|f| match f {
                    None => Fixity::Free,
                    Some(p) => Fixity::Fixed(PartId((*p % 2) as u32)),
                })
                .collect(),
        );
        let balance = BalanceConstraint::bisection(10, Tolerance::Relative(0.2));
        let Some(optimal) = brute_force_best(&hg, &fixed, &balance) else {
            return; // infeasible fixity/balance combination
        };
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let outcome =
            Multistart::new(8).run(&hg, &fixed, &balance, &fm, RunCtx::new(&mut rng));
        let Ok(outcome) = outcome else {
            return; // random_initial could not balance this fixity mix
        };
        // 8-start FM on 10 vertices should essentially always be optimal;
        // tolerate at most one net of slack to keep the test non-flaky.
        assert!(
            outcome.best.cut <= optimal + 1,
            "fm {} vs optimal {optimal}",
            outcome.best.cut
        );
        assert!(outcome.best.cut >= optimal, "fm beat brute force?!");
    }
}

#[test]
fn multilevel_is_bit_deterministic() {
    let circuit = ibm01_like_scaled(0.05, 21);
    let hg = &circuit.hypergraph;
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
    let fixed = FixedVertices::all_free(hg.num_vertices());
    let ml = MultilevelPartitioner::new(MultilevelConfig::default());
    let run = || {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        ml.run(hg, &fixed, &balance, RunCtx::new(&mut rng))
            .expect("runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.parts, b.parts);
    assert_eq!(a.cut, b.cut);
    assert_eq!(a.level_sizes, b.level_sizes);
}

#[test]
fn placer_is_bit_deterministic() {
    let circuit = ibm01_like_scaled(0.02, 22);
    let placer = TopDownPlacer::new(PlacerConfig {
        ml_config: MultilevelConfig {
            coarsest_size: 30,
            coarse_starts: 2,
            ..MultilevelConfig::default()
        },
        ..PlacerConfig::default()
    });
    let run = || {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        placer.place_circuit(&circuit, &mut rng).expect("places")
    };
    let a = run();
    let b = run();
    assert_eq!(a.positions, b.positions);
    assert_eq!(a.num_bisections, b.num_bisections);
}

#[test]
fn different_seeds_explore_different_solutions() {
    let circuit = ibm01_like_scaled(0.05, 23);
    let hg = &circuit.hypergraph;
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
    let fixed = FixedVertices::all_free(hg.num_vertices());
    let fm = BipartFm::new(FmConfig::default());
    let mut distinct = std::collections::HashSet::new();
    for seed in 0..6u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let r = fm
            .partition_ctx(hg, &fixed, &balance, RunCtx::new(&mut rng))
            .expect("runs");
        distinct.insert(r.parts);
    }
    assert!(distinct.len() > 1, "flat FM should vary across seeds");
}
