//! Property-based tests of the partitioning core: every engine, on random
//! hypergraphs with random fixities, must produce solutions that honour
//! fixities and balance, and report cuts that match a from-scratch
//! recomputation.

use vlsi_rng::{ChaCha8Rng, SeedableRng};
use vlsi_testkit::gen::{instances, InstanceConfig, RawInstance};
use vlsi_testkit::{prop_test, TestRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    validate_partitioning, BalanceConstraint, CutState, FixedVertices, Fixity, Hypergraph,
    HypergraphBuilder, Objective, PartId, Partitioning, Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_partition::terminal_cluster::cluster_terminals;
use fixed_vertices_repro::vlsi_partition::{
    random_initial, AnnealingConfig, BipartFm, FmConfig, KlConfig, KwayRefiner, MultilevelConfig,
    MultilevelPartitioner, Partitioner, Refiner, RunCtx, SelectionPolicy,
};

/// Instance generator matching the old proptest strategy: 4..max vertices,
/// weights 1..=5, 2–4-pin nets, ~30% of vertices fixed across 2 parts.
fn instance_gen(max_vertices: usize) -> impl Fn(&mut TestRng) -> RawInstance {
    instances(InstanceConfig {
        vertices: 4..max_vertices,
        ..InstanceConfig::default()
    })
}

fn build(inst: &RawInstance) -> (Hypergraph, FixedVertices) {
    let mut b = HypergraphBuilder::new();
    for &w in &inst.weights {
        b.add_vertex(w);
    }
    for net in &inst.nets {
        b.add_net(1, net.iter().map(|&i| VertexId::from_index(i)))
            .expect("generated nets are valid");
    }
    let hg = b.build().expect("valid hypergraph");
    let fixities = inst
        .fixities
        .iter()
        .map(|f| match f {
            None => Fixity::Free,
            Some(p) => Fixity::Fixed(PartId(*p as u32)),
        })
        .collect();
    (hg, FixedVertices::from_fixities(fixities))
}

/// A generous balance that is feasible for any fixity pattern of the
/// generated instances.
fn loose_balance(hg: &Hypergraph) -> BalanceConstraint {
    BalanceConstraint::bisection(hg.total_weight(), Tolerance::Absolute(hg.total_weight()))
}

prop_test! {
    #[cases(64)]
    fn flat_fm_solutions_are_always_valid(inst in instance_gen(24)) {
        let (hg, fixed) = build(&inst);
        let balance = loose_balance(&hg);
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let result = fm
            .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .expect("fm runs");
        let p = Partitioning::from_parts(&hg, 2, result.parts.clone()).expect("valid parts");
        let report = validate_partitioning(&hg, &p, &balance, &fixed);
        assert!(report.is_valid(), "{report}");
        assert_eq!(report.recomputed_cut, result.cut);
    }

    #[cases(64)]
    fn clip_fm_solutions_are_always_valid(inst in instance_gen(24)) {
        let (hg, fixed) = build(&inst);
        let balance = loose_balance(&hg);
        let fm = BipartFm::new(FmConfig {
            policy: SelectionPolicy::Clip,
            ..FmConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let result = fm
            .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .expect("fm runs");
        let p = Partitioning::from_parts(&hg, 2, result.parts.clone()).expect("valid parts");
        let report = validate_partitioning(&hg, &p, &balance, &fixed);
        assert!(report.is_valid(), "{report}");
    }

    #[cases(64)]
    fn multilevel_solutions_are_always_valid(inst in instance_gen(40)) {
        let (hg, fixed) = build(&inst);
        let balance = loose_balance(&hg);
        let ml = MultilevelPartitioner::new(MultilevelConfig {
            coarsest_size: 8,
            coarse_starts: 2,
            ..MultilevelConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let result = ml
            .run(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .expect("ml runs");
        let p = Partitioning::from_parts(&hg, 2, result.parts.clone()).expect("valid parts");
        let report = validate_partitioning(&hg, &p, &balance, &fixed);
        assert!(report.is_valid(), "{report}");
        assert_eq!(report.recomputed_cut, result.cut);
    }

    #[cases(64)]
    fn fm_never_worse_than_initial(inst in instance_gen(24)) {
        // FM keeps the best prefix of each pass, so the final cut can never
        // exceed the initial cut.
        let (hg, fixed) = build(&inst);
        let balance = loose_balance(&hg);
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let initial = random_initial(&hg, &fixed, &balance, 2, &mut rng).expect("feasible");
        let initial_cut = CutState::new(&hg, 2, &initial).cut();
        let fm = BipartFm::new(FmConfig::default());
        let result = fm
            .run(&hg, &fixed, &balance, initial, RunCtx::new(&mut rng))
            .expect("fm runs");
        assert!(result.cut <= initial_cut);
    }

    #[cases(64)]
    fn terminal_clustering_preserves_cut_of_projected_solutions(inst in instance_gen(20)) {
        let (hg, fixed) = build(&inst);
        let clustered = cluster_terminals(&hg, &fixed).expect("transform");
        // Partition the clustered instance arbitrarily but legally.
        let cparts: Vec<PartId> = clustered
            .hypergraph
            .vertices()
            .map(|v| match clustered.fixed.fixity(v) {
                Fixity::Fixed(p) => p,
                _ => PartId(v.0 % 2),
            })
            .collect();
        let ccut = CutState::new(&clustered.hypergraph, 2, &cparts).cut();
        let projected = clustered.project(&cparts);
        let pcut = CutState::new(&hg, 2, &projected).cut();
        assert_eq!(ccut, pcut);
    }

    #[cases(64)]
    fn kl_baseline_solutions_are_valid_and_monotone(inst in instance_gen(20)) {
        let (hg, fixed) = build(&inst);
        let balance = loose_balance(&hg);
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        // KL starts from the random initial solution it draws first; draw
        // the same one from a copy of the stream to know its cut.
        let initial = random_initial(&hg, &fixed, &balance, 2, &mut rng.clone())
            .expect("feasible");
        let before = CutState::new(&hg, 2, &initial).cut();
        let r = KlConfig::default()
            .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .expect("kl runs");
        assert!(r.cut <= before);
        let p = Partitioning::from_parts(&hg, 2, r.parts).expect("valid parts");
        let report = validate_partitioning(&hg, &p, &balance, &fixed);
        assert!(report.is_valid(), "{report}");
        assert_eq!(report.recomputed_cut, r.cut);
    }

    #[cases(64)]
    fn annealing_solutions_are_valid_and_monotone(inst in instance_gen(20)) {
        let (hg, fixed) = build(&inst);
        let balance = loose_balance(&hg);
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        // SA starts from the random initial solution it draws first; draw
        // the same one from a copy of the stream to know its cut.
        let initial = random_initial(&hg, &fixed, &balance, 2, &mut rng.clone())
            .expect("feasible");
        let before = CutState::new(&hg, 2, &initial).cut();
        let cfg = AnnealingConfig { sweeps: 15, ..AnnealingConfig::default() };
        let r = cfg
            .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .expect("sa runs");
        // SA keeps the best *balanced* state, which is never worse than a
        // balanced initial.
        assert!(r.cut <= before);
        let p = Partitioning::from_parts(&hg, 2, r.parts).expect("valid parts");
        let report = validate_partitioning(&hg, &p, &balance, &fixed);
        assert!(report.is_valid(), "{report}");
    }

    #[cases(64)]
    fn kway_refine_is_valid_and_monotone(inst in instance_gen(18)) {
        let (hg, fixed) = build(&inst);
        // 3-way with loose balance; map fixities into range.
        let balance = BalanceConstraint::even(
            3,
            &[hg.total_weight()],
            Tolerance::Absolute(hg.total_weight()),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let initial = random_initial(&hg, &fixed, &balance, 3, &mut rng).expect("feasible");
        let before = CutState::new(&hg, 3, &initial).value(Objective::KMinus1);
        let refiner = KwayRefiner { objective: Objective::KMinus1, max_passes: 4 };
        let r = refiner
            .refine_ctx(&hg, &fixed, &balance, initial, RunCtx::new(&mut rng))
            .expect("refine runs");
        assert!(r.cut <= before);
        for v in hg.vertices() {
            assert!(fixed.fixity(v).allows(r.parts[v.index()]));
        }
    }
}
