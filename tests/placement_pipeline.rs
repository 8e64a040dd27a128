//! Integration of the whole pipeline: generate → place (top-down with
//! terminal propagation) → derive fixed-terminal benchmarks from the
//! *placer's* placement (exactly the paper's Section IV flow) → partition
//! the derived instances.

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use fixed_vertices_repro::vlsi_experiments::harness::paper_balance;
use fixed_vertices_repro::vlsi_hypergraph::{
    validate_partitioning, FixedVertices, HypergraphBuilder, Partitioning,
};
use fixed_vertices_repro::vlsi_netgen::blocks::standard_instances;
use fixed_vertices_repro::vlsi_netgen::instances::ibm01_like_scaled;
use fixed_vertices_repro::vlsi_netgen::Point;
use fixed_vertices_repro::vlsi_partition::{
    MultilevelConfig, MultilevelPartitioner, Partitioner, RunCtx,
};
use fixed_vertices_repro::vlsi_placer::{hpwl, PlacerConfig, TopDownPlacer};

#[test]
fn place_then_derive_then_partition() {
    let circuit = ibm01_like_scaled(0.03, 31); // ~375 cells
    let placer = TopDownPlacer::new(PlacerConfig {
        ml_config: MultilevelConfig {
            coarsest_size: 30,
            coarse_starts: 2,
            ..MultilevelConfig::default()
        },
        ..PlacerConfig::default()
    });
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let placement = placer
        .place_circuit(&circuit, &mut rng)
        .expect("placement succeeds");
    assert!(placement.total_terminals() > 0);
    assert!(hpwl(&circuit.hypergraph, &placement.positions) > 0.0);

    // Derive benchmarks from the placer's own placement, as the paper
    // derives its benchmarks from IBM's actual placements.
    let instances = standard_instances(&circuit, Some(&placement.positions));
    assert!(!instances.is_empty());

    let ml = MultilevelPartitioner::new(MultilevelConfig {
        coarsest_size: 30,
        coarse_starts: 2,
        ..MultilevelConfig::default()
    });
    for inst in instances
        .iter()
        .filter(|i| i.hypergraph.num_vertices() > 20)
    {
        let balance = paper_balance(&inst.hypergraph);
        let result = ml
            .partition_ctx(
                &inst.hypergraph,
                &inst.fixed,
                &balance,
                RunCtx::new(&mut rng),
            )
            .expect("derived instance partitions");
        let p =
            Partitioning::from_parts(&inst.hypergraph, 2, result.parts).expect("valid assignment");
        let report = validate_partitioning(&inst.hypergraph, &p, &balance, &inst.fixed);
        assert!(report.is_valid(), "{}: {report}", inst.name);
    }
}

#[test]
fn placer_instances_live_in_the_fixed_terminals_regime() {
    // The quantitative version of the paper's Table I motivation: the
    // bisection instances of a top-down placement run, pooled, carry a
    // substantial fixed fraction.
    let circuit = ibm01_like_scaled(0.04, 33);
    let placer = TopDownPlacer::new(PlacerConfig {
        ml_config: MultilevelConfig {
            coarsest_size: 30,
            coarse_starts: 2,
            ..MultilevelConfig::default()
        },
        ..PlacerConfig::default()
    });
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let placement = placer
        .place_circuit(&circuit, &mut rng)
        .expect("placement succeeds");
    let frac = placement.pooled_fixed_fraction();
    assert!(
        frac > 0.10,
        "expected a terminal-heavy regime, got {frac:.3}"
    );
}

#[test]
fn derived_instances_have_nested_terminal_structure() {
    let circuit = ibm01_like_scaled(0.04, 37);
    let instances = standard_instances(&circuit, None);
    // Blocks deeper in the hierarchy have proportionally more terminals —
    // the geometric realisation of Table I.
    let fixed_frac = |tag: &str| {
        let inst = instances
            .iter()
            .find(|i| i.name.contains(tag))
            .expect("instance");
        inst.fixed.num_fixed() as f64 / inst.hypergraph.num_vertices() as f64
    };
    assert!(fixed_frac("_D_V") > fixed_frac("_B_V"));
    assert!(fixed_frac("_B_V") > fixed_frac("_A_V"));
    let _ = FixedVertices::all_free(0); // keep the import used in all cfgs
}

#[test]
fn placer_balances_every_resource() {
    // A second resource per cell: the first (vertical) cut must balance it
    // too, within its 10% tolerance.
    let circuit = ibm01_like_scaled(0.02, 13);
    let hg = &circuit.hypergraph;
    let second = |v: usize| (v % 3) as u64;
    let mut b = HypergraphBuilder::with_resources(2);
    for v in hg.vertices() {
        b.add_vertex_multi(&[hg.vertex_weight(v), second(v.index())])
            .unwrap();
    }
    for n in hg.nets() {
        b.add_net(hg.net_weight(n), hg.net_pins(n).iter().copied())
            .unwrap();
    }
    let two = b.build().unwrap();
    let anchored: Vec<Option<Point>> = two
        .vertices()
        .map(|v| circuit.is_pad(v).then(|| circuit.location(v)))
        .collect();
    let placer = TopDownPlacer::new(PlacerConfig {
        ml_config: MultilevelConfig {
            coarsest_size: 30,
            coarse_starts: 2,
            ..MultilevelConfig::default()
        },
        ..PlacerConfig::default()
    });
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let placement = placer
        .place(&two, &anchored, circuit.die, &mut rng)
        .expect("placement succeeds");
    let (left, _) = circuit.die.split_vertical();
    let in_left: u64 = circuit
        .cells()
        .filter(|v| left.contains(placement.positions[v.index()]))
        .map(|v| second(v.index()))
        .sum();
    let total: u64 = circuit.cells().map(|v| second(v.index())).sum();
    assert!(
        in_left.abs_diff(total - in_left) <= total / 5,
        "resource 1 split {in_left} / {}",
        total - in_left
    );
}
