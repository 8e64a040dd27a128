//! Integration of the whole pipeline: generate → place (top-down with
//! terminal propagation) → derive fixed-terminal benchmarks from the
//! *placer's* placement (exactly the paper's Section IV flow) → partition
//! the derived instances.

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use fixed_vertices_repro::vlsi_experiments::harness::paper_balance;
use fixed_vertices_repro::vlsi_hypergraph::{validate_partitioning, FixedVertices, Partitioning};
use fixed_vertices_repro::vlsi_netgen::blocks::standard_instances;
use fixed_vertices_repro::vlsi_netgen::instances::ibm01_like_scaled;
use fixed_vertices_repro::vlsi_partition::{MultilevelConfig, MultilevelPartitioner, RunCtx};
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
    assert!(placement.total_terminals > 0);
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
            .run(
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
    // average bisection instance of a top-down placement run carries a
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
    let frac = placement.avg_fixed_fraction();
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
