//! Section IV feature tests: multi-balanced partitioning (k > 1 resource
//! types evenly distributed) and region-style "or" fixing (a terminal fixed
//! in the two left-side quadrants of a quadrisection).

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use fixed_vertices_repro::vlsi_hypergraph::io::{
    apply_multi_areas, read_multi_are, write_multi_are,
};
use fixed_vertices_repro::vlsi_hypergraph::{
    validate_partitioning, BalanceConstraint, FixedVertices, Fixity, HypergraphBuilder, PartId,
    PartSet, Partitioning, Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_partition::{
    BipartFm, FmConfig, KwayConfig, MultilevelConfig, Partitioner, RecursiveBisection, RunCtx,
};

/// The paper's hypothetical example: "cell area, cell pin count, and cell
/// power dissipation resource types — all of which must be evenly
/// distributed between the partitions."
#[test]
fn multibalanced_bisection_balances_every_resource() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut b = HypergraphBuilder::with_resources(3);
    let n = 60;
    let mut vertices = Vec::new();
    for i in 0..n {
        // area, pins, power — deliberately uncorrelated.
        let area = 1 + (i % 4) as u64;
        let pins = 1 + ((i * 7) % 5) as u64;
        let power = 1 + ((i * 13) % 3) as u64;
        vertices.push(b.add_vertex_multi(&[area, pins, power]).unwrap());
    }
    for w in vertices.windows(2) {
        b.add_net(1, [w[0], w[1]]).unwrap();
    }
    let hg = b.build().unwrap();

    let balance = BalanceConstraint::even(2, hg.total_weights(), Tolerance::Relative(0.10));
    let fixed = FixedVertices::all_free(n);
    let fm = BipartFm::new(FmConfig::default());
    let result = fm
        .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
        .unwrap();

    let p = Partitioning::from_parts(&hg, 2, result.parts).unwrap();
    let report = validate_partitioning(&hg, &p, &balance, &fixed);
    assert!(report.is_valid(), "{report}");
    for r in 0..3 {
        for part in [PartId(0), PartId(1)] {
            let load = p.load(part, r);
            assert!(
                load >= balance.min(part, r) && load <= balance.max(part, r),
                "resource {r} of {part} out of bounds: {load}"
            );
        }
    }
}

#[test]
fn multi_area_file_drives_multibalanced_instances() {
    // Build a plain graph, attach a 2-resource multi-area file, partition
    // under the 2-resource constraint.
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..20).map(|_| b.add_vertex(1)).collect();
    for w in v.windows(2) {
        b.add_net(1, [w[0], w[1]]).unwrap();
    }
    let hg = b.build().unwrap();

    // Resource 0 uniform, resource 1 concentrated on even vertices.
    let weights: Vec<u64> = (0..20)
        .flat_map(|i| [2, if i % 2 == 0 { 3 } else { 0 }])
        .collect();
    let upgraded = apply_multi_areas(&hg, 2, &weights).unwrap();

    // Round-trip the areas through the file format for good measure.
    let mut buf = Vec::new();
    write_multi_are(&mut buf, &upgraded).unwrap();
    let (k, w2) = read_multi_are(buf.as_slice(), 20).unwrap();
    assert_eq!(k, 2);
    assert_eq!(w2, weights);

    let balance = BalanceConstraint::even(2, upgraded.total_weights(), Tolerance::Relative(0.25));
    let fixed = FixedVertices::all_free(20);
    let fm = BipartFm::new(FmConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let result = fm
        .partition_ctx(&upgraded, &fixed, &balance, RunCtx::new(&mut rng))
        .unwrap();
    let p = Partitioning::from_parts(&upgraded, 2, result.parts).unwrap();
    assert!(validate_partitioning(&upgraded, &p, &balance, &fixed).is_valid());
    // Resource 1 total is 30; each side must hold 15 ± 25%.
    let r1 = p.load(PartId(0), 1);
    assert!((12..=18).contains(&r1), "resource-1 load {r1}");
}

/// The paper's region example: "a propagated terminal can be fixed in the
/// two left-side quadrants of a quadrisection instance, so that the
/// partitioner is free to assign it to either left-side quadrant."
#[test]
fn quadrisection_or_fixing_keeps_terminal_on_the_left() {
    let mut b = HypergraphBuilder::new();
    // Four 6-cell cliques chained 0-1-2-3; a zero-area terminal tied to
    // clique 0's corner.
    let v: Vec<_> = (0..24).map(|_| b.add_vertex(1)).collect();
    for g in 0..4 {
        for i in 0..6 {
            for j in (i + 1)..6 {
                b.add_net(1, [v[g * 6 + i], v[g * 6 + j]]).unwrap();
            }
        }
    }
    for g in 1..4 {
        b.add_net(1, [v[(g - 1) * 6], v[g * 6]]).unwrap();
    }
    let term = b.add_vertex(0);
    b.add_net(5, [term, v[0]]).unwrap(); // heavy tie into clique 0
    let hg = b.build().unwrap();

    // Left side = quadrants 0 and 1 in the recursive numbering.
    let left: PartSet = [PartId(0), PartId(1)].into_iter().collect();
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    fixed.set(term, Fixity::FixedAny(left));

    let cfg = MultilevelConfig {
        coarsest_size: 12,
        ..MultilevelConfig::default()
    };
    // The bisection stack alone, without k-way cleanup passes.
    let rb = RecursiveBisection(KwayConfig {
        tolerance: 0.2,
        ml: cfg,
        refine_passes: 0,
        ..KwayConfig::default()
    });
    let balance = BalanceConstraint::even(4, hg.total_weights(), Tolerance::Relative(0.2));
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let r = rb
        .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
        .unwrap();

    // The terminal ended up in one of its two allowed quadrants...
    let tpart = r.parts[term.index()];
    assert!(left.contains(tpart), "terminal landed in {tpart}");
    // ...and the clique it is welded to shares that side of the top cut.
    let clique_part = r.parts[v[0].index()];
    assert!(
        left.contains(clique_part),
        "clique 0 should be pulled left, got {clique_part}"
    );
    // Every vertex got a quadrant and the cliques stayed intact.
    for g in 0..4 {
        let p0 = r.parts[v[g * 6].index()];
        for i in 1..6 {
            assert_eq!(r.parts[v[g * 6 + i].index()], p0, "clique {g} split");
        }
    }
    let _ = VertexId(0);
}
