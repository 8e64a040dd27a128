//! Quickstart: build a hypergraph, fix some terminals, partition it.
//!
//! Run with: `cargo run --release --example quickstart`

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use vlsi_hypergraph::{
    validate_partitioning, BalanceConstraint, FixedVertices, HypergraphBuilder, Objective, PartId,
    Partitioning, Tolerance, VertexId,
};
use vlsi_partition::{MultilevelConfig, MultilevelPartitioner, Partitioner, RunCtx};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small circuit: two 8-cell clusters joined by three nets, plus two
    // zero-area pad terminals pinned to opposite sides.
    let mut b = HypergraphBuilder::new();
    let cells: Vec<_> = (0..16).map(|_| b.add_vertex(1)).collect();
    let pad_left = b.add_vertex(0);
    let pad_right = b.add_vertex(0);
    for group in [&cells[0..8], &cells[8..16]] {
        for w in group.windows(2) {
            b.add_net(1, [w[0], w[1]])?;
        }
        // Each cluster is also tied together by one big net.
        b.add_net(1, group.iter().copied())?;
    }
    for k in 0..3 {
        b.add_net(1, [cells[k], cells[8 + k]])?;
    }
    b.add_net(1, [pad_left, cells[0]])?;
    b.add_net(1, [pad_right, cells[15]])?;
    let hg = b.build()?;

    // The fixed-terminals regime: pads are pre-assigned to partitions.
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    fixed.fix(pad_left, PartId(0));
    fixed.fix(pad_right, PartId(1));

    // The paper's setup: bisection with 2% balance tolerance.
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.10));

    let partitioner = MultilevelPartitioner::new(MultilevelConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(1999);
    let result = partitioner.partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))?;

    println!("cut = {}", result.cut);
    for side in 0..2 {
        let members: Vec<String> = hg
            .vertices()
            .filter(|v| result.parts[v.index()] == PartId(side))
            .map(|v| format!("{v}"))
            .collect();
        println!("partition {side}: {}", members.join(" "));
    }

    // Independent validation: fixities honoured, balance satisfied, cut
    // recomputed from scratch.
    let p = Partitioning::from_parts(&hg, 2, result.parts.clone())?;
    let report = validate_partitioning(&hg, &p, &balance, &fixed);
    println!("validation: {report}");
    assert!(report.is_valid());
    assert_eq!(p.cut_value(Objective::Cut), result.cut);

    // The pads stayed where they were fixed.
    assert_eq!(result.parts[pad_left.index()], PartId(0));
    assert_eq!(result.parts[pad_right.index()], PartId(1));
    // And the clusters ended up on the pads' sides: cells adjacent to a
    // pad land with that pad.
    assert_eq!(result.parts[VertexId(0).index()], PartId(0));
    assert_eq!(result.parts[VertexId(15).index()], PartId(1));
    println!("ok");
    Ok(())
}
