//! Heavy net weights: no cut wraps and no run aborts.
//!
//! The builder refuses net weights that sum past `i64::MAX`. Below that,
//! an engine whose gain buckets would need keys outside `i32` refuses the
//! instance with [`PartitionError::GainRange`] before allocating any
//! bucket, and the engines without gain buckets answer exactly. One-pin
//! nets change no gain, so they never count against the range. The
//! instance is an 8-vertex cycle whose closing net is heavy: its best
//! bisection cuts two unit nets.

use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, BuildError, FixedVertices, Hypergraph, HypergraphBuilder, NetId, Tolerance,
    VertexId,
};
use fixed_vertices_repro::vlsi_partition::{
    EngineConfig, PartitionError, PartitionResult, Partitioner, RunCtx, ENGINES,
};
use vlsi_rng::{ChaCha8Rng, SeedableRng};

fn cycle(heavy: u64) -> Result<Hypergraph, BuildError> {
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..8).map(|_| b.add_vertex(1)).collect();
    for i in 0..8 {
        let w = if i == 7 { heavy } else { 1 };
        b.add_net(w, [v[i], v[(i + 1) % 8]])?;
    }
    b.build()
}

fn run(engine: &str, hg: &Hypergraph) -> Result<PartitionResult, PartitionError> {
    let fixed = FixedVertices::all_free(8);
    let balance = BalanceConstraint::bisection(8, Tolerance::Relative(0.0));
    let mut rng = ChaCha8Rng::seed_from_u64(1999);
    EngineConfig::by_name(engine)
        .expect("registered engine")
        .partition_ctx(hg, &fixed, &balance, RunCtx::new(&mut rng))
}

#[test]
fn heavy_net_weights_are_refused_or_answered() {
    for heavy in [u64::MAX, 1 << 63] {
        assert_eq!(
            cycle(heavy).unwrap_err(),
            BuildError::NetWeightOverflow { net: NetId(7) },
            "weight {heavy}"
        );
    }

    // The heavy net's pins weigh `heavy + 1` each; the buckets take up to
    // `i32::MAX / 2`, and beyond that only `kl` and `sa` run.
    let limit = (i32::MAX / 2) as u64;
    for heavy in [limit, 1 << 40] {
        let hg = cycle(heavy).unwrap();
        for info in ENGINES {
            let result = run(info.name, &hg);
            match info.name {
                "kl" | "sa" => assert_eq!(result.map(|r| r.cut), Ok(2), "{}", info.name),
                _ => assert_eq!(
                    result,
                    Err(PartitionError::GainRange {
                        vertex: VertexId(0),
                        weight: heavy + 1,
                        limit,
                    }),
                    "{} at weight {heavy}",
                    info.name
                ),
            }
        }
    }

    // A heavy net inside the range is never cut, and a one-pin net, which
    // changes no gain, may weigh past it.
    let mut one_pin = HypergraphBuilder::new();
    let v: Vec<_> = (0..8).map(|_| one_pin.add_vertex(1)).collect();
    for i in 0..8 {
        one_pin.add_net(1, [v[i], v[(i + 1) % 8]]).unwrap();
    }
    one_pin.add_net(1 << 40, [v[3]]).unwrap();
    for hg in [cycle(1 << 20).unwrap(), one_pin.build().unwrap()] {
        for info in ENGINES {
            assert_eq!(run(info.name, &hg).map(|r| r.cut), Ok(2), "{}", info.name);
        }
    }
}
