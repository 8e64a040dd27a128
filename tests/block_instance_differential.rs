//! Differential test pinning the block-instance builder
//! (`induced_subgraph`) to a full-scan reference.
//!
//! The reference is the top-down placer's earlier per-block loop,
//! generalised to several resources and to any terminal rule: a membership
//! array over every vertex, one scan over every net of the netlist, and a
//! `HashMap` numbering each outside pin's terminal on first appearance.
//! The property drives both over random hypergraphs with one to three
//! resources per vertex, for empty, one-cell, all-cell and random strictly
//! ascending cell sets, under four terminal rules: none, all in one side,
//! a per-vertex side, and a side only for the vertices the instance
//! marks fixed (the rest dropped). Both must give equal pins per net, net
//! and vertex weights, fixities and `to_parent`.
//!
//! Two further tests check that unsorted or duplicate cells panic.

use std::collections::HashMap;

use vlsi_rng::{ChaCha8Rng, Rng, SeedableRng};
use vlsi_testkit::gen::{instances, InstanceConfig, RawInstance};
use vlsi_testkit::prop_test;

use fixed_vertices_repro::vlsi_hypergraph::{
    induced_subgraph, FixedVertices, Hypergraph, HypergraphBuilder, PartId, Subgraph, VertexId,
};

/// The instance as a hypergraph with `1 + seed % 3` resources: resource 0
/// is the drawn weight, the others are derived from it and the vertex
/// index (zero included).
fn build(inst: &RawInstance) -> Hypergraph {
    let nr = 1 + (inst.seed % 3) as usize;
    let mut b = HypergraphBuilder::with_resources(nr);
    for (i, &w) in inst.weights.iter().enumerate() {
        let weights: Vec<u64> = (0..nr as u64)
            .map(|r| {
                if r == 0 {
                    w
                } else {
                    (w * (r + 1) + i as u64) % 4
                }
            })
            .collect();
        b.add_vertex_multi(&weights).unwrap();
    }
    for net in inst.nets.iter().filter(|net| !net.is_empty()) {
        let weight = 1 + (net[0] as u64 % 3);
        b.add_net_dedup(weight, net.iter().map(|&i| VertexId::from_index(i)))
            .unwrap();
    }
    b.build().unwrap()
}

/// The cell sets a case checks: empty, one cell, all cells, and a random
/// half.
fn cell_sets(n: usize, seed: u64) -> Vec<Vec<VertexId>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let one = vec![VertexId::from_index(rng.gen_range(0..n))];
    let random = (0..n)
        .filter(|_| rng.gen_bool(0.5))
        .map(VertexId::from_index)
        .collect();
    vec![
        Vec::new(),
        one,
        (0..n).map(VertexId::from_index).collect(),
        random,
    ]
}

/// Terminal rule `rule` for vertex `v`.
fn terminal(rule: usize, inst: &RawInstance, v: VertexId) -> Option<PartId> {
    match rule {
        0 => None,
        1 => Some(PartId(1)),
        2 => Some(PartId((v.0 ^ inst.seed as u32) & 1)),
        _ => inst.fixities[v.index()].map(|p| PartId(u32::from(p))),
    }
}

/// The full-scan reference builder.
fn reference<F: FnMut(VertexId) -> Option<PartId>>(
    hg: &Hypergraph,
    cells: &[VertexId],
    mut terminal: F,
) -> Subgraph {
    let nr = hg.num_resources();
    let mut builder = HypergraphBuilder::with_resources(nr);
    let mut sub_of = vec![None::<VertexId>; hg.num_vertices()];
    for &v in cells {
        sub_of[v.index()] = Some(builder.add_vertex_multi(hg.vertex_weights(v)).unwrap());
    }
    let mut to_parent = cells.to_vec();
    let mut sides: Vec<PartId> = Vec::new();
    let mut terminal_ids = HashMap::<u32, Option<VertexId>>::new();
    let mut nets: Vec<(u64, Vec<VertexId>)> = Vec::new();
    for n in hg.nets() {
        let pins = hg.net_pins(n);
        if !pins.iter().any(|&p| sub_of[p.index()].is_some()) {
            continue;
        }
        let mut new_pins = Vec::with_capacity(pins.len());
        for &p in pins {
            if let Some(s) = sub_of[p.index()] {
                new_pins.push(s);
            } else {
                let t = *terminal_ids.entry(p.0).or_insert_with(|| {
                    terminal(p).map(|side| {
                        sides.push(side);
                        to_parent.push(p);
                        VertexId::from_index(to_parent.len() - 1)
                    })
                });
                if let Some(t) = t {
                    if !new_pins.contains(&t) {
                        new_pins.push(t);
                    }
                }
            }
        }
        if new_pins.len() >= 2 {
            nets.push((hg.net_weight(n), new_pins));
        }
    }
    for _ in &sides {
        builder.add_vertex_multi(&vec![0; nr]).unwrap();
    }
    for (w, pins) in nets {
        builder.add_net(w, pins).unwrap();
    }
    let hg = builder.build().unwrap();
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for (i, &side) in sides.iter().enumerate() {
        fixed.fix(VertexId::from_index(cells.len() + i), side);
    }
    Subgraph {
        hg,
        fixed,
        to_parent,
    }
}

fn assert_same(got: &Subgraph, want: &Subgraph) {
    assert_eq!(got.to_parent, want.to_parent, "to_parent");
    assert_eq!(got.fixed, want.fixed, "fixities");
    assert_eq!(got.hg.num_resources(), want.hg.num_resources(), "resources");
    for v in want.hg.vertices() {
        assert_eq!(
            got.hg.vertex_weights(v),
            want.hg.vertex_weights(v),
            "weights of {v}"
        );
    }
    assert_eq!(got.hg.num_nets(), want.hg.num_nets(), "net count");
    for n in want.hg.nets() {
        assert_eq!(got.hg.net_pins(n), want.hg.net_pins(n), "pins of {n}");
        assert_eq!(got.hg.net_weight(n), want.hg.net_weight(n), "weight of {n}");
    }
    assert_eq!(got.hg, want.hg, "hypergraph");
}

prop_test! {
    #[cases(200)]
    fn builder_matches_the_full_scan_reference(inst in instances(InstanceConfig {
        vertices: 2..48,
        nets_per_vertex: 2.0,
        max_net_size: 7,
        fix_prob: 0.5,
        ..InstanceConfig::default()
    })) {
        let hg = build(&inst);
        for cells in cell_sets(hg.num_vertices(), inst.seed) {
            for rule in 0..4 {
                let got = induced_subgraph(&hg, &cells, |v| terminal(rule, &inst, v));
                let want = reference(&hg, &cells, |v| terminal(rule, &inst, v));
                assert_same(&got, &want);
            }
        }
    }
}

fn path() -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
    for w in v.windows(2) {
        b.add_net(1, [w[0], w[1]]).unwrap();
    }
    b.build().unwrap()
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn unsorted_cells_panic() {
    induced_subgraph(&path(), &[VertexId(2), VertexId(0)], |_| None);
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn duplicate_cells_panic() {
    induced_subgraph(&path(), &[VertexId(1), VertexId(1), VertexId(2)], |_| None);
}
