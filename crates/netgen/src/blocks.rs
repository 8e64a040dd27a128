//! Section IV's benchmark-construction methodology: derive fixed-terminal
//! partitioning instances from a placement.
//!
//! "A block is defined by a rectangular axis-parallel bounding box. An
//! axis-parallel cutline bisects a given block. Each cell contained in the
//! block induces a movable vertex of the hypergraph. Each pad adjacent to
//! some cell in the block induces a zero-area terminal vertex of the
//! hypergraph, fixed in the closest partition; adjacent cells not in the
//! block similarly induce terminal vertices."

use vlsi_hypergraph::stats::InstanceStats;
use vlsi_hypergraph::{induced_subgraph, FixedVertices, Hypergraph, PartId, VertexId};

use crate::circuit::Circuit;
use crate::geometry::{Cutline, Point, Rect};

/// A fixed-terminal partitioning instance extracted from a placed circuit.
#[derive(Debug, Clone)]
pub struct BlockInstance {
    /// Instance name, e.g. `"ibm01-like_B_V"`.
    pub name: String,
    /// The extracted hypergraph: movable cells first, then zero-area
    /// terminals.
    pub hypergraph: Hypergraph,
    /// Fixities: every terminal fixed in the cutline side closest to its
    /// placement location; cells free.
    pub fixed: FixedVertices,
    /// Map from instance vertex to the parent circuit vertex.
    pub to_parent: Vec<VertexId>,
    /// The block bounding box.
    pub block: Rect,
    /// The cutline used for terminal assignment.
    pub cutline: Cutline,
}

impl BlockInstance {
    /// The paper's Table IV row for this instance.
    pub fn stats(&self) -> InstanceStats {
        InstanceStats::compute(&self.hypergraph, &self.fixed)
    }
}

/// Extracts the partitioning instance induced by `block` under `cutline`.
///
/// `placement` overrides the circuit's native placement when given (so the
/// instances can also be derived from a top-down placer's output, as the
/// paper does from IBM's actual placements). Returns `None` when the block
/// contains no cells.
///
/// # Panics
/// Panics if `placement` is given with the wrong length.
///
/// # Example
/// ```
/// use vlsi_netgen::blocks::extract_block;
/// use vlsi_netgen::synthetic::{Generator, GeneratorConfig};
/// use vlsi_netgen::Cutline;
///
/// let circuit = Generator::new(GeneratorConfig {
///     num_cells: 256,
///     ..GeneratorConfig::default()
/// })
/// .generate(1);
/// // Left half of the die, vertical terminal assignment.
/// let (left, _) = circuit.die.split_vertical();
/// let inst = extract_block(&circuit, None, left, Cutline::Vertical, "demo").unwrap();
/// assert!(inst.fixed.num_fixed() > 0, "propagated terminals expected");
/// ```
pub fn extract_block(
    circuit: &Circuit,
    placement: Option<&[Point]>,
    block: Rect,
    cutline: Cutline,
    name: &str,
) -> Option<BlockInstance> {
    let hg = &circuit.hypergraph;
    let locs = placement.unwrap_or(&circuit.placement);
    assert_eq!(locs.len(), hg.num_vertices(), "placement length");

    // Movable vertices: cells inside the block. Terminals: every other
    // vertex on one of their nets, fixed on its side of the cutline.
    let cells: Vec<VertexId> = circuit
        .cells()
        .filter(|v| block.contains(locs[v.index()]))
        .collect();
    if cells.is_empty() {
        return None;
    }
    let sub = induced_subgraph(hg, &cells, |v| {
        Some(PartId(cutline.side(&block, locs[v.index()])))
    });
    Some(BlockInstance {
        name: name.to_string(),
        hypergraph: sub.hg,
        fixed: sub.fixed,
        to_parent: sub.to_parent,
        block,
        cutline,
    })
}

/// The four standard blocks the reproduction derives per circuit, mirroring
/// the paper's `IBMxxA–IBMxxD` (one block per hierarchy level):
///
/// * `A` — the whole die (level 0),
/// * `B` — the left half (`L1_V0`),
/// * `C` — the bottom-left quadrant (`L2_V0_H0`),
/// * `D` — the left half of that quadrant (`L3_V0_H0_V0`).
pub fn standard_blocks(die: Rect) -> Vec<(&'static str, Rect)> {
    let (b, _) = die.split_vertical();
    let (c, _) = b.split_horizontal();
    let (d, _) = c.split_vertical();
    vec![("A", die), ("B", b), ("C", c), ("D", d)]
}

/// Extracts all eight instances (4 blocks × 2 cutlines) of a circuit —
/// the full Table IV battery for one IBMxx.
pub fn standard_instances(circuit: &Circuit, placement: Option<&[Point]>) -> Vec<BlockInstance> {
    let mut out = Vec::with_capacity(8);
    for (tag, rect) in standard_blocks(circuit.die) {
        for cutline in [Cutline::Vertical, Cutline::Horizontal] {
            let name = format!("{}_{}_{}", circuit.name, tag, cutline.tag());
            if let Some(inst) = extract_block(circuit, placement, rect, cutline, &name) {
                out.push(inst);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{Generator, GeneratorConfig};
    use vlsi_hypergraph::Fixity;

    fn circuit(cells: usize, seed: u64) -> Circuit {
        Generator::new(GeneratorConfig {
            num_cells: cells,
            ..GeneratorConfig::default()
        })
        .generate(seed)
    }

    #[test]
    fn whole_die_block_has_only_pad_terminals() {
        let c = circuit(300, 1);
        let inst = extract_block(&c, None, c.die, Cutline::Vertical, "A_V").unwrap();
        let s = inst.stats();
        assert_eq!(s.num_cells, c.num_cells());
        // Every terminal's parent is a pad.
        for t in s.num_cells..s.num_vertices {
            let parent = inst.to_parent[t];
            assert!(c.is_pad(parent), "terminal parent {parent} is not a pad");
        }
    }

    #[test]
    fn half_die_block_gains_propagated_terminals() {
        let c = circuit(600, 2);
        let (left, _) = c.die.split_vertical();
        let inst = extract_block(&c, None, left, Cutline::Vertical, "B_V").unwrap();
        let s = inst.stats();
        assert!(s.num_cells < c.num_cells());
        // Some terminals must come from cells outside the block.
        let from_cells = (s.num_cells..s.num_vertices)
            .filter(|&t| !c.is_pad(inst.to_parent[t]))
            .count();
        assert!(from_cells > 0, "expected propagated cell terminals");
    }

    #[test]
    fn terminals_are_zero_area_and_fixed() {
        let c = circuit(400, 3);
        let (left, _) = c.die.split_vertical();
        let inst = extract_block(&c, None, left, Cutline::Horizontal, "B_H").unwrap();
        for (i, fixity) in inst.fixed.as_slice().iter().enumerate() {
            let v = VertexId::from_index(i);
            match fixity {
                Fixity::Free => assert!(inst.hypergraph.vertex_weight(v) > 0),
                Fixity::Fixed(p) => {
                    assert_eq!(inst.hypergraph.vertex_weight(v), 0);
                    // Side must match the parent's location.
                    let parent = inst.to_parent[i];
                    let side = Cutline::Horizontal.side(&inst.block, c.location(parent));
                    assert_eq!(p.0, side);
                }
                other => panic!("unexpected fixity {other}"),
            }
        }
    }

    #[test]
    fn more_terminal_vertices_than_external_nets() {
        // The paper: "Our construction creates more pad vertices in the
        // hypergraph than there are external nets."
        let c = circuit(800, 4);
        let (left, _) = c.die.split_vertical();
        let inst = extract_block(&c, None, left, Cutline::Vertical, "B_V").unwrap();
        let s = inst.stats();
        assert!(
            s.num_pads >= s.num_external_nets / 2,
            "pads {} vs external nets {}",
            s.num_pads,
            s.num_external_nets
        );
    }

    #[test]
    fn standard_instances_covers_eight() {
        let c = circuit(500, 5);
        let instances = standard_instances(&c, None);
        assert_eq!(instances.len(), 8);
        let names: Vec<&str> = instances.iter().map(|i| i.name.as_str()).collect();
        assert!(names.iter().any(|n| n.ends_with("_A_V")));
        assert!(names.iter().any(|n| n.ends_with("_D_H")));
        // Deeper blocks have fewer cells.
        let cells_a = instances[0].stats().num_cells;
        let cells_d = instances[6].stats().num_cells;
        assert!(cells_d < cells_a);
    }

    #[test]
    fn deeper_blocks_have_higher_fixed_fraction() {
        // Exactly the paper's Table I phenomenon, realised geometrically.
        let c = circuit(2000, 6);
        let instances = standard_instances(&c, None);
        let frac = |tag: &str| {
            let inst = instances
                .iter()
                .find(|i| i.name.contains(tag))
                .expect("instance exists");
            let s = inst.stats();
            s.num_pads as f64 / s.num_vertices as f64
        };
        assert!(
            frac("_D_V") > frac("_A_V"),
            "fixed fraction should grow as blocks shrink"
        );
    }

    #[test]
    fn empty_block_returns_none() {
        let c = circuit(100, 7);
        let empty = Rect::new(-10.0, -10.0, -5.0, -5.0);
        assert!(extract_block(&c, None, empty, Cutline::Vertical, "x").is_none());
    }
}
