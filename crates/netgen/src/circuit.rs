//! The generated circuit: hypergraph + placement + pad bookkeeping.

use vlsi_hypergraph::{Hypergraph, VertexId};

use crate::geometry::{Point, Rect};

/// A synthetic circuit: the netlist hypergraph, a legal-by-construction
/// placement, and the cell/pad split.
///
/// Cells occupy vertex indices `0..num_cells`; pads occupy
/// `num_cells..num_vertices` and have zero area (exactly like the paper's
/// zero-area pad terminals).
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Human-readable name (e.g. `"ibm01-like"`).
    pub name: String,
    /// The netlist.
    pub hypergraph: Hypergraph,
    /// Placement location of every vertex (cells inside the die, pads on
    /// the boundary).
    pub placement: Vec<Point>,
    /// Index of the first pad vertex.
    pub pad_offset: usize,
    /// The die rectangle.
    pub die: Rect,
    /// The Rent exponent the generator targeted.
    pub target_rent_exponent: f64,
}

impl Circuit {
    /// Number of movable cells.
    pub fn num_cells(&self) -> usize {
        self.pad_offset
    }

    /// Number of pads.
    pub fn num_pads(&self) -> usize {
        self.hypergraph.num_vertices() - self.pad_offset
    }

    /// Returns `true` if `vertex` is a pad.
    pub fn is_pad(&self, vertex: VertexId) -> bool {
        vertex.index() >= self.pad_offset
    }

    /// Location of a vertex.
    ///
    /// # Panics
    /// Panics if `vertex` is out of range.
    pub fn location(&self, vertex: VertexId) -> Point {
        self.placement[vertex.index()]
    }

    /// Iterator over the cell vertex ids.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = VertexId> + Clone {
        (0..self.pad_offset as u32).map(VertexId)
    }

    /// Iterator over the pad vertex ids.
    pub fn pads(&self) -> impl ExactSizeIterator<Item = VertexId> + Clone + '_ {
        (self.pad_offset as u32..self.hypergraph.num_vertices() as u32).map(VertexId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::HypergraphBuilder;

    fn tiny() -> Circuit {
        let mut b = HypergraphBuilder::new();
        let c0 = b.add_vertex(2);
        let c1 = b.add_vertex(1);
        let p0 = b.add_vertex(0);
        b.add_net(1, [c0, c1, p0]).unwrap();
        Circuit {
            name: "tiny".into(),
            hypergraph: b.build().unwrap(),
            placement: vec![
                Point::new(1.0, 1.0),
                Point::new(2.0, 2.0),
                Point::new(0.0, 0.0),
            ],
            pad_offset: 2,
            die: Rect::new(0.0, 0.0, 4.0, 4.0),
            target_rent_exponent: 0.6,
        }
    }

    #[test]
    fn cell_pad_split() {
        let c = tiny();
        assert_eq!(c.num_cells(), 2);
        assert_eq!(c.num_pads(), 1);
        assert!(c.is_pad(VertexId(2)));
        assert!(!c.is_pad(VertexId(1)));
        assert_eq!(c.cells().count(), 2);
        assert_eq!(c.pads().collect::<Vec<_>>(), vec![VertexId(2)]);
    }
}
