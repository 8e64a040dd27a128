//! A complete partition assignment with loads and cut bookkeeping.

use crate::cut::CutState;
use crate::error::PartitionInputError;
use crate::fixed::FixedVertices;
use crate::{Hypergraph, Objective, PartId, PartSet, VertexId};

/// A k-way partition assignment together with incrementally-maintained
/// per-partition resource loads and the per-net pin distribution
/// ([`CutState`]).
///
/// `Partitioning` does not borrow its hypergraph; every mutating method
/// takes `&Hypergraph` so the same assignment can outlive intermediate
/// coarsened graphs in a multilevel flow.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{HypergraphBuilder, PartId, Partitioning, Objective};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let u = b.add_vertex(3);
/// let v = b.add_vertex(5);
/// b.add_net(1, [u, v])?;
/// let hg = b.build()?;
///
/// let mut p = Partitioning::from_parts(&hg, 2, vec![PartId(0), PartId(1)])?;
/// assert_eq!(p.cut_value(Objective::Cut), 1);
/// assert_eq!(p.load(PartId(1), 0), 5);
/// p.move_vertex(&hg, v, PartId(0));
/// assert_eq!(p.cut_value(Objective::Cut), 0);
/// assert_eq!(p.load(PartId(0), 0), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    num_parts: usize,
    parts: Vec<PartId>,
    /// Flat `num_parts × num_resources` load matrix.
    loads: Vec<u64>,
    num_resources: usize,
    cut: CutState,
}

impl Partitioning {
    /// Builds a partitioning from an explicit assignment vector.
    ///
    /// # Errors
    /// * [`PartitionInputError::TooManyParts`] if `num_parts > 64`.
    /// * [`PartitionInputError::LengthMismatch`] if the vector length differs
    ///   from the vertex count.
    /// * [`PartitionInputError::PartOutOfRange`] if an entry is `>= num_parts`.
    pub fn from_parts(
        hg: &Hypergraph,
        num_parts: usize,
        parts: Vec<PartId>,
    ) -> Result<Self, PartitionInputError> {
        check_parts(hg, num_parts, &parts)?;
        Ok(Self::build(hg, num_parts, parts))
    }

    /// Like [`Partitioning::from_parts`] but additionally verifies the
    /// assignment against a fixed-vertex table.
    ///
    /// # Errors
    /// As [`check_assignment`].
    pub fn from_parts_fixed(
        hg: &Hypergraph,
        num_parts: usize,
        parts: Vec<PartId>,
        fixed: &FixedVertices,
    ) -> Result<Self, PartitionInputError> {
        check_assignment(hg, num_parts, &parts, fixed)?;
        Ok(Self::build(hg, num_parts, parts))
    }

    /// Builds the loads and the cut of a checked assignment.
    fn build(hg: &Hypergraph, num_parts: usize, parts: Vec<PartId>) -> Self {
        let num_resources = hg.num_resources();
        let mut loads = vec![0u64; num_parts * num_resources];
        for (i, &p) in parts.iter().enumerate() {
            let base = p.index() * num_resources;
            let ws = hg.vertex_weights(VertexId::from_index(i));
            for (r, &w) in ws.iter().enumerate() {
                loads[base + r] += w;
            }
        }
        let cut = CutState::new(hg, num_parts, &parts);
        Partitioning {
            num_parts,
            parts,
            loads,
            num_resources,
            cut,
        }
    }

    /// Number of partitions.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Current partition of `vertex`.
    ///
    /// # Panics
    /// Panics if `vertex` is out of range.
    #[inline]
    pub fn part_of(&self, vertex: VertexId) -> PartId {
        self.parts[vertex.index()]
    }

    /// The full assignment slice (one `PartId` per vertex).
    #[inline]
    pub fn as_slice(&self) -> &[PartId] {
        &self.parts
    }

    /// Consumes the partitioning, returning the assignment vector.
    pub fn into_parts(self) -> Vec<PartId> {
        self.parts
    }

    /// Load of `part` for `resource`.
    ///
    /// # Panics
    /// Panics if `part` or `resource` is out of range.
    #[inline]
    pub fn load(&self, part: PartId, resource: usize) -> u64 {
        self.loads[part.index() * self.num_resources + resource]
    }

    /// The flat `num_parts × num_resources` load matrix.
    #[inline]
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Access to the underlying [`CutState`].
    #[inline]
    pub fn cut_state(&self) -> &CutState {
        &self.cut
    }

    /// Current value of the given objective.
    #[inline]
    pub fn cut_value(&self, objective: Objective) -> u64 {
        self.cut.value(objective)
    }

    /// Moves `vertex` to partition `to`, updating loads and cut state.
    /// Returns the partition the vertex came from. A no-op if already there.
    ///
    /// # Panics
    /// Panics if `vertex` or `to` is out of range.
    pub fn move_vertex(&mut self, hg: &Hypergraph, vertex: VertexId, to: PartId) -> PartId {
        assert!(to.index() < self.num_parts, "part id out of range");
        let from = self.parts[vertex.index()];
        if from == to {
            return from;
        }
        let ws = hg.vertex_weights(vertex);
        let from_base = from.index() * self.num_resources;
        let to_base = to.index() * self.num_resources;
        for (r, &w) in ws.iter().enumerate() {
            self.loads[from_base + r] -= w;
            self.loads[to_base + r] += w;
        }
        self.cut.move_vertex(hg, vertex, from, to);
        self.parts[vertex.index()] = to;
        from
    }
}

/// Checks an assignment as [`Partitioning::from_parts_fixed`] does, without
/// building it.
///
/// # Errors
/// The first that applies, in this order:
/// * [`PartitionInputError::FixedViolation`] when a fixed vertex sits in a
///   partition its fixity forbids;
/// * [`PartitionInputError::TooManyParts`] if `num_parts > 64`;
/// * [`PartitionInputError::LengthMismatch`] if the vector length differs
///   from the vertex count;
/// * [`PartitionInputError::PartOutOfRange`] if an entry is `>= num_parts`.
pub fn check_assignment(
    hg: &Hypergraph,
    num_parts: usize,
    parts: &[PartId],
    fixed: &FixedVertices,
) -> Result<(), PartitionInputError> {
    for (i, &p) in parts.iter().enumerate() {
        let v = VertexId::from_index(i);
        if !fixed.fixity(v).allows(p) {
            return Err(PartitionInputError::FixedViolation { vertex: v, part: p });
        }
    }
    check_parts(hg, num_parts, parts)
}

/// [`check_assignment`] without the fixity check.
fn check_parts(
    hg: &Hypergraph,
    num_parts: usize,
    parts: &[PartId],
) -> Result<(), PartitionInputError> {
    if num_parts > PartSet::MAX_PARTS {
        return Err(PartitionInputError::TooManyParts { num_parts });
    }
    if parts.len() != hg.num_vertices() {
        return Err(PartitionInputError::LengthMismatch {
            num_vertices: hg.num_vertices(),
            assignment_len: parts.len(),
        });
    }
    match parts.iter().position(|p| p.index() >= num_parts) {
        Some(i) => Err(PartitionInputError::PartOutOfRange {
            vertex: VertexId::from_index(i),
            part: parts[i],
            num_parts,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fixity, HypergraphBuilder};

    fn square() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(i + 1)).collect();
        b.add_net(1, [v[0], v[1]]).unwrap();
        b.add_net(1, [v[1], v[2]]).unwrap();
        b.add_net(1, [v[2], v[3]]).unwrap();
        b.add_net(1, [v[3], v[0]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn loads_tracked() {
        let hg = square();
        let p = Partitioning::from_parts(&hg, 2, vec![PartId(0), PartId(0), PartId(1), PartId(1)])
            .unwrap();
        assert_eq!(p.load(PartId(0), 0), 3);
        assert_eq!(p.load(PartId(1), 0), 7);
        assert_eq!(p.cut_value(Objective::Cut), 2);
    }

    #[test]
    fn move_updates_everything() {
        let hg = square();
        let mut p =
            Partitioning::from_parts(&hg, 2, vec![PartId(0), PartId(0), PartId(1), PartId(1)])
                .unwrap();
        let from = p.move_vertex(&hg, VertexId(1), PartId(1));
        assert_eq!(from, PartId(0));
        assert_eq!(p.load(PartId(0), 0), 1);
        assert_eq!(p.load(PartId(1), 0), 9);
        assert_eq!(p.part_of(VertexId(1)), PartId(1));
        assert_eq!(p.cut_value(Objective::Cut), 2);
    }

    #[test]
    fn length_mismatch_rejected() {
        let hg = square();
        let err = Partitioning::from_parts(&hg, 2, vec![PartId(0)]).unwrap_err();
        assert!(matches!(err, PartitionInputError::LengthMismatch { .. }));
    }

    #[test]
    fn out_of_range_part_rejected() {
        let hg = square();
        let err =
            Partitioning::from_parts(&hg, 2, vec![PartId(0), PartId(2), PartId(0), PartId(0)])
                .unwrap_err();
        assert!(matches!(err, PartitionInputError::PartOutOfRange { .. }));
    }

    #[test]
    fn too_many_parts_rejected() {
        let hg = square();
        let err = Partitioning::from_parts(&hg, 65, vec![PartId(0); 4]).unwrap_err();
        assert!(matches!(err, PartitionInputError::TooManyParts { .. }));
    }

    #[test]
    fn fixed_violation_rejected() {
        let hg = square();
        let mut fx = FixedVertices::all_free(4);
        fx.set(VertexId(2), Fixity::Fixed(PartId(0)));
        let err = Partitioning::from_parts_fixed(
            &hg,
            2,
            vec![PartId(0), PartId(0), PartId(1), PartId(1)],
            &fx,
        )
        .unwrap_err();
        assert!(matches!(err, PartitionInputError::FixedViolation { .. }));
    }

    #[test]
    fn fixed_ok_accepted() {
        let hg = square();
        let mut fx = FixedVertices::all_free(4);
        fx.set(VertexId(2), Fixity::Fixed(PartId(1)));
        let p = Partitioning::from_parts_fixed(
            &hg,
            2,
            vec![PartId(0), PartId(0), PartId(1), PartId(1)],
            &fx,
        )
        .unwrap();
        assert_eq!(p.part_of(VertexId(2)), PartId(1));
    }

    #[test]
    fn into_parts_roundtrip() {
        let hg = square();
        let parts = vec![PartId(1), PartId(0), PartId(1), PartId(0)];
        let p = Partitioning::from_parts(&hg, 2, parts.clone()).unwrap();
        assert_eq!(p.into_parts(), parts);
    }
}
