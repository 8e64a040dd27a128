//! Fixed-vertex assignments.
//!
//! Section IV of the paper calls for "flexible assignment of fixed terminals
//! to partitions", including fixing a terminal in *more than one* partition
//! while retaining its atomic nature (the multiple assignment is an *or*).
//! [`Fixity`] models exactly that: a vertex is free, pinned to one
//! partition, or constrained to a set of allowed partitions.

use std::fmt;

use crate::PartId;

/// A set of partition ids, stored as a 64-bit mask (so at most 64
/// partitions are supported — far beyond any practical k for this domain).
///
/// # Example
/// ```
/// use vlsi_hypergraph::{PartId, PartSet};
/// let s: PartSet = [PartId(0), PartId(2)].into_iter().collect();
/// assert!(s.contains(PartId(0)));
/// assert!(!s.contains(PartId(1)));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PartSet(u64);

impl PartSet {
    /// The maximum partition id representable in a `PartSet`.
    pub const MAX_PARTS: usize = 64;

    /// Creates an empty set.
    ///
    /// # Example
    /// ```
    /// use vlsi_hypergraph::PartSet;
    /// assert!(PartSet::new().is_empty());
    /// ```
    #[inline]
    pub fn new() -> Self {
        PartSet(0)
    }

    /// Creates a set containing a single partition.
    ///
    /// # Panics
    /// Panics if `part.index() >= 64`.
    #[inline]
    pub fn single(part: PartId) -> Self {
        let mut s = PartSet::new();
        s.insert(part);
        s
    }

    /// Creates the full set `{0, …, num_parts-1}`.
    ///
    /// # Panics
    /// Panics if `num_parts > 64`.
    #[inline]
    pub fn all(num_parts: usize) -> Self {
        assert!(num_parts <= Self::MAX_PARTS, "at most 64 partitions");
        if num_parts == Self::MAX_PARTS {
            PartSet(u64::MAX)
        } else {
            PartSet((1u64 << num_parts) - 1)
        }
    }

    /// Adds a partition to the set.
    ///
    /// # Panics
    /// Panics if `part.index() >= 64`.
    #[inline]
    pub fn insert(&mut self, part: PartId) {
        assert!(part.index() < Self::MAX_PARTS, "partition id must be < 64");
        self.0 |= 1u64 << part.0;
    }

    /// Removes a partition from the set.
    #[inline]
    pub fn remove(&mut self, part: PartId) {
        if part.index() < Self::MAX_PARTS {
            self.0 &= !(1u64 << part.0);
        }
    }

    /// Returns `true` if `part` is in the set.
    #[inline]
    pub fn contains(self, part: PartId) -> bool {
        part.index() < Self::MAX_PARTS && self.0 & (1u64 << part.0) != 0
    }

    /// Number of partitions in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the contained partition ids in increasing order.
    ///
    /// # Example
    /// ```
    /// use vlsi_hypergraph::{PartId, PartSet};
    /// let s: PartSet = [PartId(3), PartId(1)].into_iter().collect();
    /// assert_eq!(s.iter().collect::<Vec<_>>(), vec![PartId(1), PartId(3)]);
    /// ```
    pub fn iter(self) -> Iter {
        Iter(self.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(self, other: PartSet) -> PartSet {
        PartSet(self.0 & other.0)
    }
}

impl FromIterator<PartId> for PartSet {
    fn from_iter<I: IntoIterator<Item = PartId>>(iter: I) -> Self {
        let mut s = PartSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<PartId> for PartSet {
    fn extend<I: IntoIterator<Item = PartId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl fmt::Display for PartSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the partition ids in a [`PartSet`], produced by
/// [`PartSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter(u64);

impl Iterator for Iter {
    type Item = PartId;

    fn next(&mut self) -> Option<PartId> {
        if self.0 == 0 {
            None
        } else {
            let idx = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(PartId(idx))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

/// The fixity of a single vertex.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{Fixity, PartId, PartSet};
/// assert!(Fixity::Free.allows(PartId(5)));
/// assert!(Fixity::Fixed(PartId(1)).allows(PartId(1)));
/// assert!(!Fixity::Fixed(PartId(1)).allows(PartId(0)));
/// let or = Fixity::FixedAny(PartSet::all(2));
/// assert!(or.allows(PartId(0)) && or.allows(PartId(1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fixity {
    /// The vertex may be placed in any partition.
    #[default]
    Free,
    /// The vertex must stay in exactly this partition.
    Fixed(PartId),
    /// The vertex must stay in one of these partitions ("or" semantics);
    /// the partitioner may choose which, but may not move it outside the set.
    FixedAny(PartSet),
}

impl Fixity {
    /// Returns `true` if a vertex with this fixity may be placed in `part`.
    #[inline]
    pub fn allows(self, part: PartId) -> bool {
        match self {
            Fixity::Free => true,
            Fixity::Fixed(p) => p == part,
            Fixity::FixedAny(set) => set.contains(part),
        }
    }

    /// Returns `true` for [`Fixity::Free`].
    #[inline]
    pub fn is_free(self) -> bool {
        matches!(self, Fixity::Free)
    }

    /// Returns `true` if the vertex is constrained at all (fixed in one
    /// partition or in a set).
    #[inline]
    pub fn is_fixed(self) -> bool {
        !self.is_free()
    }

    /// Returns `true` if the vertex cannot ever move: it is pinned to a
    /// single partition (either `Fixed` or a one-element `FixedAny`).
    #[inline]
    pub fn is_immovable(self) -> bool {
        match self {
            Fixity::Free => false,
            Fixity::Fixed(_) => true,
            Fixity::FixedAny(set) => set.len() <= 1,
        }
    }
}

impl fmt::Display for Fixity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fixity::Free => write!(f, "free"),
            Fixity::Fixed(p) => write!(f, "fixed({p})"),
            Fixity::FixedAny(s) => write!(f, "fixed{s}"),
        }
    }
}

/// Per-vertex fixity table for a hypergraph.
///
/// A `FixedVertices` is a dense vector parallel to the vertex array. The
/// all-free table is the default and allocates one enum per vertex.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{FixedVertices, Fixity, PartId, VertexId};
/// let mut fx = FixedVertices::all_free(3);
/// fx.fix(VertexId(1), PartId(0));
/// assert_eq!(fx.num_fixed(), 1);
/// assert!(fx.fixity(VertexId(1)).is_fixed());
/// assert!(fx.fixity(VertexId(0)).is_free());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FixedVertices {
    fixities: Vec<Fixity>,
}

impl FixedVertices {
    /// Creates a table with every vertex free.
    pub fn all_free(num_vertices: usize) -> Self {
        FixedVertices {
            fixities: vec![Fixity::Free; num_vertices],
        }
    }

    /// Creates a table from an explicit fixity vector.
    pub fn from_fixities(fixities: Vec<Fixity>) -> Self {
        FixedVertices { fixities }
    }

    /// Number of vertices covered by this table.
    pub fn len(&self) -> usize {
        self.fixities.len()
    }

    /// Returns `true` if the table covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.fixities.is_empty()
    }

    /// The fixity of `vertex`. A table may be shorter than its hypergraph:
    /// a vertex beyond it is free. This is the one place that says so, so
    /// callers need no length check of their own; the writes
    /// ([`FixedVertices::fix`] and the rest) still panic past the table.
    ///
    /// # Example
    /// ```
    /// use vlsi_hypergraph::{FixedVertices, Fixity, PartId, VertexId};
    /// let fx = FixedVertices::from_fixities(vec![Fixity::Fixed(PartId(1))]);
    /// assert_eq!(fx.fixity(VertexId(0)), Fixity::Fixed(PartId(1)));
    /// assert_eq!(fx.fixity(VertexId(5)), Fixity::Free);
    /// ```
    #[inline]
    pub fn fixity(&self, vertex: crate::VertexId) -> Fixity {
        self.fixities
            .get(vertex.index())
            .copied()
            .unwrap_or(Fixity::Free)
    }

    /// Pins `vertex` into `part`.
    ///
    /// # Panics
    /// Panics if `vertex` is out of range.
    pub fn fix(&mut self, vertex: crate::VertexId, part: PartId) {
        self.fixities[vertex.index()] = Fixity::Fixed(part);
    }

    /// Constrains `vertex` to the given set of allowed partitions.
    ///
    /// # Panics
    /// Panics if `vertex` is out of range or `allowed` is empty.
    pub fn fix_any(&mut self, vertex: crate::VertexId, allowed: PartSet) {
        assert!(!allowed.is_empty(), "allowed set must be non-empty");
        self.fixities[vertex.index()] = Fixity::FixedAny(allowed);
    }

    /// Releases `vertex` back to free.
    ///
    /// # Panics
    /// Panics if `vertex` is out of range.
    pub fn free(&mut self, vertex: crate::VertexId) {
        self.fixities[vertex.index()] = Fixity::Free;
    }

    /// Sets an arbitrary fixity.
    ///
    /// # Panics
    /// Panics if `vertex` is out of range.
    pub fn set(&mut self, vertex: crate::VertexId, fixity: Fixity) {
        self.fixities[vertex.index()] = fixity;
    }

    /// Number of vertices that are constrained (not free).
    pub fn num_fixed(&self) -> usize {
        self.fixities.iter().filter(|f| f.is_fixed()).count()
    }

    /// Fraction of vertices that are constrained, in `[0, 1]`.
    pub fn fixed_fraction(&self) -> f64 {
        if self.fixities.is_empty() {
            0.0
        } else {
            self.num_fixed() as f64 / self.fixities.len() as f64
        }
    }

    /// Iterates over `(vertex, fixity)` pairs for the fixed vertices only.
    pub fn iter_fixed(&self) -> impl Iterator<Item = (crate::VertexId, Fixity)> + '_ {
        self.fixities
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_fixed())
            .map(|(i, f)| (crate::VertexId::from_index(i), *f))
    }

    /// Access to the raw fixity slice.
    pub fn as_slice(&self) -> &[Fixity] {
        &self.fixities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexId;

    #[test]
    fn partset_basic_ops() {
        let mut s = PartSet::new();
        assert!(s.is_empty());
        s.insert(PartId(0));
        s.insert(PartId(63));
        assert_eq!(s.len(), 2);
        assert!(s.contains(PartId(63)));
        s.remove(PartId(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![PartId(63)]);
    }

    #[test]
    fn partset_all() {
        assert_eq!(PartSet::all(2).len(), 2);
        assert_eq!(PartSet::all(64).len(), 64);
        assert_eq!(PartSet::all(0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn partset_all_rejects_over_64() {
        let _ = PartSet::all(65);
    }

    #[test]
    fn partset_intersection() {
        let a: PartSet = [PartId(0), PartId(1)].into_iter().collect();
        let b: PartSet = [PartId(1), PartId(2)].into_iter().collect();
        assert_eq!(a.intersection(b), PartSet::single(PartId(1)));
    }

    #[test]
    fn partset_display() {
        let s: PartSet = [PartId(2), PartId(0)].into_iter().collect();
        assert_eq!(s.to_string(), "{p0,p2}");
    }

    #[test]
    fn fixity_allows() {
        assert!(Fixity::Free.allows(PartId(7)));
        assert!(Fixity::Fixed(PartId(1)).allows(PartId(1)));
        assert!(!Fixity::Fixed(PartId(1)).allows(PartId(2)));
        let or = Fixity::FixedAny([PartId(0), PartId(3)].into_iter().collect());
        assert!(or.allows(PartId(3)));
        assert!(!or.allows(PartId(1)));
    }

    #[test]
    fn fixity_immovable() {
        assert!(!Fixity::Free.is_immovable());
        assert!(Fixity::Fixed(PartId(0)).is_immovable());
        assert!(Fixity::FixedAny(PartSet::single(PartId(2))).is_immovable());
        assert!(!Fixity::FixedAny(PartSet::all(2)).is_immovable());
    }

    #[test]
    fn fixed_vertices_counts() {
        let mut fx = FixedVertices::all_free(4);
        assert_eq!(fx.num_fixed(), 0);
        assert_eq!(fx.fixed_fraction(), 0.0);
        fx.fix(VertexId(0), PartId(1));
        fx.fix_any(VertexId(2), PartSet::all(2));
        assert_eq!(fx.num_fixed(), 2);
        assert!((fx.fixed_fraction() - 0.5).abs() < 1e-12);
        fx.free(VertexId(0));
        assert_eq!(fx.num_fixed(), 1);
    }

    #[test]
    fn iter_fixed_yields_only_fixed() {
        let mut fx = FixedVertices::all_free(3);
        fx.fix(VertexId(2), PartId(0));
        let fixed: Vec<_> = fx.iter_fixed().collect();
        assert_eq!(fixed, vec![(VertexId(2), Fixity::Fixed(PartId(0)))]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn fix_any_rejects_empty_set() {
        let mut fx = FixedVertices::all_free(1);
        fx.fix_any(VertexId(0), PartSet::new());
    }

    #[test]
    fn empty_table_fraction_is_zero() {
        assert_eq!(FixedVertices::all_free(0).fixed_fraction(), 0.0);
    }
}
