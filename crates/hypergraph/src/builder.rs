//! Incremental construction of [`Hypergraph`] values.

use std::fmt::Write as _;

use crate::error::BuildError;
use crate::graph::{Hypergraph, NameTable};
use crate::{NetId, VertexId};

/// Builder for [`Hypergraph`].
///
/// Vertices are added first (optionally with multi-resource weights), nets
/// reference them. [`HypergraphBuilder::build`] packs everything into
/// immutable CSR arrays.
///
/// Names are kept as a sparse `(vertex, name)` log rather than a dense
/// per-vertex slot, so an unnamed million-vertex graph pays nothing for
/// the feature; [`HypergraphBuilder::build`] packs the log into the
/// graph's name arena (last write per vertex wins).
///
/// # Example
/// ```
/// use vlsi_hypergraph::HypergraphBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let a = b.add_vertex(2);
/// let c = b.add_vertex(3);
/// b.add_net(1, [a, c])?;
/// let hg = b.build()?;
/// assert_eq!(hg.num_vertices(), 2);
/// assert_eq!(hg.total_weight(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HypergraphBuilder {
    num_resources: usize,
    num_vertices: usize,
    weights: Vec<u64>,
    /// Sparse name log; packed into a [`NameTable`] by `build`.
    names: Vec<(VertexId, String)>,
    net_weights: Vec<u64>,
    net_offsets: Vec<u32>,
    net_pins: Vec<VertexId>,
}

impl Default for HypergraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl HypergraphBuilder {
    /// Creates a builder for single-resource (scalar-weight) hypergraphs.
    pub fn new() -> Self {
        Self::with_resources(1)
    }

    /// Creates a builder whose vertices carry `num_resources` weights each
    /// (Section IV: multi-balanced partitioning, e.g. area + pin count +
    /// power).
    ///
    /// # Panics
    /// Panics if `num_resources == 0`.
    pub fn with_resources(num_resources: usize) -> Self {
        assert!(num_resources >= 1, "at least one resource type required");
        HypergraphBuilder {
            num_resources,
            num_vertices: 0,
            weights: Vec::new(),
            names: Vec::new(),
            net_weights: Vec::new(),
            net_offsets: vec![0],
            net_pins: Vec::new(),
        }
    }

    /// Pre-allocates space for the given numbers of vertices, nets and pins
    /// in a single-resource builder.
    pub fn with_capacity(num_vertices: usize, num_nets: usize, num_pins: usize) -> Self {
        Self::with_capacity_and_resources(num_vertices, num_nets, num_pins, 1)
    }

    /// Pre-allocates space for a multi-resource builder: reserves
    /// `num_vertices * num_resources` weight slots so the reservation is
    /// exact for any resource arity.
    ///
    /// # Panics
    /// Panics if `num_resources == 0`.
    pub fn with_capacity_and_resources(
        num_vertices: usize,
        num_nets: usize,
        num_pins: usize,
        num_resources: usize,
    ) -> Self {
        let mut b = Self::with_resources(num_resources);
        b.weights.reserve(num_vertices * num_resources);
        b.net_weights.reserve(num_nets);
        b.net_offsets.reserve(num_nets + 1);
        b.net_pins.reserve(num_pins);
        b
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of nets added so far.
    pub fn num_nets(&self) -> usize {
        self.net_weights.len()
    }

    /// Number of pins added so far.
    pub fn num_pins(&self) -> usize {
        self.net_pins.len()
    }

    /// Adds a vertex with a scalar weight (resource 0); any additional
    /// resources are zero.
    pub fn add_vertex(&mut self, weight: u64) -> VertexId {
        let id = VertexId::from_index(self.num_vertices);
        self.weights.push(weight);
        self.weights
            .extend(std::iter::repeat_n(0, self.num_resources - 1));
        self.num_vertices += 1;
        id
    }

    /// Adds a vertex with one weight per resource type.
    ///
    /// # Errors
    /// Returns [`BuildError::ResourceArity`] if `weights.len()` differs from
    /// the builder's resource count.
    pub fn add_vertex_multi(&mut self, weights: &[u64]) -> Result<VertexId, BuildError> {
        if weights.len() != self.num_resources {
            return Err(BuildError::ResourceArity {
                vertex: VertexId::from_index(self.num_vertices),
                expected: self.num_resources,
                found: weights.len(),
            });
        }
        let id = VertexId::from_index(self.num_vertices);
        self.weights.extend_from_slice(weights);
        self.num_vertices += 1;
        Ok(id)
    }

    /// Overwrites the primary (resource-0) weight of an existing vertex.
    ///
    /// The file formats list weights *after* connectivity (`.hgr` fmt
    /// 10/11, `.are` companions), so streaming parsers create unit-weight
    /// vertices first and patch them here instead of buffering the whole
    /// file or rebuilding the graph.
    ///
    /// # Panics
    /// Panics if `vertex` has not been added.
    pub fn set_vertex_weight(&mut self, vertex: VertexId, weight: u64) {
        assert!(
            vertex.index() < self.num_vertices,
            "set_vertex_weight on unknown vertex {vertex}"
        );
        self.weights[vertex.index() * self.num_resources] = weight;
    }

    /// Attaches a human-readable name to a vertex (used by the file formats).
    /// Naming the same vertex again replaces the earlier name.
    ///
    /// # Panics
    /// Panics if `vertex` has not been added.
    pub fn set_vertex_name(&mut self, vertex: VertexId, name: impl Into<String>) {
        assert!(
            vertex.index() < self.num_vertices,
            "set_vertex_name on unknown vertex {vertex}"
        );
        self.names.push((vertex, name.into()));
    }

    /// Adds a net with the given weight and pins.
    ///
    /// Single-pin nets are accepted (they can never be cut but occur in real
    /// netlists); duplicate pins within one net are rejected.
    ///
    /// # Errors
    /// * [`BuildError::EmptyNet`] if `pins` is empty.
    /// * [`BuildError::UnknownVertex`] if a pin references a vertex that was
    ///   never added.
    /// * [`BuildError::DuplicatePin`] if the same vertex appears twice.
    /// * [`BuildError::ArenaOverflow`] if the pin arena would exceed
    ///   `u32::MAX` entries.
    pub fn add_net<I>(&mut self, weight: u64, pins: I) -> Result<NetId, BuildError>
    where
        I: IntoIterator<Item = VertexId>,
    {
        let net = NetId::from_index(self.net_weights.len());
        let start = self.net_pins.len();
        for pin in pins {
            if pin.index() >= self.num_vertices {
                self.net_pins.truncate(start);
                return Err(BuildError::UnknownVertex {
                    vertex: pin,
                    num_vertices: self.num_vertices,
                });
            }
            if self.net_pins[start..].contains(&pin) {
                self.net_pins.truncate(start);
                return Err(BuildError::DuplicatePin { net, vertex: pin });
            }
            self.net_pins.push(pin);
        }
        if self.net_pins.len() == start {
            return Err(BuildError::EmptyNet { net });
        }
        self.finish_net(weight, start, net)
    }

    /// Adds a net whose pins are strictly ascending, checking that in one
    /// pass instead of [`HypergraphBuilder::add_net`]'s per-pin scan of the
    /// pins before it. Builds the same net as `add_net` on such input.
    ///
    /// # Errors
    /// * [`BuildError::EmptyNet`] if `pins` is empty.
    /// * [`BuildError::UnknownVertex`] if a pin references a vertex that was
    ///   never added.
    /// * [`BuildError::DuplicatePin`] for the first pin that is not above
    ///   the pin before it (a repeated pin, or pins out of order).
    /// * [`BuildError::ArenaOverflow`] if the pin arena would exceed
    ///   `u32::MAX` entries.
    pub fn add_sorted_net(&mut self, weight: u64, pins: &[VertexId]) -> Result<NetId, BuildError> {
        let net = NetId::from_index(self.net_weights.len());
        if pins.is_empty() {
            return Err(BuildError::EmptyNet { net });
        }
        for (i, &pin) in pins.iter().enumerate() {
            if pin.index() >= self.num_vertices {
                return Err(BuildError::UnknownVertex {
                    vertex: pin,
                    num_vertices: self.num_vertices,
                });
            }
            if i > 0 && pins[i - 1] >= pin {
                return Err(BuildError::DuplicatePin { net, vertex: pin });
            }
        }
        let start = self.net_pins.len();
        self.net_pins.extend_from_slice(pins);
        self.finish_net(weight, start, net)
    }

    /// Like [`HypergraphBuilder::add_net`] but silently drops duplicate pins
    /// instead of failing — convenient when translating netlists in which a
    /// cell may legitimately connect to the same signal through several pins.
    ///
    /// # Errors
    /// Returns [`BuildError::EmptyNet`] / [`BuildError::UnknownVertex`] /
    /// [`BuildError::ArenaOverflow`] as [`HypergraphBuilder::add_net`] does.
    pub fn add_net_dedup<I>(&mut self, weight: u64, pins: I) -> Result<NetId, BuildError>
    where
        I: IntoIterator<Item = VertexId>,
    {
        let net = NetId::from_index(self.net_weights.len());
        let start = self.net_pins.len();
        for pin in pins {
            if pin.index() >= self.num_vertices {
                self.net_pins.truncate(start);
                return Err(BuildError::UnknownVertex {
                    vertex: pin,
                    num_vertices: self.num_vertices,
                });
            }
            if !self.net_pins[start..].contains(&pin) {
                self.net_pins.push(pin);
            }
        }
        if self.net_pins.len() == start {
            return Err(BuildError::EmptyNet { net });
        }
        self.finish_net(weight, start, net)
    }

    /// Commits a net whose pins `[start..]` are already staged, enforcing
    /// the `u32` offset bound of the CSR layout.
    fn finish_net(&mut self, weight: u64, start: usize, net: NetId) -> Result<NetId, BuildError> {
        let end = self.net_pins.len();
        if end > u32::MAX as usize {
            self.net_pins.truncate(start);
            return Err(BuildError::ArenaOverflow {
                arena: "pins",
                requested: end as u64,
            });
        }
        self.net_weights.push(weight);
        self.net_offsets.push(end as u32);
        Ok(net)
    }

    /// Finalizes the builder into an immutable [`Hypergraph`].
    ///
    /// # Errors
    /// * [`BuildError::WeightOverflow`] if one resource's vertex weights
    ///   sum past `u64::MAX`. Part loads and balance totals are `u64`
    ///   sums over subsets of the vertices, so a graph whose totals fit
    ///   keeps every load in range.
    /// * [`BuildError::NetWeightOverflow`] if the net weights sum past
    ///   `i64::MAX`. Cuts and move gains are sums over subsets of the
    ///   nets, so a graph whose total fits keeps every cut in `u64` and
    ///   every gain in `i64`.
    /// * [`BuildError::ArenaOverflow`] if the packed name arena would
    ///   exceed the `u32` offset range.
    ///
    /// Otherwise infallible for inputs accepted by the `add_*` methods.
    pub fn build(self) -> Result<Hypergraph, BuildError> {
        let mut total_weights = vec![0u64; self.num_resources];
        for row in self.weights.chunks_exact(self.num_resources) {
            for (resource, (total, &w)) in total_weights.iter_mut().zip(row).enumerate() {
                *total = total
                    .checked_add(w)
                    .ok_or(BuildError::WeightOverflow { resource })?;
            }
        }
        let mut net_total = 0u64;
        for (i, &w) in self.net_weights.iter().enumerate() {
            net_total = net_total
                .checked_add(w)
                .filter(|&t| t <= i64::MAX as u64)
                .ok_or_else(|| BuildError::NetWeightOverflow {
                    net: NetId::from_index(i),
                })?;
        }
        let names = if self.names.is_empty() {
            None
        } else {
            // Pack the sparse log densely: stable sort keeps later writes
            // to the same vertex after earlier ones, so consuming every
            // matching entry leaves the last write in effect.
            let mut log = self.names;
            log.sort_by_key(|(v, _)| v.index());
            let mut table = NameTable::new();
            let mut it = log.iter().peekable();
            let mut scratch = String::new();
            for i in 0..self.num_vertices {
                let mut name: Option<&str> = None;
                while let Some((v, n)) = it.peek() {
                    if v.index() != i {
                        break;
                    }
                    name = Some(n.as_str());
                    it.next();
                }
                let packed = match name {
                    Some(n) => table.push(n),
                    None => {
                        scratch.clear();
                        write!(scratch, "v{i}").expect("write to String");
                        table.push(&scratch)
                    }
                };
                if !packed {
                    return Err(BuildError::ArenaOverflow {
                        arena: "names",
                        requested: u32::MAX as u64 + 1,
                    });
                }
            }
            Some(table)
        };
        Ok(Hypergraph::from_parts(
            self.weights,
            total_weights,
            names,
            self.net_weights,
            self.net_offsets,
            self.net_pins,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_graph() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(i + 1)).collect();
        b.add_net(1, [v[0], v[1], v[2]]).unwrap();
        b.add_net(2, [v[2], v[3]]).unwrap();
        let hg = b.build().unwrap();
        assert_eq!(hg.num_vertices(), 4);
        assert_eq!(hg.num_nets(), 2);
        assert_eq!(hg.num_pins(), 5);
        assert_eq!(hg.total_weight(), 1 + 2 + 3 + 4);
        assert_eq!(hg.net_pins(NetId(0)), &[v[0], v[1], v[2]]);
        assert_eq!(hg.vertex_nets(v[2]), &[NetId(0), NetId(1)]);
    }

    #[test]
    fn empty_net_rejected() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(1);
        let err = b.add_net(1, []).unwrap_err();
        assert!(matches!(err, BuildError::EmptyNet { .. }));
    }

    #[test]
    fn unknown_vertex_rejected_and_builder_still_usable() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let err = b.add_net(1, [v0, VertexId(9)]).unwrap_err();
        assert!(matches!(err, BuildError::UnknownVertex { .. }));
        // failed add must not leave partial pins behind
        b.add_net(1, [v0]).unwrap();
        let hg = b.build().unwrap();
        assert_eq!(hg.num_pins(), 1);
    }

    #[test]
    fn duplicate_pin_rejected() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let err = b.add_net(1, [v0, v0]).unwrap_err();
        assert!(matches!(err, BuildError::DuplicatePin { .. }));
    }

    #[test]
    fn sorted_net_rejects_bad_pins_and_builder_still_usable() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex(1)).collect();
        let net = NetId(0);
        assert_eq!(b.add_sorted_net(1, &[]), Err(BuildError::EmptyNet { net }));
        assert_eq!(
            b.add_sorted_net(1, &[v[0], VertexId(3)]),
            Err(BuildError::UnknownVertex {
                vertex: VertexId(3),
                num_vertices: 3
            })
        );
        // Unsorted pins and repeated pins are both refused as duplicates.
        assert_eq!(
            b.add_sorted_net(1, &[v[1], v[0]]),
            Err(BuildError::DuplicatePin { net, vertex: v[0] })
        );
        assert_eq!(
            b.add_sorted_net(1, &[v[0], v[1], v[1]]),
            Err(BuildError::DuplicatePin { net, vertex: v[1] })
        );
        // Failed adds must not leave partial pins behind.
        assert_eq!((b.num_nets(), b.num_pins()), (0, 0));
        assert_eq!(b.add_sorted_net(2, &[v[0], v[2]]), Ok(net));
        let hg = b.build().unwrap();
        assert_eq!(hg.num_pins(), 2);
        assert_eq!(hg.net_pins(net), &[v[0], v[2]]);
        assert_eq!(hg.net_weight(net), 2);
    }

    #[test]
    fn sorted_net_builds_the_graph_add_net_builds() {
        let nets: [(u64, &[u32]); 4] =
            [(1, &[0, 1, 4]), (3, &[2]), (2, &[1, 3]), (5, &[0, 2, 3, 4])];
        let build = |sorted: bool| {
            let mut b = HypergraphBuilder::with_resources(2);
            for i in 0..5 {
                b.add_vertex_multi(&[i + 1, 2 * i]).unwrap();
            }
            for (weight, pins) in nets {
                let pins: Vec<VertexId> = pins.iter().copied().map(VertexId).collect();
                if sorted {
                    b.add_sorted_net(weight, &pins).unwrap();
                } else {
                    b.add_net(weight, pins).unwrap();
                }
            }
            b.build().unwrap()
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn dedup_variant_drops_duplicates() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let v1 = b.add_vertex(1);
        b.add_net_dedup(1, [v0, v1, v0]).unwrap();
        let hg = b.build().unwrap();
        assert_eq!(hg.net_pins(NetId(0)).len(), 2);
    }

    #[test]
    fn multi_resource_weights() {
        let mut b = HypergraphBuilder::with_resources(3);
        let v = b.add_vertex_multi(&[4, 5, 6]).unwrap();
        let w = b.add_vertex(9); // scalar fills remaining resources with 0
        let hg = b.build().unwrap();
        assert_eq!(hg.vertex_weights(v), &[4, 5, 6]);
        assert_eq!(hg.vertex_weights(w), &[9, 0, 0]);
        assert_eq!(hg.total_weights(), &[13, 5, 6]);
    }

    #[test]
    fn resource_arity_checked() {
        let mut b = HypergraphBuilder::with_resources(2);
        let err = b.add_vertex_multi(&[1]).unwrap_err();
        assert!(matches!(err, BuildError::ResourceArity { .. }));
    }

    #[test]
    fn names_defaulted_when_any_set() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let v1 = b.add_vertex(1);
        b.set_vertex_name(v0, "pad_in");
        let hg = b.build().unwrap();
        assert_eq!(hg.vertex_name(v0), Some("pad_in"));
        assert_eq!(hg.vertex_name(v1), Some("v1"));
    }

    #[test]
    fn renaming_a_vertex_takes_the_last_write() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        b.set_vertex_name(v0, "first");
        b.set_vertex_name(v0, "second");
        let hg = b.build().unwrap();
        assert_eq!(hg.vertex_name(v0), Some("second"));
    }

    #[test]
    fn names_absent_when_never_set() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let hg = b.build().unwrap();
        assert_eq!(hg.vertex_name(v0), None);
    }

    #[test]
    fn weight_sums_past_u64_max_are_refused() {
        let mut b = HypergraphBuilder::with_resources(2);
        b.add_vertex_multi(&[1, u64::MAX]).unwrap();
        b.add_vertex_multi(&[1, 1]).unwrap();
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildError::WeightOverflow { resource: 1 });
        assert_eq!(
            err.to_string(),
            "vertex weights of resource 1 sum past u64::MAX"
        );

        // A total of exactly u64::MAX still fits.
        let mut b = HypergraphBuilder::new();
        b.add_vertex(u64::MAX - 1);
        b.add_vertex(1);
        assert_eq!(b.build().unwrap().total_weight(), u64::MAX);
    }

    #[test]
    fn net_weight_sums_past_i64_max_are_refused() {
        // An 8-vertex cycle whose closing net is heavy.
        let cycle = |heavy: u64| {
            let mut b = HypergraphBuilder::new();
            let v: Vec<_> = (0..8).map(|_| b.add_vertex(1)).collect();
            for i in 0..8 {
                let w = if i == 7 { heavy } else { 1 };
                b.add_net(w, [v[i], v[(i + 1) % 8]]).unwrap();
            }
            b.build()
        };
        for heavy in [u64::MAX, 1 << 63, i64::MAX as u64 - 6] {
            let err = cycle(heavy).unwrap_err();
            assert_eq!(err, BuildError::NetWeightOverflow { net: NetId(7) });
            assert_eq!(err.to_string(), "net weights sum past i64::MAX at net n7");
        }
        // A total of exactly i64::MAX still fits.
        let hg = cycle(i64::MAX as u64 - 7).unwrap();
        assert_eq!(hg.net_weight(NetId(7)), i64::MAX as u64 - 7);
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn zero_resources_rejected() {
        let _ = HypergraphBuilder::with_resources(0);
    }

    #[test]
    fn with_capacity_and_resources_keeps_resource_arity() {
        // Regression: `with_capacity` used to call `Self::new()`, silently
        // resetting `num_resources` to 1 and under-reserving weights.
        let mut b = HypergraphBuilder::with_capacity_and_resources(4, 2, 8, 3);
        assert!(b.weights.capacity() >= 12, "weights reserve V * R slots");
        let v = b.add_vertex_multi(&[1, 2, 3]).unwrap();
        let hg = b.build().unwrap();
        assert_eq!(hg.num_resources(), 3);
        assert_eq!(hg.vertex_weights(v), &[1, 2, 3]);
    }

    #[test]
    fn with_capacity_is_single_resource() {
        let mut b = HypergraphBuilder::with_capacity(2, 1, 2);
        let v = b.add_vertex(7);
        let hg = b.build().unwrap();
        assert_eq!(hg.num_resources(), 1);
        assert_eq!(hg.vertex_weight(v), 7);
    }
}
