//! The immutable CSR-packed hypergraph.

use crate::{NetId, VertexId};

/// Side-table arena for optional vertex names.
///
/// Instead of one heap `String` per vertex (24 bytes of header plus an
/// allocation each, even for graphs that are never named), all names live
/// concatenated in a single byte arena indexed by `u32` offsets — the same
/// CSR discipline as the pin arrays. Lookup is two offset reads and a
/// slice, and the whole table costs `4·(V+1)` bytes plus the name bytes
/// themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NameTable {
    bytes: String,
    /// `num_vertices + 1` offsets into `bytes`.
    offsets: Vec<u32>,
}

impl NameTable {
    /// An empty arena (zero names packed).
    pub(crate) fn new() -> Self {
        NameTable {
            bytes: String::new(),
            offsets: vec![0],
        }
    }

    /// Appends the next vertex's name. Returns `false` without modifying
    /// the arena if the concatenated names would overflow the `u32` offset
    /// range (>4 GiB of name bytes).
    pub(crate) fn push(&mut self, name: &str) -> bool {
        let end = self.bytes.len() + name.len();
        if end > u32::MAX as usize {
            return false;
        }
        self.bytes.push_str(name);
        self.offsets.push(end as u32);
        true
    }

    #[inline]
    pub(crate) fn get(&self, index: usize) -> &str {
        &self.bytes[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }
}

/// An immutable hypergraph with weighted vertices and weighted nets.
///
/// Pin membership is stored twice in compressed sparse row (CSR) form:
/// net → pins and vertex → incident nets, so both directions are O(degree)
/// with no per-element allocation. Offsets are `u32` — 12 bytes per pin
/// across both directions — which bounds any single graph to `u32::MAX`
/// pins; [`crate::HypergraphBuilder`] reports overflow as a structured
/// error rather than truncating. Construct one with
/// [`crate::HypergraphBuilder`].
///
/// Vertex weights support multiple *resource types* (Section IV of the
/// paper: e.g. cell area, pin count, power); resource 0 is the primary
/// weight used by scalar APIs.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{HypergraphBuilder, NetId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let u = b.add_vertex(1);
/// let v = b.add_vertex(1);
/// b.add_net(3, [u, v])?;
/// let hg = b.build()?;
/// assert_eq!(hg.net_weight(NetId(0)), 3);
/// assert_eq!(hg.vertex_degree(u), 1);
/// assert_eq!(hg.avg_pins_per_vertex(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    num_resources: usize,
    /// Flat `num_vertices * num_resources` weight matrix.
    weights: Vec<u64>,
    /// Per-resource totals.
    total_weights: Vec<u64>,
    names: Option<NameTable>,
    net_weights: Vec<u64>,
    net_offsets: Vec<u32>,
    net_pins: Vec<VertexId>,
    vertex_offsets: Vec<u32>,
    vertex_nets: Vec<NetId>,
}

impl Hypergraph {
    /// Packs checked parts into a graph; `total_weights` holds the
    /// per-resource sums of `weights`.
    pub(crate) fn from_parts(
        weights: Vec<u64>,
        total_weights: Vec<u64>,
        names: Option<NameTable>,
        net_weights: Vec<u64>,
        net_offsets: Vec<u32>,
        net_pins: Vec<VertexId>,
    ) -> Self {
        let num_resources = total_weights.len();
        debug_assert_eq!(weights.len() % num_resources, 0);
        let num_vertices = weights.len() / num_resources;
        debug_assert_eq!(net_offsets.len(), net_weights.len() + 1);
        debug_assert!(net_pins.len() <= u32::MAX as usize);

        // Build the vertex -> nets CSR by counting then bucketing. The
        // degree array doubles as the per-vertex write cursor afterwards,
        // so no second offsets copy is ever allocated.
        let mut degree = vec![0u32; num_vertices];
        for pin in &net_pins {
            degree[pin.index()] += 1;
        }
        let mut vertex_offsets = Vec::with_capacity(num_vertices + 1);
        let mut acc = 0u32;
        vertex_offsets.push(acc);
        for d in degree.iter_mut() {
            acc += *d;
            vertex_offsets.push(acc);
            *d = 0;
        }
        let mut vertex_nets = vec![NetId(0); net_pins.len()];
        for net_idx in 0..net_weights.len() {
            let (start, end) = (
                net_offsets[net_idx] as usize,
                net_offsets[net_idx + 1] as usize,
            );
            for pin in &net_pins[start..end] {
                let p = pin.index();
                vertex_nets[(vertex_offsets[p] + degree[p]) as usize] = NetId::from_index(net_idx);
                degree[p] += 1;
            }
        }

        Hypergraph {
            num_resources,
            weights,
            total_weights,
            names,
            net_weights,
            net_offsets,
            net_pins,
            vertex_offsets,
            vertex_nets,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_offsets.len() - 1
    }

    /// Number of nets (hyperedges).
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.net_weights.len()
    }

    /// Total number of pins (vertex–net incidences).
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.net_pins.len()
    }

    /// Number of resource types carried by each vertex.
    #[inline]
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Primary (resource-0) weight of a vertex.
    ///
    /// # Panics
    /// Panics if `vertex` is out of range.
    #[inline]
    pub fn vertex_weight(&self, vertex: VertexId) -> u64 {
        self.weights[vertex.index() * self.num_resources]
    }

    /// All resource weights of a vertex.
    ///
    /// # Panics
    /// Panics if `vertex` is out of range.
    #[inline]
    pub fn vertex_weights(&self, vertex: VertexId) -> &[u64] {
        let s = vertex.index() * self.num_resources;
        &self.weights[s..s + self.num_resources]
    }

    /// Total primary weight over all vertices.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weights[0]
    }

    /// Per-resource weight totals.
    #[inline]
    pub fn total_weights(&self) -> &[u64] {
        &self.total_weights
    }

    /// Weight of a net.
    ///
    /// # Panics
    /// Panics if `net` is out of range.
    #[inline]
    pub fn net_weight(&self, net: NetId) -> u64 {
        self.net_weights[net.index()]
    }

    /// The pins (member vertices) of a net.
    ///
    /// # Panics
    /// Panics if `net` is out of range.
    #[inline]
    pub fn net_pins(&self, net: NetId) -> &[VertexId] {
        &self.net_pins
            [self.net_offsets[net.index()] as usize..self.net_offsets[net.index() + 1] as usize]
    }

    /// Number of pins on a net.
    ///
    /// # Panics
    /// Panics if `net` is out of range.
    #[inline]
    pub fn net_size(&self, net: NetId) -> usize {
        (self.net_offsets[net.index() + 1] - self.net_offsets[net.index()]) as usize
    }

    /// The nets incident to a vertex.
    ///
    /// # Panics
    /// Panics if `vertex` is out of range.
    #[inline]
    pub fn vertex_nets(&self, vertex: VertexId) -> &[NetId] {
        &self.vertex_nets[self.vertex_offsets[vertex.index()] as usize
            ..self.vertex_offsets[vertex.index() + 1] as usize]
    }

    /// Degree (number of incident nets) of a vertex.
    ///
    /// # Panics
    /// Panics if `vertex` is out of range.
    #[inline]
    pub fn vertex_degree(&self, vertex: VertexId) -> usize {
        (self.vertex_offsets[vertex.index() + 1] - self.vertex_offsets[vertex.index()]) as usize
    }

    /// Optional human-readable vertex name (set via the builder or a parser).
    pub fn vertex_name(&self, vertex: VertexId) -> Option<&str> {
        self.names.as_ref().map(|t| t.get(vertex.index()))
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + Clone {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterator over all net ids.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = NetId> + Clone {
        (0..self.num_nets() as u32).map(NetId)
    }

    /// Average pins per vertex (the paper's Rent constant `k` observable).
    pub fn avg_pins_per_vertex(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_pins() as f64 / self.num_vertices() as f64
        }
    }

    /// Average pins per net.
    pub fn avg_pins_per_net(&self) -> f64 {
        if self.num_nets() == 0 {
            0.0
        } else {
            self.num_pins() as f64 / self.num_nets() as f64
        }
    }

    /// Largest primary vertex weight as a percentage of the total — the
    /// paper's `Max%` column of Table IV.
    pub fn max_weight_percent(&self) -> f64 {
        if self.total_weight() == 0 {
            return 0.0;
        }
        let max = self
            .vertices()
            .map(|v| self.vertex_weight(v))
            .max()
            .unwrap_or(0);
        100.0 * max as f64 / self.total_weight() as f64
    }

    /// Resident bytes of the CSR arenas (pins, offsets, weights, names) —
    /// the capacity-planning observable documented in
    /// `docs/ARCHITECTURE.md`. Excludes allocator overhead.
    pub fn arena_bytes(&self) -> usize {
        self.weights.len() * 8
            + self.total_weights.len() * 8
            + self.net_weights.len() * 8
            + self.net_offsets.len() * 4
            + self.net_pins.len() * 4
            + self.vertex_offsets.len() * 4
            + self.vertex_nets.len() * 4
            + self
                .names
                .as_ref()
                .map_or(0, |t| t.bytes.len() + t.offsets.len() * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn triangle() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex(1)).collect();
        b.add_net(1, [v[0], v[1]]).unwrap();
        b.add_net(1, [v[1], v[2]]).unwrap();
        b.add_net(1, [v[2], v[0]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn csr_reverse_mapping_consistent() {
        let hg = triangle();
        for v in hg.vertices() {
            assert_eq!(hg.vertex_degree(v), 2);
            for n in hg.vertex_nets(v) {
                assert!(hg.net_pins(*n).contains(&v));
            }
        }
        for n in hg.nets() {
            for p in hg.net_pins(n) {
                assert!(hg.vertex_nets(*p).contains(&n));
            }
        }
    }

    #[test]
    fn pin_counts() {
        let hg = triangle();
        assert_eq!(hg.num_pins(), 6);
        assert_eq!(hg.avg_pins_per_vertex(), 2.0);
        assert_eq!(hg.avg_pins_per_net(), 2.0);
    }

    #[test]
    fn max_weight_percent() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_vertex(90);
        let c = b.add_vertex(10);
        b.add_net(1, [a, c]).unwrap();
        let hg = b.build().unwrap();
        assert!((hg.max_weight_percent() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let hg = HypergraphBuilder::new().build().unwrap();
        assert_eq!(hg.num_vertices(), 0);
        assert_eq!(hg.num_nets(), 0);
        assert_eq!(hg.avg_pins_per_vertex(), 0.0);
        assert_eq!(hg.avg_pins_per_net(), 0.0);
        assert_eq!(hg.max_weight_percent(), 0.0);
    }

    #[test]
    fn name_table_packs_and_resolves() {
        let mut t = NameTable::new();
        for n in ["a0", "", "pad_17"] {
            assert!(t.push(n));
        }
        assert_eq!(t.get(0), "a0");
        assert_eq!(t.get(1), "");
        assert_eq!(t.get(2), "pad_17");
    }

    #[test]
    fn arena_bytes_counts_pins_at_twelve_bytes() {
        let hg = triangle();
        // 6 pins × (4 net_pins + 4 vertex_nets) + offsets + weights.
        assert!(hg.arena_bytes() >= 6 * 8);
        assert_eq!(hg.arena_bytes() % 4, 0);
    }
}
