//! Descriptive statistics of hypergraph instances — the quantities the
//! paper reports for its benchmarks (Table IV: cells, pads, nets, external
//! nets, `Max%`) plus degree/size distributions.

use crate::{FixedVertices, Hypergraph};

/// Summary statistics of a (possibly fixed-terminal) partitioning instance.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{stats::InstanceStats, FixedVertices, HypergraphBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let u = b.add_vertex(2);
/// let v = b.add_vertex(0); // a zero-area pad terminal
/// b.add_net(1, [u, v])?;
/// let hg = b.build()?;
/// let mut fx = FixedVertices::all_free(2);
/// fx.fix(v, vlsi_hypergraph::PartId(0));
/// let s = InstanceStats::compute(&hg, &fx);
/// assert_eq!(s.num_pads, 1);
/// assert_eq!(s.num_external_nets, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceStats {
    /// Total number of vertices.
    pub num_vertices: usize,
    /// Number of movable (free) vertices — the paper's "cells".
    pub num_cells: usize,
    /// Number of fixed vertices — the paper's "pads"/terminals.
    pub num_pads: usize,
    /// Total number of nets.
    pub num_nets: usize,
    /// Nets incident to at least one fixed vertex — the paper's
    /// "external nets" (these correspond to propagated terminals).
    pub num_external_nets: usize,
    /// Total number of pins.
    pub num_pins: usize,
    /// Largest cell area as a percentage of total area (`Max%`).
    pub max_weight_percent: f64,
    /// Average pins per vertex.
    pub avg_pins_per_vertex: f64,
    /// Average pins per net.
    pub avg_pins_per_net: f64,
    /// Largest net size.
    pub max_net_size: usize,
    /// Largest vertex degree.
    pub max_vertex_degree: usize,
}

impl InstanceStats {
    /// Computes the statistics of `hg` under the fixity table `fixed`.
    pub fn compute(hg: &Hypergraph, fixed: &FixedVertices) -> Self {
        let num_pads = fixed.num_fixed();
        let num_external_nets = hg
            .nets()
            .filter(|&n| hg.net_pins(n).iter().any(|&v| fixed.fixity(v).is_fixed()))
            .count();
        InstanceStats {
            num_vertices: hg.num_vertices(),
            num_cells: hg.num_vertices() - num_pads,
            num_pads,
            num_nets: hg.num_nets(),
            num_external_nets,
            num_pins: hg.num_pins(),
            max_weight_percent: hg.max_weight_percent(),
            avg_pins_per_vertex: hg.avg_pins_per_vertex(),
            avg_pins_per_net: hg.avg_pins_per_net(),
            max_net_size: hg.nets().map(|n| hg.net_size(n)).max().unwrap_or(0),
            max_vertex_degree: hg
                .vertices()
                .map(|v| hg.vertex_degree(v))
                .max()
                .unwrap_or(0),
        }
    }
}

/// Histogram of net sizes: `histogram[s]` = number of nets with `s` pins
/// (sizes above `cap` are accumulated in the last bucket).
pub fn net_size_histogram(hg: &Hypergraph, cap: usize) -> Vec<usize> {
    let mut hist = vec![0usize; cap + 1];
    for n in hg.nets() {
        let s = hg.net_size(n).min(cap);
        hist[s] += 1;
    }
    hist
}

/// Histogram of vertex degrees with the same capping convention.
pub fn vertex_degree_histogram(hg: &Hypergraph, cap: usize) -> Vec<usize> {
    let mut hist = vec![0usize; cap + 1];
    for v in hg.vertices() {
        let d = hg.vertex_degree(v).min(cap);
        hist[d] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HypergraphBuilder, PartId};

    fn instance() -> (Hypergraph, FixedVertices) {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..5)
            .map(|i| b.add_vertex(if i == 0 { 10 } else { 1 }))
            .collect();
        b.add_net(1, [v[0], v[1], v[2]]).unwrap();
        b.add_net(1, [v[3], v[4]]).unwrap();
        b.add_net(1, [v[1], v[4]]).unwrap();
        let hg = b.build().unwrap();
        let mut fx = FixedVertices::all_free(5);
        fx.fix(v[4], PartId(1));
        (hg, fx)
    }

    #[test]
    fn counts_cells_pads_external_nets() {
        let (hg, fx) = instance();
        let s = InstanceStats::compute(&hg, &fx);
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_pads, 1);
        assert_eq!(s.num_cells, 4);
        assert_eq!(s.num_external_nets, 2);
        assert_eq!(s.max_net_size, 3);
        assert!((s.max_weight_percent - 100.0 * 10.0 / 14.0).abs() < 1e-9);
    }

    #[test]
    fn histograms() {
        let (hg, _) = instance();
        let nh = net_size_histogram(&hg, 4);
        assert_eq!(nh[2], 2);
        assert_eq!(nh[3], 1);
        let vh = vertex_degree_histogram(&hg, 4);
        assert_eq!(vh[1], 3); // v0, v2, v3
        assert_eq!(vh[2], 2); // v1, v4
    }

    #[test]
    fn histogram_capping() {
        let (hg, _) = instance();
        let nh = net_size_histogram(&hg, 2);
        assert_eq!(nh[2], 3); // the 3-pin net is folded into the cap bucket
    }
}
