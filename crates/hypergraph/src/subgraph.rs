//! The block-instance builder: the sub-hypergraph induced by a block of
//! cells, with the outside vertices on the block's nets as fixed terminals.
//!
//! Top-down placement, Table IV's benchmark derivation, recursive
//! bisection and the Rent extraction all build their instances here.

use crate::{FixedVertices, Fixity, Hypergraph, NetId, PartId, VertexId};

/// Marks a pin of a dropped outside vertex.
const DROP: u32 = u32::MAX;

/// A block instance together with the vertex correspondence.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The extracted hypergraph: the block's cells first, then its
    /// zero-weight terminals.
    pub hg: Hypergraph,
    /// Fixities: cells free, each terminal fixed in its side.
    pub fixed: FixedVertices,
    /// `to_parent[sub_vertex] = parent_vertex`.
    pub to_parent: Vec<VertexId>,
}

/// Extracts the instance induced by the block `cells`.
///
/// The cells become sub-vertices `0..cells.len()` with all of their
/// resource weights. Every outside vertex `v` on one of the block's nets
/// becomes one zero-weight terminal fixed in `terminal(v)`, numbered by
/// first appearance (nets in parent order, pins in net order); if
/// `terminal(v)` is `None` its pins are dropped. Nets keep their parent
/// order and are dropped below two pins.
///
/// The block's nets are gathered through the cells' own pins, so the cost
/// scales with the block, not with the netlist.
///
/// # Panics
/// Panics if `cells` is not strictly ascending.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{induced_subgraph, HypergraphBuilder, PartId, VertexId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
/// b.add_net(1, [v[0], v[1], v[2]])?;
/// b.add_net(1, [v[2], v[3]])?;
/// let hg = b.build()?;
/// // v3 becomes a terminal fixed in part 1.
/// let sub = induced_subgraph(&hg, &v[..3], |_| Some(PartId(1)));
/// assert_eq!(sub.to_parent, v);
/// assert!(sub.fixed.fixity(VertexId(3)).is_fixed());
/// // Without terminals the 2-pin net keeps one pin and is dropped.
/// let sub = induced_subgraph(&hg, &v[..3], |_| None);
/// assert_eq!(sub.hg.num_nets(), 1);
/// # Ok(())
/// # }
/// ```
pub fn induced_subgraph<F>(hg: &Hypergraph, cells: &[VertexId], mut terminal: F) -> Subgraph
where
    F: FnMut(VertexId) -> Option<PartId>,
{
    assert!(
        cells.windows(2).all(|w| w[0] < w[1]),
        "cells must be strictly ascending"
    );
    // The block's pins as (net, cell index), grouped by net in parent order.
    let mut block_pins: Vec<(NetId, u32)> = cells
        .iter()
        .zip(0..)
        .flat_map(|(&v, i)| hg.vertex_nets(v).iter().map(move |&n| (n, i)))
        .collect();
    block_pins.sort_unstable();

    // Every pin of those nets, in order: its cell's index, or DROP for an
    // outside vertex, listed in `outside` with the pin's position. A pin is
    // a cell exactly when it is one of its net's block pins.
    let mut nets = Vec::new();
    let mut pins = Vec::new();
    let mut outside: Vec<(VertexId, u32)> = Vec::new();
    for in_block in block_pins.chunk_by(|a, b| a.0 == b.0) {
        let n = in_block[0].0;
        nets.push(n);
        for &p in hg.net_pins(n) {
            pins.push(
                match in_block.binary_search_by_key(&p, |&(_, i)| cells[i as usize]) {
                    Ok(k) => in_block[k].1,
                    Err(_) => {
                        outside.push((p, pins.len() as u32));
                        DROP
                    }
                },
            );
        }
    }

    // One terminal per outside vertex, numbered by its first pin.
    let mut ids: Vec<(VertexId, Option<u32>)> = outside.iter().map(|&(v, _)| (v, None)).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut to_parent = cells.to_vec();
    let mut fixities = vec![Fixity::Free; cells.len()];
    for &(v, pin) in &outside {
        let k = ids.partition_point(|&(u, _)| u < v);
        pins[pin as usize] = *ids[k].1.get_or_insert_with(|| {
            terminal(v).map_or(DROP, |side| {
                fixities.push(Fixity::Fixed(side));
                to_parent.push(v);
                (to_parent.len() - 1) as u32
            })
        });
    }

    let nr = hg.num_resources();
    let mut weights = Vec::with_capacity(to_parent.len() * nr);
    let mut total_weights = vec![0u64; nr];
    for &v in cells {
        weights.extend_from_slice(hg.vertex_weights(v));
        for (t, &w) in total_weights.iter_mut().zip(hg.vertex_weights(v)) {
            *t += w;
        }
    }
    weights.resize(to_parent.len() * nr, 0);
    let mut net_weights = Vec::new();
    let mut net_offsets = vec![0u32];
    let mut net_pins = Vec::new();
    let mut rest = &pins[..];
    for &n in &nets {
        let (net, tail) = rest.split_at(hg.net_size(n));
        rest = tail;
        let start = net_pins.len();
        net_pins.extend(net.iter().filter(|&&s| s != DROP).map(|&s| VertexId(s)));
        if net_pins.len() - start >= 2 {
            net_weights.push(hg.net_weight(n));
            net_offsets.push(net_pins.len() as u32);
        } else {
            net_pins.truncate(start);
        }
    }
    Subgraph {
        hg: Hypergraph::from_parts(
            weights,
            total_weights,
            None,
            net_weights,
            net_offsets,
            net_pins,
        ),
        fixed: FixedVertices::from_fixities(fixities),
        to_parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::with_resources(2);
        let v: Vec<_> = (0..5)
            .map(|i| b.add_vertex_multi(&[i + 1, 10 * i]).unwrap())
            .collect();
        b.add_net(2, [v[0], v[1], v[2]]).unwrap();
        b.add_net(1, [v[2], v[3]]).unwrap();
        b.add_net(1, [v[3], v[4]]).unwrap();
        b.build().unwrap()
    }

    fn ids(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    #[test]
    fn cells_keep_every_resource_and_terminals_weigh_nothing() {
        let hg = sample();
        let sub = induced_subgraph(&hg, &ids(&[0, 2, 4]), |v| Some(PartId(v.0 % 2)));
        // v1 (net 0) then v3 (net 1) become terminals, in that order.
        assert_eq!(sub.to_parent, ids(&[0, 2, 4, 1, 3]));
        for (sv, &pv) in sub.to_parent.iter().enumerate().take(3) {
            assert_eq!(
                sub.hg.vertex_weights(VertexId(sv as u32)),
                hg.vertex_weights(pv)
            );
        }
        assert_eq!(sub.hg.vertex_weights(VertexId(3)), &[0, 0]);
        assert_eq!(sub.hg.total_weights(), &[1 + 3 + 5, 20 + 40]);
        assert_eq!(sub.fixed.num_fixed(), 2);
        assert_eq!(sub.fixed.fixity(VertexId(3)), Fixity::Fixed(PartId(1)));
        assert_eq!(sub.fixed.fixity(VertexId(4)), Fixity::Fixed(PartId(1)));
        assert_eq!(sub.hg.num_nets(), 3);
        assert_eq!(sub.hg.net_pins(NetId(0)), &ids(&[0, 3, 1])[..]);
    }

    #[test]
    fn nets_restricted_and_filtered_without_terminals() {
        let hg = sample();
        let sub = induced_subgraph(&hg, &ids(&[0, 1, 2]), |_| None);
        // net0 keeps 3 pins, net1 drops to 1 pin (filtered), net2 to 0.
        assert_eq!(sub.hg.num_nets(), 1);
        assert_eq!(sub.hg.net_size(NetId(0)), 3);
        assert_eq!(sub.hg.net_weight(NetId(0)), 2);
        assert_eq!(sub.fixed.num_fixed(), 0);
    }

    #[test]
    fn empty_block() {
        let hg = sample();
        let sub = induced_subgraph(&hg, &[], |_| Some(PartId(0)));
        assert_eq!(sub.hg.num_vertices(), 0);
        assert_eq!(sub.hg.num_nets(), 0);
        assert_eq!(sub.hg.num_resources(), 2);
    }
}
