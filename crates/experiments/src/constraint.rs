//! Quantifying the "degree of constraint" of a fixed-terminals instance.
//!
//! The paper's conclusions: "it is not yet clear how to measure the
//! strength of fixed terminals [...] a bipartitioning instance with an
//! arbitrary number/percent of fixed terminals can be represented by an
//! equivalent instance with only two terminals [...] we therefore need to
//! quantify the degree of constraint in an invariant way."
//!
//! This module provides candidate metrics. The naive fixed-vertex
//! *fraction* is **not** invariant under the terminal-clustering
//! equivalence; the adjacency- and pull-based metrics are, because they
//! only look at how terminals touch the free vertices through the nets an
//! assignment can cut, which the transform keeps.

use vlsi_hypergraph::{FixedVertices, Fixity, Hypergraph};

/// Candidate constraint-strength metrics for a bipartitioning instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstraintMetrics {
    /// Fraction of vertices that are fixed (the paper's x-axis; *not*
    /// invariant under terminal clustering).
    pub fixed_fraction: f64,
    /// Fraction of *free* vertices incident to at least one net that
    /// touches a fixed vertex (invariant).
    pub terminal_adjacency: f64,
    /// Mean absolute terminal pull over the free vertices: for each free
    /// vertex, |w(nets shared with side-0 terminals) − w(nets shared with
    /// side-1 terminals)| / (total incident net weight); 0 = unbiased,
    /// 1 = every incident net is anchored to one side (invariant).
    pub mean_pull: f64,
    /// Fraction of total net weight on nets touching ≥ 1 fixed vertex
    /// (the share of the objective that terminals participate in;
    /// invariant).
    pub anchored_weight_fraction: f64,
}

/// Computes the constraint metrics of `(hg, fixed)` for a bipartitioning.
///
/// Only nets that some assignment can cut are counted: nets of two or more
/// pins whose pins are not all `Fixed` in one part. The terminal-clustering
/// transform drops the others, so counting them would make the metrics
/// depend on it. `FixedAny` vertices count as fixed for adjacency/weight
/// purposes but exert no directional pull (their side is not decided).
///
/// # Example
/// ```
/// use vlsi_hypergraph::{FixedVertices, HypergraphBuilder, PartId};
/// use vlsi_experiments::constraint::constraint_metrics;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let free = b.add_vertex(1);
/// let term = b.add_vertex(0);
/// b.add_net(1, [free, term])?;
/// let hg = b.build()?;
/// let mut fx = FixedVertices::all_free(2);
/// fx.fix(term, PartId(0));
/// let m = constraint_metrics(&hg, &fx);
/// assert_eq!(m.terminal_adjacency, 1.0);
/// assert_eq!(m.mean_pull, 1.0);
/// # Ok(())
/// # }
/// ```
pub fn constraint_metrics(hg: &Hypergraph, fixed: &FixedVertices) -> ConstraintMetrics {
    let n = hg.num_vertices();
    if n == 0 {
        return ConstraintMetrics {
            fixed_fraction: 0.0,
            terminal_adjacency: 0.0,
            mean_pull: 0.0,
            anchored_weight_fraction: 0.0,
        };
    }
    let is_fixed = |v: vlsi_hypergraph::VertexId| fixed.fixity(v).is_fixed();
    let side_of = |v: vlsi_hypergraph::VertexId| match fixed.fixity(v) {
        Fixity::Fixed(p) => Some(p),
        _ => None,
    };

    // Per counted net: does it touch a terminal, and of which sides?
    let mut counted = vec![false; hg.num_nets()];
    let mut net_touches = vec![false; hg.num_nets()];
    let mut net_side: Vec<[bool; 2]> = vec![[false; 2]; hg.num_nets()];
    let mut anchored_weight = 0u64;
    let mut total_weight = 0u64;
    for net in hg.nets() {
        let pins = hg.net_pins(net);
        let cuttable = pins.len() >= 2
            && match fixed.fixity(pins[0]) {
                Fixity::Fixed(p) => pins.iter().any(|&u| fixed.fixity(u) != Fixity::Fixed(p)),
                _ => true,
            };
        if !cuttable {
            continue;
        }
        counted[net.index()] = true;
        total_weight += hg.net_weight(net);
        for &p in pins {
            if is_fixed(p) {
                net_touches[net.index()] = true;
            }
            if let Some(side) = side_of(p) {
                if side.index() < 2 {
                    net_side[net.index()][side.index()] = true;
                }
            }
        }
        if net_touches[net.index()] {
            anchored_weight += hg.net_weight(net);
        }
    }

    let mut num_free = 0usize;
    let mut adjacent = 0usize;
    let mut pull_sum = 0.0;
    for v in hg.vertices() {
        if is_fixed(v) {
            continue;
        }
        num_free += 1;
        let mut incident = 0u64;
        let mut pull0 = 0u64;
        let mut pull1 = 0u64;
        let mut touches = false;
        for &net in hg.vertex_nets(v).iter().filter(|n| counted[n.index()]) {
            let w = hg.net_weight(net);
            incident += w;
            if net_touches[net.index()] {
                touches = true;
            }
            // A net anchored to both sides pulls in neither direction.
            match (net_side[net.index()][0], net_side[net.index()][1]) {
                (true, false) => pull0 += w,
                (false, true) => pull1 += w,
                _ => {}
            }
        }
        if touches {
            adjacent += 1;
        }
        if incident > 0 {
            pull_sum += pull0.abs_diff(pull1) as f64 / incident as f64;
        }
    }

    ConstraintMetrics {
        fixed_fraction: fixed.num_fixed() as f64 / n as f64,
        terminal_adjacency: if num_free > 0 {
            adjacent as f64 / num_free as f64
        } else {
            1.0
        },
        mean_pull: if num_free > 0 {
            pull_sum / num_free as f64
        } else {
            1.0
        },
        anchored_weight_fraction: if total_weight > 0 {
            anchored_weight as f64 / total_weight as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{HypergraphBuilder, PartId, VertexId};
    use vlsi_partition::multilevel::cluster_terminals;
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

    use crate::regimes::{FixSchedule, Regime};

    fn fixture() -> (Hypergraph, FixedVertices) {
        // 6 free vertices in a chain plus 4 terminals (2 per side) attached
        // to the chain ends, a one-pin net on a chain end and a net between
        // the two side-0 terminals: neither can be cut, so neither counts.
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
        let t: Vec<_> = (0..4).map(|_| b.add_vertex(0)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        b.add_net(1, [t[0], v[0]]).unwrap();
        b.add_net(1, [t[1], v[0]]).unwrap();
        b.add_net(1, [t[2], v[5]]).unwrap();
        b.add_net(1, [t[3], v[5]]).unwrap();
        b.add_net(1, [v[0]]).unwrap();
        b.add_net(1, [t[0], t[1]]).unwrap();
        let hg = b.build().unwrap();
        let mut fx = FixedVertices::all_free(10);
        fx.fix(VertexId(6), PartId(0));
        fx.fix(VertexId(7), PartId(0));
        fx.fix(VertexId(8), PartId(1));
        fx.fix(VertexId(9), PartId(1));
        (hg, fx)
    }

    #[test]
    fn metrics_on_fixture() {
        let (hg, fx) = fixture();
        let m = constraint_metrics(&hg, &fx);
        assert!((m.fixed_fraction - 0.4).abs() < 1e-12);
        // Only the two chain ends touch terminals.
        assert!((m.terminal_adjacency - 2.0 / 6.0).abs() < 1e-12);
        // v0: pull = 2 (both nets to side-0 terminals) / 3 incident.
        assert!(m.mean_pull > 0.2 && m.mean_pull < 0.3);
        assert!((m.anchored_weight_fraction - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn adjacency_and_pull_invariant_under_terminal_clustering() {
        let (hg, fx) = fixture();
        let before = constraint_metrics(&hg, &fx);
        let clustered = cluster_terminals(&hg, &fx);
        let after = constraint_metrics(&clustered.hg, &clustered.fixed);
        // The paper's point: the naive fraction changes wildly...
        assert!(after.fixed_fraction < before.fixed_fraction);
        // ...while the structural metrics are invariant.
        assert_eq!(after.terminal_adjacency, before.terminal_adjacency);
        assert_eq!(after.mean_pull, before.mean_pull);
        assert_eq!(
            after.anchored_weight_fraction,
            before.anchored_weight_fraction
        );
    }

    #[test]
    fn pull_vanishes_when_terminals_balance() {
        // One free vertex tied equally to both sides: zero net pull.
        let mut b = HypergraphBuilder::new();
        let free = b.add_vertex(1);
        let t0 = b.add_vertex(0);
        let t1 = b.add_vertex(0);
        b.add_net(1, [free, t0]).unwrap();
        b.add_net(1, [free, t1]).unwrap();
        let hg = b.build().unwrap();
        let mut fx = FixedVertices::all_free(3);
        fx.fix(t0, PartId(0));
        fx.fix(t1, PartId(1));
        let m = constraint_metrics(&hg, &fx);
        assert_eq!(m.mean_pull, 0.0);
        assert_eq!(m.terminal_adjacency, 1.0);
    }

    #[test]
    fn metrics_grow_with_fixed_percentage() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..100).map(|_| b.add_vertex(1)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        let hg = b.build().unwrap();
        let good: Vec<PartId> = (0..100).map(|i| PartId((i >= 50) as u32)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sched = FixSchedule::new(&hg, Regime::Good, &good, &mut rng);
        let m10 = constraint_metrics(&hg, &sched.at_percent(10.0));
        let m50 = constraint_metrics(&hg, &sched.at_percent(50.0));
        assert!(m50.terminal_adjacency > m10.terminal_adjacency);
        assert!(m50.mean_pull > m10.mean_pull);
        assert!(m50.anchored_weight_fraction > m10.anchored_weight_fraction);
    }

    #[test]
    fn empty_instance() {
        let hg = HypergraphBuilder::new().build().unwrap();
        let m = constraint_metrics(&hg, &FixedVertices::all_free(0));
        assert_eq!(m.fixed_fraction, 0.0);
    }
}
