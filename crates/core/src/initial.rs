//! Random legal initial solutions respecting fixed vertices and balance.

use vlsi_rng::seq::SliceRandom;
use vlsi_rng::Rng;

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Fixity, Hypergraph, PartId, VertexId};

use crate::PartitionError;

/// Number of reshuffles attempted before declaring the instance infeasible.
const MAX_ATTEMPTS: usize = 25;

/// Generates a random partition assignment that honours every fixity and
/// satisfies the balance constraint.
///
/// Fixed vertices are placed first (a `FixedAny` vertex goes to the allowed
/// partition with the most remaining capacity); free vertices are then
/// assigned in random order, each to a random partition among those still
/// below the even-split target (falling back to any partition with room).
/// The shuffle is retried a bounded number of times if the result violates
/// partition minima.
///
/// # Errors
/// Returns [`PartitionError::InfeasibleInstance`] if a vertex cannot be
/// placed or no balanced assignment is found after the retries, and
/// [`PartitionError::Balance`] if the constraint cannot hold the total
/// weight at all.
///
/// # Example
/// ```
/// use vlsi_rng::SeedableRng;
/// use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
/// use vlsi_partition::random_initial;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// for _ in 0..10 {
///     b.add_vertex(1);
/// }
/// let hg = b.build()?;
/// let bc = BalanceConstraint::bisection(10, Tolerance::Relative(0.0));
/// let fx = FixedVertices::all_free(10);
/// let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(7);
/// let parts = random_initial(&hg, &fx, &bc, 2, &mut rng)?;
/// let ones = parts.iter().filter(|p| p.0 == 1).count();
/// assert_eq!(ones, 5);
/// # Ok(())
/// # }
/// ```
pub fn random_initial<R: Rng + ?Sized>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    num_parts: usize,
    rng: &mut R,
) -> Result<Vec<PartId>, PartitionError> {
    balance.check_feasible(hg.total_weights())?;
    let nr = hg.num_resources();

    let mut free: Vec<VertexId> = Vec::new();
    let mut assignment = vec![PartId(0); hg.num_vertices()];
    let mut base_loads = vec![0u64; num_parts * nr];

    // Phase 1: place fixed vertices (identical on every attempt except for
    // FixedAny choices, which are deterministic greedy here).
    for v in hg.vertices() {
        match fixed.fixity(v) {
            Fixity::Free => free.push(v),
            Fixity::Fixed(p) => {
                if p.index() >= num_parts {
                    return Err(PartitionError::InfeasibleInstance {
                        vertex: Some(v),
                        detail: format!("fixed in {p} but only {num_parts} partitions exist"),
                    });
                }
                add_load(&mut base_loads, nr, p, hg.vertex_weights(v));
                assignment[v.index()] = p;
            }
            Fixity::FixedAny(set) => {
                // Most remaining primary capacity among the allowed parts.
                let p = set
                    .iter()
                    .filter(|p| p.index() < num_parts)
                    .max_by_key(|&p| balance.max(p, 0).saturating_sub(base_loads[p.index() * nr]))
                    .ok_or_else(|| PartitionError::InfeasibleInstance {
                        vertex: Some(v),
                        detail: "no allowed partition within range".to_string(),
                    })?;
                add_load(&mut base_loads, nr, p, hg.vertex_weights(v));
                assignment[v.index()] = p;
            }
        }
    }
    for p in 0..num_parts {
        let part = PartId::from_index(p);
        for r in 0..nr {
            if base_loads[p * nr + r] > balance.max(part, r) {
                return Err(PartitionError::InfeasibleInstance {
                    vertex: None,
                    detail: format!(
                        "fixed vertices alone exceed capacity of {part} for resource {r}"
                    ),
                });
            }
        }
    }

    // Phase 2: place free vertices, heaviest bias via target fill.
    let targets: Vec<u64> = (0..num_parts * nr)
        .map(|i| hg.total_weights()[i % nr] / num_parts as u64)
        .collect();
    for _attempt in 0..MAX_ATTEMPTS {
        let mut loads = base_loads.clone();
        free.shuffle(rng);
        let mut ok = true;
        for &v in &free {
            let ws = hg.vertex_weights(v);
            let below_target: Vec<usize> = (0..num_parts)
                .filter(|&p| {
                    (0..nr).all(|r| {
                        loads[p * nr + r] + ws[r] <= balance.max(PartId::from_index(p), r)
                            && loads[p * nr + r] < targets[p * nr + r].max(1)
                    })
                })
                .collect();
            let candidates: Vec<usize> = if below_target.is_empty() {
                (0..num_parts)
                    .filter(|&p| {
                        (0..nr).all(|r| {
                            loads[p * nr + r] + ws[r] <= balance.max(PartId::from_index(p), r)
                        })
                    })
                    .collect()
            } else {
                below_target
            };
            let Some(&p) = candidates.as_slice().choose(rng) else {
                ok = false;
                break;
            };
            let part = PartId::from_index(p);
            add_load(&mut loads, nr, part, ws);
            assignment[v.index()] = part;
        }
        if ok && balance.is_satisfied(&loads) {
            return Ok(assignment);
        }
    }
    Err(PartitionError::InfeasibleInstance {
        vertex: None,
        detail: format!("no balanced random assignment found in {MAX_ATTEMPTS} attempts"),
    })
}

#[inline]
fn add_load(loads: &mut [u64], nr: usize, part: PartId, weights: &[u64]) {
    let base = part.index() * nr;
    for (r, &w) in weights.iter().enumerate() {
        loads[base + r] += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{HypergraphBuilder, PartSet, Tolerance};
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

    fn unit_graph(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(1);
        }
        b.build().unwrap()
    }

    #[test]
    fn exact_bisection_of_units() {
        let hg = unit_graph(20);
        let bc = BalanceConstraint::bisection(20, Tolerance::Relative(0.0));
        let fx = FixedVertices::all_free(20);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let parts = random_initial(&hg, &fx, &bc, 2, &mut rng).unwrap();
        assert_eq!(parts.iter().filter(|p| p.0 == 0).count(), 10);
    }

    #[test]
    fn fixed_vertices_respected() {
        let hg = unit_graph(10);
        let bc = BalanceConstraint::bisection(10, Tolerance::Relative(0.2));
        let mut fx = FixedVertices::all_free(10);
        for i in 0..4 {
            fx.fix(VertexId(i), PartId(1));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let parts = random_initial(&hg, &fx, &bc, 2, &mut rng).unwrap();
        for i in 0..4 {
            assert_eq!(parts[i as usize], PartId(1));
        }
    }

    #[test]
    fn fixed_any_goes_to_allowed_part() {
        let hg = unit_graph(8);
        let bc = BalanceConstraint::even(4, &[8], Tolerance::Relative(1.0));
        let mut fx = FixedVertices::all_free(8);
        let allowed: PartSet = [PartId(2), PartId(3)].into_iter().collect();
        fx.fix_any(VertexId(0), allowed);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let parts = random_initial(&hg, &fx, &bc, 4, &mut rng).unwrap();
        assert!(allowed.contains(parts[0]));
    }

    #[test]
    fn fixed_out_of_range_rejected() {
        let hg = unit_graph(4);
        let bc = BalanceConstraint::bisection(4, Tolerance::Relative(0.5));
        let mut fx = FixedVertices::all_free(4);
        fx.fix(VertexId(0), PartId(5));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let err = random_initial(&hg, &fx, &bc, 2, &mut rng).unwrap_err();
        assert!(matches!(err, PartitionError::InfeasibleInstance { .. }));
    }

    #[test]
    fn overfull_fixed_side_rejected() {
        let mut b = HypergraphBuilder::new();
        for _ in 0..4 {
            b.add_vertex(10);
        }
        let hg = b.build().unwrap();
        let bc = BalanceConstraint::bisection(40, Tolerance::Relative(0.0));
        let mut fx = FixedVertices::all_free(4);
        for i in 0..3 {
            fx.fix(VertexId(i), PartId(0)); // 30 > max 20
        }
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(random_initial(&hg, &fx, &bc, 2, &mut rng).is_err());
    }

    #[test]
    fn infeasible_total_rejected() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(100);
        let hg = b.build().unwrap();
        let bc =
            vlsi_hypergraph::BalanceConstraint::explicit(2, 1, vec![0, 0], vec![10, 10]).unwrap();
        let fx = FixedVertices::all_free(1);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let err = random_initial(&hg, &fx, &bc, 2, &mut rng).unwrap_err();
        assert!(matches!(err, PartitionError::Balance(_)));
    }

    #[test]
    fn heavy_cell_instances_still_balance() {
        // One cell of weight 10 among 30 unit cells: 2% tolerance around 20.
        let mut b = HypergraphBuilder::new();
        b.add_vertex(10);
        for _ in 0..30 {
            b.add_vertex(1);
        }
        let hg = b.build().unwrap();
        let bc = BalanceConstraint::bisection(40, Tolerance::Relative(0.05));
        let fx = FixedVertices::all_free(31);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let parts = random_initial(&hg, &fx, &bc, 2, &mut rng).unwrap();
        let w0: u64 = hg
            .vertices()
            .filter(|v| parts[v.index()] == PartId(0))
            .map(|v| hg.vertex_weight(v))
            .sum();
        assert!(w0 >= bc.min(PartId(0), 0) && w0 <= bc.max(PartId(0), 0));
    }

    #[test]
    fn different_seeds_differ() {
        let hg = unit_graph(30);
        let bc = BalanceConstraint::bisection(30, Tolerance::Relative(0.1));
        let fx = FixedVertices::all_free(30);
        let a = random_initial(&hg, &fx, &bc, 2, &mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        let b2 = random_initial(&hg, &fx, &bc, 2, &mut ChaCha8Rng::seed_from_u64(2)).unwrap();
        assert_ne!(a, b2);
    }
}
