//! Warm-started refinement: seed k-way FM from an existing partition.
//!
//! The paper's central empirical finding is that instances with a
//! substantial fixed fraction converge in one or two multistarts —
//! constrained runs are *cheap*. A serving layer exploits that by keeping
//! completed solutions around and, when a client submits a slightly
//! changed instance, refining the old assignment instead of partitioning
//! from scratch. This module is that entry point:
//! [`refine_from_partition_ctx`] takes a seed assignment (typically a
//! cached solution for a nearby instance), **re-legalizes** it against the
//! current fixity table and balance constraint, and then runs the k-way FM
//! refinement loop from the legalized seed.
//!
//! Legalization is deterministic and purely structural — no RNG is drawn —
//! so a warm run's result depends only on `(instance, seed assignment,
//! objective, max_passes)`:
//!
//! 1. Every vertex whose seed part is out of range or forbidden by its
//!    fixity is relocated to its fixed part (or the lowest-indexed allowed
//!    part).
//! 2. While a part is over its balance ceiling, the lightest movable
//!    vertex in it (ties: lowest id) moves to the allowed part with the
//!    most headroom (ties: lowest index). Underfull parts are filled the
//!    same way, from the part with the most surplus.
//!
//! The repair is the crate's one legalization routine: the k-way engines
//! run it on their even-split solves too (direct k-way at every level
//! until the assignment is legal, recursive bisection under per-part
//! capacity vectors).
//!
//! One [`Event::WarmStart`] is emitted after legalization with the
//! reused/relocated split and the seed objective value, then refinement
//! proceeds exactly as [`KwayRefiner`](crate::KwayRefiner) would, on the
//! calling thread at every budget.

use vlsi_rng::Rng;
use vlsi_trace::{Event, Sink};

use vlsi_hypergraph::{
    BalanceConstraint, CutState, FixedVertices, Fixity, Hypergraph, Objective, PartId,
    Partitioning, VertexId,
};

use crate::engine::RunCtx;
use crate::kway;
use crate::{PartitionError, PartitionResult};

/// Result of a warm-started refinement run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStartOutcome {
    /// The refined partition and its objective value.
    pub result: PartitionResult,
    /// Vertices the legalization stage had to relocate before refinement
    /// (0 when the seed was already legal for the current instance).
    pub relocated: usize,
}

fn infeasible(detail: String) -> PartitionError {
    PartitionError::InfeasibleInstance {
        vertex: None,
        detail,
    }
}

/// The lowest-indexed part `fx` allows below `k`, if any.
fn lowest_allowed(fx: Fixity, k: usize) -> Option<PartId> {
    (0..k).map(PartId::from_index).find(|&p| fx.allows(p))
}

/// Stage 1: clamp the seed onto the current fixity table and part count.
/// Returns the clamped assignment and how many vertices moved.
fn clamp_to_fixity(
    seed: &[PartId],
    fixed: &FixedVertices,
    k: usize,
) -> Result<(Vec<PartId>, usize), PartitionError> {
    let mut parts = Vec::with_capacity(seed.len());
    let mut relocated = 0usize;
    for (i, &p) in seed.iter().enumerate() {
        let v = VertexId::from_index(i);
        let fx = if i < fixed.len() {
            fixed.fixity(v)
        } else {
            Fixity::Free
        };
        let in_range = p.index() < k;
        if in_range && fx.allows(p) {
            parts.push(p);
            continue;
        }
        let target = lowest_allowed(fx, k)
            .ok_or_else(|| infeasible(format!("vertex {i}: fixity allows no part below {k}")))?;
        parts.push(target);
        relocated += 1;
    }
    Ok((parts, relocated))
}

/// Per-resource headroom of `part`: the minimum of `max - load` over all
/// resources (0 when any resource is at or over its ceiling).
fn headroom(pt: &Partitioning, balance: &BalanceConstraint, part: PartId, resources: usize) -> u64 {
    (0..resources)
        .map(|r| balance.max(part, r).saturating_sub(pt.load(part, r)))
        .min()
        .unwrap_or(0)
}

/// Whether moving a vertex with `weights` into `part` keeps every resource
/// at or under its ceiling.
fn fits_after_add(
    pt: &Partitioning,
    balance: &BalanceConstraint,
    part: PartId,
    weights: &[u64],
    resources: usize,
) -> bool {
    (0..resources)
        .all(|r| pt.load(part, r) + weights.get(r).copied().unwrap_or(0) <= balance.max(part, r))
}

/// Repairs an arbitrary assignment toward legality (fixity, then balance)
/// without refining: the warm start's pre-step, and the k-way engines'
/// repair of their even-split solves. Deterministic, no RNG. Returns the
/// repaired assignment, the number of vertices relocated, and whether the
/// assignment is now legal.
///
/// A balance repair can get stuck: on a coarse level, cluster granularity
/// can make a tight constraint unreachable by single-vertex moves even
/// though the fine instance is feasible. Then the partially repaired
/// assignment comes back with `false`; callers that need a legal answer
/// turn that into [`stuck_error`].
///
/// # Errors
/// [`PartitionError::InfeasibleInstance`] when a fixity allows no part
/// below `k`, and [`PartitionError::Input`] when `seed` does not fit `hg`.
pub(crate) fn legalize_assignment(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    seed: &[PartId],
) -> Result<(Vec<PartId>, usize, bool), PartitionError> {
    let k = balance.num_parts();
    let (clamped, mut relocated) = clamp_to_fixity(seed, fixed, k)?;
    let mut pt = Partitioning::from_parts(hg, k, clamped)?;
    let (moves, legal) = legalize_balance(hg, fixed, balance, &mut pt)?;
    relocated += moves;
    Ok((pt.into_parts(), relocated, legal))
}

/// The error for an assignment [`legalize_assignment`] could not make
/// legal: per-part per-resource loads, the weight fixed into each part, and
/// the constraint's maxima.
pub(crate) fn stuck_error(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    parts: &[PartId],
) -> PartitionError {
    let k = balance.num_parts();
    let resources = hg.num_resources().min(balance.num_resources());
    let mut loads = vec![vec![0u64; resources]; k];
    let mut fixed_weight = vec![vec![0u64; resources]; k];
    for v in hg.vertices() {
        let p = parts[v.index()].index();
        let pinned = v.index() < fixed.len() && matches!(fixed.fixity(v), Fixity::Fixed(_));
        for (r, &w) in hg.vertex_weights(v).iter().take(resources).enumerate() {
            loads[p][r] += w;
            if pinned {
                fixed_weight[p][r] += w;
            }
        }
    }
    let maxima: Vec<Vec<u64>> = (0..k)
        .map(|p| {
            (0..resources)
                .map(|r| balance.max(PartId::from_index(p), r))
                .collect()
        })
        .collect();
    infeasible(format!(
        "cannot legalize the assignment: balance repair ran out of legal single-vertex moves \
         (loads {loads:?}, fixed {fixed_weight:?}, maxima {maxima:?})"
    ))
}

/// Stage 2: greedy deterministic balance repair on a clamped assignment.
/// Returns the number of moves performed and whether the assignment ended
/// fully legal; `false` means the greedy got stuck (no movable vertex
/// fits anywhere useful) or exhausted its move budget.
fn legalize_balance(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    pt: &mut Partitioning,
) -> Result<(usize, bool), PartitionError> {
    let k = balance.num_parts();
    let resources = hg.num_resources().min(balance.num_resources());
    let movable = |v: VertexId, to: PartId| -> bool {
        let fx = if v.index() < fixed.len() {
            fixed.fixity(v)
        } else {
            Fixity::Free
        };
        fx.allows(to)
    };
    let weight_of = |v: VertexId| -> u64 { hg.vertex_weights(v).iter().sum() };

    let mut moves = 0usize;
    let budget = 4 * hg.num_vertices() + 16;
    for _ in 0..budget {
        // The worst overfull (part, excess) pair, then the worst underfull.
        let overfull = (0..k)
            .map(PartId::from_index)
            .filter_map(|p| {
                let excess: u64 = (0..resources)
                    .map(|r| pt.load(p, r).saturating_sub(balance.max(p, r)))
                    .max()
                    .unwrap_or(0);
                (excess > 0).then_some((p, excess))
            })
            .max_by_key(|&(p, e)| (e, std::cmp::Reverse(p.index())));
        if let Some((from, _)) = overfull {
            // Lightest movable vertex out of `from` (ties: lowest id) into
            // the allowed part with the most headroom that stays legal.
            let mut best: Option<(u64, usize, PartId)> = None;
            for v in hg.vertices().filter(|&v| pt.part_of(v) == from) {
                let w = hg.vertex_weights(v);
                let candidate = (0..k)
                    .map(PartId::from_index)
                    .filter(|&q| q != from && movable(v, q))
                    .filter(|&q| fits_after_add(pt, balance, q, w, resources))
                    .max_by_key(|&q| {
                        (
                            headroom(pt, balance, q, resources),
                            std::cmp::Reverse(q.index()),
                        )
                    });
                if let Some(q) = candidate {
                    let key = (weight_of(v), v.index(), q);
                    if best.is_none_or(|(bw, bi, _)| (key.0, key.1) < (bw, bi)) {
                        best = Some(key);
                    }
                }
            }
            // Fallback when no clean fit exists: accept any move that
            // strictly shrinks the *total* violation, even into a part
            // that is itself tight on another resource (e.g. a zero-area
            // pad entering an area-violated part to relieve a cell-count
            // ceiling elsewhere). Total violation is a non-negative
            // integer that each such move strictly decreases, so this
            // cannot cycle. Tried only after the clean-fit rule so that
            // every historically repairable seed follows the old moves.
            let best = best.or_else(|| {
                let mut fallback: Option<(i64, u64, usize, PartId)> = None;
                for v in hg.vertices() {
                    let from = pt.part_of(v);
                    let from_excess: u64 = (0..resources)
                        .map(|r| pt.load(from, r).saturating_sub(balance.max(from, r)))
                        .sum();
                    if from_excess == 0 {
                        continue;
                    }
                    let w = hg.vertex_weights(v);
                    for q in (0..k).map(PartId::from_index) {
                        if q == from || !movable(v, q) {
                            continue;
                        }
                        let delta: i64 = (0..resources)
                            .map(|r| {
                                let wr = w.get(r).copied().unwrap_or(0);
                                let max_f = balance.max(from, r);
                                let max_q = balance.max(q, r);
                                let f0 = pt.load(from, r).saturating_sub(max_f) as i64;
                                let f1 = pt.load(from, r).saturating_sub(wr).saturating_sub(max_f)
                                    as i64;
                                let q0 = pt.load(q, r).saturating_sub(max_q) as i64;
                                let q1 = (pt.load(q, r) + wr).saturating_sub(max_q) as i64;
                                (f1 - f0) + (q1 - q0)
                            })
                            .sum();
                        if delta >= 0 {
                            continue;
                        }
                        let key = (delta, weight_of(v), v.index(), q);
                        let better = fallback.is_none_or(|(bd, bw, bi, bq)| {
                            (key.0, key.1, key.2, key.3.index()) < (bd, bw, bi, bq.index())
                        });
                        if better {
                            fallback = Some(key);
                        }
                    }
                }
                fallback.map(|(_, w, vi, q)| (w, vi, q))
            });
            let Some((_, vi, to)) = best else {
                return Ok((moves, false)); // stuck: no move shrinks any violation
            };
            pt.move_vertex(hg, VertexId::from_index(vi), to);
            moves += 1;
            continue;
        }
        let underfull = (0..k)
            .map(PartId::from_index)
            .filter_map(|p| {
                let deficit: u64 = (0..resources)
                    .map(|r| balance.min(p, r).saturating_sub(pt.load(p, r)))
                    .max()
                    .unwrap_or(0);
                (deficit > 0).then_some((p, deficit))
            })
            .max_by_key(|&(p, d)| (d, std::cmp::Reverse(p.index())));
        let Some((to, _)) = underfull else {
            return Ok((moves, true)); // fully legal
        };
        // Pull the lightest movable vertex into `to` from the donor part
        // with the most surplus over its own floor.
        let mut best: Option<(u64, u64, usize)> = None; // (donor surplus desc via max_by, weight, id)
        for v in hg.vertices() {
            let from = pt.part_of(v);
            if from == to || !movable(v, to) {
                continue;
            }
            let w = hg.vertex_weights(v);
            // The donor must stay at or above its floor, and `to` at or
            // under its ceiling.
            let donor_ok = (0..resources).all(|r| {
                pt.load(from, r)
                    .saturating_sub(w.get(r).copied().unwrap_or(0))
                    >= balance.min(from, r)
            });
            if !donor_ok || !fits_after_add(pt, balance, to, w, resources) {
                continue;
            }
            let surplus: u64 = (0..resources)
                .map(|r| pt.load(from, r).saturating_sub(balance.min(from, r)))
                .min()
                .unwrap_or(0);
            let key = (surplus, weight_of(v), v.index());
            let better = match best {
                None => true,
                Some((bs, bw, bi)) => {
                    (std::cmp::Reverse(key.0), key.1, key.2) < (std::cmp::Reverse(bs), bw, bi)
                }
            };
            if better {
                best = Some(key);
            }
        }
        let Some((_, _, vi)) = best else {
            return Ok((moves, false)); // stuck: no vertex can be pulled over the floor
        };
        pt.move_vertex(hg, VertexId::from_index(vi), to);
        moves += 1;
    }
    Ok((moves, false)) // budget exhausted without reaching full legality
}

/// Seeds k-way FM refinement from an existing assignment, re-legalizing
/// fixity and balance first.
///
/// This is the engine behind the service's incremental (warm-start) API:
/// instead of partitioning from scratch, the cached assignment for a
/// nearby instance is repaired and refined for up to `max_passes` k-way FM
/// passes. The passes are [`KwayRefiner`](crate::KwayRefiner)'s, chosen
/// from the instance, and the [`RunCtx`] thread budget plays no part. No
/// randomness is drawn; the RNG in the context exists only for [`RunCtx`]
/// API uniformity.
///
/// Emits one [`Event::WarmStart`] (reused/relocated split and the
/// legalized seed value) before the refinement passes.
///
/// # Errors
///
/// * [`PartitionError::Input`] when `seed` has the wrong length.
/// * [`PartitionError::InfeasibleInstance`] when no legal repair exists
///   (e.g. a fixity allows no part below `k`, or the balance constraint
///   cannot be reached by single-vertex moves).
///
/// # Example
///
/// ```
/// use vlsi_rng::SeedableRng;
/// use vlsi_hypergraph::{
///     BalanceConstraint, FixedVertices, HypergraphBuilder, Objective, PartId, Tolerance,
/// };
/// use vlsi_partition::{refine_from_partition_ctx, RunCtx};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..8).map(|_| b.add_vertex(1)).collect();
/// for w in v.windows(2) {
///     b.add_net(1, [w[0], w[1]])?;
/// }
/// let hg = b.build()?;
/// let balance = BalanceConstraint::even(2, hg.total_weights(), Tolerance::Relative(0.1));
/// let fixed = FixedVertices::all_free(8);
/// // A poor but legal seed: alternating parts (every net cut).
/// let seed: Vec<PartId> = (0..8).map(|i| PartId::from_index(i % 2)).collect();
/// let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(0);
/// let out = refine_from_partition_ctx(
///     &hg, &fixed, &balance, &seed, Objective::Cut, 8, RunCtx::new(&mut rng),
/// )?;
/// assert!(out.result.cut <= 7, "refinement only improves the seed");
/// # Ok(())
/// # }
/// ```
#[allow(clippy::too_many_arguments)]
pub fn refine_from_partition_ctx<R, S>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    seed: &[PartId],
    objective: Objective,
    max_passes: usize,
    ctx: RunCtx<'_, R, S>,
) -> Result<WarmStartOutcome, PartitionError>
where
    R: Rng + ?Sized,
    S: Sink,
{
    let n = hg.num_vertices();
    if seed.len() != n {
        return Err(PartitionError::Input(
            vlsi_hypergraph::PartitionInputError::LengthMismatch {
                num_vertices: n,
                assignment_len: seed.len(),
            },
        ));
    }
    let (parts, relocated, legal) = legalize_assignment(hg, fixed, balance, seed)?;
    if !legal {
        return Err(stuck_error(hg, fixed, balance, &parts));
    }

    if S::ENABLED {
        ctx.sink.record(&Event::WarmStart {
            reused: (n - relocated.min(n)) as u64,
            relocated: relocated as u64,
            value: CutState::new(hg, balance.num_parts(), &parts).value(objective),
        });
    }

    let result = kway::refine(hg, fixed, balance, parts, objective, max_passes, ctx)?;
    Ok(WarmStartOutcome { result, relocated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{validate_partitioning, HypergraphBuilder, Tolerance};
    use vlsi_rng::{ChaCha8Rng, SeedableRng};
    use vlsi_trace::VecSink;

    /// A chain of `n` unit vertices.
    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        b.build().unwrap()
    }

    fn even(hg: &Hypergraph, k: usize, tol: f64) -> BalanceConstraint {
        BalanceConstraint::even(k, hg.total_weights(), Tolerance::Relative(tol))
    }

    #[test]
    fn legal_seed_is_reused_and_refined() {
        let hg = chain(16);
        let balance = even(&hg, 2, 0.1);
        let fixed = FixedVertices::all_free(16);
        // Alternating seed: legal but maximally cut.
        let seed: Vec<PartId> = (0..16).map(|i| PartId::from_index(i % 2)).collect();
        let sink = VecSink::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let out = refine_from_partition_ctx(
            &hg,
            &fixed,
            &balance,
            &seed,
            Objective::Cut,
            8,
            RunCtx::new(&mut rng).with_sink(&sink),
        )
        .unwrap();
        assert_eq!(out.relocated, 0, "legal seed needs no repair");
        assert!(out.result.cut < 15, "refinement improved the seed");
        let events = sink.take();
        let warm: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::WarmStart { .. }))
            .collect();
        assert_eq!(warm.len(), 1);
        let Event::WarmStart {
            reused,
            relocated,
            value,
        } = warm[0]
        else {
            unreachable!()
        };
        assert_eq!((*reused, *relocated, *value), (16, 0, 15));
    }

    #[test]
    fn fixity_violations_are_repaired_before_refining() {
        let hg = chain(12);
        let balance = even(&hg, 2, 0.2);
        let mut fixed = FixedVertices::all_free(12);
        fixed.fix(VertexId::from_index(0), PartId::from_index(0));
        fixed.fix(VertexId::from_index(11), PartId::from_index(1));
        // Seed puts both fixed vertices on the wrong side.
        let seed: Vec<PartId> = (0..12)
            .map(|i| PartId::from_index(if i < 6 { 1 } else { 0 }))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = refine_from_partition_ctx(
            &hg,
            &fixed,
            &balance,
            &seed,
            Objective::Cut,
            8,
            RunCtx::new(&mut rng),
        )
        .unwrap();
        assert!(out.relocated >= 2, "both fixed vertices had to move");
        let pt = Partitioning::from_parts(&hg, 2, out.result.parts.clone()).unwrap();
        assert!(validate_partitioning(&hg, &pt, &balance, &fixed).is_valid());
        assert_eq!(pt.part_of(VertexId::from_index(0)).index(), 0);
        assert_eq!(pt.part_of(VertexId::from_index(11)).index(), 1);
    }

    #[test]
    fn unbalanced_seed_is_rebalanced() {
        let hg = chain(20);
        let balance = even(&hg, 4, 0.1);
        let fixed = FixedVertices::all_free(20);
        // Everything in part 0: wildly overfull, three parts under floor.
        let seed = vec![PartId::from_index(0); 20];
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let out = refine_from_partition_ctx(
            &hg,
            &fixed,
            &balance,
            &seed,
            Objective::Cut,
            8,
            RunCtx::new(&mut rng),
        )
        .unwrap();
        assert!(out.relocated > 0);
        let pt = Partitioning::from_parts(&hg, 4, out.result.parts.clone()).unwrap();
        assert!(validate_partitioning(&hg, &pt, &balance, &fixed).is_valid());
    }

    #[test]
    fn out_of_range_seed_parts_are_clamped() {
        let hg = chain(8);
        let balance = even(&hg, 2, 0.2);
        let fixed = FixedVertices::all_free(8);
        // Seed from a k=4 run being warm-started at k=2.
        let seed: Vec<PartId> = (0..8).map(|i| PartId::from_index(i % 4)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = refine_from_partition_ctx(
            &hg,
            &fixed,
            &balance,
            &seed,
            Objective::Cut,
            8,
            RunCtx::new(&mut rng),
        )
        .unwrap();
        let pt = Partitioning::from_parts(&hg, 2, out.result.parts.clone()).unwrap();
        assert!(validate_partitioning(&hg, &pt, &balance, &fixed).is_valid());
    }

    #[test]
    fn stuck_repair_reports_loads_fixed_weight_and_maxima() {
        // Six of ten unit vertices fixed into part 0, whose maximum is 5:
        // no sequence of moves can make the seed legal.
        let hg = chain(10);
        let balance = even(&hg, 2, 0.0);
        let mut fixed = FixedVertices::all_free(10);
        for i in 0..6 {
            fixed.fix(VertexId::from_index(i), PartId::from_index(0));
        }
        let seed = vec![PartId::from_index(0); 10];
        let (parts, _, legal) = legalize_assignment(&hg, &fixed, &balance, &seed).unwrap();
        assert!(!legal);
        let msg = stuck_error(&hg, &fixed, &balance, &parts).to_string();
        for part in ["loads [[6], [4]]", "fixed [[6], [0]]", "maxima [[5], [5]]"] {
            assert!(msg.contains(part), "{msg} lacks {part}");
        }
    }

    #[test]
    fn wrong_seed_length_is_an_input_error() {
        let hg = chain(8);
        let balance = even(&hg, 2, 0.2);
        let fixed = FixedVertices::all_free(8);
        let seed = vec![PartId::from_index(0); 5];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let err = refine_from_partition_ctx(
            &hg,
            &fixed,
            &balance,
            &seed,
            Objective::Cut,
            4,
            RunCtx::new(&mut rng),
        )
        .unwrap_err();
        assert!(matches!(err, PartitionError::Input(_)), "{err:?}");
    }

    #[test]
    fn warm_result_is_identical_across_thread_budgets() {
        let hg = chain(24);
        let balance = even(&hg, 2, 0.1);
        let mut fixed = FixedVertices::all_free(24);
        for i in 0..6 {
            fixed.fix(VertexId::from_index(i), PartId::from_index(i % 2));
        }
        let seed: Vec<PartId> = (0..24).map(|i| PartId::from_index(i % 2)).collect();
        let run = |threads: usize| {
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            refine_from_partition_ctx(
                &hg,
                &fixed,
                &balance,
                &seed,
                Objective::Cut,
                8,
                RunCtx::new(&mut rng).with_threads(threads),
            )
            .unwrap()
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), base, "{threads} threads changed the answer");
        }
        let pt = Partitioning::from_parts(&hg, 2, base.result.parts.clone()).unwrap();
        assert!(validate_partitioning(&hg, &pt, &balance, &fixed).is_valid());
    }
}
