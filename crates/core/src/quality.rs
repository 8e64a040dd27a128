//! The iterated-multilevel quality layer: V-cycles and ensemble
//! recombination.
//!
//! Both levers buy better cut at equal wall-clock on top of any multistart
//! run (ROADMAP item 5), and both are driven by the [`Multistart`]
//! builder's `vcycles` / `ensemble` knobs:
//!
//! * **V-cycles** (`run_vcycles`): re-coarsen the instance *respecting
//!   the current best partition* — heavy-edge matching merges only
//!   vertices in the same part (fixed vertices stay pinned), so the
//!   projected coarse partition has exactly the objective value of the
//!   fine one — then re-refine down the new hierarchy. Because the
//!   refiners never accept a worse solution, the best value is
//!   monotonically non-increasing across cycles; the loop stops at the
//!   first cycle without strict improvement, or when the budget or the
//!   cancel token expires.
//! * **Ensemble recombination** (`recombine`): vertices co-assigned
//!   across *all* retained top solutions form agreement clusters (split
//!   greedily in vertex order under per-resource cluster-weight caps —
//!   the heavy-vertex guard of "Vertex Weights Revisited" — and under
//!   fixity compatibility), the clusters are force-coarsened through the
//!   same contraction tail heavy-edge matching uses, and a final
//!   constrained solve runs seeded from the best start. The seed's value
//!   is preserved exactly by the contraction, so the recombined solution
//!   is never worse than the best retained start.
//!
//! Every step is deterministic and worker-thread-count invariant: the
//! thread budget reaches only the restricted coarsening's net contraction,
//! which is byte-identical at any budget, and refinement (the 2-way FM
//! stack or the k-way pass loop) runs on the calling thread.
//!
//! [`Multistart`]: crate::multistart::Multistart

use std::collections::HashMap;

use vlsi_rng::Rng;
use vlsi_trace::{Event, NullSink, Sink};

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Fixity, Hypergraph, Objective, PartId};

use crate::config::MultilevelConfig;
use crate::engine::{FmStack, Refiner, RunCtx};
use crate::kway;
use crate::multilevel::{coarsen_params, contract_clusters, merge_fixity, Hierarchy};
use crate::{PartitionError, PartitionResult};

/// Improvement passes the k-way refinement path spends per level before
/// giving up (each pass is itself a full best-prefix refinement).
const QUALITY_REFINE_PASSES: usize = 4;

/// Refines `parts` with the refiner for the instance shape: the 2-way FM
/// stack for bisection under the cut objective, the k-way pass loop
/// (untraced) otherwise. Never returns a solution worse than the seed; the
/// returned `cut` field holds the value of `objective`.
fn quality_refine<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    objective: Objective,
    parts: Vec<PartId>,
    ctx: RunCtx<'_, R, S>,
) -> Result<PartitionResult, PartitionError> {
    if balance.num_parts() == 2 && objective == Objective::Cut {
        let refiner = FmStack::from_multilevel(&MultilevelConfig::default());
        return refiner.refine_ctx(hg, fixed, balance, parts, ctx);
    }
    kway::refine(
        hg,
        fixed,
        balance,
        parts,
        objective,
        QUALITY_REFINE_PASSES,
        RunCtx::new(ctx.rng).with_cancel(ctx.cancel),
    )
}

/// Runs up to `cycles` V-cycles on `best`, stopping at the first cycle
/// without strict improvement (or on cancellation). Each cycle coarsens
/// with the default multilevel knobs, merging only vertices in the same
/// part so the partition projects exactly, then refines the projection
/// back down the hierarchy. Emits one [`Event::VCycleStart`] /
/// [`Event::VCycleEnd`] bracket per cycle run, and no level events. The
/// returned value is never worse than the input.
pub(crate) fn run_vcycles<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    objective: Objective,
    mut best: PartitionResult,
    cycles: usize,
    mut ctx: RunCtx<'_, R, S>,
) -> Result<PartitionResult, PartitionError> {
    let cfg = MultilevelConfig {
        threads: ctx.threads,
        ..MultilevelConfig::default()
    };
    let params = coarsen_params(hg, balance, &cfg);
    for cycle in 0..cycles {
        if ctx.cancel.is_cancelled() {
            break;
        }
        if S::ENABLED {
            ctx.sink.record(&Event::VCycleStart {
                cycle: cycle as u32,
                value: best.cut,
            });
        }
        let before = best.cut;
        let mut parts = best.parts.clone();
        let h = Hierarchy::build(
            hg,
            fixed,
            &params,
            cfg.coarsest_size,
            cfg.min_shrink,
            Some(&mut parts),
            RunCtx::new(&mut *ctx.rng).with_cancel(ctx.cancel),
        );
        let (coarsest_hg, coarsest_fixed) = h.coarsest();
        let coarsest = quality_refine(
            coarsest_hg,
            coarsest_fixed,
            balance,
            objective,
            parts,
            ctx.reborrow(),
        )?;
        let candidate = h.uncoarsen(coarsest, &NullSink, |fine_hg, fine_fixed, parts| {
            quality_refine(
                fine_hg,
                fine_fixed,
                balance,
                objective,
                parts,
                ctx.reborrow(),
            )
        })?;
        if candidate.cut <= best.cut {
            best = candidate;
        }
        if S::ENABLED {
            ctx.sink.record(&Event::VCycleEnd {
                cycle: cycle as u32,
                value: best.cut,
            });
        }
        if best.cut >= before {
            break; // no strict improvement: iterating further cannot help
        }
    }
    Ok(best)
}

/// Ensemble recombination over the retained `top` solutions (best first).
///
/// Vertices with the same assignment across *every* retained solution form
/// agreement clusters; a cluster is split (greedily, in vertex order) when
/// adding a vertex would push its weight vector past the per-resource caps
/// — the tightest part capacity per resource, so every cluster stays
/// placeable — or make its fixities incompatible. The clusters are
/// force-coarsened and the coarse instance is solved seeded from `top[0]`,
/// whose value the contraction preserves exactly; the projected solution
/// gets one final fine-level refinement.
///
/// Returns `None` when recombination has nothing to work with: fewer than
/// two retained solutions, or no agreement compression at all (every
/// vertex its own cluster). Emits one [`Event::RecombineStart`].
pub(crate) fn recombine<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    objective: Objective,
    top: &[PartitionResult],
    mut ctx: RunCtx<'_, R, S>,
) -> Result<Option<PartitionResult>, PartitionError> {
    let n = hg.num_vertices();
    if top.len() < 2 || n == 0 {
        return Ok(None);
    }

    // Per-resource cluster-weight caps: the tightest part capacity, so a
    // cluster never outgrows every legal placement (the heavy-vertex
    // pathology guard, applied to agreement clusters).
    let nr = balance.num_resources().min(hg.num_resources());
    let caps: Vec<u64> = (0..nr)
        .map(|r| {
            (0..balance.num_parts())
                .map(|p| balance.max(PartId(p as u32), r))
                .min()
                .unwrap_or(u64::MAX)
        })
        .collect();

    // Agreement clusters keyed by the per-solution assignment signature.
    // One open cluster per signature: (cluster id, merged fixity,
    // accumulated weight vector). Cluster ids are assigned in vertex
    // order, so the clustering is deterministic.
    let mut open: HashMap<Vec<u32>, (u32, Fixity, Vec<u64>)> = HashMap::new();
    let mut cluster_of = vec![0u32; n];
    let mut num_clusters = 0usize;
    for v in hg.vertices() {
        let sig: Vec<u32> = top.iter().map(|t| t.parts[v.index()].0).collect();
        let w = hg.vertex_weights(v);
        let f = fixed.fixity(v);
        let mut assigned = false;
        if let Some((c, cf, cw)) = open.get_mut(&sig) {
            if crate::multilevel::within_resource_caps(cw, w, &caps) {
                if let Some(m) = merge_fixity(*cf, f) {
                    cluster_of[v.index()] = *c;
                    *cf = m;
                    for (a, &b) in cw.iter_mut().zip(w) {
                        *a += b;
                    }
                    assigned = true;
                }
            }
        }
        if !assigned {
            let c = num_clusters as u32;
            num_clusters += 1;
            cluster_of[v.index()] = c;
            open.insert(sig.clone(), (c, f, w.to_vec()));
        }
    }
    if num_clusters >= n {
        return Ok(None); // the starts agree nowhere: nothing to contract
    }

    if S::ENABLED {
        ctx.sink.record(&Event::RecombineStart {
            solutions: top.len() as u32,
            clusters: num_clusters as u64,
            value: top[0].cut,
        });
    }

    let level = contract_clusters(hg, fixed, cluster_of, num_clusters, ctx.threads);
    // Seed the coarse solve from the best start: every cluster member
    // shares its assignment (the signature includes solution 0), and the
    // contraction preserves part loads and the objective value exactly.
    let mut coarse_parts = vec![PartId(0); num_clusters];
    for v in 0..n {
        coarse_parts[level.map[v].index()] = top[0].parts[v];
    }
    let coarse = quality_refine(
        &level.hg,
        &level.fixed,
        balance,
        objective,
        coarse_parts,
        ctx.reborrow(),
    )?;
    let fine_parts = level.project(&coarse.parts);
    let refined = quality_refine(hg, fixed, balance, objective, fine_parts, ctx)?;
    Ok(Some(refined))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{
        validate_partitioning, CutState, HypergraphBuilder, Partitioning, Tolerance,
    };
    use vlsi_rng::{ChaCha8Rng, SeedableRng};

    fn grid(side: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..side * side).map(|_| b.add_vertex(1)).collect();
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    b.add_net(1, [v[r * side + c], v[r * side + c + 1]])
                        .unwrap();
                }
                if r + 1 < side {
                    b.add_net(1, [v[r * side + c], v[(r + 1) * side + c]])
                        .unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn vcycles_never_worsen_and_stay_legal() {
        let hg = grid(10);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
        // A poor legal seed: striped columns.
        let parts: Vec<PartId> = (0..hg.num_vertices())
            .map(|i| PartId(((i % 10) >= 5) as u32))
            .collect();
        let seed_cut = CutState::new(&hg, 2, &parts).cut();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let r = run_vcycles(
            &hg,
            &fixed,
            &balance,
            Objective::Cut,
            PartitionResult::new(parts, seed_cut),
            3,
            RunCtx::new(&mut rng),
        )
        .unwrap();
        assert!(r.cut <= seed_cut);
        let p = Partitioning::from_parts(&hg, 2, r.parts).unwrap();
        assert!(validate_partitioning(&hg, &p, &balance, &fixed).is_valid());
    }

    #[test]
    fn recombine_never_worse_than_best_retained() {
        let hg = grid(8);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        // Two mediocre solutions that agree on most rows and disagree on a
        // band; the looser tolerance keeps both legal.
        let a: Vec<PartId> = (0..64).map(|i| PartId((i / 8 >= 4) as u32)).collect();
        let b: Vec<PartId> = (0..64)
            .map(|i| {
                let row = i / 8;
                PartId((row >= 4 || row == 3) as u32)
            })
            .collect();
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.30));
        let va = CutState::new(&hg, 2, &a).cut();
        let vb = CutState::new(&hg, 2, &b).cut();
        assert!(va <= vb);
        let top = vec![PartitionResult::new(a, va), PartitionResult::new(b, vb)];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let r = recombine(
            &hg,
            &fixed,
            &balance,
            Objective::Cut,
            &top,
            RunCtx::new(&mut rng),
        )
        .unwrap()
        .expect("agreement exists");
        assert!(r.cut <= va);
        let p = Partitioning::from_parts(&hg, 2, r.parts).unwrap();
        assert!(validate_partitioning(&hg, &p, &balance, &fixed).is_valid());
    }

    #[test]
    fn recombine_declines_without_agreement_or_solutions() {
        let hg = grid(4);
        let fixed = FixedVertices::all_free(16);
        let balance = BalanceConstraint::bisection(16, Tolerance::Relative(0.2));
        let a: Vec<PartId> = (0..16).map(|i| PartId((i >= 8) as u32)).collect();
        let one = vec![PartitionResult::new(a.clone(), 4)];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(recombine(
            &hg,
            &fixed,
            &balance,
            Objective::Cut,
            &one,
            RunCtx::new(&mut rng),
        )
        .unwrap()
        .is_none());
        // Perfectly anti-correlated pair: no two vertices share a
        // signature-compatible cluster beyond singletons only if every
        // signature is unique — construct alternating disagreement.
        let b: Vec<PartId> = (0..16).map(|i| PartId((i % 2) as u32)).collect();
        let c: Vec<PartId> = (0..16).map(|i| PartId(((i / 2) % 2) as u32)).collect();
        let d: Vec<PartId> = (0..16).map(|i| PartId(((i / 4) % 2) as u32)).collect();
        let e: Vec<PartId> = (0..16).map(|i| PartId(((i / 8) % 2) as u32)).collect();
        let top: Vec<PartitionResult> = [b, c, d, e]
            .into_iter()
            .map(|p| {
                let v = CutState::new(&hg, 2, &p).cut();
                PartitionResult::new(p, v)
            })
            .collect();
        // All 16 signatures are distinct (4-bit codes 0..16): no clusters.
        assert!(recombine(
            &hg,
            &fixed,
            &balance,
            Objective::Cut,
            &top,
            RunCtx::new(&mut rng),
        )
        .unwrap()
        .is_none());
    }
}
