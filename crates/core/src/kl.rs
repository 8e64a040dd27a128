//! Kernighan–Lin pair-swap bipartitioning — the classic baseline that
//! Fiduccia–Mattheyses (and everything in this repository) improved upon.
//!
//! Each KL pass repeatedly swaps the best pair `(a ∈ P0, b ∈ P1)` of
//! unlocked vertices, locks them, and finally keeps the best prefix of the
//! swap sequence. Swapping preserves vertex counts, so balance drifts only
//! by weight differences; as in the FM engine, only balanced prefixes are
//! accepted.
//!
//! For hypergraphs the exact swap gain is
//! `gain(a) + gain(b) − Σ_{n ∋ a,b} ([c₀(n)=1] + [c₁(n)=1])·w(n)`:
//! a net containing both endpoints keeps its pin distribution under a
//! swap, so the single-move gains it contributed must be cancelled.
//!
//! KL is provided as a *baseline* (quality and runtime comparisons in the
//! benchmark suite); its pair selection scans the top candidates of each
//! side, making a pass O(passes · n · (pins/n + K²·deg)).

use vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Fixity, Hypergraph, Objective, PartId, Partitioning, VertexId,
};
use vlsi_rng::Rng;
use vlsi_trace::{CancelStage, Event, Sink};

use crate::cancel::CancelToken;
use crate::engine::RunCtx;
use crate::{PartitionError, PartitionResult};

/// Number of top-gain candidates considered per side for each swap.
const CANDIDATES_PER_SIDE: usize = 8;

/// Configuration of the KL baseline; run it through
/// [`Partitioner::partition_ctx`](crate::Partitioner::partition_ctx) from a
/// random legal initial bipartition.
///
/// # Example
/// ```
/// use vlsi_rng::SeedableRng;
/// use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
/// use vlsi_partition::{KlConfig, Partitioner, RunCtx};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two triangles joined by one net.
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
/// for g in [[0, 1, 2], [3, 4, 5]] {
///     b.add_net(1, [v[g[0]], v[g[1]]])?;
///     b.add_net(1, [v[g[1]], v[g[2]]])?;
///     b.add_net(1, [v[g[2]], v[g[0]]])?;
/// }
/// b.add_net(1, [v[0], v[3]])?;
/// let hg = b.build()?;
/// let fixed = FixedVertices::all_free(6);
/// let balance = BalanceConstraint::bisection(6, Tolerance::Relative(0.0));
/// let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(1);
/// let r = KlConfig::default().partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))?;
/// assert_eq!(r.cut, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KlConfig {
    /// Maximum number of passes.
    pub max_passes: usize,
    /// Maximum swaps per pass (`None` = until locks run out).
    pub max_swaps_per_pass: Option<usize>,
}

impl Default for KlConfig {
    fn default() -> Self {
        KlConfig {
            max_passes: 10,
            max_swaps_per_pass: None,
        }
    }
}

/// Runs KL from the given initial bipartition, bracketing each pass with
/// [`Event::PassStart`]/[`Event::PassEnd`] into `ctx.sink` (`moves` counts
/// swaps; KL has no gain buckets, so `bucket_ops` is 0) and polling
/// `ctx.cancel` at pass boundaries and before every swap. KL draws no
/// randomness. A cancelled run keeps the best prefix of the interrupted
/// pass, records one [`Event::Cancelled`] (stage `kl_pass`), and returns
/// the best solution found so far.
///
/// The public entry point is [`KlConfig`]'s
/// [`partition_ctx`](crate::Partitioner::partition_ctx), which draws the
/// initial bipartition at random.
///
/// # Errors
/// * [`PartitionError::UnsupportedPartCount`] unless `balance` is 2-way.
/// * [`PartitionError::Input`] if `initial` is inconsistent with `hg` or a
///   fixity.
pub(crate) fn kernighan_lin<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    initial: Vec<PartId>,
    config: KlConfig,
    ctx: RunCtx<'_, R, S>,
) -> Result<PartitionResult, PartitionError> {
    let RunCtx { sink, cancel, .. } = ctx;
    if balance.num_parts() != 2 {
        return Err(PartitionError::UnsupportedPartCount {
            requested: balance.num_parts(),
            supported: 2,
        });
    }
    let mut p = Partitioning::from_parts_fixed(hg, 2, initial, fixed)?;
    let movable: Vec<bool> = hg
        .vertices()
        .map(|v| {
            let f = if v.index() < fixed.len() {
                fixed.fixity(v)
            } else {
                Fixity::Free
            };
            f.allows(PartId(0)) && f.allows(PartId(1))
        })
        .collect();

    if !cancel.is_cancelled() {
        for pass in 0..config.max_passes {
            let before = p.cut_value(Objective::Cut);
            run_pass(
                hg,
                balance,
                &movable,
                &mut p,
                config.max_swaps_per_pass,
                pass as u32,
                sink,
                cancel,
            );
            if p.cut_value(Objective::Cut) >= before || cancel.is_cancelled() {
                break;
            }
        }
    }
    let cut = p.cut_value(Objective::Cut);
    if S::ENABLED && cancel.is_cancelled() {
        sink.record(&Event::Cancelled {
            stage: CancelStage::KlPass,
            value: cut,
        });
    }
    Ok(PartitionResult::new(p.into_parts(), cut))
}

/// Single-move FM gain of `v` under the current state.
fn move_gain(hg: &Hypergraph, p: &Partitioning, v: VertexId) -> i64 {
    let from = p.part_of(v);
    let to = from.other_side();
    let cs = p.cut_state();
    let mut g = 0i64;
    for &n in hg.vertex_nets(v) {
        let w = hg.net_weight(n) as i64;
        if cs.pins_in(n, from) == 1 {
            g += w;
        }
        if cs.pins_in(n, to) == 0 {
            g -= w;
        }
    }
    g
}

/// Exact correction for nets shared by the swap pair.
fn swap_interaction(hg: &Hypergraph, p: &Partitioning, a: VertexId, b: VertexId) -> i64 {
    let cs = p.cut_state();
    let mut corr = 0i64;
    // Iterate over the lower-degree endpoint's nets.
    let (small, other) = if hg.vertex_degree(a) <= hg.vertex_degree(b) {
        (a, b)
    } else {
        (b, a)
    };
    for &n in hg.vertex_nets(small) {
        if !hg.net_pins(n).contains(&other) {
            continue;
        }
        let w = hg.net_weight(n) as i64;
        if cs.pins_in(n, PartId(0)) == 1 {
            corr += w;
        }
        if cs.pins_in(n, PartId(1)) == 1 {
            corr += w;
        }
    }
    corr
}

#[allow(clippy::too_many_arguments)]
fn run_pass<S: Sink>(
    hg: &Hypergraph,
    balance: &BalanceConstraint,
    movable: &[bool],
    p: &mut Partitioning,
    max_swaps: Option<usize>,
    pass: u32,
    sink: &S,
    cancel: &CancelToken,
) {
    let n = hg.num_vertices();
    let mut locked = vec![false; n];
    let mut log: Vec<(VertexId, VertexId)> = Vec::new();
    let start_cut = p.cut_value(Objective::Cut);
    let mut best_cut = start_cut;
    let mut best_len = 0usize;
    let limit = max_swaps.unwrap_or(n);
    if S::ENABLED {
        sink.record(&Event::PassStart {
            pass,
            cut: start_cut,
            movable: movable.iter().filter(|&&m| m).count() as u64,
            move_limit: limit as u64,
        });
    }

    while log.len() < limit {
        // Each swap already costs an O(n) candidate scan, so an armed
        // token is simply re-polled once per swap.
        if !cancel.is_never() && cancel.is_cancelled() {
            break;
        }
        // Top candidates by single-move gain on each side.
        let mut side0: Vec<(i64, VertexId)> = Vec::new();
        let mut side1: Vec<(i64, VertexId)> = Vec::new();
        for v in hg.vertices() {
            if locked[v.index()] || !movable[v.index()] {
                continue;
            }
            let g = move_gain(hg, p, v);
            if p.part_of(v) == PartId(0) {
                side0.push((g, v));
            } else {
                side1.push((g, v));
            }
        }
        if side0.is_empty() || side1.is_empty() {
            break;
        }
        side0.sort_unstable_by_key(|x| std::cmp::Reverse(x.0));
        side1.sort_unstable_by_key(|x| std::cmp::Reverse(x.0));
        side0.truncate(CANDIDATES_PER_SIDE);
        side1.truncate(CANDIDATES_PER_SIDE);

        let mut best_pair: Option<(i64, VertexId, VertexId)> = None;
        for &(ga, a) in &side0 {
            for &(gb, b) in &side1 {
                let delta = ga + gb - swap_interaction(hg, p, a, b);
                if best_pair.map(|(d, _, _)| delta > d).unwrap_or(true) {
                    best_pair = Some((delta, a, b));
                }
            }
        }
        let Some((delta, a, b)) = best_pair else {
            break;
        };
        let before = p.cut_value(Objective::Cut) as i64;
        p.move_vertex(hg, a, PartId(1));
        p.move_vertex(hg, b, PartId(0));
        debug_assert_eq!(
            before - delta,
            p.cut_value(Objective::Cut) as i64,
            "swap gain mispredicted for {a}/{b}"
        );
        locked[a.index()] = true;
        locked[b.index()] = true;
        log.push((a, b));
        let cut = p.cut_value(Objective::Cut);
        if balance.is_satisfied(p.loads()) && cut < best_cut {
            best_cut = cut;
            best_len = log.len();
        }
    }

    // Roll back to the best prefix.
    for &(a, b) in log[best_len..].iter().rev() {
        p.move_vertex(hg, a, PartId(0));
        p.move_vertex(hg, b, PartId(1));
    }
    debug_assert_eq!(p.cut_value(Objective::Cut), best_cut);
    if S::ENABLED {
        sink.record(&Event::PassEnd {
            pass,
            moves: log.len() as u64,
            best_prefix: best_len as u64,
            cut_before: start_cut,
            cut_after: best_cut,
            bucket_ops: 0, // KL has no gain buckets
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{validate_partitioning, HypergraphBuilder, Tolerance};
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

    fn kl(
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        initial: Vec<PartId>,
        config: KlConfig,
    ) -> Result<PartitionResult, PartitionError> {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        kernighan_lin(hg, fixed, balance, initial, config, RunCtx::new(&mut rng))
    }

    fn two_cliques(s: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..2 * s).map(|_| b.add_vertex(1)).collect();
        for base in [0, s] {
            for i in 0..s {
                for j in (i + 1)..s {
                    b.add_net(1, [v[base + i], v[base + j]]).unwrap();
                }
            }
        }
        b.add_net(1, [v[0], v[s]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn untangles_interleaved_cliques() {
        let hg = two_cliques(6);
        let fixed = FixedVertices::all_free(12);
        let balance = BalanceConstraint::bisection(12, Tolerance::Relative(0.0));
        let initial: Vec<PartId> = (0..12).map(|i| PartId(i % 2)).collect();
        let r = kl(&hg, &fixed, &balance, initial, KlConfig::default()).unwrap();
        assert_eq!(r.cut, 1);
    }

    #[test]
    fn solutions_are_valid_on_random_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..30).map(|_| b.add_vertex(1)).collect();
        use vlsi_rng::Rng;
        for _ in 0..60 {
            let i = rng.gen_range(0..30usize);
            let j = (i + rng.gen_range(1..30usize)) % 30;
            b.add_net_dedup(1, [v[i], v[j]]).unwrap();
        }
        let hg = b.build().unwrap();
        let fixed = FixedVertices::all_free(30);
        let balance = BalanceConstraint::bisection(30, Tolerance::Relative(0.0));
        let initial: Vec<PartId> = (0..30).map(|i| PartId(i % 2)).collect();
        let r = kl(&hg, &fixed, &balance, initial, KlConfig::default()).unwrap();
        let p = Partitioning::from_parts(&hg, 2, r.parts).unwrap();
        let report = validate_partitioning(&hg, &p, &balance, &fixed);
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn fixed_vertices_never_swap() {
        let hg = two_cliques(4);
        let mut fixed = FixedVertices::all_free(8);
        fixed.fix(VertexId(0), PartId(1));
        fixed.fix(VertexId(4), PartId(0));
        let balance = BalanceConstraint::bisection(8, Tolerance::Relative(0.0));
        // Legal initial respecting the pins.
        let mut initial: Vec<PartId> = (0..8).map(|i| PartId(u32::from(i >= 4))).collect();
        initial[0] = PartId(1);
        initial[4] = PartId(0);
        initial[1] = PartId(0);
        initial[5] = PartId(1);
        let r = kl(&hg, &fixed, &balance, initial, KlConfig::default()).unwrap();
        assert_eq!(r.parts[0], PartId(1));
        assert_eq!(r.parts[4], PartId(0));
    }

    #[test]
    fn never_worse_than_initial() {
        let hg = two_cliques(5);
        let fixed = FixedVertices::all_free(10);
        let balance = BalanceConstraint::bisection(10, Tolerance::Relative(0.0));
        for seed in 0..5u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let initial = crate::random_initial(&hg, &fixed, &balance, 2, &mut rng).unwrap();
            let before = vlsi_hypergraph::CutState::new(&hg, 2, &initial).cut();
            let r = kl(&hg, &fixed, &balance, initial, KlConfig::default()).unwrap();
            assert!(r.cut <= before);
        }
    }

    #[test]
    fn rejects_multiway() {
        let hg = two_cliques(3);
        let fixed = FixedVertices::all_free(6);
        let balance = BalanceConstraint::even(3, &[6], Tolerance::Relative(0.5));
        let err = kl(
            &hg,
            &fixed,
            &balance,
            vec![PartId(0); 6],
            KlConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PartitionError::UnsupportedPartCount { .. }));
    }

    #[test]
    fn swap_limit_respected() {
        let hg = two_cliques(6);
        let fixed = FixedVertices::all_free(12);
        let balance = BalanceConstraint::bisection(12, Tolerance::Relative(0.0));
        let initial: Vec<PartId> = (0..12).map(|i| PartId(i % 2)).collect();
        let cfg = KlConfig {
            max_swaps_per_pass: Some(1),
            max_passes: 1,
        };
        let r = kl(&hg, &fixed, &balance, initial.clone(), cfg).unwrap();
        // At most one swap happened: at most 2 assignment entries differ.
        let diff = r.parts.iter().zip(&initial).filter(|(a, b)| a != b).count();
        assert!(diff <= 2);
    }
}
