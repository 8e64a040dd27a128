//! Multiway (k-way) partitioning: recursive bisection plus direct k-way
//! FM-style refinement.
//!
//! The paper's conclusions list "determining whether multiway partitioning
//! is as affected by fixed terminals" as an open question; this module
//! provides the machinery the experiment harness uses to ask it.

use vlsi_rng::Rng;

use vlsi_hypergraph::{
    induced_subgraph, BalanceConstraint, CutState, FixedVertices, Fixity, Hypergraph, Objective,
    PartId, PartSet, Partitioning, VertexId,
};
use vlsi_trace::{CancelStage, Event, Sink};

use crate::cancel::{CancelToken, CHECK_INTERVAL};
use crate::config::MultilevelConfig;
use crate::engine::{KwayConfig, Partitioner, RunCtx};
use crate::gain::{KwayGains, MoveLog};
use crate::multilevel::{coarsen_params, CoarsenParams, Hierarchy, MultilevelPartitioner};
use crate::warmstart::{legalize_assignment, stuck_error};
use crate::{PartitionError, PartitionResult};

/// Partitions `hg` into `k` blocks by recursive bisection with the
/// multilevel engine, honouring fixed vertices whose target partitions are
/// interpreted as final k-way block indices. This is the bisection stack
/// of [`RecursiveBisection`](crate::RecursiveBisection) and the coarsest
/// solve of [`DirectKway`](crate::DirectKway); the returned value is the
/// plain cut.
///
/// Block index ranges are split evenly (`⌈k/2⌉` to the left); at each level
/// the relevant vertices are extracted as an induced subgraph, fixities are
/// projected onto the two sides, and the bisection balance targets are
/// scaled by the number of blocks on each side.
///
/// `ctx.cancel` reaches every inner multilevel run. The recursion itself
/// always completes (every vertex must receive a block), but once the
/// token fires each sub-bisection degenerates to a cheap legal split, so
/// cancellation latency stays bounded while the result remains a legal
/// k-way partition.
///
/// # Errors
/// * [`PartitionError::UnsupportedPartCount`] if `k` is 0 or exceeds 64.
/// * [`PartitionError::InfeasibleInstance`] if a fixity names a partition
///   `≥ k` or a sub-bisection cannot be balanced.
pub(crate) fn recursive_bisection<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    k: usize,
    tolerance: f64,
    ml_config: &MultilevelConfig,
    ctx: RunCtx<'_, R, S>,
) -> Result<PartitionResult, PartitionError> {
    if k == 0 || k > PartSet::MAX_PARTS {
        return Err(PartitionError::UnsupportedPartCount {
            requested: k,
            supported: PartSet::MAX_PARTS,
        });
    }
    for v in hg.vertices() {
        let bad = match fixed.fixity(v) {
            Fixity::Free => false,
            Fixity::Fixed(p) => p.index() >= k,
            Fixity::FixedAny(s) => s.iter().all(|p| p.index() >= k),
        };
        if bad {
            return Err(PartitionError::InfeasibleInstance {
                vertex: Some(v),
                detail: format!("fixity names a partition outside 0..{k}"),
            });
        }
    }

    let RunCtx { rng, sink, cancel } = ctx;
    let mut parts = vec![PartId(0); hg.num_vertices()];
    let active: Vec<VertexId> = hg.vertices().collect();
    rb_recurse(
        hg, fixed, &active, 0, k, tolerance, ml_config, rng, &mut parts, sink, cancel,
    )?;
    let cut = CutState::new(hg, k.max(1), &parts).cut();
    Ok(PartitionResult::new(parts, cut))
}

#[allow(clippy::too_many_arguments)]
fn rb_recurse<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    active: &[VertexId],
    lo: usize,
    hi: usize,
    tolerance: f64,
    ml_config: &MultilevelConfig,
    rng: &mut R,
    parts: &mut [PartId],
    sink: &S,
    cancel: &CancelToken,
) -> Result<(), PartitionError> {
    debug_assert!(lo < hi);
    if hi - lo == 1 {
        for &v in active {
            parts[v.index()] = PartId::from_index(lo);
        }
        return Ok(());
    }
    let mid = lo + (hi - lo).div_ceil(2);

    // Extract the sub-instance over the active vertices.
    let sub = induced_subgraph(hg, active, |_| None);

    // Project fixities onto the two sides of this bisection.
    let side_of = |p: PartId| -> Option<PartId> {
        let i = p.index();
        if i >= lo && i < mid {
            Some(PartId(0))
        } else if i >= mid && i < hi {
            Some(PartId(1))
        } else {
            None
        }
    };
    let mut sub_fixities = Vec::with_capacity(sub.hg.num_vertices());
    for &pv in &sub.to_parent {
        let f = match fixed.fixity(pv) {
            Fixity::Free => Fixity::Free,
            Fixity::Fixed(p) => match side_of(p) {
                Some(s) => Fixity::Fixed(s),
                None => {
                    return Err(PartitionError::InfeasibleInstance {
                        vertex: Some(pv),
                        detail: format!("fixed partition {p} outside active range {lo}..{hi}"),
                    })
                }
            },
            Fixity::FixedAny(set) => {
                let mut sides = PartSet::new();
                for p in set.iter() {
                    if let Some(s) = side_of(p) {
                        sides.insert(s);
                    }
                }
                match sides.len() {
                    0 => {
                        return Err(PartitionError::InfeasibleInstance {
                            vertex: Some(pv),
                            detail: "no allowed partition inside the active range".to_string(),
                        })
                    }
                    1 => Fixity::Fixed(sides.iter().next().expect("len 1")),
                    _ => Fixity::FixedAny(sides),
                }
            }
        };
        sub_fixities.push(f);
    }
    let sub_fixed = FixedVertices::from_fixities(sub_fixities);

    // Balance: side capacities proportional to the number of blocks. The
    // slack must admit the heaviest cell (macro cells would otherwise make
    // deep sub-bisections infeasible).
    let nr = sub.hg.num_resources();
    let blocks = (hi - lo) as f64;
    let frac_left = (mid - lo) as f64 / blocks;
    let wmax: Vec<u64> = (0..nr)
        .map(|r| {
            sub.hg
                .vertices()
                .map(|v| sub.hg.vertex_weights(v)[r])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut min = Vec::with_capacity(2 * nr);
    let mut max = Vec::with_capacity(2 * nr);
    for side in 0..2 {
        let frac = if side == 0 {
            frac_left
        } else {
            1.0 - frac_left
        };
        for (r, &wm) in wmax.iter().enumerate() {
            let target = sub.hg.total_weights()[r] as f64 * frac;
            let slack = (target * tolerance).max(wm as f64);
            min.push((target - slack).ceil().max(0.0) as u64);
            max.push((target + slack).floor() as u64);
        }
    }
    // Guarantee feasibility of the pair of maxima.
    for r in 0..nr {
        let total = sub.hg.total_weights()[r];
        while max[r] + max[nr + r] < total {
            max[r] += 1;
            max[nr + r] += 1;
        }
    }
    let balance = BalanceConstraint::explicit(2, nr, min, max)?;

    let ml = MultilevelPartitioner::new(*ml_config);
    let ctx = RunCtx::new(&mut *rng).with_sink(sink).with_cancel(cancel);
    let result = ml.partition_ctx(&sub.hg, &sub_fixed, &balance, ctx)?;

    let mut left = Vec::new();
    let mut right = Vec::new();
    for (sv, &pv) in sub.to_parent.iter().enumerate() {
        if result.parts[sv] == PartId(0) {
            left.push(pv);
        } else {
            right.push(pv);
        }
    }
    rb_recurse(
        hg, fixed, &left, lo, mid, tolerance, ml_config, rng, parts, sink, cancel,
    )?;
    rb_recurse(
        hg, fixed, &right, mid, hi, tolerance, ml_config, rng, parts, sink, cancel,
    )?;
    Ok(())
}

/// Exact objective delta of moving `v` from its current part to `to`
/// (positive = improvement).
pub fn move_gain(
    hg: &Hypergraph,
    p: &Partitioning,
    v: VertexId,
    to: PartId,
    objective: Objective,
) -> i64 {
    let from = p.part_of(v);
    if from == to {
        return 0;
    }
    let cs = p.cut_state();
    let mut gain = 0i64;
    for &n in hg.vertex_nets(v) {
        let w = hg.net_weight(n) as i64;
        let size = hg.net_size(n) as u32;
        let in_from = cs.pins_in(n, from);
        let in_to = cs.pins_in(n, to);
        match objective {
            Objective::Cut => {
                // Net becomes uncut iff all pins except v are already in `to`.
                if in_to == size - 1 && cs.span(n) >= 2 {
                    gain += w;
                }
                // Net becomes cut iff it was entirely in `from` and |n| > 1.
                if in_from == size && size > 1 {
                    gain -= w;
                }
            }
            Objective::KMinus1 | Objective::Soed => {
                if in_from == 1 {
                    gain += w;
                }
                if in_to == 0 {
                    gain -= w;
                }
                if objective == Objective::Soed {
                    // SOED additionally pays the cut term.
                    if in_to == size - 1 && cs.span(n) >= 2 {
                        gain += w;
                    }
                    if in_from == size && size > 1 {
                        gain -= w;
                    }
                }
            }
        }
    }
    gain
}

/// The gain-container setup shared by both k-way passes.
struct KwayGainSetup {
    /// Every allowed `(vertex, target)` move of the frozen assignment,
    /// keyed by its exact gain.
    gains: KwayGains,
    /// Per-resource relaxation: the largest movable vertex weight, the
    /// slack the FM-relaxation pass grants destination overshoot.
    relax: Vec<u64>,
    /// Vertices with at least one allowed move.
    movable: u64,
    /// Entries inserted (the setup's gain-container operation count).
    inserts: u64,
}

/// Builds the [`KwayGainSetup`] for assignment `p`: relaxation vector,
/// SOED-safe key bound, and a gain container holding every allowed move.
///
/// # Errors
/// [`PartitionError::GainRange`] if a movable vertex's nets weigh too much
/// for `i32` keys.
fn build_kway_gains(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    p: &Partitioning,
    k: usize,
    objective: Objective,
) -> Result<KwayGainSetup, PartitionError> {
    let nr = hg.num_resources();
    let mut relax = vec![0u64; nr];
    for v in hg.vertices() {
        if !fixed.fixity(v).is_immovable() {
            for (r, &w) in hg.vertex_weights(v).iter().enumerate() {
                relax[r] = relax[r].max(w);
            }
        }
    }

    // Under SOED a single move can change both the span and the cut term
    // of every incident net, so keys span twice the incident weight; a
    // one-pin net changes no gain under any objective. A built
    // hypergraph's net weights sum to at most `i64::MAX`.
    let mut heaviest = (VertexId(0), 0);
    for v in hg.vertices().filter(|&v| !fixed.fixity(v).is_immovable()) {
        let weight = hg
            .vertex_nets(v)
            .iter()
            .filter(|&&n| hg.net_size(n) >= 2)
            .map(|&n| hg.net_weight(n) as i64)
            .sum();
        if weight > heaviest.1 {
            heaviest = (v, weight);
        }
    }
    let key_bound = crate::gain::doubled_key_bound(heaviest.0, heaviest.1.max(1))?;

    let mut gains = KwayGains::new(k, hg.num_vertices(), key_bound);
    let mut inserts = 0u64;
    let mut movable = 0u64;
    for v in hg.vertices() {
        let fx = fixed.fixity(v);
        if fx.is_immovable() {
            continue;
        }
        let from = p.part_of(v);
        let mut any = false;
        for t in 0..k {
            let to = PartId::from_index(t);
            if to == from || !fx.allows(to) {
                continue;
            }
            gains.insert(v, to, move_gain(hg, p, v, to, objective));
            any = true;
            inserts += 1;
        }
        if any {
            movable += 1;
        }
    }
    Ok(KwayGainSetup {
        gains,
        relax,
        movable,
        inserts,
    })
}

/// Whether some movable vertex of positive weight fits inside the balance
/// windows (`max − min`, in every resource) of two parts its fixity allows.
///
/// This picks the k-way pass. The synchronous-round pass only applies moves
/// that keep every bound, so it needs such a vertex. Without one, no
/// single move of a weighted vertex keeps a legal assignment legal (exact
/// balance, or vertices heavier than the slack), and only the
/// FM-relaxation pass, which overshoots and rolls back to the best
/// balanced prefix, can improve it. Zero-weight vertices (pads) fit every
/// window but cannot trade weight between parts, so they do not count.
fn windows_admit_a_move(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
) -> bool {
    let k = balance.num_parts();
    hg.vertices().any(|v| {
        let fx = fixed.fixity(v);
        let ws = hg.vertex_weights(v);
        if ws.iter().all(|&w| w == 0) {
            return false;
        }
        let fits = |p: &PartId| {
            fx.allows(*p)
                && ws
                    .iter()
                    .enumerate()
                    .all(|(r, &w)| w <= balance.max(*p, r).saturating_sub(balance.min(*p, r)))
        };
        (0..k).map(PartId::from_index).filter(fits).nth(1).is_some()
    })
}

/// The FM-relaxation k-way pass over all movable vertices: repeatedly
/// applies the best feasible single-vertex move, each vertex at most once,
/// then restores the best balanced prefix. Hands `p` back refined, with
/// its objective value, emitting [`Event::KwayPassStart`],
/// [`Event::KwayMove`] and [`Event::KwayPassEnd`] (stamped with `pass`)
/// into `sink` and polling `cancel` every [`CHECK_INTERVAL`] moves; the
/// best-prefix rollback makes stopping mid-pass safe. Fails only as
/// [`build_kway_gains`] does, before any move.
///
/// Selection runs on the shared [`KwayGains`] container (one gain-bucket
/// array per target part): every allowed `(vertex, target)` move is a
/// keyed entry, the pass repeatedly takes the globally best feasible one,
/// and after each move only the moved vertex's unlocked neighbours are
/// re-keyed — the same delta-maintenance discipline as the 2-way FM
/// engine. A destination may overshoot its maximum by the heaviest
/// movable vertex, which is what lets this pass improve instances whose
/// balance windows admit no legal single move ([`refine`] runs it only
/// there).
#[allow(clippy::too_many_arguments)]
fn refine_pass_fm<S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    mut p: Partitioning,
    objective: Objective,
    pass: u32,
    sink: &S,
    cancel: &CancelToken,
) -> Result<(Partitioning, u64), PartitionError> {
    let k = balance.num_parts();
    let nr = hg.num_resources();

    let setup = build_kway_gains(hg, fixed, &p, k, objective)?;
    let mut gains = setup.gains;
    let relax = setup.relax;
    let movable = setup.movable;
    let mut bucket_ops = if S::ENABLED { setup.inserts } else { 0 };

    let value_before = p.cut_value(objective);
    if S::ENABLED {
        sink.record(&Event::KwayPassStart {
            pass,
            value: value_before,
            movable,
        });
    }

    let mut locked = vec![false; hg.num_vertices()];
    let mut log = MoveLog::new();
    let mut best_val = value_before;
    // Dedup stamps for the per-move neighbourhood refresh.
    let mut stamp = vec![0u32; hg.num_vertices()];
    let mut epoch = 0u32;

    loop {
        if !cancel.is_never() && log.len().is_multiple_of(CHECK_INTERVAL) && cancel.is_cancelled() {
            break;
        }
        let selected = {
            let loads = p.loads();
            gains.select_best(|v, to| {
                // Relaxed feasibility: the destination may overshoot its
                // maximum by the largest movable vertex weight.
                hg.vertex_weights(v)
                    .iter()
                    .enumerate()
                    .all(|(r, &w)| loads[to.index() * nr + r] + w <= balance.max(to, r) + relax[r])
            })
        };
        let Some((v, to, gain)) = selected else {
            break;
        };
        gains.remove_all(v);
        gains.decay_max();
        locked[v.index()] = true;
        let before = p.cut_value(objective) as i64;
        let from = p.move_vertex(hg, v, to);
        log.record(v, from);
        let val = p.cut_value(objective);
        debug_assert_eq!(before - gain, val as i64, "gain mispredicted for {v}");
        if S::ENABLED {
            bucket_ops += 1; // the remove_all above
            sink.record(&Event::KwayMove {
                pass,
                vertex: v.index() as u64,
                from: from.index() as u32,
                to: to.index() as u32,
                gain,
                value: val,
            });
        }
        if balance.is_satisfied(p.loads()) && val < best_val {
            best_val = val;
            log.mark_best();
        }
        // Re-key the neighbourhood whose gains the move may have changed.
        epoch += 1;
        for &n in hg.vertex_nets(v) {
            for &u in hg.net_pins(n) {
                if u == v || locked[u.index()] || stamp[u.index()] == epoch {
                    continue;
                }
                stamp[u.index()] = epoch;
                let fx = fixed.fixity(u);
                if fx.is_immovable() {
                    continue;
                }
                let uf = p.part_of(u);
                for t in 0..k {
                    let tt = PartId::from_index(t);
                    if tt == uf || !fx.allows(tt) {
                        continue;
                    }
                    gains.update(u, tt, move_gain(hg, &p, u, tt, objective));
                    if S::ENABLED {
                        bucket_ops += 1;
                    }
                }
            }
        }
    }

    let moves_made = log.len();
    let best_len = log.best_len();
    log.rollback_to_best(|v, from| {
        p.move_vertex(hg, v, from);
    });
    let cut = p.cut_value(objective);
    debug_assert_eq!(cut, best_val);
    if S::ENABLED {
        sink.record(&Event::KwayPassEnd {
            pass,
            moves: moves_made as u64,
            best_prefix: best_len as u64,
            value_before,
            value_after: cut,
            bucket_ops,
        });
    }
    Ok((p, cut))
}

/// The synchronous-round k-way pass, in the style of mt-KaHyPar's
/// deterministic preset. It runs as a sequence of rounds, each of which:
///
/// 1. **Proposes.** Every vertex proposes its single best positive-gain
///    move whose destination stays within its maximum, and whose source
///    stays above its minimum, under the round-start loads. At equal keys
///    the lower target part wins ([`KwayGains::best_entry`]).
/// 2. **Merges.** Proposals are sorted by `(gain descending, vertex id
///    ascending)`. Each vertex proposes at most once, so this is a strict
///    total order.
/// 3. **Applies.** Proposals are re-validated in merge order against the
///    live state (fresh gain still positive, destination within its
///    maximum, source above its minimum) and applied one at a time. A
///    vertex moves at most once per round.
/// 4. **Delta-updates.** Moved vertices are re-keyed for their new source
///    part and their neighbourhoods refreshed, then the next round begins.
///    A round that proposes or applies nothing ends the pass.
///
/// Every applied move strictly improves the objective, so the pass
/// terminates and never returns a worse assignment than its input. A
/// part/resource pair that satisfies its bounds keeps satisfying them, so
/// no best-prefix rollback is needed. Uncancelled, the pass ends at a
/// fixpoint: its keys equal fresh [`move_gain`]s and a round depends only
/// on the keys, the loads and the assignment, so a new pass from its
/// output would replay its last round and apply nothing. Hands `p` back
/// with its objective value. Emits [`Event::KwayPassStart`] /
/// [`Event::KwayPassEnd`] around per-round [`Event::RoundStart`] /
/// [`Event::RoundApplied`] pairs, with one [`Event::KwayMove`] per applied
/// move, and polls `cancel` at round boundaries and every
/// [`CHECK_INTERVAL`] proposals inside the apply stage. Fails only as
/// [`build_kway_gains`] does, before any move.
fn refine_pass_rounds<S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    mut p: Partitioning,
    objective: Objective,
    sink: &S,
    cancel: &CancelToken,
) -> Result<(Partitioning, u64), PartitionError> {
    // The only pass of its `refine` call.
    let pass = 0;
    let k = balance.num_parts();
    let nr = hg.num_resources();
    let n = hg.num_vertices();

    let setup = build_kway_gains(hg, fixed, &p, k, objective)?;
    let mut gains = setup.gains;
    let mut bucket_ops = if S::ENABLED { setup.inserts } else { 0 };

    let value_before = p.cut_value(objective);
    if S::ENABLED {
        sink.record(&Event::KwayPassStart {
            pass,
            value: value_before,
            movable: setup.movable,
        });
    }

    // Whether moving weights `ws` from `from` to `to` keeps both parts
    // within their bounds under `loads`.
    let keeps_bounds = |loads: &[u64], ws: &[u64], from: PartId, to: PartId| {
        ws.iter().enumerate().all(|(r, &w)| {
            loads[to.index() * nr + r] + w <= balance.max(to, r)
                && loads[from.index() * nr + r] - w >= balance.min(from, r)
        })
    };
    let mut proposals: Vec<(i64, u32, u32)> = Vec::new();
    let mut moved: Vec<VertexId> = Vec::new();
    let mut total_moves = 0u64;
    // Dedup stamps for the per-round neighbourhood refresh.
    let mut stamp = vec![0u32; n];
    let mut epoch = 0u32;
    let mut round = 0u32;
    let mut cancelled = false;

    while !cancelled {
        if !cancel.is_never() && cancel.is_cancelled() {
            break;
        }

        proposals.clear();
        let loads = p.loads();
        for v in hg.vertices() {
            let (ws, from) = (hg.vertex_weights(v), p.part_of(v));
            let best = gains.best_entry(v, |to| keeps_bounds(loads, ws, from, to));
            if let Some((to, gain)) = best {
                if gain > 0 {
                    proposals.push((gain, v.0, to.index() as u32));
                }
            }
        }
        if proposals.is_empty() {
            break;
        }
        proposals.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

        if S::ENABLED {
            sink.record(&Event::RoundStart {
                pass,
                round,
                value: p.cut_value(objective),
                proposed: proposals.len() as u64,
            });
        }

        let mut applied = 0u64;
        moved.clear();
        for (i, &(_, raw, to_raw)) in proposals.iter().enumerate() {
            if !cancel.is_never() && i % CHECK_INTERVAL == 0 && i > 0 && cancel.is_cancelled() {
                cancelled = true;
                break;
            }
            let v = VertexId(raw);
            let to = PartId(to_raw);
            let from = p.part_of(v);
            if from == to {
                continue;
            }
            let gain = move_gain(hg, &p, v, to, objective);
            if gain <= 0 {
                continue;
            }
            if !keeps_bounds(p.loads(), hg.vertex_weights(v), from, to) {
                continue;
            }
            p.move_vertex(hg, v, to);
            applied += 1;
            moved.push(v);
            if S::ENABLED {
                sink.record(&Event::KwayMove {
                    pass,
                    vertex: v.index() as u64,
                    from: from.index() as u32,
                    to: to.index() as u32,
                    gain,
                    value: p.cut_value(objective),
                });
            }
        }
        total_moves += applied;

        if S::ENABLED {
            sink.record(&Event::RoundApplied {
                pass,
                round,
                applied,
                value: p.cut_value(objective),
            });
        }
        if applied == 0 {
            break;
        }

        // Moved vertices get a fresh entry set for their new source part,
        // then their neighbourhoods are re-keyed (each vertex at most once
        // via the epoch stamps).
        epoch += 1;
        for &v in &moved {
            stamp[v.index()] = epoch;
            gains.remove_all(v);
            let fx = fixed.fixity(v);
            let from = p.part_of(v);
            for t in 0..k {
                let to = PartId::from_index(t);
                if to == from || !fx.allows(to) {
                    continue;
                }
                gains.insert(v, to, move_gain(hg, &p, v, to, objective));
                if S::ENABLED {
                    bucket_ops += 1;
                }
            }
            if S::ENABLED {
                bucket_ops += 1; // the remove_all above
            }
        }
        for &v in &moved {
            for &net in hg.vertex_nets(v) {
                for &u in hg.net_pins(net) {
                    if stamp[u.index()] == epoch {
                        continue;
                    }
                    stamp[u.index()] = epoch;
                    let fx = fixed.fixity(u);
                    if fx.is_immovable() {
                        continue;
                    }
                    let uf = p.part_of(u);
                    for t in 0..k {
                        let to = PartId::from_index(t);
                        if to == uf || !fx.allows(to) {
                            continue;
                        }
                        gains.update(u, to, move_gain(hg, &p, u, to, objective));
                        if S::ENABLED {
                            bucket_ops += 1;
                        }
                    }
                }
            }
        }
        gains.decay_max();

        // Debug builds cross-check every live key against a from-scratch
        // gain, the invariant `refine_pass_reference` holds by construction.
        #[cfg(debug_assertions)]
        verify_gain_consistency(hg, fixed, &p, &gains, k, objective);

        round += 1;
    }

    let value_after = p.cut_value(objective);
    debug_assert!(
        value_after <= value_before,
        "a round worsened the objective"
    );
    if S::ENABLED {
        sink.record(&Event::KwayPassEnd {
            pass,
            moves: total_moves,
            best_prefix: total_moves,
            value_before,
            value_after,
            bucket_ops,
        });
    }
    Ok((p, value_after))
}

/// Asserts that every live `(vertex, target)` entry's key equals the
/// exact [`move_gain`] of that move under the current assignment.
#[cfg(debug_assertions)]
fn verify_gain_consistency(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    p: &Partitioning,
    gains: &KwayGains,
    k: usize,
    objective: Objective,
) {
    for v in hg.vertices() {
        let fx = fixed.fixity(v);
        if fx.is_immovable() {
            continue;
        }
        let from = p.part_of(v);
        for t in 0..k {
            let to = PartId::from_index(t);
            if to == from || !fx.allows(to) {
                continue;
            }
            debug_assert!(gains.contains(v, to), "missing gain entry for {v} -> {to}");
            let expected = move_gain(hg, p, v, to, objective);
            debug_assert_eq!(
                gains.key(v, to),
                expected,
                "stale gain for {v} -> {to} (expected {expected})"
            );
        }
    }
}

/// The pre-container k-way FM-relaxation pass: a lazy max-heap with
/// re-queue on stale gains. Retained as the suite's **test oracle** — an
/// independent implementation that recomputes every candidate's gain from
/// scratch (`best_move_of`) instead of delta-maintaining a [`KwayGains`]
/// container, so legality of its output and agreement with
/// [`KwayRefiner`](crate::KwayRefiner) cross-check the container's
/// bookkeeping. `tests/refinement_equivalence.rs` runs it across the
/// property-test corpus, and the `kway_gains` benchmark keeps it honest as
/// the performance baseline.
///
/// It is deliberately **not** in any production dispatch path: engines
/// reach refinement only through [`KwayRefiner`](crate::KwayRefiner)'s
/// pass loop.
///
/// # Errors
/// Returns [`PartitionError::Input`] if `initial` is inconsistent with `hg`
/// or violates a fixity.
pub fn refine_pass_reference(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    initial: Vec<PartId>,
    objective: Objective,
) -> Result<PartitionResult, PartitionError> {
    use std::collections::BinaryHeap;

    let k = balance.num_parts();
    let mut p = Partitioning::from_parts_fixed(hg, k, initial, fixed)?;
    let nr = hg.num_resources();

    let mut relax = vec![0u64; nr];
    for v in hg.vertices() {
        if !fixed.fixity(v).is_immovable() {
            for (r, &w) in hg.vertex_weights(v).iter().enumerate() {
                relax[r] = relax[r].max(w);
            }
        }
    }

    // Best feasible move of a single vertex under the current state.
    let best_move_of = |p: &Partitioning, v: VertexId| -> Option<(i64, PartId)> {
        let from = p.part_of(v);
        let ws = hg.vertex_weights(v);
        let mut best: Option<(i64, PartId)> = None;
        for t in 0..k {
            let to = PartId::from_index(t);
            if to == from || !fixed.fixity(v).allows(to) {
                continue;
            }
            let feasible =
                (0..nr).all(|r| p.loads()[t * nr + r] + ws[r] <= balance.max(to, r) + relax[r]);
            if !feasible {
                continue;
            }
            let g = move_gain(hg, p, v, to, objective);
            if best.map(|(bg, _)| g > bg).unwrap_or(true) {
                best = Some((g, to));
            }
        }
        best
    };

    let mut locked = vec![false; hg.num_vertices()];
    let mut heap: BinaryHeap<(i64, u32)> = BinaryHeap::new();
    for v in hg.vertices() {
        if fixed.fixity(v).is_immovable() {
            continue;
        }
        if let Some((g, _)) = best_move_of(&p, v) {
            heap.push((g, v.0));
        }
    }

    let mut log: Vec<(VertexId, PartId)> = Vec::new();
    let mut best_val = p.cut_value(objective);
    let mut best_len = 0usize;

    while let Some((stale_gain, raw)) = heap.pop() {
        let v = VertexId(raw);
        if locked[v.index()] {
            continue;
        }
        // Lazy re-validation: the stored gain may be stale.
        let Some((gain, to)) = best_move_of(&p, v) else {
            continue; // no feasible move right now; drop the candidate
        };
        if gain < stale_gain {
            // Gain dropped since the push; re-queue at its true priority.
            heap.push((gain, raw));
            continue;
        }
        let before = p.cut_value(objective) as i64;
        let from = p.move_vertex(hg, v, to);
        locked[v.index()] = true;
        log.push((v, from));
        let val = p.cut_value(objective);
        debug_assert_eq!(before - gain, val as i64, "gain mispredicted for {v}");
        if balance.is_satisfied(p.loads()) && val < best_val {
            best_val = val;
            best_len = log.len();
        }
        // Refresh the neighbourhood whose gains the move may have changed.
        for &n in hg.vertex_nets(v) {
            for &u in hg.net_pins(n) {
                if u != v && !locked[u.index()] && !fixed.fixity(u).is_immovable() {
                    if let Some((g, _)) = best_move_of(&p, u) {
                        heap.push((g, u.0));
                    }
                }
            }
        }
    }
    for &(v, from) in log[best_len..].iter().rev() {
        p.move_vertex(hg, v, from);
    }
    let cut = p.cut_value(objective);
    Ok(PartitionResult::new(p.into_parts(), cut))
}

/// Direct k-way multilevel partitioning, the body of
/// [`DirectKway`](crate::DirectKway): coarsen with the fixity-aware
/// heavy-edge matcher (vector weights accumulate exactly, so `balance` is
/// valid verbatim at every level), solve the coarsest instance by
/// recursive bisection, then refine k-way with `cfg.objective` at every
/// level. Compared to plain recursive bisection, the k-way refinement at
/// the finer levels can move vertices between *any* pair of blocks,
/// repairing decisions the bisection hierarchy locked in.
///
/// The coarsest solve targets an even split under `cfg.tolerance`, so it
/// is re-legalized against `balance` (the warm-start repair) before
/// refinement. A repair stuck at cluster granularity is retried after each
/// uncoarsening and is strict only at the finest level. The
/// multi-dimensional heavy-vertex guard caps every cluster's weight
/// *vector* during coarsening so that repair stays possible ("Vertex
/// Weights Revisited" pathology). Every level runs [`refine`]: one
/// synchronous-round pass, or up to `cfg.refine_passes` FM-relaxation
/// passes.
///
/// As in the 2-way multilevel engine, a fired `ctx.cancel` stops
/// coarsening early, the coarsest solve degenerates to a cheap legal
/// split, the projection back to the original hypergraph always
/// completes, and one [`Event::Cancelled`] (stage `level`) records the
/// early termination.
///
/// # Errors
/// * [`PartitionError::UnsupportedPartCount`] if `balance.num_parts()` is
///   0 or exceeds 64.
/// * [`PartitionError::InfeasibleInstance`] / [`PartitionError::Balance`]
///   when no legal assignment is reachable (capacities too tight for the
///   instance or its fixed vertices). A vertex that fits no part its
///   fixity allows is named before any work starts.
pub(crate) fn multilevel_kway<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    cfg: &KwayConfig,
    mut ctx: RunCtx<'_, R, S>,
) -> Result<PartitionResult, PartitionError> {
    let k = balance.num_parts();
    if k == 0 || k > PartSet::MAX_PARTS {
        return Err(PartitionError::UnsupportedPartCount {
            requested: k,
            supported: PartSet::MAX_PARTS,
        });
    }
    balance
        .check_feasible(hg.total_weights())
        .map_err(PartitionError::Balance)?;
    if let Some(v) = unplaceable_vertex(hg, fixed, balance) {
        return Err(PartitionError::InfeasibleInstance {
            vertex: Some(v),
            detail: format!(
                "weights {:?} fit no part its fixity allows in 0..{k}",
                hg.vertex_weights(v)
            ),
        });
    }
    let ml = &cfg.ml;
    let cluster_cap = |total: u64| -> u64 {
        ((total as f64) * ml.max_cluster_fraction / (k as f64 / 2.0))
            .ceil()
            .max(1.0) as u64
    };
    let params = CoarsenParams {
        max_cluster_weight: cluster_cap(hg.total_weight()),
        // With several resource dimensions, cap the cluster weight
        // *vector* too: a cluster hoarding one scarce resource is exactly
        // the heavy-vertex pathology that makes coarse levels
        // unbalanceable. Single-resource instances keep the scalar-only
        // guard (empty vector) bit-for-bit.
        max_cluster_weights: if hg.num_resources() > 1 {
            hg.total_weights().iter().map(|&t| cluster_cap(t)).collect()
        } else {
            Vec::new()
        },
        ..coarsen_params(hg, balance, ml)
    };
    let h = Hierarchy::build(
        hg,
        fixed,
        &params,
        ml.coarsest_size.max(4 * k),
        ml.min_shrink,
        None,
        ctx.reborrow(),
    );

    let (coarsest_hg, coarsest_fixed) = h.coarsest();
    let initial = recursive_bisection(
        coarsest_hg,
        coarsest_fixed,
        k,
        cfg.tolerance,
        ml,
        ctx.reborrow(),
    )?;
    // The coarsest solve targets an even split, which may break `balance`,
    // so every level repairs the assignment deterministically before
    // refining it, until it is legal. Projection preserves per-part loads
    // exactly, so legality established at any level holds down the
    // hierarchy. Cluster granularity can leave a tight constraint
    // unreachable at coarse levels (no single cluster move shrinks the
    // overfull part), so a stuck repair is retried after each
    // uncoarsening, where vertices are finer.
    let (sink, objective, passes) = (ctx.sink, cfg.objective, cfg.refine_passes);
    let mut legal = false;
    let mut step = |hg: &Hypergraph, fixed: &FixedVertices, mut parts: Vec<PartId>| {
        if !legal {
            (parts, _, legal) = legalize_assignment(hg, fixed, balance, &parts)?;
        }
        refine(hg, fixed, balance, parts, objective, passes, ctx.reborrow())
    };
    let coarsest = step(coarsest_hg, coarsest_fixed, initial.parts)?;
    let mut r = h.uncoarsen(coarsest, sink, step)?;
    if !legal {
        // Finest level: the repair must succeed now or the instance is
        // infeasible under `balance`. Refine once more so the repair moves
        // get locally re-optimized.
        let (parts, _, legal) = legalize_assignment(hg, fixed, balance, &r.parts)?;
        if !legal {
            return Err(stuck_error(hg, fixed, balance, &parts));
        }
        r = refine(hg, fixed, balance, parts, objective, passes, ctx.reborrow())?;
    }
    if S::ENABLED && ctx.cancel.is_cancelled() {
        sink.record(&Event::Cancelled {
            stage: CancelStage::Level,
            value: r.cut,
        });
    }
    Ok(r)
}

/// The first vertex that fits no part its fixity allows below `k`: part
/// `p` fits `v` when `w_r(v) ≤ max(p, r)` in every resource `r`.
fn unplaceable_vertex(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
) -> Option<VertexId> {
    let resources = hg.num_resources().min(balance.num_resources());
    hg.vertices().find(|&v| {
        let fx = fixed.fixity(v);
        let weights = &hg.vertex_weights(v)[..resources];
        !(0..balance.num_parts()).map(PartId::from_index).any(|p| {
            fx.allows(p)
                && weights
                    .iter()
                    .enumerate()
                    .all(|(r, &w)| w <= balance.max(p, r))
        })
    })
}

/// Refines `parts` under `objective`: the body of
/// [`KwayRefiner`](crate::KwayRefiner), of the k-way engines' refinement,
/// of warm starts and of the quality phase. One [`Partitioning`] carries
/// the assignment through every pass.
///
/// The pass comes from the instance. When [`windows_admit_a_move`], one
/// synchronous-round pass ([`refine_pass_rounds`]) runs: it ends at a
/// fixpoint, where a further pass would apply nothing. Otherwise up to
/// `max_passes` FM-relaxation passes ([`refine_pass_fm`]) run, stopping at
/// the first that does not improve `objective`; locking lets a later pass
/// find moves an earlier one could not take. Both run on the calling
/// thread, and neither draws from `ctx.rng`. With `max_passes` 0 no pass
/// runs.
///
/// `ctx.cancel` is polled at pass boundaries (and inside each pass); a
/// cancelled run records one [`Event::Cancelled`] (stage `kway_pass`) and
/// returns the best assignment reached so far.
///
/// # Errors
/// * [`PartitionError::Input`] if `parts` is inconsistent with `hg` or
///   `balance`'s part count, or violates a fixity.
/// * [`PartitionError::GainRange`] if a pass runs and a movable vertex's
///   nets weigh too much for `i32` gain keys.
pub(crate) fn refine<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    parts: Vec<PartId>,
    objective: Objective,
    max_passes: usize,
    ctx: RunCtx<'_, R, S>,
) -> Result<PartitionResult, PartitionError> {
    let RunCtx { sink, cancel, .. } = ctx;
    let mut p = Partitioning::from_parts_fixed(hg, balance.num_parts(), parts, fixed)?;
    let mut best = p.cut_value(objective);
    if max_passes > 0 && !cancel.is_cancelled() {
        if windows_admit_a_move(hg, fixed, balance) {
            (p, best) = refine_pass_rounds(hg, fixed, balance, p, objective, sink, cancel)?;
        } else {
            for pass in 0..max_passes {
                let before = best;
                (p, best) =
                    refine_pass_fm(hg, fixed, balance, p, objective, pass as u32, sink, cancel)?;
                if best >= before || cancel.is_cancelled() {
                    break;
                }
            }
        }
    }
    if S::ENABLED && cancel.is_cancelled() {
        sink.record(&Event::Cancelled {
            stage: CancelStage::KwayPass,
            value: best,
        });
    }
    Ok(PartitionResult::new(p.into_parts(), best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{HypergraphBuilder, Tolerance};
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

    fn rb(
        hg: &Hypergraph,
        fixed: &FixedVertices,
        k: usize,
        tolerance: f64,
        cfg: &MultilevelConfig,
        rng: &mut ChaCha8Rng,
    ) -> Result<PartitionResult, PartitionError> {
        recursive_bisection(hg, fixed, k, tolerance, cfg, RunCtx::new(rng))
    }

    /// Direct k-way under the uniform even split and the cut objective.
    fn direct(
        hg: &Hypergraph,
        fixed: &FixedVertices,
        k: usize,
        tolerance: f64,
        cfg: &MultilevelConfig,
        rng: &mut ChaCha8Rng,
    ) -> Result<PartitionResult, PartitionError> {
        let balance =
            BalanceConstraint::even(k, hg.total_weights(), Tolerance::Relative(tolerance));
        let cfg = KwayConfig {
            tolerance,
            ml: *cfg,
            ..KwayConfig::default()
        };
        multilevel_kway(hg, fixed, &balance, &cfg, RunCtx::new(rng))
    }

    fn refine(
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        parts: Vec<PartId>,
        objective: Objective,
        max_passes: usize,
    ) -> Result<PartitionResult, PartitionError> {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        super::refine(
            hg,
            fixed,
            balance,
            parts,
            objective,
            max_passes,
            RunCtx::new(&mut rng),
        )
    }

    /// `c` cliques of size `s`, chained by single bridge nets.
    fn cliques(c: usize, s: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..c * s).map(|_| b.add_vertex(1)).collect();
        for g in 0..c {
            for i in 0..s {
                for j in (i + 1)..s {
                    b.add_net(1, [v[g * s + i], v[g * s + j]]).unwrap();
                }
            }
        }
        for g in 1..c {
            b.add_net(1, [v[(g - 1) * s], v[g * s]]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn four_way_rb_on_four_cliques() {
        let hg = cliques(4, 5);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let cfg = MultilevelConfig {
            coarsest_size: 10,
            ..MultilevelConfig::default()
        };
        let r = rb(&hg, &fixed, 4, 0.1, &cfg, &mut rng).unwrap();
        assert_eq!(r.cut, 3, "only the three bridges should be cut");
        // Each clique lands in exactly one block.
        for g in 0..4 {
            let p0 = r.parts[g * 5];
            for i in 1..5 {
                assert_eq!(r.parts[g * 5 + i], p0);
            }
        }
    }

    #[test]
    fn rb_respects_kway_fixities() {
        let hg = cliques(4, 4);
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        fixed.fix(VertexId(0), PartId(3));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let cfg = MultilevelConfig {
            coarsest_size: 8,
            ..MultilevelConfig::default()
        };
        let r = rb(&hg, &fixed, 4, 0.2, &cfg, &mut rng).unwrap();
        assert_eq!(r.parts[0], PartId(3));
    }

    #[test]
    fn rb_k1_puts_everything_in_part0() {
        let hg = cliques(2, 3);
        let fixed = FixedVertices::all_free(6);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let r = rb(&hg, &fixed, 1, 0.1, &MultilevelConfig::default(), &mut rng).unwrap();
        assert!(r.parts.iter().all(|&p| p == PartId(0)));
        assert_eq!(r.cut, 0);
    }

    #[test]
    fn rb_rejects_bad_k() {
        let hg = cliques(1, 3);
        let fixed = FixedVertices::all_free(3);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(matches!(
            rb(&hg, &fixed, 0, 0.1, &MultilevelConfig::default(), &mut rng),
            Err(PartitionError::UnsupportedPartCount { .. })
        ));
        let mut fixed = FixedVertices::all_free(3);
        fixed.fix(VertexId(0), PartId(7));
        assert!(matches!(
            rb(&hg, &fixed, 2, 0.1, &MultilevelConfig::default(), &mut rng),
            Err(PartitionError::InfeasibleInstance { .. })
        ));
    }

    #[test]
    fn move_gain_matches_actual_delta() {
        let hg = cliques(2, 4);
        let parts: Vec<PartId> = (0..8).map(|i| PartId(i / 4)).collect();
        let p = Partitioning::from_parts(&hg, 2, parts.clone()).unwrap();
        for v in hg.vertices() {
            for t in 0..2 {
                let to = PartId(t);
                if to == p.part_of(v) {
                    continue;
                }
                for obj in [Objective::Cut, Objective::KMinus1, Objective::Soed] {
                    let g = move_gain(&hg, &p, v, to, obj);
                    let mut q = p.clone();
                    let before = q.cut_value(obj) as i64;
                    q.move_vertex(&hg, v, to);
                    let after = q.cut_value(obj) as i64;
                    assert_eq!(before - after, g, "{v} -> {to} under {obj}");
                }
            }
        }
    }

    #[test]
    fn refine_improves_a_bad_assignment() {
        let hg = cliques(2, 5);
        let fixed = FixedVertices::all_free(10);
        let balance = BalanceConstraint::bisection(10, Tolerance::Relative(0.0));
        // Interleave cliques: terrible initial cut.
        let initial: Vec<PartId> = (0..10).map(|i| PartId(i % 2)).collect();
        let r = refine(&hg, &fixed, &balance, initial, Objective::Cut, 10).unwrap();
        assert_eq!(r.cut, 1);
    }

    #[test]
    fn multilevel_kway_finds_clique_structure() {
        let hg = cliques(4, 6);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let cfg = MultilevelConfig {
            coarsest_size: 8,
            ..MultilevelConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let r = direct(&hg, &fixed, 4, 0.05, &cfg, &mut rng).unwrap();
        assert_eq!(r.cut, 3, "only the three bridges should be cut");
        for t in 0..4 {
            assert_eq!(r.parts.iter().filter(|p| p.0 == t).count(), 6);
        }
    }

    #[test]
    fn multilevel_kway_honours_fixities() {
        let hg = cliques(4, 5);
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        fixed.fix(VertexId(0), PartId(2));
        let cfg = MultilevelConfig {
            coarsest_size: 8,
            ..MultilevelConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let r = direct(&hg, &fixed, 4, 0.2, &cfg, &mut rng).unwrap();
        assert_eq!(r.parts[0], PartId(2));
    }

    #[test]
    fn multilevel_kway_names_a_vertex_no_allowed_part_can_hold() {
        // A path whose vertex 0 weighs 4; the other seven weigh 1.
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..8)
            .map(|i| b.add_vertex(if i == 0 { 4 } else { 1 }))
            .collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        let hg = b.build().unwrap();
        let free = FixedVertices::all_free(8);
        let mut pinned = free.clone();
        pinned.fix(VertexId(0), PartId(0));
        let cfg = KwayConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut run = |fixed: &FixedVertices, max: Vec<u64>| {
            let balance = BalanceConstraint::explicit(max.len(), 1, vec![0; max.len()], max);
            multilevel_kway(&hg, fixed, &balance.unwrap(), &cfg, RunCtx::new(&mut rng))
        };
        // The totals fit both constraints, but vertex 0 fits no part of the
        // first, and fixed in part 0 it fits no part of the second.
        for err in [run(&free, vec![3; 4]), run(&pinned, vec![3, 20])] {
            assert!(
                matches!(
                    err,
                    Err(PartitionError::InfeasibleInstance {
                        vertex: Some(VertexId(0)),
                        ..
                    })
                ),
                "{err:?}"
            );
        }
        // Free, it fits part 1 of the second.
        assert!(run(&free, vec![3, 20]).is_ok());
    }

    #[test]
    fn refine_multiway_with_fixed() {
        let hg = cliques(3, 4);
        let mut fixed = FixedVertices::all_free(12);
        fixed.fix(VertexId(0), PartId(2));
        let balance = BalanceConstraint::even(3, &[12], Tolerance::Relative(0.0));
        let initial: Vec<PartId> = (0..12)
            .map(|i| if i == 0 { PartId(2) } else { PartId(i % 3) })
            .collect();
        let r = refine(&hg, &fixed, &balance, initial, Objective::KMinus1, 10).unwrap();
        assert_eq!(r.parts[0], PartId(2));
        // Every part must hold exactly 4 vertices under zero tolerance.
        for t in 0..3 {
            assert_eq!(r.parts.iter().filter(|p| p.0 == t).count(), 4);
        }
    }
}
