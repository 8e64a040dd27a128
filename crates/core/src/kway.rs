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
use vlsi_trace::{CancelStage, Event, NullSink, Sink};

use crate::cancel::{CancelToken, CHECK_INTERVAL};
use crate::config::MultilevelConfig;
use crate::engine::RunCtx;
use crate::gain::{KwayGains, MoveLog};
use crate::multilevel::MultilevelPartitioner;
use crate::{PartitionError, PartitionResult};

use crate::parallel::GAIN_INIT_GRAIN;

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
/// `cancel` reaches every inner multilevel run. The recursion itself
/// always completes (every vertex must receive a block), but once the
/// token fires each sub-bisection degenerates to a cheap legal split, so
/// cancellation latency stays bounded while the result remains a legal
/// k-way partition.
///
/// # Errors
/// * [`PartitionError::UnsupportedPartCount`] if `k` is 0 or exceeds 64.
/// * [`PartitionError::InfeasibleInstance`] if a fixity names a partition
///   `≥ k` or a sub-bisection cannot be balanced.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recursive_bisection<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    k: usize,
    tolerance: f64,
    ml_config: &MultilevelConfig,
    rng: &mut R,
    sink: &S,
    cancel: &CancelToken,
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
    let mut in_active = vec![false; hg.num_vertices()];
    for &v in active {
        in_active[v.index()] = true;
    }
    let sub = induced_subgraph(hg, 2, |v| in_active[v.index()]);

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
    let result = ml.run(&sub.hg, &sub_fixed, &balance, ctx)?;

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

/// The shared gain-container setup of the sequential k-way pass and the
/// parallel round engine (`parallel::refine`).
pub(crate) struct KwayGainSetup {
    /// Every allowed `(vertex, target)` move of the frozen assignment,
    /// keyed by its exact gain.
    pub gains: KwayGains,
    /// Per-resource relaxation: the largest movable vertex weight, the
    /// slack the sequential pass grants destination overshoot.
    pub relax: Vec<u64>,
    /// Vertices with at least one allowed move.
    pub movable: u64,
    /// Entries inserted (the setup's gain-container operation count).
    pub inserts: u64,
}

/// Builds the [`KwayGainSetup`] for assignment `p`: relaxation vector,
/// SOED-safe key bound, and a gain container holding every allowed move.
///
/// Initial gains are pure reads of the frozen assignment, so with a thread
/// budget they are precomputed into a flat `vertex * k + target` table;
/// the bucket insertions always replay in the sequential order, keeping
/// the setup thread-count invariant.
pub(crate) fn build_kway_gains(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    p: &Partitioning,
    k: usize,
    objective: Objective,
    threads: usize,
) -> KwayGainSetup {
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
    // of every incident net, so keys span twice the incident weight.
    let key_bound: i64 = 2 * hg
        .vertices()
        .filter(|v| !fixed.fixity(*v).is_immovable())
        .map(|v| {
            hg.vertex_nets(v)
                .iter()
                .map(|&n| hg.net_weight(n) as i64)
                .sum::<i64>()
        })
        .max()
        .unwrap_or(0)
        .max(1);

    let workers =
        crate::parallel::effective_threads(threads, hg.num_vertices() * k, GAIN_INIT_GRAIN);
    let pre: Option<Vec<i64>> = (workers > 1).then(|| {
        let mut out = vec![0i64; hg.num_vertices() * k];
        crate::parallel::par_fill(&mut out, workers, |off, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                let idx = off + i;
                let v = VertexId((idx / k) as u32);
                let fx = fixed.fixity(v);
                if fx.is_immovable() {
                    continue;
                }
                let to = PartId::from_index(idx % k);
                if to == p.part_of(v) || !fx.allows(to) {
                    continue;
                }
                *slot = move_gain(hg, p, v, to, objective);
            }
        });
        out
    });

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
            let g = match &pre {
                Some(table) => table[v.index() * k + t],
                None => move_gain(hg, p, v, to, objective),
            };
            gains.insert(v, to, g);
            any = true;
            inserts += 1;
        }
        if any {
            movable += 1;
        }
    }
    KwayGainSetup {
        gains,
        relax,
        movable,
        inserts,
    }
}

/// One greedy k-way refinement pass over all movable vertices: repeatedly
/// applies the best feasible single-vertex move, each vertex at most once,
/// then restores the best balanced prefix. Returns the refined assignment
/// and its objective value, emitting [`Event::KwayPassStart`],
/// [`Event::KwayMove`] and [`Event::KwayPassEnd`] (stamped with `pass`)
/// into `sink` and polling `cancel` every [`CHECK_INTERVAL`] moves; the
/// best-prefix rollback makes stopping mid-pass safe.
///
/// Selection runs on the shared [`KwayGains`] container (one gain-bucket
/// array per target part): every allowed `(vertex, target)` move is a
/// keyed entry, the pass repeatedly takes the globally best feasible one,
/// and after each move only the moved vertex's unlocked neighbours are
/// re-keyed — the same delta-maintenance discipline as the 2-way FM
/// engine.
///
/// The worker-thread budget selects between two deterministic regimes:
///
/// * `threads <= 1` — the sequential LIFO pass below. The budget is also
///   forwarded to the (thread-count invariant) gain setup.
/// * `threads >= 2` — the synchronous-round engine
///   ([`parallel::refine::refine_pass_rounds`](crate::parallel::refine::refine_pass_rounds)),
///   whose output is identical for **every** budget ≥ 2 (and for any
///   worker count; see [`refine_pass_parallel`]) but is a different
///   algorithm than the sequential pass, so the two regimes may return
///   different (equally legal) solutions.
///
/// The dispatch keys on the *requested* budget, never on instance size,
/// so which regime runs is a pure function of the caller's configuration.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_pass_threaded<S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    initial: Vec<PartId>,
    objective: Objective,
    pass: u32,
    sink: &S,
    cancel: &CancelToken,
    threads: usize,
) -> Result<PartitionResult, PartitionError> {
    if threads > 1 {
        return crate::parallel::refine::refine_pass_rounds(
            hg, fixed, balance, initial, objective, pass, sink, cancel, threads,
        );
    }
    let k = balance.num_parts();
    let mut p = Partitioning::from_parts_fixed(hg, k, initial, fixed)?;
    let nr = hg.num_resources();

    let setup = build_kway_gains(hg, fixed, &p, k, objective, threads);
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
    Ok(PartitionResult::new(p.into_parts(), cut))
}

/// One synchronous-round parallel refinement pass (the `threads >= 2`
/// regime of the k-way engines), exposed directly so tests and benches can
/// pin its core contract: **the returned assignment is byte-identical for
/// every `threads` value, including 1** — the worker count only chunks a
/// pure proposal scan, never the merge or the apply order. This is
/// stronger than the two-regime dispatch of the k-way engines (which
/// switch to the sequential pass at budget ≤ 1) and is what
/// `tests/determinism.rs` exercises at 1/2/4/8 threads.
///
/// Every applied move strictly improves the objective and is re-validated
/// against fixity and balance at apply time, so the result never worsens
/// `initial` and never introduces a new balance violation. See the
/// `parallel::refine` module docs for the protocol and
/// `docs/ARCHITECTURE.md` for its determinism proof obligations.
///
/// # Errors
/// Returns [`PartitionError::Input`] if `initial` is inconsistent with `hg`
/// or violates a fixity.
pub fn refine_pass_parallel(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    initial: Vec<PartId>,
    objective: Objective,
    threads: usize,
) -> Result<PartitionResult, PartitionError> {
    crate::parallel::refine::refine_pass_rounds(
        hg,
        fixed,
        balance,
        initial,
        objective,
        0,
        &NullSink,
        &CancelToken::never(),
        threads,
    )
}

/// The pre-container k-way pass: a lazy max-heap with re-queue on stale
/// gains. Retained as the suite's **test oracle** — an independent
/// implementation that recomputes every candidate's gain from scratch
/// (`best_move_of`) instead of delta-maintaining a [`KwayGains`]
/// container, so agreement with the sequential pass (one pass of
/// [`KwayRefiner`](crate::KwayRefiner) at a budget of one thread) and
/// legality of its output cross-check the container's bookkeeping.
/// `tests/refinement_equivalence.rs` runs it across the property-test
/// corpus, and the `kway_gains` benchmark keeps it honest as the
/// performance baseline.
///
/// It is deliberately **not** in any production dispatch path: engines
/// reach refinement only through [`KwayRefiner`](crate::KwayRefiner) and
/// [`refine_pass_parallel`].
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
/// recursive bisection, then refine k-way with `objective` at every level.
/// Compared to plain recursive bisection, the k-way refinement at the
/// finer levels can move vertices between *any* pair of blocks, repairing
/// decisions the bisection hierarchy locked in.
///
/// The uniform even split under `tolerance` with the cut objective is
/// refined as solved. Any other constraint (per-part capacity vectors,
/// multi-resource bounds) or objective re-legalizes the coarsest solve
/// against `balance` (the warm-start repair) before refinement; a repair
/// stuck at cluster granularity is retried after each uncoarsening and is
/// strict only at the finest level. The multi-dimensional heavy-vertex
/// guard caps every cluster's weight *vector* during coarsening so that
/// repair stays possible ("Vertex Weights Revisited" pathology).
/// `tolerance` only shapes the coarsest even-split solve; legality is
/// judged by `balance`.
///
/// As in the 2-way multilevel engine, a fired `cancel` stops coarsening
/// early, the coarsest solve degenerates to a cheap legal split, the
/// projection back to the original hypergraph always completes, and one
/// [`Event::Cancelled`] (stage `level`) records the early termination.
///
/// # Errors
/// * [`PartitionError::UnsupportedPartCount`] if `balance.num_parts()` is
///   0 or exceeds 64.
/// * [`PartitionError::InfeasibleInstance`] / [`PartitionError::Balance`]
///   when no legal assignment is reachable (capacities too tight for the
///   instance or its fixed vertices).
#[allow(clippy::too_many_arguments)]
pub(crate) fn multilevel_kway<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    objective: Objective,
    tolerance: f64,
    ml_config: &MultilevelConfig,
    rng: &mut R,
    sink: &S,
    cancel: &CancelToken,
) -> Result<PartitionResult, PartitionError> {
    use crate::multilevel::{coarsen_once, CoarsenParams, Level};

    let k = balance.num_parts();
    if k == 0 || k > PartSet::MAX_PARTS {
        return Err(PartitionError::UnsupportedPartCount {
            requested: k,
            supported: PartSet::MAX_PARTS,
        });
    }
    let uniform = BalanceConstraint::even(
        k,
        hg.total_weights(),
        vlsi_hypergraph::Tolerance::Relative(tolerance),
    );
    let legalize = *balance != uniform || objective != Objective::Cut;
    if legalize {
        balance
            .check_feasible(hg.total_weights())
            .map_err(PartitionError::Balance)?;
    }
    let cluster_cap = |total: u64| -> u64 {
        ((total as f64) * ml_config.max_cluster_fraction / (k as f64 / 2.0))
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
        max_net_size_for_matching: 64,
        max_fixed_part_weight: (0..k)
            .map(|p| balance.max(PartId::from_index(p), 0))
            .collect(),
        allow_free_fixed_merge: false,
        threads: ml_config.threads,
    };

    let mut levels: Vec<Level> = Vec::new();
    loop {
        let (cur_hg, cur_fixed) = match levels.last() {
            Some(l) => (&l.hg, &l.fixed),
            None => (hg, fixed),
        };
        if cur_hg.num_vertices() <= ml_config.coarsest_size.max(4 * k) || cancel.is_cancelled() {
            break;
        }
        match coarsen_once(cur_hg, cur_fixed, &params, ml_config.min_shrink, None, rng) {
            Some(level) => {
                if S::ENABLED {
                    sink.record(&Event::LevelStart {
                        level: levels.len() as u32 + 1,
                        vertices: level.hg.num_vertices() as u64,
                        nets: level.hg.num_nets() as u64,
                    });
                }
                levels.push(level);
            }
            None => break,
        }
    }

    let (coarsest_hg, coarsest_fixed) = match levels.last() {
        Some(l) => (&l.hg, &l.fixed),
        None => (hg, fixed),
    };
    let initial = recursive_bisection(
        coarsest_hg,
        coarsest_fixed,
        k,
        tolerance,
        ml_config,
        rng,
        sink,
        cancel,
    )?;
    // The coarsest solve targets an even split; under an arbitrary vector
    // constraint it may be illegal, so repair it deterministically before
    // refining. Projection preserves per-part loads exactly, so legality
    // established at any level is invariant down the hierarchy. Cluster
    // granularity can leave a tight constraint unreachable this high up
    // (no single cluster move shrinks the overfull part), so a stuck
    // repair is tolerated here and retried after each uncoarsening, where
    // vertices are finer; only the finest level treats it as infeasible.
    let mut fully_legal = !legalize;
    let initial_parts = if legalize {
        let (p, _, legal) = crate::warmstart::legalize_assignment_lenient(
            coarsest_hg,
            coarsest_fixed,
            balance,
            &initial.parts,
        )?;
        fully_legal = legal;
        p
    } else {
        initial.parts
    };
    let r = refine_threaded(
        coarsest_hg,
        coarsest_fixed,
        balance,
        initial_parts,
        objective,
        4,
        sink,
        cancel,
        ml_config.threads,
    )?;
    if S::ENABLED {
        sink.record(&Event::LevelEnd {
            level: levels.len() as u32,
            vertices: coarsest_hg.num_vertices() as u64,
            nets: coarsest_hg.num_nets() as u64,
            cut: r.cut,
        });
    }
    let mut parts = r.parts;
    for i in (0..levels.len()).rev() {
        let mut fine_parts = levels[i].project(&parts);
        let (fine_hg, fine_fixed) = if i == 0 {
            (hg, fixed)
        } else {
            (&levels[i - 1].hg, &levels[i - 1].fixed)
        };
        if !fully_legal {
            let (p, _, legal) = crate::warmstart::legalize_assignment_lenient(
                fine_hg,
                fine_fixed,
                balance,
                &fine_parts,
            )?;
            fine_parts = p;
            fully_legal = legal;
        }
        let r = refine_threaded(
            fine_hg,
            fine_fixed,
            balance,
            fine_parts,
            objective,
            4,
            sink,
            cancel,
            ml_config.threads,
        )?;
        if S::ENABLED {
            sink.record(&Event::LevelEnd {
                level: i as u32,
                vertices: fine_hg.num_vertices() as u64,
                nets: fine_hg.num_nets() as u64,
                cut: r.cut,
            });
        }
        parts = r.parts;
    }
    if !fully_legal {
        // Finest level: the repair must succeed now or the instance is
        // genuinely infeasible under `balance` — the strict variant
        // reports per-part loads against the maxima. Refine once more so
        // the repair moves get locally re-optimized.
        let (p, _) = crate::warmstart::legalize_assignment(hg, fixed, balance, &parts)?;
        parts = refine_threaded(
            hg,
            fixed,
            balance,
            p,
            objective,
            4,
            sink,
            cancel,
            ml_config.threads,
        )?
        .parts;
    }
    let cut = CutState::new(hg, k, &parts).value(objective);
    if S::ENABLED && cancel.is_cancelled() {
        sink.record(&Event::Cancelled {
            stage: CancelStage::Level,
            value: cut,
        });
    }
    Ok(PartitionResult::new(parts, cut))
}

/// Loops [`refine_pass_threaded`] until a pass stops improving (at most
/// `max_passes`), the body of [`KwayRefiner`](crate::KwayRefiner). The
/// budget selects the refinement regime per that function's contract:
/// budget ≤ 1 runs the sequential pass, budget ≥ 2 runs the
/// synchronous-round engine and is byte-identical across all budgets ≥ 2.
/// `cancel` is polled at pass boundaries (and inside each pass every
/// [`CHECK_INTERVAL`] moves); a cancelled run records one
/// [`Event::Cancelled`] (stage `kway_pass`) and returns the best
/// assignment reached so far.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_threaded<S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    mut parts: Vec<PartId>,
    objective: Objective,
    max_passes: usize,
    sink: &S,
    cancel: &CancelToken,
    threads: usize,
) -> Result<PartitionResult, PartitionError> {
    let mut best = CutState::new(hg, balance.num_parts(), &parts).value(objective);
    if !cancel.is_cancelled() {
        for pass in 0..max_passes {
            let r = refine_pass_threaded(
                hg,
                fixed,
                balance,
                parts.clone(),
                objective,
                pass as u32,
                sink,
                cancel,
                threads,
            )?;
            if r.cut < best {
                best = r.cut;
                parts = r.parts;
            } else {
                break;
            }
            if cancel.is_cancelled() {
                break;
            }
        }
    }
    if S::ENABLED && cancel.is_cancelled() {
        sink.record(&Event::Cancelled {
            stage: CancelStage::KwayPass,
            value: best,
        });
    }
    Ok(PartitionResult::new(parts, best))
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
        let never = CancelToken::never();
        recursive_bisection(hg, fixed, k, tolerance, cfg, rng, &NullSink, &never)
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
        let never = CancelToken::never();
        multilevel_kway(
            hg,
            fixed,
            &balance,
            Objective::Cut,
            tolerance,
            cfg,
            rng,
            &NullSink,
            &never,
        )
    }

    fn refine(
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        parts: Vec<PartId>,
        objective: Objective,
        max_passes: usize,
    ) -> Result<PartitionResult, PartitionError> {
        let never = CancelToken::never();
        refine_threaded(
            hg, fixed, balance, parts, objective, max_passes, &NullSink, &never, 1,
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
