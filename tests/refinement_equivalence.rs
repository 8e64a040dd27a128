//! Differential armor for the synchronous-round parallel refinement
//! (`kway::refine_pass_parallel`, the `threads >= 2` regime of the k-way
//! dispatch), run against two independent sequential implementations:
//!
//! * one pass of `KwayRefiner` at a budget of one thread — the production
//!   sequential pass (delta-maintained [`KwayGains`] container, LIFO
//!   tie-breaks, best-prefix rollback);
//! * `kway::refine_pass_reference` — the suite's test oracle, which
//!   recomputes every candidate gain from scratch and shares no gain
//!   bookkeeping with either production path.
//!
//! Over the same property-test corpus as `tests/kway_invariants.rs`
//! (0–50% fixed vertices drawn uniformly, k ∈ {2, 3, 4}), every engine
//! must return a *legal* solution — fixities honoured, balance satisfied,
//! and the reported cut equal to an independent `CutState` recompute — and
//! the parallel rounds must never worsen the input and must stay inside a
//! pinned envelope of the sequential cut.
//!
//! The second half adversarially attacks the round engine's conflict
//! resolution with equal-gain gadget swarms: hundreds of disjoint gadgets
//! proposing identical gains, so the `(gain desc, vertex id asc)` merge
//! order is the *only* thing deciding who moves. The outcome must be
//! byte-identical for every worker count (chunk boundaries shift with the
//! budget), each vertex must move at most once per round, and the applied
//! sequence must follow the merge order.

use std::collections::HashSet;

use vlsi_rng::{ChaCha8Rng, Rng, RngCore, SeedableRng};
use vlsi_testkit::gen::{distinct_sorted, RawInstance};
use vlsi_testkit::{prop_test, TestRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, CutState, FixedVertices, Fixity, Hypergraph, HypergraphBuilder, Objective,
    PartId, Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_partition::trace::{Event, VecSink};
use fixed_vertices_repro::vlsi_partition::{
    kway, random_initial, KwayRefiner, PartitionResult, Refiner, RunCtx,
};

// --- shared corpus (mirrors tests/kway_invariants.rs) --------------------

/// Instances with a *uniformly drawn* fixed fraction in 0–50%; the part
/// count is derived from the instance seed (k ∈ {2, 3, 4}).
fn instance_with_random_fix_fraction(rng: &mut TestRng) -> RawInstance {
    let n = rng.gen_range(60..140usize);
    let weights = vec![1u64; n];
    let num_nets = rng.gen_range(n..3 * n);
    let net_gen = distinct_sorted(n, 2..5);
    let nets: Vec<Vec<usize>> = (0..num_nets).map(|_| net_gen(rng)).collect();
    let frac = rng.gen_range(0.0..0.5);
    let fixities: Vec<Option<u8>> = (0..n)
        .map(|_| {
            if rng.gen_bool(frac) {
                Some(rng.gen_range(0..4u8))
            } else {
                None
            }
        })
        .collect();
    RawInstance {
        weights,
        nets,
        fixities,
        seed: rng.next_u64(),
    }
}

/// The instance's part count: k ∈ {2, 3, 4}, derived from its seed.
fn part_count(inst: &RawInstance) -> usize {
    2 + (inst.seed % 3) as usize
}

fn build(inst: &RawInstance, k: usize) -> (Hypergraph, FixedVertices) {
    let mut hb = HypergraphBuilder::new();
    for &w in &inst.weights {
        hb.add_vertex(w);
    }
    for net in &inst.nets {
        if net.len() >= 2 && net.iter().all(|&i| i < inst.weights.len()) {
            hb.add_net(1, net.iter().map(|&i| VertexId::from_index(i)))
                .expect("valid net");
        }
    }
    let hg = hb.build().expect("valid hypergraph");
    let fixities = inst
        .fixities
        .iter()
        .map(|f| match f {
            None => Fixity::Free,
            Some(p) => Fixity::Fixed(PartId((*p as usize % k) as u32)),
        })
        .chain(std::iter::repeat(Fixity::Free))
        .take(inst.weights.len())
        .collect();
    (hg, FixedVertices::from_fixities(fixities))
}

/// Even k-way balance with 10% per-part tolerance (the multiway sweep's
/// setting).
fn kway_balance(hg: &Hypergraph, k: usize) -> BalanceConstraint {
    BalanceConstraint::even(k, &[hg.total_weight()], Tolerance::Relative(0.1))
}

/// Full legality of a refinement result: every part id in range, every
/// fixity honoured, balance satisfied, and the reported cut equal to an
/// independent from-scratch recompute of the objective.
fn assert_legal(
    engine: &str,
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    k: usize,
    objective: Objective,
    result: &PartitionResult,
) {
    let mut loads = vec![0u64; k];
    for v in hg.vertices() {
        let p = result.parts[v.index()];
        assert!(
            p.index() < k,
            "{engine}: vertex {v} assigned out-of-range part"
        );
        loads[p.index()] += hg.vertex_weight(v);
        if let Fixity::Fixed(fp) = fixed.fixity(v) {
            assert_eq!(p, fp, "{engine}: fixed vertex {v} left its assigned part");
        }
    }
    assert!(
        balance.is_satisfied(&loads),
        "{engine}: balance violated: loads {loads:?} of {}",
        hg.total_weight()
    );
    let recomputed = CutState::new(hg, k, &result.parts).value(objective);
    assert_eq!(
        result.cut, recomputed,
        "{engine}: reported {objective:?} diverged from recompute"
    );
}

// --- the differential property -------------------------------------------

/// Cut envelope: the round engine only takes strictly-positive-gain moves
/// under strict balance, while the sequential pass explores zero/negative
/// moves with best-prefix rollback, so the sequential cut can be better
/// (on this corpus the parallel cut actually wins more often than not).
/// The worst gap observed over the fixed corpora below is ~30% of the
/// sequential cut (seq 61 → par 79); the pinned bound grants a third plus
/// a small absolute slack for near-zero cuts.
fn cut_envelope(seq_cut: u64) -> u64 {
    seq_cut + seq_cut / 3 + 4
}

fn differential_case(inst: &RawInstance, objective: Objective) {
    let k = part_count(inst);
    let (hg, fixed) = build(inst, k);
    let balance = kway_balance(&hg, k);
    let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
    let Ok(initial) = random_initial(&hg, &fixed, &balance, k, &mut rng) else {
        return; // infeasible fixity mask — erroring out is the correct behaviour
    };
    let before = CutState::new(&hg, k, &initial).value(objective);

    let one_pass = KwayRefiner {
        objective,
        max_passes: 1,
    };
    let seq = one_pass
        .refine_ctx(
            &hg,
            &fixed,
            &balance,
            initial.clone(),
            RunCtx::new(&mut rng),
        )
        .expect("sequential pass refines");
    let oracle = kway::refine_pass_reference(&hg, &fixed, &balance, initial.clone(), objective)
        .expect("reference oracle refines");
    let par = kway::refine_pass_parallel(&hg, &fixed, &balance, initial, objective, 4)
        .expect("parallel rounds refine");

    assert_legal("sequential", &hg, &fixed, &balance, k, objective, &seq);
    assert_legal(
        "reference-oracle",
        &hg,
        &fixed,
        &balance,
        k,
        objective,
        &oracle,
    );
    assert_legal("parallel-rounds", &hg, &fixed, &balance, k, objective, &par);

    assert!(
        par.cut <= before,
        "parallel rounds worsened {objective:?}: {before} -> {}",
        par.cut
    );
    assert!(
        par.cut <= cut_envelope(seq.cut),
        "parallel rounds left the sequential envelope: parallel {} vs sequential {} \
         (allowed {})",
        par.cut,
        seq.cut,
        cut_envelope(seq.cut)
    );
}

prop_test! {
    /// Cut objective: all three engines legal, parallel never worsens the
    /// input and stays inside the sequential envelope.
    #[cases(48)]
    fn parallel_rounds_match_sequential_oracles_cut(inst in instance_with_random_fix_fraction) {
        differential_case(&inst, Objective::Cut);
    }

    /// Same contract for the k−1 objective (the paper's multiway metric).
    #[cases(32)]
    fn parallel_rounds_match_sequential_oracles_kminus1(
        inst in instance_with_random_fix_fraction
    ) {
        differential_case(&inst, Objective::KMinus1);
    }
}

// --- adversarial equal-gain conflict resolution ---------------------------

/// Per-gadget type vector for [`gadget_instance`]: hundreds of disjoint
/// 4-vertex gadgets, drawn large enough (n = 4·|types| ≥ 2200) that the
/// proposal scan actually forks 2–3 workers and chunk boundaries shift
/// with the thread budget.
fn gadget_types(rng: &mut TestRng) -> Vec<u8> {
    let g = rng.gen_range(550..900usize);
    (0..g)
        .map(|_| if rng.gen_bool(0.5) { 2 } else { 1 })
        .collect()
}

/// Builds the equal-gain swarm. Gadget `g` owns vertices `4g..4g+4`
/// (`a, b, c, d`), initially `a, d → part 0` and `b, c → part 1`:
///
/// * type 2: nets `{a,b}` and `{a,c}`, both cut — moving `a` to part 1
///   gains exactly 2; moving `b` or `c` to part 0 gains exactly 1.
/// * type 1: net `{a,b}` only — every move gains exactly 1.
/// * `d` is an isolated filler keeping the initial assignment balanced.
///
/// Gadgets are pairwise disjoint, so every type-2 gadget proposes the same
/// gain-2 move and balance only admits ~10% of them per side: which ones
/// move is decided *purely* by the `(gain desc, vertex id asc)` merge
/// order — the adversarial case for chunking-dependent conflict
/// resolution.
fn gadget_instance(types: &[u8]) -> (Hypergraph, Vec<PartId>) {
    let mut hb = HypergraphBuilder::new();
    let n = types.len() * 4;
    for _ in 0..n {
        hb.add_vertex(1);
    }
    for (g, &t) in types.iter().enumerate() {
        let a = VertexId::from_index(4 * g);
        let b = VertexId::from_index(4 * g + 1);
        let c = VertexId::from_index(4 * g + 2);
        hb.add_net(1, [a, b]).expect("valid net");
        if t >= 2 {
            hb.add_net(1, [a, c]).expect("valid net");
        }
    }
    let hg = hb.build().expect("valid gadget swarm");
    let initial: Vec<PartId> = (0..n)
        .map(|i| PartId::from_index(if i % 4 == 0 || i % 4 == 3 { 0 } else { 1 }))
        .collect();
    (hg, initial)
}

prop_test! {
    /// The round engine's answer is a pure function of the merge order:
    /// any worker count — and therefore any chunk partition of the
    /// proposal scan — returns the byte-identical assignment.
    #[cases(12)]
    fn equal_gain_conflicts_resolve_identically_for_any_chunking(types in gadget_types) {
        let (hg, initial) = gadget_instance(&types);
        let k = 2;
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = kway_balance(&hg, k);
        let before = CutState::new(&hg, k, &initial).value(Objective::Cut);

        let base =
            kway::refine_pass_parallel(&hg, &fixed, &balance, initial.clone(), Objective::Cut, 1)
                .expect("gadget swarm refines");
        assert_legal("round-1worker", &hg, &fixed, &balance, k, Objective::Cut, &base);
        assert!(
            base.cut < before,
            "balance admits moves, so the swarm must improve: {before} -> {}",
            base.cut
        );
        for threads in [2usize, 3, 5, 8] {
            let r = kway::refine_pass_parallel(
                &hg, &fixed, &balance, initial.clone(), Objective::Cut, threads,
            )
            .expect("gadget swarm refines");
            assert_eq!(
                r.parts, base.parts,
                "{threads} threads resolved the equal-gain conflicts differently"
            );
            assert_eq!(r.cut, base.cut, "{threads} threads changed the cut");
        }
    }

    /// Round brackets in the trace stream: each vertex moves at most once
    /// per round, the applied count matches the bracket's `applied` field,
    /// the applied sequence follows the `(gain desc, vertex id asc)` merge
    /// order, and the whole event stream — not just the final assignment —
    /// is identical across thread budgets.
    #[cases(8)]
    fn round_brackets_move_each_vertex_once_in_merge_order(types in gadget_types) {
        let (hg, initial) = gadget_instance(&types);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = kway_balance(&hg, 2);

        let run = |threads: usize| {
            let sink = VecSink::new();
            let mut rng = ChaCha8Rng::seed_from_u64(7); // unused by the refiner
            let r = KwayRefiner::default()
                .refine_ctx(
                    &hg,
                    &fixed,
                    &balance,
                    initial.clone(),
                    RunCtx::new(&mut rng).with_sink(&sink).with_threads(threads),
                )
                .expect("gadget swarm refines");
            (r, sink.take())
        };
        let (base, events) = run(2);

        let mut open: Option<(u32, u32)> = None;
        let mut seen: HashSet<u64> = HashSet::new();
        let mut moves_in_round = 0u64;
        let mut proposed_in_round = 0u64;
        let mut last: Option<(i64, u64)> = None;
        let mut rounds = 0u32;
        for ev in &events {
            match ev {
                Event::RoundStart { pass, round, proposed, .. } => {
                    assert!(open.is_none(), "nested round bracket");
                    assert!(*proposed > 0, "empty rounds must not be emitted");
                    open = Some((*pass, *round));
                    proposed_in_round = *proposed;
                    seen.clear();
                    moves_in_round = 0;
                    last = None;
                    rounds += 1;
                }
                Event::KwayMove { pass, vertex, gain, .. } => {
                    let (open_pass, _) = open.expect("move outside a round bracket");
                    assert_eq!(*pass, open_pass, "move stamped with the wrong pass");
                    assert!(
                        seen.insert(*vertex),
                        "vertex {vertex} moved twice in one round"
                    );
                    moves_in_round += 1;
                    // Gadgets are disjoint and at most one move per gadget
                    // is ever applied per round, so each applied move's
                    // fresh gain equals its frozen proposal gain — the
                    // apply sequence must follow the merge order exactly.
                    if let Some((prev_gain, prev_vertex)) = last {
                        assert!(
                            *gain < prev_gain || (*gain == prev_gain && *vertex > prev_vertex),
                            "moves applied out of (gain desc, id asc) merge order: \
                             ({prev_gain}, v{prev_vertex}) then ({gain}, v{vertex})"
                        );
                    }
                    last = Some((*gain, *vertex));
                }
                Event::RoundApplied { pass, round, applied, .. } => {
                    assert_eq!(
                        open.take(),
                        Some((*pass, *round)),
                        "round bracket mismatch"
                    );
                    assert_eq!(*applied, moves_in_round, "bracket applied-count is wrong");
                    assert!(
                        *applied <= proposed_in_round,
                        "more moves applied than proposed"
                    );
                }
                _ => {}
            }
        }
        assert!(open.is_none(), "unclosed round bracket");
        assert!(rounds > 0, "the swarm has positive gains, rounds must run");

        for threads in [4usize, 8] {
            let (r, ev) = run(threads);
            assert_eq!(r.parts, base.parts, "{threads} threads changed the answer");
            assert_eq!(ev, events, "{threads} threads changed the event stream");
        }
    }
}
