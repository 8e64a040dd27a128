//! Differential armor for the k-way refinement passes, run against
//! `kway::refine_pass_reference` — the suite's test oracle, an
//! FM-relaxation pass that recomputes every candidate gain from scratch and
//! shares no gain bookkeeping with the production passes.
//!
//! `KwayRefiner` picks its pass from the instance: the synchronous-round
//! pass whenever some movable vertex of positive weight fits inside the
//! balance windows of two parts its fixity allows, else the FM-relaxation
//! pass. Three corpora
//! cover the two passes and the choice between them:
//!
//! * **Windowed.** Over the same property-test corpus as
//!   `tests/kway_invariants.rs` (0–50% fixed vertices drawn uniformly,
//!   k ∈ {2, 3, 4}, 10% tolerance), one `KwayRefiner` pass (the round
//!   pass) and the oracle must each return a *legal* solution — fixities
//!   honoured, balance satisfied, and the reported cut equal to an
//!   independent `CutState` recompute. The round pass must never worsen
//!   the input and must stay inside a pinned envelope of the oracle's cut.
//! * **Exact balance.** Unit weights, n a multiple of k and tolerance 0
//!   leave every window empty (a free zero-weight pad does not count), so
//!   `KwayRefiner` runs the FM-relaxation pass. It and the oracle must be legal and never worse than the input.
//! * **Selection.** The trace shows which pass ran: round brackets on a
//!   windowed instance, plain `KwayMove`s and no round on a zero-window one.
//!
//! The last two properties attack the round pass's conflict resolution with
//! equal-gain gadget swarms: hundreds of disjoint gadgets proposing
//! identical gains, so the `(gain desc, vertex id asc)` merge order is the
//! *only* thing deciding who moves. The outcome must not depend on the
//! thread budget, each vertex must move at most once per round, and the
//! applied sequence must follow the merge order.

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

/// One `KwayRefiner` pass under `objective`, recording its trace.
fn one_pass(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    initial: Vec<PartId>,
    objective: Objective,
) -> (PartitionResult, Vec<Event>) {
    let sink = VecSink::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0); // unused by the refiner
    let refiner = KwayRefiner {
        objective,
        max_passes: 1,
    };
    let r = refiner
        .refine_ctx(
            hg,
            fixed,
            balance,
            initial,
            RunCtx::new(&mut rng).with_sink(&sink),
        )
        .expect("k-way pass refines");
    (r, sink.take())
}

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

/// Cut envelope: the round pass only takes strictly-positive-gain moves
/// under strict balance, while the FM-relaxation oracle explores
/// zero/negative moves with best-prefix rollback, so the oracle's cut can
/// be better. The envelope grants a third of the oracle's cut plus a small
/// absolute slack for near-zero cuts.
fn cut_envelope(oracle_cut: u64) -> u64 {
    oracle_cut + oracle_cut / 3 + 4
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

    let (round, _) = one_pass(&hg, &fixed, &balance, initial.clone(), objective);
    let oracle = kway::refine_pass_reference(&hg, &fixed, &balance, initial, objective)
        .expect("reference oracle refines");

    assert_legal("round-pass", &hg, &fixed, &balance, k, objective, &round);
    assert_legal(
        "reference-oracle",
        &hg,
        &fixed,
        &balance,
        k,
        objective,
        &oracle,
    );

    assert!(
        round.cut <= before,
        "round pass worsened {objective:?}: {before} -> {}",
        round.cut
    );
    assert!(
        round.cut <= cut_envelope(oracle.cut),
        "round pass left the oracle envelope: round {} vs oracle {} (allowed {})",
        round.cut,
        oracle.cut,
        cut_envelope(oracle.cut)
    );
}

prop_test! {
    /// Cut objective: both passes legal, the round pass never worsens the
    /// input and stays inside the oracle envelope.
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

// --- exact balance: the FM-relaxation pass ---------------------------------

/// Unit-weight instances whose size is a multiple of 12, so every
/// k ∈ {2, 3, 4} splits them exactly; 0–50% of vertices fixed. One more
/// vertex is a free zero-weight pad on a net with vertex 0: it fits every
/// window but trades no weight, so it must not select the round pass.
fn exact_balance_instance(rng: &mut TestRng) -> RawInstance {
    let mut inst = instance_with_random_fix_fraction(rng);
    let n = inst.weights.len() / 12 * 12;
    inst.weights.truncate(n);
    inst.fixities.truncate(n);
    inst.weights.push(0);
    inst.fixities.push(None);
    inst.nets.push(vec![0, n]);
    inst
}

fn exact_balance_case(inst: &RawInstance, objective: Objective) {
    let k = part_count(inst);
    let (hg, fixed) = build(inst, k);
    let balance = BalanceConstraint::even(k, &[hg.total_weight()], Tolerance::Relative(0.0));
    let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
    let Ok(initial) = random_initial(&hg, &fixed, &balance, k, &mut rng) else {
        return; // the fixities overfill a part: no exact split exists
    };
    let before = CutState::new(&hg, k, &initial).value(objective);

    let (fm, events) = one_pass(&hg, &fixed, &balance, initial.clone(), objective);
    assert!(
        !events.iter().any(|e| matches!(e, Event::RoundStart { .. })),
        "a zero-window instance must not run the round pass"
    );
    let oracle = kway::refine_pass_reference(&hg, &fixed, &balance, initial, objective)
        .expect("reference oracle refines");
    for (engine, r) in [("fm-relaxation", &fm), ("reference-oracle", &oracle)] {
        assert_legal(engine, &hg, &fixed, &balance, k, objective, r);
        assert!(
            r.cut <= before,
            "{engine} worsened {objective:?}: {before} -> {}",
            r.cut
        );
    }
}

prop_test! {
    /// Tolerance 0: the FM-relaxation pass and the oracle stay legal and
    /// never worsen the input, under both objectives.
    #[cases(32)]
    fn fm_relaxation_pass_is_legal_at_exact_balance(inst in exact_balance_instance) {
        exact_balance_case(&inst, Objective::Cut);
        exact_balance_case(&inst, Objective::KMinus1);
    }
}

/// The balance windows pick the pass: round brackets when a weighted
/// vertex fits the windows of two parts, plain FM moves and no round when
/// none does. A free zero-weight pad fits every window but does not count.
#[test]
fn the_balance_windows_select_the_pass() {
    // Two 5-cliques, interleaved across the parts: every vertex has a
    // positive-gain move. Vertex 10 is a free zero-weight pad.
    let mut hb = HypergraphBuilder::new();
    let v: Vec<_> = (0..10).map(|_| hb.add_vertex(1)).collect();
    for g in 0..2 {
        for i in 0..5 {
            for j in (i + 1)..5 {
                hb.add_net(1, [v[5 * g + i], v[5 * g + j]])
                    .expect("valid net");
            }
        }
    }
    let pad = hb.add_vertex(0);
    hb.add_net(1, [v[0], pad]).expect("valid net");
    let hg = hb.build().expect("valid hypergraph");
    let fixed = FixedVertices::all_free(11);
    let initial: Vec<PartId> = (0..11).map(|i| PartId(i % 2)).collect();
    let run = |tolerance: f64| {
        let balance = BalanceConstraint::even(2, &[10], Tolerance::Relative(tolerance));
        one_pass(&hg, &fixed, &balance, initial.clone(), Objective::Cut).1
    };
    let has = |events: &[Event], pred: fn(&Event) -> bool| events.iter().any(pred);

    let windowed = run(0.2);
    assert!(
        has(&windowed, |e| matches!(e, Event::RoundStart { .. })),
        "a 4..6 window admits single moves: the round pass runs"
    );
    let exact = run(0.0);
    assert!(
        has(&exact, |e| matches!(e, Event::KwayMove { .. })),
        "the FM-relaxation pass moves vertices"
    );
    assert!(
        !has(&exact, |e| matches!(e, Event::RoundStart { .. })),
        "a 5..5 window admits no weighted single move and the pad does not count: no round runs"
    );
}

// --- adversarial equal-gain conflict resolution ---------------------------

/// Per-gadget type vector for [`gadget_instance`]: hundreds of disjoint
/// 4-vertex gadgets.
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
/// order — the adversarial case for conflict resolution.
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
    /// Which equal-gain proposals win is decided by the merge order alone,
    /// never by how the thread budget could split the work: one
    /// `KwayRefiner` pass must return the same assignment, cut and trace at
    /// 1, 2, 3, 5 and 8 threads.
    #[cases(12)]
    fn equal_gain_conflicts_resolve_identically_for_any_chunking(types in gadget_types) {
        let (hg, initial) = gadget_instance(&types);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = kway_balance(&hg, 2);

        let run = |threads: usize| {
            let sink = VecSink::new();
            let mut rng = ChaCha8Rng::seed_from_u64(7); // unused by the refiner
            let refiner = KwayRefiner {
                objective: Objective::Cut,
                max_passes: 1,
            };
            let r = refiner
                .refine_ctx(
                    &hg,
                    &fixed,
                    &balance,
                    initial.clone(),
                    RunCtx::new(&mut rng).with_sink(&sink).with_threads(threads),
                )
                .expect("gadget swarm refines");
            (r.parts, r.cut, sink.take())
        };
        let base = run(1);
        for threads in [2usize, 3, 5, 8] {
            let (parts, cut, events) = run(threads);
            assert_eq!(
                parts, base.0,
                "{threads} threads resolved the equal-gain conflicts differently"
            );
            assert_eq!(cut, base.1, "{threads} threads changed the cut");
            assert!(events == base.2, "{threads} threads changed the trace");
        }
    }

    /// Round brackets in the trace stream: each vertex moves at most once
    /// per round, the applied count matches the bracket's `applied` field,
    /// and the applied sequence follows the `(gain desc, vertex id asc)`
    /// merge order. The refined swarm is legal and strictly better than its
    /// start, since balance admits moves.
    #[cases(12)]
    fn round_brackets_move_each_vertex_once_in_merge_order(types in gadget_types) {
        let (hg, initial) = gadget_instance(&types);
        let k = 2;
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = kway_balance(&hg, k);
        let before = CutState::new(&hg, k, &initial).value(Objective::Cut);

        let sink = VecSink::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7); // unused by the refiner
        let r = KwayRefiner::default()
            .refine_ctx(
                &hg,
                &fixed,
                &balance,
                initial,
                RunCtx::new(&mut rng).with_sink(&sink),
            )
            .expect("gadget swarm refines");
        let events = sink.take();
        assert_legal("round-pass", &hg, &fixed, &balance, k, Objective::Cut, &r);
        assert!(
            r.cut < before,
            "balance admits moves, so the swarm must improve: {before} -> {}",
            r.cut
        );

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
    }
}
