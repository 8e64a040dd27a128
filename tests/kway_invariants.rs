//! The fixed-vertex contract, property-tested for the k-way engines: no
//! matter how many vertices are fixed (0–50%, drawn at random) and for any
//! k ∈ {2, 3, 4}, one k-way refinement pass (`KwayRefiner` with one pass)
//! and the recursive-bisection stack (`RecursiveBisection` without
//! cleanup passes) must return solutions in which (a) every fixed
//! vertex sits exactly in its assigned part and (b) the per-part balance
//! constraint holds.

use vlsi_rng::{ChaCha8Rng, Rng, RngCore, SeedableRng};
use vlsi_testkit::gen::{distinct_sorted, RawInstance};
use vlsi_testkit::{prop_test, TestRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, CutState, FixedVertices, Fixity, Hypergraph, HypergraphBuilder, Objective,
    PartId, Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_partition::{
    random_initial, KwayConfig, KwayRefiner, MultilevelConfig, PartitionError, PartitionResult,
    Partitioner, RecursiveBisection, Refiner, RunCtx,
};

/// One k-way refinement pass over `initial`.
fn refine_pass(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    initial: Vec<PartId>,
    objective: Objective,
) -> Result<PartitionResult, PartitionError> {
    let one_pass = KwayRefiner {
        objective,
        max_passes: 1,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    one_pass.refine_ctx(hg, fixed, balance, initial, RunCtx::new(&mut rng))
}

/// Instances with a *uniformly drawn* fixed fraction in 0–50%, so the
/// corpus covers the whole sweep range. The part count is derived from the
/// instance seed (k ∈ {2, 3, 4}) and fixities land in `0..k`.
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
    let mut b = HypergraphBuilder::new();
    for &w in &inst.weights {
        b.add_vertex(w);
    }
    for net in &inst.nets {
        if net.len() >= 2 && net.iter().all(|&i| i < inst.weights.len()) {
            b.add_net(1, net.iter().map(|&i| VertexId::from_index(i)))
                .expect("valid net");
        }
    }
    let hg = b.build().expect("valid hypergraph");
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

/// Checks fixity and part-range on a k-way solution and returns the
/// per-part loads for the caller's balance check.
fn assert_fixities(
    engine: &str,
    hg: &Hypergraph,
    fixed: &FixedVertices,
    k: usize,
    parts: &[PartId],
) -> Vec<u64> {
    let mut loads = vec![0u64; k];
    for v in hg.vertices() {
        assert!(
            parts[v.index()].index() < k,
            "{engine}: vertex {v} assigned out-of-range part"
        );
        loads[parts[v.index()].index()] += hg.vertex_weight(v);
        if let Fixity::Fixed(p) = fixed.fixity(v) {
            assert_eq!(
                parts[v.index()],
                p,
                "{engine}: fixed vertex {v} left its assigned part"
            );
        }
    }
    loads
}

/// Asserts the two invariants on a k-way solution.
fn assert_invariants(
    engine: &str,
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    k: usize,
    parts: &[PartId],
) {
    let loads = assert_fixities(engine, hg, fixed, k, parts);
    assert!(
        balance.is_satisfied(&loads),
        "{engine}: k-way balance violated: loads {loads:?} of {}",
        hg.total_weight()
    );
}

prop_test! {
    /// One k-way FM pass from a legal random assignment honours fixities
    /// and balance, and never worsens the cut objective. Instances the
    /// fixity mask makes infeasible are skipped — erroring out instead of
    /// returning an invalid solution is itself the correct behaviour.
    #[cases(48)]
    fn refine_pass_preserves_fixities_and_balance(inst in instance_with_random_fix_fraction) {
        let k = part_count(&inst);
        let (hg, fixed) = build(&inst, k);
        let balance = kway_balance(&hg, k);
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let Ok(initial) = random_initial(&hg, &fixed, &balance, k, &mut rng) else {
            return;
        };
        let before = CutState::new(&hg, k, &initial).value(Objective::Cut);
        let result = refine_pass(&hg, &fixed, &balance, initial, Objective::Cut)
            .expect("legal input refines");
        assert_invariants("refine-pass", &hg, &fixed, &balance, k, &result.parts);
        assert!(
            result.cut <= before,
            "refine-pass worsened the cut: {before} -> {}",
            result.cut
        );
    }

    /// Same contract for the k−1 objective (the paper's multiway metric).
    #[cases(32)]
    fn refine_pass_kminus1_preserves_fixities_and_balance(
        inst in instance_with_random_fix_fraction
    ) {
        let k = part_count(&inst);
        let (hg, fixed) = build(&inst, k);
        let balance = kway_balance(&hg, k);
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let Ok(initial) = random_initial(&hg, &fixed, &balance, k, &mut rng) else {
            return;
        };
        let before = CutState::new(&hg, k, &initial).value(Objective::KMinus1);
        let result = refine_pass(&hg, &fixed, &balance, initial, Objective::KMinus1)
            .expect("legal input refines");
        assert_invariants("refine-pass-km1", &hg, &fixed, &balance, k, &result.parts);
        assert!(
            result.cut <= before,
            "refine-pass worsened k-1: {before} -> {}",
            result.cut
        );
    }

    /// Recursive bisection builds a legal k-way solution from scratch:
    /// fixities always hold, and every part load stays within the engine's
    /// balance contract — the split tolerance compounds across the
    /// ⌈log₂ k⌉ bisection levels, each with a heaviest-cell slack floor.
    #[cases(32)]
    fn recursive_bisection_preserves_fixities_and_balance(
        inst in instance_with_random_fix_fraction
    ) {
        let k = part_count(&inst);
        let (hg, fixed) = build(&inst, k);
        let tolerance = 0.1;
        let ml = MultilevelConfig {
            coarsest_size: 20,
            coarse_starts: 2,
            ..MultilevelConfig::default()
        };
        let rb = RecursiveBisection(KwayConfig {
            tolerance,
            ml,
            refine_passes: 0,
            ..KwayConfig::default()
        });
        let balance = BalanceConstraint::even(k, hg.total_weights(), Tolerance::Relative(tolerance));
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let Ok(result) = rb.partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng)) else {
            return;
        };
        let loads = assert_fixities("recursive-bisection", &hg, &fixed, k, &result.parts);
        let target = hg.total_weight() as f64 / k as f64;
        let levels = (k as f64).log2().ceil();
        // Per-part bound: tolerance compounded over the levels, plus one
        // heaviest-cell (unit weight) slack per level.
        let slack = target * ((1.0 + tolerance).powf(levels) - 1.0) + levels;
        for (p, &load) in loads.iter().enumerate() {
            assert!(
                (load as f64 - target).abs() <= slack + 1e-9,
                "recursive-bisection: part {p} load {load} outside {target:.1} ± {slack:.1} \
                 (loads {loads:?}, k = {k})"
            );
        }
    }
}

/// A deterministic sweep over the paper's percentages for the k-way pass,
/// complementing the randomized properties: at 0–50% fixed, the invariants
/// hold for every quadrisection trial that runs.
#[test]
fn kway_percentage_sweep_preserves_invariants() {
    let k = 4usize;
    let n = 120usize;
    let mut b = HypergraphBuilder::new();
    for _ in 0..n {
        b.add_vertex(1);
    }
    let net_gen = distinct_sorted(n, 2..5);
    let mut net_rng = TestRng::seed_from_u64(9);
    for _ in 0..2 * n {
        let net = net_gen(&mut net_rng);
        b.add_net(1, net.iter().map(|&i| VertexId::from_index(i)))
            .expect("valid net");
    }
    let hg = b.build().expect("valid hypergraph");
    let balance = kway_balance(&hg, k);
    let mut rng = ChaCha8Rng::seed_from_u64(2024);

    let mut ran = 0;
    for pct in [0usize, 10, 20, 30, 40, 50] {
        let mut fixed = FixedVertices::all_free(n);
        // Round-robin assignment keeps every percentage feasible under the
        // 10% window.
        for i in 0..n * pct / 100 {
            fixed.fix(VertexId(i as u32), PartId((i % k) as u32));
        }
        for _ in 0..4 {
            let initial = random_initial(&hg, &fixed, &balance, k, &mut rng)
                .expect("feasible by construction");
            let result = refine_pass(&hg, &fixed, &balance, initial, Objective::Cut)
                .expect("legal input refines");
            assert_invariants("sweep", &hg, &fixed, &balance, k, &result.parts);
            ran += 1;
        }
    }
    assert_eq!(ran, 24);
}
