//! The paper's core contract, property-tested: no matter how many vertices
//! are fixed (0–50%, drawn at random), every partitioner must return a
//! solution in which (a) every fixed vertex sits exactly in its assigned
//! part and (b) the paper's 2% balance constraint holds.

use vlsi_rng::{ChaCha8Rng, Rng, RngCore, SeedableRng};
use vlsi_testkit::gen::{distinct_sorted, RawInstance};
use vlsi_testkit::{prop_test, TestRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Fixity, Hypergraph, HypergraphBuilder, PartId, Tolerance,
    VertexId,
};
use fixed_vertices_repro::vlsi_partition::{
    BipartFm, FmConfig, MultilevelConfig, MultilevelPartitioner, Partitioner, RunCtx,
    SelectionPolicy,
};

/// Paper-scale instances for the 2% constraint: unit weights and enough
/// vertices that a 2% window is non-degenerate, with a *uniformly drawn*
/// fixed fraction in 0–50% (so the corpus covers the whole sweep range,
/// not just one density).
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
                Some(rng.gen_range(0..2u8))
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

fn build(inst: &RawInstance) -> (Hypergraph, FixedVertices) {
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
            Some(p) => Fixity::Fixed(PartId((*p % 2) as u32)),
        })
        .chain(std::iter::repeat(Fixity::Free))
        .take(inst.weights.len())
        .collect();
    (hg, FixedVertices::from_fixities(fixities))
}

/// The paper's balance: bisection within a 2% tolerance.
fn paper_balance(hg: &Hypergraph) -> BalanceConstraint {
    BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02))
}

/// Asserts the two invariants on a solution. Shared by all engines.
fn assert_invariants(
    engine: &str,
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    parts: &[PartId],
) {
    let mut loads = [0u64; 2];
    for v in hg.vertices() {
        loads[parts[v.index()].index()] += hg.vertex_weight(v);
        if let Fixity::Fixed(p) = fixed.fixity(v) {
            assert_eq!(
                parts[v.index()],
                p,
                "{engine}: fixed vertex {v} left its assigned part"
            );
        }
    }
    assert!(
        balance.is_satisfied(&loads),
        "{engine}: 2% balance violated: loads {loads:?} of {}",
        hg.total_weight()
    );
}

prop_test! {
    /// Flat FM (LIFO policy) honours fixities and the 2% balance at any
    /// fixed fraction. Instances the fixity mask makes infeasible under 2%
    /// (random fixing can overload a side) are skipped — the engine
    /// reporting an error instead of an invalid solution is itself the
    /// correct behaviour.
    #[cases(48)]
    fn flat_fm_preserves_fixities_and_balance(inst in instance_with_random_fix_fraction) {
        let (hg, fixed) = build(&inst);
        let balance = paper_balance(&hg);
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let Ok(result) = fm.partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng)) else {
            return;
        };
        assert_invariants("flat-fm", &hg, &fixed, &balance, &result.parts);
    }

    /// Same contract for the CLIP selection policy.
    #[cases(48)]
    fn clip_fm_preserves_fixities_and_balance(inst in instance_with_random_fix_fraction) {
        let (hg, fixed) = build(&inst);
        let balance = paper_balance(&hg);
        let fm = BipartFm::new(FmConfig {
            policy: SelectionPolicy::Clip,
            ..FmConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let Ok(result) = fm.partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng)) else {
            return;
        };
        assert_invariants("clip-fm", &hg, &fixed, &balance, &result.parts);
    }

    /// The full multilevel pipeline — coarsening must not merge a fixed
    /// vertex across sides, refinement must not move one.
    #[cases(32)]
    fn multilevel_preserves_fixities_and_balance(inst in instance_with_random_fix_fraction) {
        let (hg, fixed) = build(&inst);
        let balance = paper_balance(&hg);
        let ml = MultilevelPartitioner::new(MultilevelConfig {
            coarsest_size: 20,
            coarse_starts: 2,
            ..MultilevelConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
        let Ok(result) = ml.run(&hg, &fixed, &balance, RunCtx::new(&mut rng)) else {
            return;
        };
        assert_invariants("multilevel", &hg, &fixed, &balance, &result.parts);
    }
}

/// A deterministic end-to-end sweep over the paper's exact percentages,
/// complementing the randomized properties above: at 0, 10, 20, 30, 40 and
/// 50% fixed, the invariants hold for every trial that runs.
#[test]
fn paper_percentage_sweep_preserves_invariants() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let n = 100usize;
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
    let balance = paper_balance(&hg);
    let fm = BipartFm::new(FmConfig::default());

    let mut ran = 0;
    for pct in [0usize, 10, 20, 30, 40, 50] {
        let mut fixed = FixedVertices::all_free(n);
        // Balanced alternating assignment keeps every percentage feasible
        // under the 2% window.
        for i in 0..n * pct / 100 {
            fixed.fix(VertexId(i as u32), PartId((i % 2) as u32));
        }
        for _ in 0..4 {
            let result = fm
                .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
                .expect("feasible by construction");
            assert_invariants("sweep", &hg, &fixed, &balance, &result.parts);
            ran += 1;
        }
    }
    assert_eq!(ran, 24);
}
