//! Bit-exact reproducibility of the seeded pipelines. The paper's results
//! are averages over 50 seeded trials of multistart FM — those numbers are
//! only meaningful if the same u64 seed replays the identical trajectory,
//! so these tests require byte-identical partition vectors (not merely
//! equal cuts) across two runs.

use vlsi_rng::{ChaCha8Rng, SeedableRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Fixity, PartId, Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_netgen::instances::ibm01_like_scaled;
use fixed_vertices_repro::vlsi_partition::trace::VecSink;
use fixed_vertices_repro::vlsi_partition::{
    BipartFm, FmConfig, MultilevelConfig, MultilevelPartitioner, Multistart, Partitioner, RunCtx,
    SelectionPolicy,
};

#[test]
fn multilevel_fm_is_byte_identical_across_runs() {
    let circuit = ibm01_like_scaled(0.05, 42);
    let hg = &circuit.hypergraph;
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
    // Pin a few vertices so the fixed-vertex code paths are exercised too.
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 20 {
        fixed.fix(VertexId((i * 7) as u32), PartId((i % 2) as u32));
    }
    let ml = MultilevelPartitioner::new(MultilevelConfig {
        coarsest_size: 40,
        coarse_starts: 2,
        ..MultilevelConfig::default()
    });

    let run = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sink = VecSink::new();
        let ctx = RunCtx::new(&mut rng).with_sink(&sink);
        let r = ml
            .partition_ctx(hg, &fixed, &balance, ctx)
            .expect("ml runs");
        (r, sink.take())
    };
    let (a, a_events) = run(1999);
    let (b, b_events) = run(1999);
    assert_eq!(a.parts, b.parts, "same seed must replay byte-identically");
    assert_eq!(a.cut, b.cut);
    // The whole trace replays too: every level's size and every pass.
    assert_eq!(a_events, b_events);

    // Sanity: a different seed explores a different trajectory (collisions
    // on the partition vector are astronomically unlikely at this size).
    let (c, _) = run(2000);
    assert_ne!(a.parts, c.parts, "distinct seeds should diverge");
}

#[test]
fn multistart_fm_is_byte_identical_across_runs() {
    let circuit = ibm01_like_scaled(0.04, 17);
    let hg = &circuit.hypergraph;
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
    let fixed = FixedVertices::all_free(hg.num_vertices());
    let fm = BipartFm::new(FmConfig {
        policy: SelectionPolicy::Clip,
        ..FmConfig::default()
    });

    let run = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Multistart::new(8)
            .run(hg, &fixed, &balance, &fm, RunCtx::new(&mut rng))
            .expect("multistart runs")
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.best.parts, b.best.parts);
    assert_eq!(a.best.cut, b.best.cut);
}

#[test]
fn determinism_survives_fixed_vertices_in_multistart() {
    let circuit = ibm01_like_scaled(0.04, 29);
    let hg = &circuit.hypergraph;
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    let mut seed_rng = ChaCha8Rng::seed_from_u64(3);
    use vlsi_rng::Rng;
    for v in hg.vertices() {
        if seed_rng.gen_bool(0.15) {
            fixed.fix(v, PartId(seed_rng.gen_range(0..2u32)));
        }
    }
    let fm = BipartFm::new(FmConfig::default());
    let run = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Multistart::new(4)
            .run(hg, &fixed, &balance, &fm, RunCtx::new(&mut rng))
            .expect("multistart runs")
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a.best.parts, b.best.parts);
    assert_eq!(a.best.cut, b.best.cut);
    // The fixities themselves were honoured in the reproduced solution.
    for v in hg.vertices() {
        if let Fixity::Fixed(p) = fixed.fixity(v) {
            assert_eq!(a.best.parts[v.index()], p);
        }
    }
}

#[test]
fn multistart_parallel_is_thread_count_invariant() {
    use fixed_vertices_repro::vlsi_partition::trace::NullSink;
    use fixed_vertices_repro::vlsi_partition::{CancelToken, EngineConfig};

    let circuit = ibm01_like_scaled(0.04, 23);
    let hg = &circuit.hypergraph;
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 25 {
        fixed.fix(VertexId((i * 11) as u32), PartId((i % 2) as u32));
    }
    let engine = EngineConfig::by_name("fm").expect("fm is registered");

    // Start i always seeds its own RNG with base_seed + i, so scheduling
    // the 8 starts on 1, 2 or 4 OS threads must not change anything — not
    // just the best cut, but the byte-identical assignment and the full
    // per-start cut profile.
    let run = |threads: usize| {
        let never = CancelToken::never();
        Multistart::new(8)
            .run_parallel(
                hg, &fixed, &balance, threads, 99, &engine, &NullSink, &NullSink, &never,
            )
            .expect("parallel multistart runs")
    };
    let base = run(1);
    assert_eq!(base.starts.len(), 8);
    for threads in [2, 4] {
        let r = run(threads);
        assert_eq!(
            r.best.cut, base.best.cut,
            "{threads} threads changed the best cut"
        );
        assert_eq!(
            r.best.parts, base.best.parts,
            "{threads} threads changed the assignment"
        );
        let base_cuts: Vec<u64> = base.starts.iter().map(|s| s.cut).collect();
        let cuts: Vec<u64> = r.starts.iter().map(|s| s.cut).collect();
        assert_eq!(cuts, base_cuts, "{threads} threads changed a start's cut");
    }
}

/// The `ibm01_like_scaled(0.7, 11)` netlist (~8900 vertices) with every
/// 17th vertex fixed round-robin over `k` parts, under an even 10% balance.
fn invariance_fixture(
    k: usize,
) -> (
    fixed_vertices_repro::vlsi_hypergraph::Hypergraph,
    FixedVertices,
    BalanceConstraint,
) {
    let hg = ibm01_like_scaled(0.7, 11).hypergraph;
    let balance = BalanceConstraint::even(k, &[hg.total_weight()], Tolerance::Relative(0.1));
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 17 {
        fixed.fix(VertexId((i * 17) as u32), PartId((i % k) as u32));
    }
    (hg, fixed, balance)
}

#[test]
fn no_answer_depends_on_the_thread_count() {
    // A thread count reaches only `Multistart::run_parallel`, which spreads
    // the starts over its workers. Every registry engine at k = 2 and `rb`
    // and `kway` at k = 4 under cut and km1 must return the same best
    // answer, per-start cuts and top list on 1, 2 and 4 workers, and with
    // an armed (never fired) cancel token. `KwayRefiner` and the warm
    // start take no thread count; an armed token must leave their parts,
    // value and trace alone.
    use fixed_vertices_repro::vlsi_hypergraph::Objective;
    use fixed_vertices_repro::vlsi_partition::trace::{NullSink, VecSink};
    use fixed_vertices_repro::vlsi_partition::{
        refine_from_partition_ctx, CancelToken, EngineConfig, KwayRefiner, Refiner, ENGINES,
    };

    let mut engines: Vec<(String, usize, EngineConfig)> = ENGINES
        .iter()
        .map(|info| {
            let engine = EngineConfig::by_name(info.name).expect("registered");
            (format!("{}/k2", info.name), 2, engine)
        })
        .collect();
    for name in ["rb", "kway"] {
        for objective in [Objective::Cut, Objective::KMinus1] {
            let engine = EngineConfig::by_name(name)
                .expect("registered")
                .with_objective(objective);
            engines.push((format!("{name}/k4/{objective:?}"), 4, engine));
        }
    }

    for k in [2, 4] {
        let (hg, fixed, balance) = invariance_fixture(k);
        for (name, _, engine) in engines.iter().filter(|e| e.1 == k) {
            let run = |threads: usize, cancel: &CancelToken| {
                let o = Multistart::new(2)
                    .run_parallel(
                        &hg, &fixed, &balance, threads, 9, engine, &NullSink, &NullSink, cancel,
                    )
                    .expect("engine runs");
                let cuts: Vec<u64> = o.starts.iter().map(|s| s.cut).collect();
                (o.best, cuts, o.top)
            };
            let base = run(1, &CancelToken::never());
            for threads in [2, 4] {
                assert!(
                    run(threads, &CancelToken::never()) == base,
                    "{name}: {threads} workers changed the answer"
                );
            }
            assert!(
                run(2, &CancelToken::new()) == base,
                "{name}: an armed cancel token changed the answer"
            );
        }
    }

    let (hg, fixed, balance, initial) = kway_refinement_fixture();
    for warm in [false, true] {
        let run = |cancel: &CancelToken| {
            let sink = VecSink::new();
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let ctx = RunCtx::new(&mut rng).with_sink(&sink).with_cancel(cancel);
            let r = if warm {
                refine_from_partition_ctx(
                    &hg,
                    &fixed,
                    &balance,
                    &initial,
                    Objective::KMinus1,
                    4,
                    ctx,
                )
                .map(|o| o.result)
            } else {
                KwayRefiner::default().refine_ctx(&hg, &fixed, &balance, initial.clone(), ctx)
            }
            .expect("refinement runs");
            let trace: Vec<String> = sink.take().iter().map(|e| e.to_jsonl()).collect();
            (r.parts, r.cut, trace)
        };
        assert!(
            run(&CancelToken::new()) == run(&CancelToken::never()),
            "{}: an armed cancel token changed the answer",
            if warm {
                "warm_start/k4"
            } else {
                "kway_refiner/k4"
            }
        );
    }
}

/// The k = 4 invariance fixture with a seeded random start, for the k-way
/// refinement tests.
fn kway_refinement_fixture() -> (
    fixed_vertices_repro::vlsi_hypergraph::Hypergraph,
    FixedVertices,
    BalanceConstraint,
    Vec<PartId>,
) {
    use fixed_vertices_repro::vlsi_partition::random_initial;

    let (hg, fixed, balance) = invariance_fixture(4);
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    let initial = random_initial(&hg, &fixed, &balance, 4, &mut rng).expect("feasible fixture");
    (hg, fixed, balance, initial)
}

#[test]
fn kway_round_refinement_ignores_an_armed_cancel_token() {
    // An armed-but-unfired CancelToken is only ever *polled* by the round
    // pass, so its presence must not perturb the result; a token fired
    // before the run must return the input unchanged (best-so-far
    // semantics with zero rounds run).
    use fixed_vertices_repro::vlsi_hypergraph::{CutState, Objective};
    use fixed_vertices_repro::vlsi_partition::{CancelToken, KwayRefiner, Refiner};

    let (hg, fixed, balance, initial) = kway_refinement_fixture();
    let refiner = KwayRefiner::default();
    let run = |cancel: &CancelToken| {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        refiner
            .refine_ctx(
                &hg,
                &fixed,
                &balance,
                initial.clone(),
                RunCtx::new(&mut rng).with_cancel(cancel),
            )
            .expect("refiner runs")
    };

    let base = run(&CancelToken::never());
    let r = run(&CancelToken::new());
    assert_eq!(r.parts, base.parts, "an armed token perturbed the result");
    assert_eq!(r.cut, base.cut);

    let fired = CancelToken::new();
    fired.cancel();
    let r = run(&fired);
    assert_eq!(
        r.parts, initial,
        "a pre-fired token must return the input unchanged"
    );
    assert_eq!(r.cut, CutState::new(&hg, 4, &initial).value(Objective::Cut));
}

/// A fixed-vertex bisection instance for the V-cycle invariant tests.
fn vcycle_fixture() -> (
    fixed_vertices_repro::vlsi_hypergraph::Hypergraph,
    FixedVertices,
    BalanceConstraint,
) {
    let circuit = ibm01_like_scaled(0.05, 31);
    let hg = circuit.hypergraph;
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 10 {
        fixed.fix(VertexId((i * 7) as u32), PartId((i % 2) as u32));
    }
    (hg, fixed, balance)
}

#[test]
fn vcycles_preserve_fixity_and_legality_and_never_raise_the_cut() {
    // Three invariants of the iterated-multilevel quality phase, checked
    // through the driver's own trace stream plus an independent referee:
    // (1) every fixity survives re-coarsening/re-refinement, (2) the final
    // partition is balance-legal, (3) the best value is monotone
    // non-increasing across cycles — restricted coarsening preserves the
    // seed partition exactly, so a cycle can only improve or stand still.
    use fixed_vertices_repro::vlsi_hypergraph::validate_partitioning;
    use fixed_vertices_repro::vlsi_hypergraph::Partitioning;
    use fixed_vertices_repro::vlsi_partition::trace::{Event, NullSink, VecSink};
    use fixed_vertices_repro::vlsi_partition::{CancelToken, EngineConfig};

    let (hg, fixed, balance) = vcycle_fixture();
    let engine = EngineConfig::by_name("fm").expect("fm is registered");
    let sink = VecSink::new();
    let never = CancelToken::never();
    let quality = Multistart::new(4)
        .vcycles(3)
        .run_parallel(
            &hg, &fixed, &balance, 2, 55, &engine, &sink, &NullSink, &never,
        )
        .expect("quality run succeeds");
    let plain = Multistart::new(4)
        .run_parallel(
            &hg, &fixed, &balance, 2, 55, &engine, &NullSink, &NullSink, &never,
        )
        .expect("plain run succeeds");

    // (3) Never worse than the plain multistart best, and each recorded
    // cycle bracket is itself non-increasing, cycle over cycle.
    assert!(quality.best.cut <= plain.best.cut);
    let events = sink.take();
    let mut last_end: Option<u64> = None;
    let mut cycles = 0;
    for e in &events {
        match e {
            Event::VCycleStart { value, .. } => {
                if let Some(prev) = last_end {
                    assert!(*value <= prev, "cycle started above the previous best");
                }
            }
            Event::VCycleEnd { value, .. } => {
                cycles += 1;
                last_end = Some(*value);
            }
            _ => {}
        }
    }
    assert!(cycles >= 1, "at least one V-cycle ran");
    assert_eq!(last_end, Some(quality.best.cut), "trace matches the result");

    // (1) Fixities survived the restricted re-coarsening.
    for v in hg.vertices() {
        if let Fixity::Fixed(p) = fixed.fixity(v) {
            assert_eq!(quality.best.parts[v.index()], p, "fixity violated");
        }
    }
    // (2) Independent legality referee.
    let p = Partitioning::from_parts(&hg, 2, quality.best.parts.clone())
        .expect("well-formed partition");
    let report = validate_partitioning(&hg, &p, &balance, &fixed);
    assert!(report.is_valid(), "V-cycled partition must stay legal");
}

#[test]
fn vcycles_and_ensemble_are_thread_count_invariant() {
    // The whole quality phase draws from an RNG derived from base_seed and
    // runs only worker-count-invariant machinery, so the full run —
    // starts, recombination, V-cycles — must be byte-identical on 1, 2, 4
    // and 8 OS threads.
    use fixed_vertices_repro::vlsi_partition::trace::NullSink;
    use fixed_vertices_repro::vlsi_partition::{CancelToken, EngineConfig};

    let (hg, fixed, balance) = vcycle_fixture();
    let engine = EngineConfig::by_name("fm").expect("fm is registered");
    let run = |threads: usize| {
        let never = CancelToken::never();
        Multistart::new(8)
            .vcycles(2)
            .ensemble(true)
            .run_parallel(
                &hg, &fixed, &balance, threads, 7, &engine, &NullSink, &NullSink, &never,
            )
            .expect("quality run succeeds")
    };
    let base = run(1);
    for threads in [2, 4, 8] {
        let r = run(threads);
        assert_eq!(
            r.best.parts, base.best.parts,
            "{threads} threads changed the quality-phase assignment"
        );
        assert_eq!(r.best.cut, base.best.cut);
        assert_eq!(r.top, base.top, "{threads} threads changed the top list");
    }
}

/// `cfg` with classic full passes in all three FM stages.
fn classic_passes(cfg: MultilevelConfig) -> MultilevelConfig {
    use fixed_vertices_repro::vlsi_partition::PassCutoff;
    let unlimited = |fm: FmConfig| FmConfig {
        cutoff: PassCutoff::Unlimited,
        ..fm
    };
    MultilevelConfig {
        coarse_fm: unlimited(cfg.coarse_fm),
        refine_fm: unlimited(cfg.refine_fm),
        refine_fm2: cfg.refine_fm2.map(unlimited),
        ..cfg
    }
}

#[test]
fn multilevel_answers_do_not_depend_on_the_pass_stop() {
    // The default FM stages end each pass with the exact stop. Against
    // classic full passes, the multilevel engine and rb/kway at k = 4 must
    // return the same answers and the same trace, apart from the `move`
    // events and the move and bucket-op counts of each `pass_end`.
    use fixed_vertices_repro::vlsi_partition::trace::{Event, VecSink};
    use fixed_vertices_repro::vlsi_partition::{EngineConfig, KwayConfig, Partitioner};
    use vlsi_rng::Rng;

    let answer_events = |events: Vec<Event>| -> Vec<Event> {
        events
            .into_iter()
            .filter_map(|e| match e {
                Event::MoveCommitted { .. } => None,
                Event::PassEnd {
                    pass,
                    best_prefix,
                    cut_before,
                    cut_after,
                    ..
                } => Some(Event::PassEnd {
                    pass,
                    moves: 0,
                    best_prefix,
                    cut_before,
                    cut_after,
                    bucket_ops: 0,
                }),
                other => Some(other),
            })
            .collect()
    };

    let circuit = ibm01_like_scaled(0.1, 13);
    let hg = &circuit.hypergraph;
    let center = circuit.die.center();
    let stop = MultilevelConfig::default();
    let classic = classic_passes(stop);
    let engines = |ml: MultilevelConfig| {
        let kway = KwayConfig {
            ml,
            ..KwayConfig::default()
        };
        [
            (2, EngineConfig::Multilevel(ml)),
            (4, EngineConfig::KwayRb(kway)),
            (4, EngineConfig::KwayDirect(kway)),
        ]
    };
    let mut stopped = 0;
    for (&(k, with_stop), &(_, without)) in engines(stop).iter().zip(&engines(classic)) {
        // All free, pads only (fixed to their side of the die, or their
        // quadrant at k = 4), and 10, 30 and 50% fixed at random.
        let mut fixities = vec![("free", FixedVertices::all_free(hg.num_vertices()))];
        let mut pads = FixedVertices::all_free(hg.num_vertices());
        for v in circuit.pads() {
            let at = circuit.location(v);
            let (x, y) = (u32::from(at.x >= center.x), u32::from(at.y >= center.y));
            pads.fix(v, PartId(if k == 2 { x } else { x + 2 * y }));
        }
        fixities.push(("pads", pads));
        for (label, fraction) in [("10%", 0.1), ("30%", 0.3), ("50%", 0.5)] {
            let mut fixed = FixedVertices::all_free(hg.num_vertices());
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            for v in hg.vertices() {
                if rng.gen_bool(fraction) {
                    fixed.fix(v, PartId(rng.gen_range(0..k as u32)));
                }
            }
            fixities.push((label, fixed));
        }

        let balance = BalanceConstraint::even(k, &[hg.total_weight()], Tolerance::Relative(0.1));
        for (label, fixed) in &fixities {
            let run = |engine: &EngineConfig| {
                let sink = VecSink::new();
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                let ctx = RunCtx::new(&mut rng).with_sink(&sink);
                let r = engine
                    .partition_ctx(hg, fixed, &balance, ctx)
                    .map(|r| (r.parts, r.cut));
                (r, sink.take())
            };
            let name = with_stop.name();
            let (got, got_events) = run(&with_stop);
            let (want, want_events) = run(&without);
            assert_eq!(got, want, "{name}/k{k}, {label} fixed: the answer changed");
            let moves = |events: &[Event]| {
                events
                    .iter()
                    .filter(|e| matches!(e, Event::MoveCommitted { .. }))
                    .count()
            };
            stopped += usize::from(moves(&got_events) < moves(&want_events));
            assert!(
                answer_events(got_events) == answer_events(want_events),
                "{name}/k{k}, {label} fixed: the trace changed"
            );
        }
    }
    assert!(stopped > 0, "the stop never fired: the check was vacuous");
}
