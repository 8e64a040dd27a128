//! End-to-end reproduction smoke tests: tiny versions of the paper's
//! experiments must show the paper's qualitative trends.

use fixed_vertices_repro::vlsi_experiments::figures::{run_figure, FigureConfig};
use fixed_vertices_repro::vlsi_experiments::regimes::Regime;
use fixed_vertices_repro::vlsi_experiments::table1;
use fixed_vertices_repro::vlsi_experiments::table2::run_table2;
use fixed_vertices_repro::vlsi_netgen::instances::ibm01_like_scaled;
use fixed_vertices_repro::vlsi_partition::trace::NullSink;
use fixed_vertices_repro::vlsi_partition::MultilevelConfig;

#[test]
fn table1_matches_the_closed_form() {
    let rows = table1::compute();
    // Spot-check against the formula T/(C+T) = threshold:
    // for p = 0.47, 20%: 3.5 C^0.47 = C/4 => C = 14^(1/0.53).
    let expected = 14f64.powf(1.0 / 0.53);
    let row = rows.iter().find(|r| r.p_milli == 470).expect("row exists");
    assert!(
        (row.c_20pct as f64 - expected).abs() <= expected * 0.02 + 2.0,
        "c_20pct = {} vs analytic {expected:.0}",
        row.c_20pct
    );
}

#[test]
fn figure_trends_reproduce_on_a_small_circuit() {
    let circuit = ibm01_like_scaled(0.035, 17); // ~440 cells
    let config = FigureConfig {
        percentages: vec![0.0, 20.0, 50.0],
        trials: 3,
        ml_config: MultilevelConfig {
            coarsest_size: 40,
            coarse_starts: 2,
            ..MultilevelConfig::default()
        },
        good_attempts: 4,
        seed: 99,
    };
    let fig =
        run_figure(&circuit.name, &circuit.hypergraph, &config, &NullSink).expect("sweep runs");

    // 1. Rand regime: the achievable cut rises sharply with random fixing.
    let rand = fig.regime_points(Regime::Random);
    assert!(
        rand.last().expect("points").raw[3] > rand.first().expect("points").raw[3] * 1.5,
        "rand-regime cut should rise steeply"
    );

    // 2. At 50% fixed the instance is easy: one start lands within ~25%
    //    (plus integer noise) of the eight-start average — the paper's
    //    "instances with 20% or more vertices fixed are essentially
    //    solvable in one or two starts".
    let good = fig.regime_points(Regime::Good);
    let at50 = good.last().expect("points");
    assert!(
        at50.raw[0] <= at50.raw[3] * 1.25 + 2.0,
        "one start should suffice at 50% fixed: {} vs {}",
        at50.raw[0],
        at50.raw[3]
    );

    // 3. Runtime falls as vertices are fixed (good regime; the paper's
    //    right-hand plots). Wall-clock is load-sensitive in CI, so allow
    //    generous slack — the precise trend lives in the criterion benches.
    assert!(
        good.last().expect("points").time_per_start
            <= good[0].time_per_start.mul_f64(1.5) + std::time::Duration::from_millis(20),
        "per-start time should fall with fixing: {:?} -> {:?}",
        good[0].time_per_start,
        good.last().expect("points").time_per_start
    );
}

#[test]
fn fixing_pads_behaves_like_fixing_random_vertices() {
    // The paper's control: "we could find no difference in any experiment
    // between fixing identified I/Os and fixing random vertices."
    use fixed_vertices_repro::vlsi_experiments::harness::{
        find_good_solution, paper_balance, run_trials,
    };
    use fixed_vertices_repro::vlsi_experiments::regimes::{FixSchedule, Regime};
    use fixed_vertices_repro::vlsi_partition::EngineConfig;
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

    let circuit = ibm01_like_scaled(0.05, 41);
    let hg = &circuit.hypergraph;
    let balance = paper_balance(hg);
    let cfg = MultilevelConfig {
        coarsest_size: 40,
        coarse_starts: 2,
        ..MultilevelConfig::default()
    };
    let good = find_good_solution(hg, &balance, &cfg, 4, 3).expect("reference");
    let engine = EngineConfig::Multilevel(cfg);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let pads: Vec<_> = circuit.pads().collect();
    let pad_schedule = FixSchedule::new_restricted(hg, Regime::Good, &good.parts, &pads, &mut rng);
    let any_schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);

    // A small percentage reachable from the pad pool alone.
    let pct = 100.0 * (pads.len() as f64 / 2.0) / hg.num_vertices() as f64;
    let pad_data = run_trials(
        hg,
        &pad_schedule.at_percent(pct),
        &balance,
        &engine,
        3,
        &[4],
        77,
        &NullSink,
    )
    .expect("pad trials");
    let any_data = run_trials(
        hg,
        &any_schedule.at_percent(pct),
        &balance,
        &engine,
        3,
        &[4],
        77,
        &NullSink,
    )
    .expect("random trials");
    let (a, b) = (pad_data.avg_best[0], any_data.avg_best[0]);
    let ratio = (a / b).max(b / a);
    assert!(
        ratio < 2.0,
        "pad fixing ({a:.1}) and random fixing ({b:.1}) should behave alike"
    );
}

#[test]
fn pass_statistics_trend_reproduces() {
    let circuit = ibm01_like_scaled(0.035, 23);
    let rows = run_table2(&circuit.hypergraph, &[0.0, 50.0], 4, 7, &NullSink).expect("table2 runs");
    // Percentage of nodes moved per (post-first) pass falls with fixing.
    assert!(
        rows[1].avg_pct_moved < rows[0].avg_pct_moved,
        "%moved should fall: {} -> {}",
        rows[0].avg_pct_moved,
        rows[1].avg_pct_moved
    );
}
