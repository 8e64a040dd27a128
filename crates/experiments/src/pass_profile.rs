//! Within-pass improvement profiles — the analysis behind Section III.
//!
//! "A motivating observation is that in the absence of sufficient fixed
//! terminals, FM may occasionally produce passes in which nearly every
//! vertex is moved [...] if there are sufficiently many vertices adjacent
//! to fixed terminals, such a near-flip is very unlikely to be improving."
//!
//! This module measures *where inside a pass* the best solution occurs, as
//! a function of the fixed-vertex percentage, by recording the structured
//! trace of every FM run and folding the per-move cut trajectory with
//! [`pass_summaries`].

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use vlsi_hypergraph::Hypergraph;
use vlsi_partition::trace::replay::pass_summaries;
use vlsi_partition::trace::{Sink, Tee, VecSink};
use vlsi_partition::{
    BipartFm, FmConfig, MultilevelConfig, PartitionError, RunCtx, SelectionPolicy,
};

use crate::harness::{find_good_solution, paper_balance};
use crate::regimes::{FixSchedule, Regime};
use crate::report::{fmt_f64, Table};

/// Profile of within-pass improvement at one fixed percentage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassProfileRow {
    /// Percentage of fixed vertices.
    pub percent: f64,
    /// Mean best-prefix position (fraction of the pass) over *first* passes.
    pub first_pass_best_pos: f64,
    /// Mean best-prefix position over later passes.
    pub later_pass_best_pos: f64,
    /// Fraction of later passes whose best prefix lies in the first 10% of
    /// the pass's moves.
    pub later_best_within_10pct: f64,
}

/// Runs the pass-profile experiment: `runs` LIFO-FM runs per percentage,
/// good-regime fixing, forwarding every trace event of the measured FM
/// runs to `forward` as well (the profile itself is always derived from an
/// internal [`VecSink`]).
///
/// # Errors
/// Propagates partitioning failures.
pub fn run_pass_profile<S: Sink>(
    hg: &Hypergraph,
    percentages: &[f64],
    runs: usize,
    seed: u64,
    forward: &S,
) -> Result<Vec<PassProfileRow>, PartitionError> {
    let balance = paper_balance(hg);
    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, seed)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9A55);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);
    let fm = BipartFm::new(FmConfig {
        policy: SelectionPolicy::Lifo,
        ..FmConfig::default()
    });

    let mut rows = Vec::with_capacity(percentages.len());
    for &pct in percentages {
        let fixed = schedule.at_percent(pct);
        let mut first_sum = 0.0;
        let mut first_n = 0usize;
        let mut later_sum = 0.0;
        let mut later_n = 0usize;
        let mut later_early = 0usize;
        for run in 0..runs {
            let mut run_rng =
                ChaCha8Rng::seed_from_u64(seed ^ (run as u64 + 1).wrapping_mul(0x51C0_FFEE));
            let initial = vlsi_partition::random_initial(hg, &fixed, &balance, 2, &mut run_rng)?;
            let record = VecSink::new();
            let tee = Tee::new(&record, forward);
            let ctx = RunCtx::new(&mut run_rng).with_sink(&tee);
            fm.run(hg, &fixed, &balance, initial, ctx)?;
            for trace in &pass_summaries(&record.take()) {
                let Some(pos) = trace.best_position_fraction() else {
                    continue;
                };
                if trace.pass == 0 {
                    first_sum += pos;
                    first_n += 1;
                } else {
                    later_sum += pos;
                    later_n += 1;
                    if pos <= 0.10 {
                        later_early += 1;
                    }
                }
            }
        }
        rows.push(PassProfileRow {
            percent: pct,
            first_pass_best_pos: if first_n > 0 {
                first_sum / first_n as f64
            } else {
                0.0
            },
            later_pass_best_pos: if later_n > 0 {
                later_sum / later_n as f64
            } else {
                0.0
            },
            later_best_within_10pct: if later_n > 0 {
                later_early as f64 / later_n as f64
            } else {
                0.0
            },
        });
    }
    Ok(rows)
}

/// Renders the profile rows.
pub fn render(circuit: &str, rows: &[PassProfileRow]) -> Table {
    let mut t = Table::new(vec![
        "circuit".into(),
        "fixed%".into(),
        "best pos, pass 1".into(),
        "best pos, later".into(),
        "later best in first 10%".into(),
    ]);
    for r in rows {
        t.row(vec![
            circuit.into(),
            fmt_f64(r.percent, 1),
            fmt_f64(r.first_pass_best_pos, 3),
            fmt_f64(r.later_pass_best_pos, 3),
            fmt_f64(r.later_best_within_10pct, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netgen::synthetic::{Generator, GeneratorConfig};
    use vlsi_partition::trace::NullSink;

    #[test]
    fn improvements_move_toward_pass_start_with_fixing() {
        let c = Generator::new(GeneratorConfig {
            num_cells: 400,
            num_pads: 16,
            ..GeneratorConfig::default()
        })
        .generate(21);
        let rows = run_pass_profile(&c.hypergraph, &[0.0, 50.0], 4, 3, &NullSink).unwrap();
        assert_eq!(rows.len(), 2);
        // With half the vertices fixed, later-pass improvements concentrate
        // earlier in the pass than in the free case.
        assert!(
            rows[1].later_pass_best_pos <= rows[0].later_pass_best_pos + 1e-9,
            "best position should move toward the start: {} -> {}",
            rows[0].later_pass_best_pos,
            rows[1].later_pass_best_pos
        );
    }

    #[test]
    fn render_shape() {
        let rows = vec![PassProfileRow {
            percent: 10.0,
            first_pass_best_pos: 0.8,
            later_pass_best_pos: 0.2,
            later_best_within_10pct: 0.5,
        }];
        let t = render("ibm01", &rows);
        assert_eq!(t.len(), 1);
        assert!(t.to_text().contains("0.200"));
    }
}
