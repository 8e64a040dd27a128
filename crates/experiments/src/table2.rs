//! Table II: average number of passes per run and average percentage of
//! nodes moved per pass (excluding the first pass), for LIFO-FM runs at
//! increasing fixed-vertex percentages.
//!
//! The statistics are aggregated from the structured trace stream: every
//! run records into a [`VecSink`], the stream is folded to per-pass
//! summaries with [`pass_summaries`], and the Table II columns are
//! computed from those summaries. An optional forwarding sink receives
//! the same events (e.g. a [`vlsi_partition::trace::JsonlSink`] behind
//! `--trace`).

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use vlsi_hypergraph::Hypergraph;
use vlsi_partition::trace::replay::pass_summaries;
use vlsi_partition::trace::{Sink, Tee, VecSink};
use vlsi_partition::{
    BipartFm, FmConfig, MultilevelConfig, PartitionError, Partitioner, RunCtx, SelectionPolicy,
};

use crate::harness::{find_good_solution, paper_balance};
use crate::regimes::{FixSchedule, Regime};
use crate::report::{fmt_f64, Table};

/// The fixed-vertex percentages of the paper's Table II.
pub const PAPER_TABLE2_PERCENTAGES: [f64; 7] = [0.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0];

/// One Table II row: pass statistics at one fixed percentage.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Percentage of fixed vertices.
    pub percent: f64,
    /// Average number of passes per run.
    pub avg_passes: f64,
    /// Average percentage of movable nodes moved per pass, excluding the
    /// first pass.
    pub avg_pct_moved: f64,
    /// Average position of the best prefix within later passes (extra
    /// observable backing "improvements occur near the beginning").
    pub avg_best_prefix: f64,
    /// Average final cut (context).
    pub avg_cut: f64,
}

/// Runs the Table II experiment for one circuit.
///
/// `runs` LIFO-FM runs are performed per percentage (the paper: 50); fixed
/// vertices follow the *good* regime, nested across percentages. Every
/// trace event of the measured FM runs is forwarded to `forward` as well
/// (the aggregation itself always happens on an internal [`VecSink`]; pass
/// [`NullSink`](vlsi_partition::trace::NullSink) to forward nothing). The
/// schedule-construction multilevel run is not traced — only the measured
/// LIFO-FM runs are.
///
/// # Errors
/// Propagates partitioning failures.
pub fn run_table2<S: Sink>(
    hg: &Hypergraph,
    percentages: &[f64],
    runs: usize,
    seed: u64,
    forward: &S,
) -> Result<Vec<Table2Row>, PartitionError> {
    let balance = paper_balance(hg);
    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, seed)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7AB1E2);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);
    let fm = BipartFm::new(FmConfig {
        policy: SelectionPolicy::Lifo,
        ..FmConfig::default()
    });

    let mut rows = Vec::with_capacity(percentages.len());
    for &pct in percentages {
        let fixed = schedule.at_percent(pct);
        let mut passes_sum = 0.0;
        let mut pct_moved_sum = 0.0;
        let mut pct_moved_count = 0usize;
        let mut prefix_sum = 0.0;
        let mut prefix_count = 0usize;
        let mut cut_sum = 0.0;
        let n = hg.num_vertices() as f64;
        for run in 0..runs {
            let mut run_rng =
                ChaCha8Rng::seed_from_u64(seed ^ (run as u64 + 1).wrapping_mul(0xA24B_AED4));
            let record = VecSink::new();
            let tee = Tee::new(&record, forward);
            let ctx = RunCtx::new(&mut run_rng).with_sink(&tee);
            let result = fm.partition_ctx(hg, &fixed, &balance, ctx)?;
            let passes = pass_summaries(&record.take());
            passes_sum += passes.len() as f64;
            // Per the paper's Table II, the percentage is of *nodes* of the
            // instance, so fixed terminals count in the denominator: a
            // classic FM pass moves every movable vertex, and the decline
            // with the fixed fraction is exactly the point.
            let later = passes.get(1..).unwrap_or(&[]);
            if !later.is_empty() {
                pct_moved_sum += later
                    .iter()
                    .map(|p| 100.0 * p.moves as f64 / n)
                    .sum::<f64>()
                    / later.len() as f64;
                pct_moved_count += 1;
            }
            // Mean kept/made over later passes that made a move — the same
            // quantity as `RunStats::avg_best_prefix_fraction_excl_first`.
            if passes.len() >= 2 {
                let fracs: Vec<f64> = passes[1..]
                    .iter()
                    .filter_map(|p| p.kept_fraction())
                    .collect();
                if !fracs.is_empty() {
                    prefix_sum += fracs.iter().sum::<f64>() / fracs.len() as f64;
                    prefix_count += 1;
                }
            }
            cut_sum += result.cut as f64;
        }
        rows.push(Table2Row {
            percent: pct,
            avg_passes: passes_sum / runs as f64,
            avg_pct_moved: if pct_moved_count > 0 {
                pct_moved_sum / pct_moved_count as f64
            } else {
                0.0
            },
            avg_best_prefix: if prefix_count > 0 {
                prefix_sum / prefix_count as f64
            } else {
                0.0
            },
            avg_cut: cut_sum / runs as f64,
        });
    }
    Ok(rows)
}

/// Renders Table II rows.
pub fn render(circuit: &str, rows: &[Table2Row]) -> Table {
    let mut t = Table::new(vec![
        "circuit".into(),
        "fixed%".into(),
        "avg passes/run".into(),
        "avg %moved/pass".into(),
        "best-prefix frac".into(),
        "avg cut".into(),
    ]);
    for r in rows {
        t.row(vec![
            circuit.into(),
            fmt_f64(r.percent, 1),
            fmt_f64(r.avg_passes, 2),
            fmt_f64(r.avg_pct_moved, 1),
            fmt_f64(r.avg_best_prefix, 3),
            fmt_f64(r.avg_cut, 1),
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
    fn pct_moved_falls_with_fixed_fraction() {
        let c = Generator::new(GeneratorConfig {
            num_cells: 300,
            num_pads: 12,
            ..GeneratorConfig::default()
        })
        .generate(4);
        let rows = run_table2(&c.hypergraph, &[0.0, 40.0], 4, 11, &NullSink).unwrap();
        assert_eq!(rows.len(), 2);
        // The paper's Table II trend: more fixed terminals => smaller
        // fraction of nodes moved per (post-first) pass.
        assert!(
            rows[1].avg_pct_moved < rows[0].avg_pct_moved,
            "moved%% should fall: {} -> {}",
            rows[0].avg_pct_moved,
            rows[1].avg_pct_moved
        );
    }

    #[test]
    fn sinked_run_matches_plain_run() {
        use vlsi_partition::trace::CounterSink;
        let c = Generator::new(GeneratorConfig {
            num_cells: 200,
            num_pads: 8,
            ..GeneratorConfig::default()
        })
        .generate(9);
        let plain = run_table2(&c.hypergraph, &[0.0, 30.0], 3, 5, &NullSink).unwrap();
        let counters = CounterSink::new();
        let forwarded = run_table2(&c.hypergraph, &[0.0, 30.0], 3, 5, &counters).unwrap();
        assert_eq!(plain, forwarded);
        let snap = counters.snapshot();
        assert!(snap.passes > 0);
        assert!(snap.moves_tried >= snap.moves_committed);
    }

    #[test]
    fn render_shape() {
        let rows = vec![Table2Row {
            percent: 0.0,
            avg_passes: 4.5,
            avg_pct_moved: 62.0,
            avg_best_prefix: 0.4,
            avg_cut: 300.0,
        }];
        let t = render("ibm01", &rows);
        assert_eq!(t.len(), 1);
        assert!(t.to_text().contains("62.0"));
    }
}
