//! Table III: effects of hard pass cutoffs (after the first pass) on
//! average cut and CPU time of single LIFO-FM starts.

use std::time::{Duration, Instant};

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use vlsi_hypergraph::Hypergraph;
use vlsi_partition::trace::Sink;
use vlsi_partition::{
    BipartFm, FmConfig, MultilevelConfig, PartitionError, Partitioner, PassCutoff, RunCtx,
    SelectionPolicy,
};

use crate::harness::{find_good_solution, paper_balance};
use crate::regimes::{FixSchedule, Regime};
use crate::report::{fmt_f64, Table};

/// The cutoffs of the paper's Table III (unlimited plus 50/25/10/5 %).
pub const PAPER_CUTOFFS: [PassCutoff; 5] = [
    PassCutoff::Unlimited,
    PassCutoff::Fraction(0.50),
    PassCutoff::Fraction(0.25),
    PassCutoff::Fraction(0.10),
    PassCutoff::Fraction(0.05),
];

/// One Table III cell: average cut and time at one (percentage, cutoff).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Cell {
    /// Percentage of fixed vertices.
    pub percent: f64,
    /// The pass cutoff in force.
    pub cutoff: PassCutoff,
    /// Average cut over the runs.
    pub avg_cut: f64,
    /// Average CPU (wall-clock) time per run.
    pub avg_time: Duration,
}

/// Runs the Table III experiment for one circuit: `runs` single LIFO-FM
/// starts per (percentage, cutoff) cell, good-regime fixing, streaming the
/// trace of every measured FM run into `sink`. Note the timing column
/// measures the *traced* runs, so a heavy sink (e.g. JSONL to disk)
/// inflates the reported times; counters and the null sink do not
/// measurably.
///
/// # Errors
/// Propagates partitioning failures.
pub fn run_table3<S: Sink>(
    hg: &Hypergraph,
    percentages: &[f64],
    cutoffs: &[PassCutoff],
    runs: usize,
    seed: u64,
    sink: &S,
) -> Result<Vec<Table3Cell>, PartitionError> {
    let balance = paper_balance(hg);
    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, seed)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7AB1E3);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);

    let mut cells = Vec::with_capacity(percentages.len() * cutoffs.len());
    for &pct in percentages {
        let fixed = schedule.at_percent(pct);
        for &cutoff in cutoffs {
            let fm = BipartFm::new(FmConfig {
                policy: SelectionPolicy::Lifo,
                cutoff,
                // Run passes to natural termination (no improvement), as the
                // paper does: short cut-off passes need more of them.
                max_passes: 10_000,
                ..FmConfig::default()
            });
            let mut cut_sum = 0.0;
            let mut time_sum = Duration::ZERO;
            for run in 0..runs {
                // Same per-run seed across cutoffs: identical initial
                // solutions, so the comparison isolates the cutoff.
                let mut run_rng =
                    ChaCha8Rng::seed_from_u64(seed ^ (run as u64 + 1).wrapping_mul(0xC0FF_EE11));
                let t0 = Instant::now();
                let ctx = RunCtx::new(&mut run_rng).with_sink(sink);
                let result = fm.partition_ctx(hg, &fixed, &balance, ctx)?;
                time_sum += t0.elapsed();
                cut_sum += result.cut as f64;
            }
            cells.push(Table3Cell {
                percent: pct,
                cutoff,
                avg_cut: cut_sum / runs as f64,
                avg_time: time_sum / runs as u32,
            });
        }
    }
    Ok(cells)
}

/// Renders Table III in the paper's layout: one row per percentage, one
/// column per cutoff, cells as `cut (seconds)`.
pub fn render(circuit: &str, cells: &[Table3Cell], cutoffs: &[PassCutoff]) -> Table {
    let mut header = vec!["circuit".to_string(), "fixed%".to_string()];
    header.extend(cutoffs.iter().map(|c| c.to_string()));
    let mut t = Table::new(header);

    let mut percentages: Vec<f64> = cells.iter().map(|c| c.percent).collect();
    percentages.dedup();
    for pct in percentages {
        let mut row = vec![circuit.to_string(), fmt_f64(pct, 1)];
        for &cutoff in cutoffs {
            let cell = cells
                .iter()
                .find(|c| c.percent == pct && c.cutoff == cutoff)
                .expect("cell exists for every (pct, cutoff)");
            row.push(format!(
                "{} ({})",
                fmt_f64(cell.avg_cut, 1),
                fmt_f64(cell.avg_time.as_secs_f64(), 3)
            ));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netgen::synthetic::{Generator, GeneratorConfig};
    use vlsi_partition::trace::NullSink;

    #[test]
    fn cutoffs_hurt_without_terminals_but_are_safer_with() {
        // The paper's Table III claim is *relative*: "For instances without
        // sufficient terminals, early stopping has a detrimental effect on
        // solution quality, but with sufficient terminals [much less] effect
        // is seen. In all cases, limiting the number of moves in a pass
        // improves runtime." At small scales the effect needs a few
        // thousand cells to measure, hence the instance size here.
        let c = Generator::new(GeneratorConfig {
            num_cells: 1500,
            num_pads: 20,
            ..GeneratorConfig::default()
        })
        .generate(9);
        let cells = run_table3(
            &c.hypergraph,
            &[0.0, 50.0],
            &[PassCutoff::Unlimited, PassCutoff::Fraction(0.05)],
            4,
            21,
            &NullSink,
        )
        .unwrap();
        assert_eq!(cells.len(), 4);
        let get = |pct: f64, cutoff: PassCutoff| {
            cells
                .iter()
                .find(|c| c.percent == pct && c.cutoff == cutoff)
                .copied()
                .unwrap()
        };
        let free_unlimited = get(0.0, PassCutoff::Unlimited);
        let free_cut5 = get(0.0, PassCutoff::Fraction(0.05));
        let fixed_unlimited = get(50.0, PassCutoff::Unlimited);
        let fixed_cut5 = get(50.0, PassCutoff::Fraction(0.05));
        // Without terminals the cutoff degrades quality.
        assert!(
            free_cut5.avg_cut > free_unlimited.avg_cut,
            "free instance: cutoff should hurt quality"
        );
        // With 50% fixed the *relative* degradation is clearly smaller.
        let deg_free = free_cut5.avg_cut / free_unlimited.avg_cut.max(1.0);
        let deg_fixed = fixed_cut5.avg_cut / fixed_unlimited.avg_cut.max(1.0);
        assert!(
            deg_fixed < deg_free,
            "cutoff should be relatively safer with terminals: {deg_fixed:.2}x vs {deg_free:.2}x"
        );
        // And the cutoff reduces runtime on both regimes at this size.
        assert!(fixed_cut5.avg_time < fixed_unlimited.avg_time);
        assert!(free_cut5.avg_time < free_unlimited.avg_time);
    }

    #[test]
    fn render_layout() {
        let cutoffs = [PassCutoff::Unlimited, PassCutoff::Fraction(0.5)];
        let cells = vec![
            Table3Cell {
                percent: 0.0,
                cutoff: PassCutoff::Unlimited,
                avg_cut: 10.0,
                avg_time: Duration::from_millis(120),
            },
            Table3Cell {
                percent: 0.0,
                cutoff: PassCutoff::Fraction(0.5),
                avg_cut: 11.0,
                avg_time: Duration::from_millis(60),
            },
        ];
        let t = render("ibm01", &cells, &cutoffs);
        assert_eq!(t.len(), 1);
        let text = t.to_text();
        assert!(text.contains("10.0 (0.120)"));
        assert!(text.contains("11.0 (0.060)"));
    }
}
