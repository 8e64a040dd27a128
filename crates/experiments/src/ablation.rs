//! Quality ablations of the multilevel engine's design choices.
//!
//! The criterion benches measure *time*; this module measures *cut* for
//! each variant DESIGN.md calls out (refinement policy, V-cycling,
//! free–fixed merging in coarsening), at several fixed percentages, so the
//! trade-offs the reproduction discovered are recorded as data.

use std::time::{Duration, Instant};

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use vlsi_hypergraph::Hypergraph;
use vlsi_partition::{EngineConfig, MultilevelConfig, Multistart, PartitionError, RunCtx};

use crate::harness::{find_good_solution, paper_balance};
use crate::regimes::{FixSchedule, Regime};
use crate::report::{fmt_f64, Table};

/// An engine variant under ablation.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Display name.
    pub name: &'static str,
    /// The configuration it runs with.
    pub config: MultilevelConfig,
    /// V-cycles run over the engine's solution (the multistart quality
    /// phase of a single start).
    pub vcycles: usize,
}

/// The standard ablation battery.
pub fn standard_variants() -> Vec<Variant> {
    // The single-stage variants run the default's own stages, so their
    // passes end the same way as the default's.
    let base = MultilevelConfig::default();
    let clip_only = MultilevelConfig {
        refine_fm2: None,
        ..base
    };
    let lifo_only = MultilevelConfig {
        refine_fm: base.refine_fm2.expect("the default stacks a LIFO stage"),
        refine_fm2: None,
        ..base
    };
    vec![
        Variant {
            name: "default (CLIP+LIFO)",
            config: base,
            vcycles: 0,
        },
        Variant {
            name: "refine CLIP only",
            config: clip_only,
            vcycles: 0,
        },
        Variant {
            name: "refine LIFO only",
            config: lifo_only,
            vcycles: 0,
        },
        Variant {
            name: "with 1 V-cycle",
            config: base,
            vcycles: 1,
        },
    ]
}

/// One measured ablation cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationCell {
    /// Variant name.
    pub variant: &'static str,
    /// Fixed percentage of the instance.
    pub percent: f64,
    /// Average cut over the runs.
    pub avg_cut: f64,
    /// Average wall-clock time per run.
    pub avg_time: Duration,
}

/// Runs the ablation battery: `runs` multilevel runs per (variant, fixed%),
/// good-regime fixing.
///
/// # Errors
/// Propagates partitioning failures.
pub fn run_ablation(
    hg: &Hypergraph,
    variants: &[Variant],
    percentages: &[f64],
    runs: usize,
    seed: u64,
) -> Result<Vec<AblationCell>, PartitionError> {
    let balance = paper_balance(hg);
    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, seed)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xAB1A);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);

    let mut cells = Vec::new();
    for variant in variants {
        let engine = EngineConfig::Multilevel(variant.config);
        let driver = Multistart::new(1).vcycles(variant.vcycles);
        for &pct in percentages {
            let fixed = schedule.at_percent(pct);
            let mut cut_sum = 0.0;
            let mut time_sum = Duration::ZERO;
            for run in 0..runs {
                let mut run_rng =
                    ChaCha8Rng::seed_from_u64(seed ^ (run as u64 + 1).wrapping_mul(0xAB1A_7E57));
                let t0 = Instant::now();
                let ctx = RunCtx::new(&mut run_rng);
                let r = driver.run(hg, &fixed, &balance, &engine, ctx)?.best;
                time_sum += t0.elapsed();
                cut_sum += r.cut as f64;
            }
            cells.push(AblationCell {
                variant: variant.name,
                percent: pct,
                avg_cut: cut_sum / runs as f64,
                avg_time: time_sum / runs as u32,
            });
        }
    }
    Ok(cells)
}

/// Renders the ablation results: one row per variant, cut (time) columns
/// per percentage.
pub fn render(circuit: &str, cells: &[AblationCell], percentages: &[f64]) -> Table {
    let mut header = vec!["circuit".to_string(), "variant".to_string()];
    header.extend(percentages.iter().map(|p| format!("{p}% fixed")));
    let mut t = Table::new(header);
    let mut variants: Vec<&'static str> = cells.iter().map(|c| c.variant).collect();
    variants.dedup();
    for v in variants {
        let mut row = vec![circuit.to_string(), v.to_string()];
        for &pct in percentages {
            let cell = cells
                .iter()
                .find(|c| c.variant == v && c.percent == pct)
                .expect("cell exists");
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

    #[test]
    fn ablation_reproduces_the_refinement_finding() {
        let c = Generator::new(GeneratorConfig {
            num_cells: 600,
            num_pads: 16,
            ..GeneratorConfig::default()
        })
        .generate(31);
        let variants = standard_variants();
        let cells = run_ablation(&c.hypergraph, &variants, &[30.0], 3, 17).unwrap();
        let get = |name: &str| {
            cells
                .iter()
                .find(|x| x.variant == name && x.percent == 30.0)
                .expect("cell")
                .avg_cut
        };
        // On a fixed-terminal instance the stacked default must not be
        // worse than CLIP-only refinement (the engineering finding).
        assert!(
            get("default (CLIP+LIFO)") <= get("refine CLIP only") + 1e-9,
            "stacked {} vs clip-only {}",
            get("default (CLIP+LIFO)"),
            get("refine CLIP only")
        );
    }

    #[test]
    fn render_layout() {
        let cells = vec![
            AblationCell {
                variant: "a",
                percent: 0.0,
                avg_cut: 10.0,
                avg_time: Duration::from_millis(5),
            },
            AblationCell {
                variant: "a",
                percent: 30.0,
                avg_cut: 12.0,
                avg_time: Duration::from_millis(3),
            },
        ];
        let t = render("x", &cells, &[0.0, 30.0]);
        assert_eq!(t.len(), 1);
        assert!(t.to_text().contains("10.0 (0.005)"));
    }
}
