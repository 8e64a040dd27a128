//! Runs the complete reproduction battery: Table I, Figures 1–2, Tables
//! II–IV, printing everything in one report (the source of EXPERIMENTS.md).
//!
//! With `--trace PATH`, the structured event stream of every measured run
//! (level brackets, FM passes, multistart records) is written as JSONL to
//! PATH — see docs/TRACING.md for the schema.

use vlsi_experiments::figures::{run_figure, FigureConfig};
use vlsi_experiments::opts::{run_with_trace, Options, TraceRun};
use vlsi_experiments::regimes::Regime;
use vlsi_experiments::table2::{self, PAPER_TABLE2_PERCENTAGES};
use vlsi_experiments::table3::{self, PAPER_CUTOFFS};
use vlsi_experiments::{table1, table4};
use vlsi_netgen::instances::by_name;
use vlsi_partition::trace::Sink;

fn main() {
    let opts = Options::from_env();
    let trace = opts.trace.clone();
    run_with_trace(trace.as_deref(), Battery(&opts));
}

struct Battery<'a>(&'a Options);

impl TraceRun for Battery<'_> {
    type Output = ();

    fn run<S: Sink>(self, sink: &S) {
        run_battery(self.0, sink);
    }
}

fn run_battery<S: Sink>(opts: &Options, sink: &S) {
    println!(
        "# Reproduction battery (scale {}, trials {}, seed {})\n",
        opts.scale, opts.trials, opts.seed
    );

    println!("## Table I\n");
    println!("{}", table1::render().render(opts.csv));

    let circuits: Vec<_> = opts
        .circuits
        .iter()
        .filter_map(|name| {
            let c = by_name(name, opts.scale, opts.seed);
            if c.is_none() {
                eprintln!("unknown circuit `{name}` (skipped)");
            }
            c
        })
        .collect();

    println!("## Figures 1-2\n");
    for circuit in &circuits {
        let config = FigureConfig {
            trials: opts.trials,
            seed: opts.seed,
            ..FigureConfig::default()
        };
        match run_figure(&circuit.name, &circuit.hypergraph, &config, sink) {
            Ok(fig) => {
                println!("{}", fig.render().render(opts.csv));
                println!("reference good cut: {}", fig.good_cut);
                for regime in [Regime::Good, Regime::Random] {
                    if let Some(p) = fig.single_start_sufficient_from(regime, 0.05) {
                        println!(
                            "{}: one start within 5% of eight starts from {p}% fixed",
                            regime.label()
                        );
                    }
                }
                if let Some((pct, cut)) = fig.nonmonotonic_peak(Regime::Good) {
                    println!("good: nonmonotonic quality peak at {pct}% fixed (raw@8 = {cut:.1})");
                }
                println!();
            }
            Err(e) => eprintln!("{}: {e}", circuit.name),
        }
    }

    println!("## Table II\n");
    for circuit in &circuits {
        match table2::run_table2(
            &circuit.hypergraph,
            &PAPER_TABLE2_PERCENTAGES,
            opts.trials,
            opts.seed,
            sink,
        ) {
            Ok(rows) => println!("{}", table2::render(&circuit.name, &rows).render(opts.csv)),
            Err(e) => eprintln!("{}: {e}", circuit.name),
        }
    }

    println!("## Table III\n");
    for circuit in &circuits {
        match table3::run_table3(
            &circuit.hypergraph,
            &PAPER_TABLE2_PERCENTAGES,
            &PAPER_CUTOFFS,
            opts.trials,
            opts.seed,
            sink,
        ) {
            Ok(cells) => println!(
                "{}",
                table3::render(&circuit.name, &cells, &PAPER_CUTOFFS).render(opts.csv)
            ),
            Err(e) => eprintln!("{}: {e}", circuit.name),
        }
    }

    println!("## Table IV\n");
    let mut all = Vec::new();
    for circuit in &circuits {
        all.extend(table4::derive(circuit, None));
    }
    print!("{}", table4::render(&all).render(opts.csv));
}
