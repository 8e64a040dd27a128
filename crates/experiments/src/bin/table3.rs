//! Regenerates the paper's Table III (pass cutoff effects on cut and time).

use vlsi_experiments::opts::Options;
use vlsi_experiments::table2::PAPER_TABLE2_PERCENTAGES;
use vlsi_experiments::table3::{self, PAPER_CUTOFFS};
use vlsi_netgen::instances::by_name;
use vlsi_partition::trace::NullSink;

fn main() {
    let opts = Options::from_env();
    println!(
        "Table III: avg cut (avg CPU seconds) of single LIFO-FM starts under\n\
         pass cutoffs, good-regime fixing, {} runs, scale {}\n",
        opts.trials, opts.scale
    );
    for name in &opts.circuits {
        let Some(circuit) = by_name(name, opts.scale, opts.seed) else {
            eprintln!("unknown circuit `{name}`");
            std::process::exit(2);
        };
        match table3::run_table3(
            &circuit.hypergraph,
            &PAPER_TABLE2_PERCENTAGES,
            &PAPER_CUTOFFS,
            opts.trials,
            opts.seed,
            &NullSink,
        ) {
            Ok(cells) => println!(
                "{}",
                table3::render(&circuit.name, &cells, &PAPER_CUTOFFS).render(opts.csv)
            ),
            Err(e) => {
                eprintln!("{name}: {e}");
                std::process::exit(1);
            }
        }
    }
}
