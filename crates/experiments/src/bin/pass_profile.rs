//! Within-pass improvement profiles (Section III analysis).

use vlsi_experiments::opts::{run_with_trace, Options, TraceRun};
use vlsi_experiments::pass_profile::{render, run_pass_profile};
use vlsi_experiments::table2::PAPER_TABLE2_PERCENTAGES;
use vlsi_netgen::instances::by_name;
use vlsi_partition::trace::Sink;

fn main() {
    let opts = Options::from_env();
    let trace = opts.trace.clone();
    run_with_trace(trace.as_deref(), Job(&opts));
}

struct Job<'a>(&'a Options);

impl TraceRun for Job<'_> {
    type Output = ();

    fn run<S: Sink>(self, sink: &S) {
        let opts = self.0;
        println!(
            "Within-pass improvement profiles (LIFO-FM, good-regime fixing),\n\
             {} runs, scale {}\n",
            opts.trials, opts.scale
        );
        for name in &opts.circuits {
            let Some(circuit) = by_name(name, opts.scale, opts.seed) else {
                eprintln!("unknown circuit `{name}`");
                std::process::exit(2);
            };
            match run_pass_profile(
                &circuit.hypergraph,
                &PAPER_TABLE2_PERCENTAGES,
                opts.trials,
                opts.seed,
                sink,
            ) {
                Ok(rows) => println!("{}", render(&circuit.name, &rows).render(opts.csv)),
                Err(e) => {
                    eprintln!("{name}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
