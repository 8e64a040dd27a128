//! Regenerates the paper's Figures 1 and 2 (fixed-fraction sweeps: raw
//! cut, normalized cut and CPU time for 1/2/4/8 starts, good and rand
//! regimes).

use vlsi_experiments::figures::{run_figure, FigureConfig};
use vlsi_experiments::opts::Options;
use vlsi_experiments::regimes::Regime;
use vlsi_netgen::instances::by_name;
use vlsi_partition::trace::NullSink;

fn main() {
    let opts = Options::from_env();
    println!(
        "Figures 1-2: multilevel partitioner, 2% balance, actual areas,\n\
         {} trials, scale {}\n",
        opts.trials, opts.scale
    );
    for name in &opts.circuits {
        let Some(circuit) = by_name(name, opts.scale, opts.seed) else {
            eprintln!("unknown circuit `{name}`");
            std::process::exit(2);
        };
        let config = FigureConfig {
            trials: opts.trials,
            seed: opts.seed,
            ..FigureConfig::default()
        };
        match run_figure(&circuit.name, &circuit.hypergraph, &config, &NullSink) {
            Ok(fig) => {
                println!("{}", fig.render().render(opts.csv));
                if !opts.csv {
                    println!("reference good cut: {}", fig.good_cut);
                    for regime in [Regime::Good, Regime::Random] {
                        match fig.single_start_sufficient_from(regime, 0.05) {
                            Some(p) => println!(
                                "{}: one start within 5% of eight starts from {p}% fixed",
                                regime.label()
                            ),
                            None => println!(
                                "{}: one start never within 5% of eight starts",
                                regime.label()
                            ),
                        }
                    }
                    if let Some((pct, cut)) = fig.nonmonotonic_peak(Regime::Good) {
                        println!(
                            "good: nonmonotonic quality peak at {pct}% fixed (raw@8 = {cut:.1}) — \
                             the paper's overconstrained-instance effect"
                        );
                    }
                    println!();
                }
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                std::process::exit(1);
            }
        }
    }
}
