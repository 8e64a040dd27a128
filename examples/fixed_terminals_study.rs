//! A miniature version of the paper's core experiment (Figures 1–2):
//! sweep the fraction of fixed vertices and watch the instance become easy.
//!
//! Run with: `cargo run --release --example fixed_terminals_study`

use vlsi_experiments::figures::{run_figure, FigureConfig};
use vlsi_experiments::regimes::Regime;
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::trace::NullSink;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = ibm01_like_scaled(0.06, 11); // ~750 cells for a fast demo
    println!(
        "sweeping fixed fraction on {} ({} cells)…\n",
        circuit.name,
        circuit.num_cells()
    );

    let config = FigureConfig {
        percentages: vec![0.0, 2.0, 10.0, 20.0, 50.0],
        trials: 3,
        ..FigureConfig::default()
    };
    let fig = run_figure(&circuit.name, &circuit.hypergraph, &config, &NullSink)?;
    print!("{}", fig.render().to_text());
    println!("\nreference good cut: {}", fig.good_cut);

    // The paper's observations, stated on this run's data:
    let rand = fig.regime_points(Regime::Random);
    let first = rand.first().expect("sweep is non-empty");
    let last = rand.last().expect("sweep is non-empty");
    println!(
        "rand regime raw cut grows {:.0} -> {:.0} as fixing rises 0% -> 50%",
        first.raw[3], last.raw[3]
    );
    let gap_at = |p: &vlsi_experiments::figures::FigurePoint| p.raw[0] - p.raw[3];
    println!(
        "1-start vs 8-start gap: {:.1} at 0% fixed, {:.1} at 50% fixed —",
        gap_at(first),
        gap_at(last)
    );
    println!("with enough fixed terminals, multistart stops paying: the instance is easy.");
    Ok(())
}
