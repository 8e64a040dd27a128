//! Top-down placement — the application that motivates the paper.
//!
//! Generates an IBM-like synthetic circuit, places it with the
//! recursive-bisection placer (whose every bisection is a fixed-terminals
//! partitioning instance), and compares wirelength with and without
//! terminal propagation.
//!
//! Run with: `cargo run --release --example topdown_placement`

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_placer::{hpwl, legalize_rows, PlacerConfig, TopDownPlacer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = ibm01_like_scaled(0.08, 7); // ~1000 cells
    println!(
        "circuit {}: {} cells, {} pads, {} nets",
        circuit.name,
        circuit.num_cells(),
        circuit.num_pads(),
        circuit.hypergraph.num_nets()
    );

    for propagate in [true, false] {
        let placer = TopDownPlacer::new(PlacerConfig {
            terminal_propagation: propagate,
            ..PlacerConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(1999);
        let placement = placer.place_circuit(&circuit, &mut rng)?;
        let wl = hpwl(&circuit.hypergraph, &placement.positions);
        println!(
            "terminal propagation {:>5}: HPWL = {:10.1}, {} bisections, \
             fixed fraction {:.1}% mean per instance, {:.1}% pooled",
            propagate,
            wl,
            placement.num_bisections(),
            100.0 * placement.mean_fixed_fraction(),
            100.0 * placement.pooled_fixed_fraction()
        );
    }
    // Legalize the terminal-propagated placement into standard-cell rows.
    let placer = TopDownPlacer::new(PlacerConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(1999);
    let placement = placer.place_circuit(&circuit, &mut rng)?;
    let anchored: Vec<bool> = circuit
        .hypergraph
        .vertices()
        .map(|v| circuit.is_pad(v))
        .collect();
    let rows = (circuit.num_cells() as f64).sqrt().round() as usize;
    let legal = legalize_rows(
        &circuit.hypergraph,
        &placement.positions,
        &anchored,
        circuit.die,
        rows.max(1),
    );
    println!(
        "\nlegalized into {rows} rows: HPWL {:.1} -> {:.1} \
         (mean displacement {:.2})",
        hpwl(&circuit.hypergraph, &placement.positions),
        hpwl(&circuit.hypergraph, &legal.positions),
        legal.mean_displacement
    );
    println!(
        "\nNote how every bisection after the first carries fixed terminals —\n\
         the paper's point: the partitioner's real-world inputs are never\n\
         free hypergraphs."
    );
    Ok(())
}
