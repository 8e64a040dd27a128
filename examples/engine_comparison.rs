//! Compares every bipartitioning engine in the repository — multilevel
//! CLIP/LIFO FM, flat FM, Kernighan–Lin, and simulated annealing — on the
//! same instance, with and without fixed terminals.
//!
//! Run with: `cargo run --release --example engine_comparison`

use std::time::Instant;

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use vlsi_experiments::harness::{find_good_solution, paper_balance};
use vlsi_experiments::regimes::{FixSchedule, Regime};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::{
    AnnealingConfig, EngineConfig, FmConfig, KlConfig, MultilevelConfig, Partitioner, RunCtx,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = ibm01_like_scaled(0.15, 7); // ~1900 cells
    let hg = &circuit.hypergraph;
    let balance = paper_balance(hg);
    println!(
        "{}: {} vertices, {} nets\n",
        circuit.name,
        hg.num_vertices(),
        hg.num_nets()
    );

    let good = find_good_solution(hg, &balance, &MultilevelConfig::default(), 4, 11)?;
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let schedule = FixSchedule::new(hg, Regime::Good, &good.parts, &mut rng);

    println!(
        "{:>24}  {:>12}  {:>12}  {:>9}",
        "engine", "cut @ 0%", "cut @ 30%", "time"
    );
    for (name, engine) in [
        (
            "multilevel (CLIP+LIFO)",
            EngineConfig::Multilevel(MultilevelConfig::default()),
        ),
        ("flat FM (LIFO)", EngineConfig::Fm(FmConfig::default())),
        ("Kernighan-Lin", EngineConfig::Kl(KlConfig::default())),
        (
            "simulated annealing",
            EngineConfig::Annealing(AnnealingConfig::default()),
        ),
    ] {
        let mut cuts = [0u64; 2];
        let mut elapsed = std::time::Duration::ZERO;
        for (slot, pct) in [(0usize, 0.0f64), (1, 30.0)] {
            let fixed = schedule.at_percent(pct);
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            let t0 = Instant::now();
            let cut = engine
                .partition_ctx(hg, &fixed, &balance, RunCtx::new(&mut rng))?
                .cut;
            elapsed += t0.elapsed();
            cuts[slot] = cut;
        }
        println!(
            "{:>24}  {:>12}  {:>12}  {:>8.3}s",
            name,
            cuts[0],
            cuts[1],
            elapsed.as_secs_f64()
        );
    }
    println!(
        "\nreference good cut: {} — the multilevel engine tracks it closely in\n\
         both regimes; the classical baselines (flat FM, KL, annealing) fall\n\
         progressively behind, which is exactly why the paper's testbed used\n\
         a leading-edge multilevel partitioner.",
        good.cut
    );
    Ok(())
}
