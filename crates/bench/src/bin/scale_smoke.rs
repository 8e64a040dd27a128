//! Bounded million-cell smoke: generate a Rent-faithful instance with the
//! streaming netgen path, run a full multilevel bisection, check the
//! result is legal, and report wall-clock plus peak RSS. The bisection runs
//! on one thread. `scripts/ci.sh` runs this as the memory-safety net for
//! the compact-CSR layout.
//!
//! Environment knobs (all optional):
//!
//! * `SCALE_SMOKE_CELLS` — instance size (default `1000000`).
//! * `SCALE_SMOKE_SEED` — generator/partitioner seed (default `7`).
//! * `SCALE_SMOKE_MAX_RSS_MB` — fail if peak RSS exceeds this (default
//!   `0` = report only).

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, PartId, Tolerance, VertexId};
use vlsi_partition::{MultilevelConfig, MultilevelPartitioner, Partitioner, RunCtx};
use vlsi_rng::{ChaCha8Rng, SeedableRng};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let cells = env_u64("SCALE_SMOKE_CELLS", 1_000_000) as usize;
    let seed = env_u64("SCALE_SMOKE_SEED", 7);
    let max_rss_mb = env_u64("SCALE_SMOKE_MAX_RSS_MB", 0);

    let t0 = std::time::Instant::now();
    let scale = cells as f64 / 1_000_000.0;
    let circuit = vlsi_netgen::instances::million_cells_scaled(scale, seed);
    let hg = &circuit.hypergraph;
    println!(
        "scale_smoke: generated {} in {:.2?}: {} vertices, {} nets, {} pins, {:.1} MiB CSR",
        circuit.name,
        t0.elapsed(),
        hg.num_vertices(),
        hg.num_nets(),
        hg.num_pins(),
        mb(hg.arena_bytes() as u64),
    );

    // The paper's regime: a sprinkling of fixed terminals on both sides.
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 50 {
        fixed.fix(VertexId((i * 41) as u32), PartId((i % 2) as u32));
    }
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));

    let ml = MultilevelPartitioner::new(MultilevelConfig {
        coarse_starts: 1,
        ..MultilevelConfig::default()
    });
    let t1 = std::time::Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let result = ml
        .partition_ctx(hg, &fixed, &balance, RunCtx::new(&mut rng))
        .expect("multilevel partition of the smoke instance");
    println!(
        "scale_smoke: partitioned in {:.2?}: cut = {}",
        t1.elapsed(),
        result.cut
    );

    // Legality: assignment shape, fixed vertices respected, balance held.
    assert_eq!(result.parts.len(), hg.num_vertices(), "assignment length");
    let mut loads = [0u64; 2];
    for (i, &p) in result.parts.iter().enumerate() {
        let v = VertexId(i as u32);
        assert!(p.index() < 2, "vertex {i} assigned to part {}", p.index());
        assert!(
            fixed.fixity(v).allows(p),
            "fixed vertex {i} landed in part {}",
            p.index()
        );
        loads[p.index()] += hg.vertex_weight(v);
    }
    assert!(
        balance.is_satisfied(&loads),
        "balance violated: loads {loads:?}"
    );
    println!("scale_smoke: legality ok (loads {loads:?})");

    match bench::mem::peak_rss_bytes() {
        Some(peak) => {
            println!("scale_smoke: peak RSS {:.1} MiB", mb(peak));
            if max_rss_mb > 0 && mb(peak) > max_rss_mb as f64 {
                eprintln!("scale_smoke: FAIL: peak RSS exceeds {max_rss_mb} MiB");
                std::process::exit(1);
            }
        }
        None => println!("scale_smoke: no procfs; skipping the RSS gate"),
    }
}
