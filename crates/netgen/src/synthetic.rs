//! Gnl-style hierarchical netlist generation with a controllable Rent
//! exponent and a native placement: the configuration, and the generator
//! behind the IBM-like presets.
//!
//! [`Generator`] runs the one Rent construction of [`scale`](crate::scale),
//! which hands each net over when it closes, and keeps the nets to build
//! them in the order they were created. It continues the construction's
//! random stream for the cell areas, and creates only the pads that the
//! root's open endpoints reach. The streaming
//! [`build_circuit`](crate::scale::build_circuit) runs the same
//! construction for the scale presets.

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use vlsi_hypergraph::{HypergraphBuilder, VertexId};

use crate::areas::AreaDistribution;
use crate::circuit::Circuit;
use crate::geometry::Point;
use crate::scale::{finish_circuit, stream_nets};

/// Configuration of the synthetic generator.
///
/// # Example
/// ```
/// use vlsi_netgen::synthetic::GeneratorConfig;
/// let cfg = GeneratorConfig::default();
/// assert_eq!(cfg.rent_exponent, 0.62);
/// assert!(cfg.pins_per_cell > 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Name given to the generated circuit.
    pub name: String,
    /// Number of movable cells.
    pub num_cells: usize,
    /// Target Rent exponent `p`.
    pub rent_exponent: f64,
    /// Average pins per cell `k` (the paper: ≈ 3.5–4 for modern designs).
    pub pins_per_cell: f64,
    /// Number of I/O pads (the paper: typically < 1% of all vertices).
    pub num_pads: usize,
    /// Probability that joining endpoints extends an existing boundary net
    /// instead of creating a fresh 2-pin net (controls net fanout).
    pub extend_probability: f64,
    /// Probability that a newly created or extended net stays open (keeps
    /// counting as a terminal of the merged block).
    pub keep_open_probability: f64,
    /// Cell-area distribution.
    pub areas: AreaDistribution,
    /// Cells per leaf block of the hierarchy.
    pub leaf_size: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            name: "synthetic".into(),
            num_cells: 1000,
            rent_exponent: 0.62,
            pins_per_cell: 3.8,
            num_pads: 64,
            extend_probability: 0.45,
            keep_open_probability: 0.45,
            areas: AreaDistribution::ibm_like(),
            leaf_size: 4,
        }
    }
}

/// The synthetic circuit generator.
///
/// # Example
/// ```
/// use vlsi_netgen::synthetic::{Generator, GeneratorConfig};
/// let circuit = Generator::new(GeneratorConfig {
///     num_cells: 256,
///     ..GeneratorConfig::default()
/// })
/// .generate(42);
/// assert_eq!(circuit.num_cells(), 256);
/// // Pads sit after the cells and have zero area.
/// let pad = circuit.pads().next().unwrap();
/// assert_eq!(circuit.hypergraph.vertex_weight(pad), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Generator {
    config: GeneratorConfig,
}

impl Generator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics if `num_cells == 0` or `leaf_size == 0`.
    pub fn new(config: GeneratorConfig) -> Self {
        assert!(config.num_cells > 0, "need at least one cell");
        assert!(config.leaf_size > 0, "leaf size must be positive");
        Generator { config }
    }

    /// Generates a circuit from the given seed.
    pub fn generate(&self, seed: u64) -> Circuit {
        let cfg = &self.config;
        let n = cfg.num_cells;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut placement = vec![Point::default(); n];
        let mut nets: Vec<Vec<u32>> = Vec::new();
        let pads = stream_nets(cfg, &mut rng, &mut placement, |id, pins| {
            if id >= nets.len() {
                nets.resize_with(id + 1, Vec::new);
            }
            nets[id] = pins.to_vec();
        })
        .pads;

        // Build the hypergraph: cells with areas, pads with zero area, nets
        // in creation order.
        let areas = cfg.areas.sample(&mut rng, n);
        let mut builder =
            HypergraphBuilder::with_capacity(n + pads, nets.len(), nets.iter().map(Vec::len).sum());
        for &a in &areas {
            builder.add_vertex(a);
        }
        for _ in 0..pads {
            builder.add_vertex(0);
        }
        for pins in nets {
            builder
                .add_net(1, pins.into_iter().map(VertexId))
                .expect("generator produces valid nets");
        }
        let hypergraph = builder.build().expect("generator produces a valid graph");
        finish_circuit(cfg, hypergraph, placement, pads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(cells: usize, p: f64, seed: u64) -> Circuit {
        Generator::new(GeneratorConfig {
            num_cells: cells,
            rent_exponent: p,
            ..GeneratorConfig::default()
        })
        .generate(seed)
    }

    #[test]
    fn basic_shape() {
        let c = generate(500, 0.6, 1);
        assert_eq!(c.num_cells(), 500);
        assert!(c.num_pads() > 0 && c.num_pads() <= 64);
        assert!(c.hypergraph.num_nets() >= 250, "too few nets");
        // All pads have zero weight; total = cell areas only.
        for pad in c.pads() {
            assert_eq!(c.hypergraph.vertex_weight(pad), 0);
        }
    }

    #[test]
    fn zero_pads_attach_no_endpoints() {
        let c = Generator::new(GeneratorConfig {
            num_cells: 500,
            num_pads: 0,
            ..GeneratorConfig::default()
        })
        .generate(1);
        assert_eq!(c.num_pads(), 0);
        assert_eq!(c.hypergraph.num_vertices(), 500);
        assert!(c.hypergraph.num_nets() > 0);
    }

    #[test]
    fn avg_pins_per_cell_near_k() {
        let c = generate(2000, 0.62, 3);
        // Pins on cell vertices only.
        let cell_pins: usize = c.cells().map(|v| c.hypergraph.vertex_degree(v)).sum();
        let avg = cell_pins as f64 / c.num_cells() as f64;
        assert!(
            (2.0..=4.5).contains(&avg),
            "avg pins per cell {avg} out of plausible range"
        );
    }

    #[test]
    fn net_sizes_have_two_pin_body_and_a_tail() {
        let c = generate(2000, 0.62, 4);
        let hg = &c.hypergraph;
        let sizes: Vec<usize> = hg.nets().map(|n| hg.net_size(n)).collect();
        let two = sizes.iter().filter(|&&s| s == 2).count();
        let big = sizes.iter().filter(|&&s| s >= 4).count();
        assert!(two * 2 > sizes.len(), "2-pin nets should dominate");
        assert!(big > 0, "some multi-pin nets expected");
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((2.0..4.5).contains(&avg), "avg net size {avg}");
    }

    #[test]
    fn placement_inside_die_and_pads_on_boundary() {
        let c = generate(400, 0.6, 6);
        for cell in c.cells() {
            assert!(c.die.contains(c.location(cell)), "cell off-die");
        }
        for pad in c.pads() {
            let p = c.location(pad);
            let on_edge = p.x == c.die.x0 || p.x == c.die.x1 || p.y == c.die.y0 || p.y == c.die.y1;
            assert!(on_edge, "pad not on boundary: {p:?}");
        }
    }

    #[test]
    fn placement_is_local() {
        // Cells sharing a net should be much closer on average than random
        // pairs — the property the block-extraction methodology relies on.
        let c = generate(1024, 0.6, 8);
        let hg = &c.hypergraph;
        let mut net_dist = 0.0;
        let mut pairs = 0usize;
        for n in hg.nets() {
            let pins = hg.net_pins(n);
            for w in pins.windows(2) {
                if c.is_pad(w[0]) || c.is_pad(w[1]) {
                    continue;
                }
                let (a, b) = (c.location(w[0]), c.location(w[1]));
                net_dist += ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt();
                pairs += 1;
            }
        }
        let net_avg = net_dist / pairs as f64;
        let die_diag = (c.die.width().powi(2) + c.die.height().powi(2)).sqrt();
        assert!(
            net_avg < die_diag * 0.25,
            "net avg distance {net_avg} vs diagonal {die_diag}"
        );
    }

    #[test]
    fn circuits_are_essentially_connected() {
        // The hierarchical construction links every sibling pair, so the
        // giant component must dominate (isolated cells can only arise
        // from pins that never joined any net).
        let c = generate(1500, 0.62, 14);
        let giant = vlsi_hypergraph::largest_component_size(&c.hypergraph);
        assert!(
            giant as f64 > 0.95 * c.hypergraph.num_vertices() as f64,
            "giant component {giant} of {}",
            c.hypergraph.num_vertices()
        );
    }

    #[test]
    fn no_duplicate_pins_within_nets() {
        let c = generate(600, 0.65, 11);
        let hg = &c.hypergraph;
        for n in hg.nets() {
            let pins = hg.net_pins(n);
            let mut sorted: Vec<_> = pins.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), pins.len(), "duplicate pin in {n}");
        }
    }
}
