//! Gnl-style hierarchical netlist generation with a controllable Rent
//! exponent and a native placement.
//!
//! The generator builds a balanced binary hierarchy over the cells. Each
//! leaf cell exposes ~`k` open pins. When two sibling blocks of combined
//! size `C` merge, Rent's rule says the combined block should expose only
//! `T = k·C^p` terminals, so the surplus open endpoints are *consumed* by
//! creating nets that join the two sides (or by extending nets that already
//! reach the boundary). Endpoints remaining at the root are attached to
//! boundary pads. Because the same recursion assigns each block a
//! rectangle of the die, the resulting placement has exactly the spatial
//! locality the connectivity implies — which is what the paper's Section IV
//! block-extraction methodology needs.

use vlsi_rng::seq::SliceRandom;
use vlsi_rng::ChaCha8Rng;
use vlsi_rng::Rng;
use vlsi_rng::SeedableRng;

use vlsi_hypergraph::{HypergraphBuilder, VertexId};

use crate::areas::AreaDistribution;
use crate::circuit::Circuit;
use crate::geometry::{Point, Rect};

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

/// Observations collected while generating, used to verify the realised
/// Rent exponent.
#[derive(Debug, Clone, Default)]
pub struct GenStats {
    /// `(block_size, external_terminals)` for every internal hierarchy node.
    pub rent_samples: Vec<(usize, usize)>,
}

impl GenStats {
    /// Least-squares estimate of the realised Rent exponent from the
    /// `log T = log k + p·log C` regression over the collected samples
    /// (blocks of at least `min_block` cells).
    pub fn fitted_rent_exponent(&self, min_block: usize) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .rent_samples
            .iter()
            .filter(|&&(c, t)| c >= min_block && t > 0)
            .map(|&(c, t)| ((c as f64).ln(), (t as f64).ln()))
            .collect();
        if pts.len() < 3 {
            return None;
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        (denom.abs() > 1e-12).then(|| (n * sxy - sx * sy) / denom)
    }
}

/// An open connection endpoint of a block.
#[derive(Debug, Clone, Copy)]
enum Endpoint {
    /// An unconnected pin of a cell.
    Pin(u32),
    /// A net (index into the net list) that still reaches the boundary.
    Net(u32),
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

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates a circuit from the given seed.
    pub fn generate(&self, seed: u64) -> Circuit {
        self.generate_with_stats(seed).0
    }

    /// Generates a circuit and the Rent observations of the construction.
    pub fn generate_with_stats(&self, seed: u64) -> (Circuit, GenStats) {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = cfg.num_cells;

        let die_side = (n as f64).sqrt().ceil().max(1.0);
        let die = Rect::new(0.0, 0.0, die_side, die_side);

        let mut gen = GenState {
            cfg,
            rng: &mut rng,
            nets: Vec::new(),
            placement: vec![Point::default(); n],
            stats: GenStats::default(),
        };
        let mut endpoints = gen.build_block(0, n as u32, die, 0);

        // Attach remaining endpoints to pads on the die boundary, in turn.
        // With no pads they stay unattached, as in the streaming generator.
        let num_pads = cfg.num_pads.min(endpoints.len().max(1));
        endpoints.shuffle(gen.rng);
        let pads = (n as u32..(n + num_pads) as u32).cycle();
        for (ep, pad) in endpoints.iter().zip(pads) {
            match *ep {
                Endpoint::Pin(cell) => gen.nets.push(vec![cell, pad]),
                Endpoint::Net(idx) => {
                    let net = &mut gen.nets[idx as usize];
                    if !net.contains(&pad) {
                        net.push(pad);
                    }
                }
            }
        }

        let nets = std::mem::take(&mut gen.nets);
        let placement_cells = std::mem::take(&mut gen.placement);
        let stats = std::mem::take(&mut gen.stats);
        drop(gen);

        // Build the hypergraph: cells with areas, pads with zero area.
        let areas = cfg.areas.sample(&mut rng, n);
        let mut builder = HypergraphBuilder::with_capacity(
            n + num_pads,
            nets.len(),
            nets.iter().map(Vec::len).sum(),
        );
        for &a in &areas {
            builder.add_vertex(a);
        }
        for _ in 0..num_pads {
            builder.add_vertex(0);
        }
        for pins in nets {
            if pins.len() >= 2 {
                builder
                    .add_net_dedup(1, pins.into_iter().map(VertexId))
                    .expect("generator produces valid nets");
            }
        }
        let hypergraph = builder.build().expect("generator produces a valid graph");

        // Pads evenly spaced along the perimeter.
        let mut placement = placement_cells;
        let perimeter = 2.0 * (die.width() + die.height());
        for i in 0..num_pads {
            let d = perimeter * i as f64 / num_pads as f64;
            placement.push(perimeter_point(&die, d));
        }

        (
            Circuit {
                name: cfg.name.clone(),
                hypergraph,
                placement,
                pad_offset: n,
                die,
                target_rent_exponent: cfg.rent_exponent,
            },
            stats,
        )
    }
}

/// Walks a distance `d` along the perimeter of `r` counter-clockwise from
/// the bottom-left corner.
pub(crate) fn perimeter_point(r: &Rect, d: f64) -> Point {
    let (w, h) = (r.width(), r.height());
    let d = d % (2.0 * (w + h));
    if d < w {
        Point::new(r.x0 + d, r.y0)
    } else if d < w + h {
        Point::new(r.x1, r.y0 + (d - w))
    } else if d < 2.0 * w + h {
        Point::new(r.x1 - (d - w - h), r.y1)
    } else {
        Point::new(r.x0, r.y1 - (d - 2.0 * w - h))
    }
}

struct GenState<'a, R: Rng> {
    cfg: &'a GeneratorConfig,
    rng: &'a mut R,
    nets: Vec<Vec<u32>>,
    placement: Vec<Point>,
    stats: GenStats,
}

impl<R: Rng> GenState<'_, R> {
    /// Recursively builds the block of cells `[lo, hi)` inside `rect`,
    /// returning its open endpoints.
    fn build_block(&mut self, lo: u32, hi: u32, rect: Rect, depth: usize) -> Vec<Endpoint> {
        let count = (hi - lo) as usize;
        if count <= self.cfg.leaf_size {
            return self.build_leaf(lo, hi, rect);
        }
        let mid = lo + (hi - lo) / 2;
        let (ra, rb) = if depth.is_multiple_of(2) {
            rect.split_vertical()
        } else {
            rect.split_horizontal()
        };
        let mut left = self.build_block(lo, mid, ra, depth + 1);
        let mut right = self.build_block(mid, hi, rb, depth + 1);

        let t_target = (self.cfg.pins_per_cell * (count as f64).powf(self.cfg.rent_exponent))
            .round()
            .max(1.0) as usize;
        let have = left.len() + right.len();
        let mut to_consume = have.saturating_sub(t_target);
        let mut merged: Vec<Endpoint> = Vec::with_capacity(t_target + 2);

        while to_consume > 0 && !left.is_empty() && !right.is_empty() {
            let el = take_random(&mut left, self.rng);
            let er = take_random(&mut right, self.rng);
            let consumed = self.join(el, er, &mut merged);
            to_consume = to_consume.saturating_sub(consumed);
        }
        merged.extend(left);
        merged.extend(right);
        // If still over budget (one side ran dry), silently keep the extra
        // endpoints — the realised Rent exponent simply ends up a bit higher.
        self.stats.rent_samples.push((count, merged.len()));
        merged
    }

    /// Joins one endpoint from each side, pushing any surviving endpoint
    /// onto `merged`. Returns how many endpoints were net-consumed.
    fn join(&mut self, el: Endpoint, er: Endpoint, merged: &mut Vec<Endpoint>) -> usize {
        use Endpoint::*;
        let keep_open = self.rng.gen_bool(self.cfg.keep_open_probability);
        match (el, er) {
            (Pin(a), Pin(b)) => {
                let idx = self.nets.len() as u32;
                self.nets.push(vec![a, b]);
                if keep_open {
                    merged.push(Net(idx));
                    1
                } else {
                    2
                }
            }
            (Pin(a), Net(n)) | (Net(n), Pin(a)) => {
                let extend = self.rng.gen_bool(self.cfg.extend_probability);
                if extend {
                    let net = &mut self.nets[n as usize];
                    if !net.contains(&a) {
                        net.push(a);
                    }
                    if keep_open {
                        merged.push(Net(n));
                        1
                    } else {
                        2
                    }
                } else {
                    // Keep the net open, spend the pin on a fresh 2-pin net
                    // with a random member of the net (local connection).
                    let other = *self.nets[n as usize]
                        .as_slice()
                        .choose(self.rng)
                        .expect("nets are non-empty");
                    if other != a {
                        self.nets.push(vec![a, other]);
                    }
                    merged.push(Net(n));
                    1
                }
            }
            (Net(n1), Net(n2)) => {
                // Close one of the two net endpoints at random.
                if self.rng.gen_bool(0.5) {
                    merged.push(Net(n1));
                } else {
                    merged.push(Net(n2));
                }
                1
            }
        }
    }

    /// Builds a leaf block: places its cells in `rect` and exposes ~k open
    /// pins per cell.
    fn build_leaf(&mut self, lo: u32, hi: u32, rect: Rect) -> Vec<Endpoint> {
        let count = (hi - lo) as usize;
        let cols = (count as f64).sqrt().ceil() as usize;
        let rows = count.div_ceil(cols.max(1));
        for (i, cell) in (lo..hi).enumerate() {
            let (r, c) = (i / cols, i % cols);
            let x = rect.x0 + rect.width() * (c as f64 + 0.5) / cols as f64;
            let y = rect.y0 + rect.height() * (r as f64 + 0.5) / rows.max(1) as f64;
            self.placement[cell as usize] = Point::new(x, y);
        }
        let k = self.cfg.pins_per_cell;
        let base = k.floor() as usize;
        let frac = k - base as f64;
        let mut endpoints = Vec::with_capacity(count * (base + 1));
        for cell in lo..hi {
            let pins = base + usize::from(self.rng.gen_bool(frac));
            for _ in 0..pins {
                endpoints.push(Endpoint::Pin(cell));
            }
        }
        endpoints
    }
}

pub(crate) fn take_random<T, R: Rng>(v: &mut Vec<T>, rng: &mut R) -> T {
    let i = rng.gen_range(0..v.len());
    v.swap_remove(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(cells: usize, p: f64, seed: u64) -> (Circuit, GenStats) {
        Generator::new(GeneratorConfig {
            num_cells: cells,
            rent_exponent: p,
            ..GeneratorConfig::default()
        })
        .generate_with_stats(seed)
    }

    #[test]
    fn basic_shape() {
        let (c, _) = generate(500, 0.6, 1);
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
    fn deterministic_per_seed() {
        let (a, _) = generate(300, 0.6, 9);
        let (b, _) = generate(300, 0.6, 9);
        assert_eq!(a.hypergraph, b.hypergraph);
        let (c, _) = generate(300, 0.6, 10);
        assert_ne!(a.hypergraph, c.hypergraph);
    }

    #[test]
    fn avg_pins_per_cell_near_k() {
        let (c, _) = generate(2000, 0.62, 3);
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
        let (c, _) = generate(2000, 0.62, 4);
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
    fn realised_rent_exponent_tracks_target() {
        for &p in &[0.55, 0.68] {
            let (_, stats) = generate(4096, p, 5);
            let fitted = stats.fitted_rent_exponent(32).expect("enough samples");
            assert!((fitted - p).abs() < 0.12, "target {p}, fitted {fitted}");
        }
    }

    #[test]
    fn placement_inside_die_and_pads_on_boundary() {
        let (c, _) = generate(400, 0.6, 6);
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
        let (c, _) = generate(1024, 0.6, 8);
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
        let (c, _) = generate(1500, 0.62, 14);
        let giant = vlsi_hypergraph::largest_component_size(&c.hypergraph);
        assert!(
            giant as f64 > 0.95 * c.hypergraph.num_vertices() as f64,
            "giant component {giant} of {}",
            c.hypergraph.num_vertices()
        );
    }

    #[test]
    fn no_duplicate_pins_within_nets() {
        let (c, _) = generate(600, 0.65, 11);
        let hg = &c.hypergraph;
        for n in hg.nets() {
            let pins = hg.net_pins(n);
            let mut sorted: Vec<_> = pins.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), pins.len(), "duplicate pin in {n}");
        }
    }

    #[test]
    fn perimeter_point_walks_all_edges() {
        let r = Rect::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(perimeter_point(&r, 0.0), Point::new(0.0, 0.0));
        assert_eq!(perimeter_point(&r, 4.0), Point::new(4.0, 0.0));
        assert_eq!(perimeter_point(&r, 6.0), Point::new(4.0, 2.0));
        assert_eq!(perimeter_point(&r, 10.0), Point::new(0.0, 2.0));
        assert_eq!(perimeter_point(&r, 11.0), Point::new(0.0, 1.0));
    }
}
