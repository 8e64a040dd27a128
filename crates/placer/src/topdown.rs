//! The recursive-bisection placement engine.

use vlsi_rng::Rng;

use vlsi_hypergraph::{
    induced_subgraph, BalanceConstraint, Hypergraph, PartId, Tolerance, VertexId,
};
use vlsi_netgen::{Circuit, Cutline, Point, Rect};
use vlsi_partition::{
    MultilevelConfig, MultilevelPartitioner, PartitionError, Partitioner, RunCtx,
};

/// Blocks with at most this many cells are placed directly (end case).
const MIN_BLOCK_CELLS: usize = 8;

/// Balance tolerance of each bisection (relative to the area split).
const BALANCE_TOLERANCE: f64 = 0.1;

/// Configuration of the top-down placer. Blocks of at most eight cells are
/// placed directly; every larger block is bisected at a 10% balance
/// tolerance, widened to admit its heaviest cell.
///
/// # Example
/// ```
/// use vlsi_placer::PlacerConfig;
/// let cfg = PlacerConfig::default();
/// assert!(cfg.terminal_propagation);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerConfig {
    /// Multilevel partitioner settings used for every bisection.
    pub ml_config: MultilevelConfig,
    /// Propagate terminals from outside each block (Dunlop–Kernighan).
    /// Disabling this is the ablation that shows why the fixed-terminals
    /// regime matters: bisections become free-hypergraph instances.
    pub terminal_propagation: bool,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            ml_config: MultilevelConfig::default(),
            terminal_propagation: true,
        }
    }
}

/// The result of placement: a position for every vertex, and the size of
/// every partitioning instance the run generated.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Position of every vertex (pads keep their input positions).
    pub positions: Vec<Point>,
    /// `(movable, terminal)` vertex counts of every bisection instance, in
    /// the order they were solved — the raw data for comparing the
    /// placement hierarchy against Rent's-rule expectations (the paper's
    /// Table I). Terminals exist only when terminal propagation is on.
    pub bisections: Vec<(usize, usize)>,
}

impl Placement {
    /// Number of bisection instances solved.
    pub fn num_bisections(&self) -> usize {
        self.bisections.len()
    }

    /// Total number of fixed terminal vertices over all bisection instances.
    pub fn total_terminals(&self) -> usize {
        self.bisections.iter().map(|&(_, t)| t).sum()
    }

    /// Total number of movable vertices over all bisection instances.
    pub fn total_movables(&self) -> usize {
        self.bisections.iter().map(|&(m, _)| m).sum()
    }

    /// Fixed share of all bisection instances' vertices pooled together,
    /// Σ terminals / Σ (movable + terminals): large instances weigh most
    /// (0 without instances).
    pub fn pooled_fixed_fraction(&self) -> f64 {
        let total = self.total_terminals() + self.total_movables();
        if total == 0 {
            0.0
        } else {
            self.total_terminals() as f64 / total as f64
        }
    }

    /// Mean over bisection instances of each one's fixed fraction
    /// `terminal / (movable + terminal)`, every instance weighing the same
    /// — directly comparable to the paper's Table I expectations (0
    /// without instances; an empty instance counts as 0).
    pub fn mean_fixed_fraction(&self) -> f64 {
        if self.bisections.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .bisections
            .iter()
            .map(|&(m, t)| t as f64 / (m + t).max(1) as f64)
            .sum();
        sum / self.bisections.len() as f64
    }
}

/// Top-down recursive-bisection placer built on the multilevel partitioner.
#[derive(Debug, Clone, Default)]
pub struct TopDownPlacer {
    config: PlacerConfig,
}

impl TopDownPlacer {
    /// Creates a placer.
    pub fn new(config: PlacerConfig) -> Self {
        TopDownPlacer { config }
    }

    /// The placer's configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Places a generated [`Circuit`]: cells are placed inside the die, pads
    /// stay at their boundary locations.
    ///
    /// # Errors
    /// Propagates partitioning failures (infeasible bisection balances).
    pub fn place_circuit<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        rng: &mut R,
    ) -> Result<Placement, PartitionError> {
        let anchored: Vec<Option<Point>> = circuit
            .hypergraph
            .vertices()
            .map(|v| circuit.is_pad(v).then(|| circuit.location(v)))
            .collect();
        self.place(&circuit.hypergraph, &anchored, circuit.die, rng)
    }

    /// Places a hypergraph inside `die`. `anchored[v] = Some(point)` pins
    /// vertex `v` (e.g. a pad) at a location; all other vertices are placed.
    ///
    /// # Errors
    /// Propagates partitioning failures.
    ///
    /// # Panics
    /// Panics if `anchored.len() != hg.num_vertices()`.
    pub fn place<R: Rng + ?Sized>(
        &self,
        hg: &Hypergraph,
        anchored: &[Option<Point>],
        die: Rect,
        rng: &mut R,
    ) -> Result<Placement, PartitionError> {
        assert_eq!(anchored.len(), hg.num_vertices(), "anchored length");
        let cfg = &self.config;
        let ml = MultilevelPartitioner::new(cfg.ml_config);

        // Current position of every vertex: anchored vertices stay put,
        // movable ones live at the centre of their current block.
        let mut positions: Vec<Point> = anchored
            .iter()
            .map(|a| a.unwrap_or_else(|| die.center()))
            .collect();

        let movable: Vec<VertexId> = hg
            .vertices()
            .filter(|v| anchored[v.index()].is_none())
            .collect();

        // Breadth-first over blocks, so when a block is bisected every other
        // block has been refined to the same level and the propagated
        // terminal positions are equally accurate (Dunlop–Kernighan).
        let mut queue: std::collections::VecDeque<(Rect, Vec<VertexId>)> =
            std::collections::VecDeque::from([(die, movable)]);
        let mut bisections = Vec::new();

        while let Some((rect, cells)) = queue.pop_front() {
            if cells.len() <= MIN_BLOCK_CELLS {
                place_end_case(&mut positions, &rect, &cells);
                continue;
            }
            let (cutline, (r0, r1)) = if rect.width() >= rect.height() {
                (Cutline::Vertical, rect.split_vertical())
            } else {
                (Cutline::Horizontal, rect.split_horizontal())
            };

            // The bisection instance: block cells + propagated terminals
            // from everything outside the block they connect to, fixed on
            // their side of the cutline.
            let sub = induced_subgraph(hg, &cells, |v| {
                cfg.terminal_propagation
                    .then(|| PartId(cutline.side(&rect, positions[v.index()])))
            });

            // The balance slack must admit the block's largest cell (blocks
            // deep in the hierarchy are often dominated by one macro); real
            // top-down placers shift the cutline in exactly this way.
            let (mut min, mut max) = (Vec::new(), Vec::new());
            for (r, &total) in sub.hg.total_weights().iter().enumerate() {
                let wmax = cells
                    .iter()
                    .map(|&v| hg.vertex_weights(v)[r])
                    .max()
                    .unwrap_or(0);
                let rel_slack = (total as f64 * BALANCE_TOLERANCE / 2.0) as u64;
                let tolerance = Tolerance::Absolute(rel_slack.max(wmax));
                min.push(tolerance.min_load(total, 2));
                max.push(tolerance.max_load(total, 2));
            }
            let nr = min.len();
            min.extend_from_within(..);
            max.extend_from_within(..);
            let balance = BalanceConstraint::explicit(2, nr, min, max)?;
            let result = ml.partition_ctx(&sub.hg, &sub.fixed, &balance, RunCtx::new(&mut *rng))?;
            bisections.push((cells.len(), sub.to_parent.len() - cells.len()));

            let mut left = Vec::new();
            let mut right = Vec::new();
            for (i, &v) in cells.iter().enumerate() {
                if result.parts[i] == PartId(0) {
                    left.push(v);
                } else {
                    right.push(v);
                }
            }
            // A macro-dominated block can legally end up entirely on one
            // side; splitting must still make progress or the recursion
            // would never terminate. Fall back to an even split by index.
            if left.is_empty() || right.is_empty() {
                let mut all = std::mem::take(if left.is_empty() {
                    &mut right
                } else {
                    &mut left
                });
                let half = all.len() / 2;
                right = all.split_off(half);
                left = all;
            }
            for &v in &left {
                positions[v.index()] = r0.center();
            }
            for &v in &right {
                positions[v.index()] = r1.center();
            }
            queue.push_back((r0, left));
            queue.push_back((r1, right));
        }

        Ok(Placement {
            positions,
            bisections,
        })
    }
}

/// End case: spread the block's cells over a small grid inside the block.
fn place_end_case(positions: &mut [Point], rect: &Rect, cells: &[VertexId]) {
    if cells.is_empty() {
        return;
    }
    let cols = (cells.len() as f64).sqrt().ceil() as usize;
    let rows = cells.len().div_ceil(cols);
    for (i, &v) in cells.iter().enumerate() {
        let (r, c) = (i / cols, i % cols);
        positions[v.index()] = Point::new(
            rect.x0 + rect.width() * (c as f64 + 0.5) / cols as f64,
            rect.y0 + rect.height() * (r as f64 + 0.5) / rows as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netgen::synthetic::{Generator, GeneratorConfig};
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

    use crate::wirelength::hpwl;

    fn circuit(cells: usize, seed: u64) -> Circuit {
        Generator::new(GeneratorConfig {
            num_cells: cells,
            ..GeneratorConfig::default()
        })
        .generate(seed)
    }

    fn fast_config() -> PlacerConfig {
        PlacerConfig {
            ml_config: MultilevelConfig {
                coarsest_size: 30,
                coarse_starts: 2,
                ..MultilevelConfig::default()
            },
            ..PlacerConfig::default()
        }
    }

    #[test]
    fn places_all_cells_inside_die() {
        let c = circuit(150, 1);
        let placer = TopDownPlacer::new(fast_config());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let placement = placer.place_circuit(&c, &mut rng).unwrap();
        for v in c.cells() {
            let p = placement.positions[v.index()];
            assert!(c.die.contains(p), "cell {v} at {p:?} outside die");
        }
        // Pads untouched.
        for pad in c.pads() {
            assert_eq!(placement.positions[pad.index()], c.location(pad));
        }
    }

    #[test]
    fn generates_fixed_terminal_instances() {
        let c = circuit(300, 3);
        let placer = TopDownPlacer::new(fast_config());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let placement = placer.place_circuit(&c, &mut rng).unwrap();
        assert!(placement.num_bisections() > 10);
        assert!(placement.total_terminals() > 0);
        // The paper's core claim about the placement context: a noticeable
        // share of each instance's vertices are fixed.
        assert!(
            placement.pooled_fixed_fraction() > 0.05,
            "pooled fixed fraction {}",
            placement.pooled_fixed_fraction()
        );
    }

    #[test]
    fn pooled_and_mean_fixed_fractions_weigh_instances_differently() {
        let placement = Placement {
            positions: Vec::new(),
            bisections: vec![(90, 10), (1, 3), (0, 0)],
        };
        // 13 terminals of 104 vertices pooled; (0.1 + 0.75 + 0) / 3 mean.
        assert!((placement.pooled_fixed_fraction() - 13.0 / 104.0).abs() < 1e-12);
        assert!((placement.mean_fixed_fraction() - 0.85 / 3.0).abs() < 1e-12);
        let empty = Placement {
            positions: Vec::new(),
            bisections: Vec::new(),
        };
        assert_eq!(empty.pooled_fixed_fraction(), 0.0);
        assert_eq!(empty.mean_fixed_fraction(), 0.0);
    }

    #[test]
    fn terminal_propagation_improves_wirelength() {
        let c = circuit(400, 5);
        let with = TopDownPlacer::new(fast_config());
        let without = TopDownPlacer::new(PlacerConfig {
            terminal_propagation: false,
            ..fast_config()
        });
        // Average over a few seeds to damp noise.
        let (mut wl_with, mut wl_without) = (0.0, 0.0);
        for seed in 0..3 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let p1 = with.place_circuit(&c, &mut rng).unwrap();
            wl_with += hpwl(&c.hypergraph, &p1.positions);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let p2 = without.place_circuit(&c, &mut rng).unwrap();
            wl_without += hpwl(&c.hypergraph, &p2.positions);
        }
        assert!(
            wl_with < wl_without,
            "terminal propagation should reduce HPWL: {wl_with} vs {wl_without}"
        );
        // And without propagation there are no terminals at all.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let p2 = without.place_circuit(&c, &mut rng).unwrap();
        assert_eq!(p2.total_terminals(), 0);
    }

    #[test]
    fn placement_beats_random_wirelength() {
        let c = circuit(300, 7);
        let placer = TopDownPlacer::new(fast_config());
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let placement = placer.place_circuit(&c, &mut rng).unwrap();
        let placed_wl = hpwl(&c.hypergraph, &placement.positions);

        // Random placement baseline.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let random: Vec<Point> = c
            .hypergraph
            .vertices()
            .map(|v| {
                if c.is_pad(v) {
                    c.location(v)
                } else {
                    Point::new(
                        rng.gen_range(c.die.x0..c.die.x1),
                        rng.gen_range(c.die.y0..c.die.y1),
                    )
                }
            })
            .collect();
        let random_wl = hpwl(&c.hypergraph, &random);
        assert!(
            placed_wl < random_wl * 0.8,
            "placed {placed_wl} vs random {random_wl}"
        );
    }

    #[test]
    fn anchored_vertices_never_move() {
        let c = circuit(60, 11);
        let placer = TopDownPlacer::new(fast_config());
        let mut anchored: Vec<Option<Point>> = c
            .hypergraph
            .vertices()
            .map(|v| c.is_pad(v).then(|| c.location(v)))
            .collect();
        // Additionally anchor one cell mid-die.
        let pinned = VertexId(5);
        let pin_pos = Point::new(1.0, 1.0);
        anchored[pinned.index()] = Some(pin_pos);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let placement = placer
            .place(&c.hypergraph, &anchored, c.die, &mut rng)
            .unwrap();
        assert_eq!(placement.positions[pinned.index()], pin_pos);
    }

    #[test]
    fn end_case_grid_is_disjointish() {
        let mut positions = vec![Point::default(); 4];
        let rect = Rect::new(0.0, 0.0, 2.0, 2.0);
        let cells: Vec<VertexId> = (0..4).map(VertexId).collect();
        place_end_case(&mut positions, &rect, &cells);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(positions[i], positions[j]);
            }
            assert!(rect.contains(positions[i]));
        }
    }
}
