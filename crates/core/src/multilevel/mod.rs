//! The multilevel CLIP-FM partitioner — the paper's experimental engine.
//!
//! Coarsen with heavy-edge matching (respecting fixities), solve the
//! coarsest instance with multi-start FM, then uncoarsen and refine with
//! CLIP FM at every level. V-cycling, which the paper found "a net loss in
//! terms of overall cost-runtime profile", is not part of the engine: it
//! runs as the quality phase of a [`Multistart`](crate::Multistart) driver
//! (see [`crate::quality`]).

mod coarsen;
mod hierarchy;

pub(crate) use coarsen::within_resource_caps;
pub use coarsen::{
    cluster_terminals, coarsen_once, contract_clusters, merge_fixity, CoarsenParams, Level,
};
pub(crate) use hierarchy::{coarsen_params, Hierarchy};

use vlsi_rng::Rng;
use vlsi_trace::{CancelStage, Event, Sink};

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Hypergraph};

use crate::config::MultilevelConfig;
use crate::engine::{FmStack, Partitioner, Refiner, RunCtx};
use crate::fm::BipartFm;
use crate::{PartitionError, PartitionResult};

/// The multilevel bipartitioner.
///
/// A run partitions an instance into two blocks under a 2-way balance,
/// honouring the fixities, through
/// [`Partitioner::partition_ctx`].
///
/// It records [`Event::LevelStart`] / [`Event::LevelEnd`] brackets plus
/// every underlying FM pass into `ctx.sink`. Level 0 is the original
/// hypergraph; higher indices are coarser. A `LevelStart` with the level's
/// vertex and net counts is emitted as each coarse level is built
/// (top-down), and a `LevelEnd` with the post-refinement cut as each level
/// is solved (bottom-up, coarsest first, so the first `LevelEnd` carries
/// the coarsest solution's cut). The whole run stays on the calling
/// thread.
///
/// A cancelled run truncates coarsening, keeps only the first coarse
/// start, lets the inner FM stop at its own checkpoints, and records one
/// [`Event::Cancelled`] (stage `level`). The projection from coarse to
/// fine always completes, so the result is a legal partition of the
/// *original* hypergraph.
///
/// # Errors
/// * [`PartitionError::UnsupportedPartCount`] unless the balance is 2-way.
/// * [`PartitionError::InfeasibleInstance`] / [`PartitionError::Balance`]
///   when no legal solution can be constructed.
///
/// # Example
/// ```
/// use vlsi_rng::SeedableRng;
/// use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
/// use vlsi_partition::trace::{Event, VecSink};
/// use vlsi_partition::{MultilevelConfig, MultilevelPartitioner, Partitioner, RunCtx};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..64).map(|_| b.add_vertex(1)).collect();
/// for w in v.windows(2) {
///     b.add_net(1, [w[0], w[1]])?;
/// }
/// let hg = b.build()?;
/// let balance = BalanceConstraint::bisection(64, Tolerance::Relative(0.02));
/// let fixed = FixedVertices::all_free(64);
/// let ml = MultilevelPartitioner::new(MultilevelConfig::default());
/// let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(0);
/// let sink = VecSink::new();
/// let r = ml.partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng).with_sink(&sink))?;
/// assert_eq!(r.cut, 1);
/// // The last level solved is level 0, the input itself.
/// let last = sink.take().into_iter().rev().find(|e| matches!(e, Event::LevelEnd { .. }));
/// assert!(matches!(last, Some(Event::LevelEnd { level: 0, vertices: 64, cut: 1, .. })));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MultilevelPartitioner {
    config: MultilevelConfig,
}

impl MultilevelPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: MultilevelConfig) -> Self {
        MultilevelPartitioner { config }
    }

    /// The partitioner's configuration.
    pub fn config(&self) -> &MultilevelConfig {
        &self.config
    }
}

impl Partitioner for MultilevelPartitioner {
    fn partition_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        mut ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        if balance.num_parts() != 2 {
            return Err(PartitionError::UnsupportedPartCount {
                requested: balance.num_parts(),
                supported: 2,
            });
        }
        let cfg = &self.config;
        let h = Hierarchy::build(
            hg,
            fixed,
            &coarsen_params(hg, balance, cfg),
            cfg.coarsest_size,
            cfg.min_shrink,
            None,
            ctx.reborrow(),
        );

        // Solve the coarsest level with multi-start FM.
        let (coarsest_hg, coarsest_fixed) = h.coarsest();
        let coarse_fm = BipartFm::new(cfg.coarse_fm);
        let mut best: Option<PartitionResult> = None;
        for start in 0..cfg.coarse_starts.max(1) {
            // Start 0 always runs so a cancelled run still yields a legal
            // solution; later starts are skipped once the token fires.
            if start > 0 && ctx.cancel.is_cancelled() {
                break;
            }
            let r =
                coarse_fm.partition_ctx(coarsest_hg, coarsest_fixed, balance, ctx.reborrow())?;
            if best.as_ref().is_none_or(|b| r.cut < b.cut) {
                best = Some(r);
            }
        }
        let coarsest = best.expect("at least one start");

        // Uncoarsen and refine (the configured FM stack at every level).
        let refiner = FmStack::from_multilevel(cfg);
        let sink = ctx.sink;
        let r = h.uncoarsen(coarsest, sink, |fine_hg, fine_fixed, parts| {
            refiner.refine_ctx(fine_hg, fine_fixed, balance, parts, ctx.reborrow())
        })?;

        if S::ENABLED && ctx.cancel.is_cancelled() {
            sink.record(&Event::Cancelled {
                stage: CancelStage::Level,
                value: r.cut,
            });
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{
        validate_partitioning, HypergraphBuilder, PartId, Partitioning, Tolerance, VertexId,
    };
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;
    use vlsi_trace::replay::pass_summaries;
    use vlsi_trace::VecSink;

    /// A 2D grid graph: gridsize² vertices, 2-pin nets along rows/columns.
    fn grid(side: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..side * side).map(|_| b.add_vertex(1)).collect();
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    b.add_net(1, [v[r * side + c], v[r * side + c + 1]])
                        .unwrap();
                }
                if r + 1 < side {
                    b.add_net(1, [v[r * side + c], v[(r + 1) * side + c]])
                        .unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn small_config() -> MultilevelConfig {
        MultilevelConfig {
            coarsest_size: 16,
            ..MultilevelConfig::default()
        }
    }

    /// Runs `ml` on `hg` from `seed` and returns the result with its trace.
    fn run_traced(
        ml: &MultilevelPartitioner,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        seed: u64,
    ) -> (PartitionResult, Vec<Event>) {
        let sink = VecSink::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ctx = RunCtx::new(&mut rng).with_sink(&sink);
        let r = ml.partition_ctx(hg, fixed, balance, ctx).unwrap();
        (r, sink.take())
    }

    /// The `(level, vertices)` of every `LevelStart`, in stream order.
    fn level_starts(events: &[Event]) -> Vec<(u32, u64)> {
        events
            .iter()
            .filter_map(|e| match *e {
                Event::LevelStart {
                    level, vertices, ..
                } => Some((level, vertices)),
                _ => None,
            })
            .collect()
    }

    /// The `(level, vertices, cut)` of every `LevelEnd`, in stream order.
    fn level_ends(events: &[Event]) -> Vec<(u32, u64, u64)> {
        events
            .iter()
            .filter_map(|e| match *e {
                Event::LevelEnd {
                    level,
                    vertices,
                    cut,
                    ..
                } => Some((level, vertices, cut)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn grid_bisection_near_optimal() {
        let hg = grid(12); // 144 vertices; optimal bisection cut = 12
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
        let ml = MultilevelPartitioner::new(small_config());
        let (r, events) = run_traced(&ml, &hg, &fixed, &balance, 42);
        assert!(r.cut <= 16, "cut {} too far from optimal 12", r.cut);
        assert!(
            !level_starts(&events).is_empty(),
            "expected actual coarsening"
        );
        let p = Partitioning::from_parts(&hg, 2, r.parts).unwrap();
        assert!(validate_partitioning(&hg, &p, &balance, &fixed).is_valid());
    }

    #[test]
    fn fixed_vertices_respected_through_levels() {
        let hg = grid(10);
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        // Fix the left column to part 0, the right column to part 1.
        for r in 0..10 {
            fixed.fix(VertexId((r * 10) as u32), PartId(0));
            fixed.fix(VertexId((r * 10 + 9) as u32), PartId(1));
        }
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
        let ml = MultilevelPartitioner::new(small_config());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let r = ml
            .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .unwrap();
        for row in 0..10 {
            assert_eq!(r.parts[row * 10], PartId(0));
            assert_eq!(r.parts[row * 10 + 9], PartId(1));
        }
        let p = Partitioning::from_parts(&hg, 2, r.parts).unwrap();
        assert!(validate_partitioning(&hg, &p, &balance, &fixed).is_valid());
    }

    #[test]
    fn refinement_never_worse_than_coarse() {
        let hg = grid(10);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
        let ml = MultilevelPartitioner::new(small_config());
        for seed in 0..5 {
            let (r, events) = run_traced(&ml, &hg, &fixed, &balance, seed);
            // The first `LevelEnd` carries the coarsest solve's cut.
            assert!(r.cut <= level_ends(&events)[0].2, "seed {seed}");
        }
    }

    #[test]
    fn tiny_graph_skips_coarsening() {
        let hg = grid(3);
        let fixed = FixedVertices::all_free(9);
        let balance = BalanceConstraint::bisection(9, Tolerance::Relative(0.2));
        let ml = MultilevelPartitioner::new(MultilevelConfig {
            coarsest_size: 100,
            ..MultilevelConfig::default()
        });
        let (r, events) = run_traced(&ml, &hg, &fixed, &balance, 0);
        assert_eq!(level_starts(&events), vec![]);
        assert_eq!(level_ends(&events), vec![(0, 9, r.cut)]);
        assert!(r.cut <= 5);
    }

    #[test]
    fn sink_brackets_every_level() {
        let hg = grid(12);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
        let ml = MultilevelPartitioner::new(small_config());
        let (r, events) = run_traced(&ml, &hg, &fixed, &balance, 42);
        let starts = level_starts(&events);
        let ends = level_ends(&events);
        // One LevelStart per coarse level, counting up from 1, each level
        // smaller than the one before it.
        assert!(!starts.is_empty());
        assert!(starts
            .iter()
            .enumerate()
            .all(|(i, &(l, _))| l == i as u32 + 1));
        let mut sizes = vec![hg.num_vertices() as u64];
        sizes.extend(starts.iter().map(|&(_, n)| n));
        assert!(sizes.windows(2).all(|w| w[1] < w[0]), "{sizes:?}");
        // LevelEnd walks back down: coarsest first, level 0 last, with
        // the vertex counts the levels were built with.
        let walk: Vec<(u32, u64)> = ends.iter().map(|&(l, n, _)| (l, n)).collect();
        let down: Vec<(u32, u64)> = (0..sizes.len() as u32).zip(sizes).rev().collect();
        assert_eq!(walk, down);
        assert_eq!(ends.last().unwrap().2, r.cut);
        // The coarsest LevelEnd carries the best coarse start's cut: the
        // least final cut of the FM runs before it.
        let first_end = events
            .iter()
            .position(|e| matches!(e, Event::LevelEnd { .. }))
            .unwrap();
        let passes = pass_summaries(&events[..first_end]);
        let best_start = passes
            .iter()
            .enumerate()
            .filter(|&(i, _)| passes.get(i + 1).is_none_or(|next| next.pass == 0))
            .map(|(_, p)| p.cut_after)
            .min();
        assert_eq!(best_start, Some(ends[0].2));
        // The same stream carries the FM pass brackets.
        assert!(events.iter().any(|e| matches!(e, Event::PassEnd { .. })));
    }

    #[test]
    fn sink_run_matches_null_run() {
        let hg = grid(10);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
        let ml = MultilevelPartitioner::new(small_config());
        let mut rng_a = ChaCha8Rng::seed_from_u64(7);
        let mut rng_b = ChaCha8Rng::seed_from_u64(7);
        let plain = ml
            .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng_a))
            .unwrap();
        let sink = VecSink::new();
        let traced = ml
            .partition_ctx(
                &hg,
                &fixed,
                &balance,
                RunCtx::new(&mut rng_b).with_sink(&sink),
            )
            .unwrap();
        assert_eq!(plain, traced);
    }

    #[test]
    fn multiway_rejected() {
        let hg = grid(4);
        let fixed = FixedVertices::all_free(16);
        let balance = BalanceConstraint::even(4, &[16], Tolerance::Relative(0.1));
        let ml = MultilevelPartitioner::new(small_config());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let err = ml
            .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .unwrap_err();
        assert!(matches!(err, PartitionError::UnsupportedPartCount { .. }));
    }
}
