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
pub use coarsen::{coarsen_once, contract_clusters, merge_fixity, CoarsenParams, Level};
pub(crate) use hierarchy::{coarsen_params, Hierarchy};

use vlsi_rng::Rng;
use vlsi_trace::{CancelStage, Event, Sink};

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Hypergraph, PartId};

use crate::config::MultilevelConfig;
use crate::engine::{FmStack, Partitioner, Refiner, RunCtx};
use crate::fm::BipartFm;
use crate::{PartitionError, PartitionResult};

/// Result of a multilevel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultilevelResult {
    /// Final partition of every original vertex.
    pub parts: Vec<PartId>,
    /// Final cut value.
    pub cut: u64,
    /// Vertex counts of each level, from the original down to the coarsest.
    pub level_sizes: Vec<usize>,
    /// Cut of the coarsest-level solution before refinement.
    pub coarse_cut: u64,
}

impl From<MultilevelResult> for PartitionResult {
    fn from(r: MultilevelResult) -> Self {
        PartitionResult::new(r.parts, r.cut)
    }
}

/// The multilevel bipartitioner.
///
/// # Example
/// ```
/// use vlsi_rng::SeedableRng;
/// use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
/// use vlsi_partition::{MultilevelConfig, MultilevelPartitioner, RunCtx};
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
/// let r = ml.run(&hg, &fixed, &balance, RunCtx::new(&mut rng))?;
/// assert_eq!(r.cut, 1);
/// assert_eq!(r.level_sizes[0], 64); // level 0 is the input
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

    /// Partitions `hg` into two blocks under `balance`, honouring `fixed`,
    /// and reports the level hierarchy alongside the solution
    /// ([`partition_ctx`](Partitioner::partition_ctx) returns the solution
    /// only).
    ///
    /// Records [`Event::LevelStart`] / [`Event::LevelEnd`] brackets plus
    /// every underlying FM pass into `ctx.sink`. Level 0 is the original
    /// hypergraph; higher indices are coarser. A `LevelStart` is emitted as
    /// each coarse level is built (top-down), and a `LevelEnd` with the
    /// post-refinement cut as each level is solved (bottom-up, coarsest
    /// first). The whole run stays on the calling thread.
    ///
    /// A cancelled run truncates coarsening, keeps only the first coarse
    /// start, lets the inner FM stop at its own checkpoints, and records
    /// one [`Event::Cancelled`] (stage `level`). The projection from coarse
    /// to fine always completes, so the result is a legal partition of the
    /// *original* hypergraph.
    ///
    /// # Errors
    /// * [`PartitionError::UnsupportedPartCount`] unless `balance` is 2-way.
    /// * [`PartitionError::InfeasibleInstance`] / [`PartitionError::Balance`]
    ///   when no legal solution can be constructed.
    pub fn run<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        mut ctx: RunCtx<'_, R, S>,
    ) -> Result<MultilevelResult, PartitionError> {
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
        let coarse_cut = coarsest.cut;

        // Uncoarsen and refine (the configured FM stack at every level).
        let refiner = FmStack::from_multilevel(cfg);
        let sink = ctx.sink;
        let PartitionResult { parts, cut } =
            h.uncoarsen(coarsest, sink, |fine_hg, fine_fixed, parts| {
                refiner.refine_ctx(fine_hg, fine_fixed, balance, parts, ctx.reborrow())
            })?;

        if S::ENABLED && ctx.cancel.is_cancelled() {
            sink.record(&Event::Cancelled {
                stage: CancelStage::Level,
                value: cut,
            });
        }

        Ok(MultilevelResult {
            parts,
            cut,
            level_sizes: h.level_sizes(),
            coarse_cut,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{
        validate_partitioning, HypergraphBuilder, Partitioning, Tolerance, VertexId,
    };
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

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

    #[test]
    fn grid_bisection_near_optimal() {
        let hg = grid(12); // 144 vertices; optimal bisection cut = 12
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
        let ml = MultilevelPartitioner::new(small_config());
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let r = ml
            .run(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .unwrap();
        assert!(r.cut <= 16, "cut {} too far from optimal 12", r.cut);
        assert!(r.level_sizes.len() >= 2, "expected actual coarsening");
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
            .run(&hg, &fixed, &balance, RunCtx::new(&mut rng))
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
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let r = ml
                .run(&hg, &fixed, &balance, RunCtx::new(&mut rng))
                .unwrap();
            assert!(r.cut <= r.coarse_cut, "seed {seed}");
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
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let r = ml
            .run(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .unwrap();
        assert_eq!(r.level_sizes, vec![9]);
        assert!(r.cut <= 5);
    }

    #[test]
    fn sink_brackets_every_level() {
        use vlsi_trace::VecSink;
        let hg = grid(12);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
        let ml = MultilevelPartitioner::new(small_config());
        let sink = VecSink::new();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let r = ml
            .run(
                &hg,
                &fixed,
                &balance,
                RunCtx::new(&mut rng).with_sink(&sink),
            )
            .unwrap();
        let events = sink.take();
        let starts: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                Event::LevelStart { level, .. } => Some(*level),
                _ => None,
            })
            .collect();
        let ends: Vec<(u32, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::LevelEnd { level, cut, .. } => Some((*level, *cut)),
                _ => None,
            })
            .collect();
        // One LevelStart per coarse level, counting up from 1.
        assert_eq!(starts.len(), r.level_sizes.len() - 1);
        assert!(starts.iter().enumerate().all(|(i, &l)| l == i as u32 + 1));
        // LevelEnd walks back down: coarsest first, level 0 last.
        assert_eq!(ends.len(), r.level_sizes.len());
        assert_eq!(ends[0], (starts.len() as u32, r.coarse_cut));
        assert_eq!(*ends.last().unwrap(), (0, r.cut));
        // The same stream carries the FM pass brackets.
        assert!(events.iter().any(|e| matches!(e, Event::PassEnd { .. })));
    }

    #[test]
    fn sink_run_matches_null_run() {
        use vlsi_trace::VecSink;
        let hg = grid(10);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
        let ml = MultilevelPartitioner::new(small_config());
        let mut rng_a = ChaCha8Rng::seed_from_u64(7);
        let mut rng_b = ChaCha8Rng::seed_from_u64(7);
        let plain = ml
            .run(&hg, &fixed, &balance, RunCtx::new(&mut rng_a))
            .unwrap();
        let sink = VecSink::new();
        let traced = ml
            .run(
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
            .run(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .unwrap_err();
        assert!(matches!(err, PartitionError::UnsupportedPartCount { .. }));
    }
}
