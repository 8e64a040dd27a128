//! The multilevel driver: one coarsen/uncoarsen walk shared by the 2-way
//! engine, direct k-way and the V-cycle.
//!
//! [`Hierarchy::build`] coarsens an instance level by level, and
//! [`Hierarchy::uncoarsen`] walks a coarsest-level solution back down,
//! projecting and refining at every finer level. The callers differ only
//! in the coarsening knobs, the coarsest solve and the per-level refine
//! step. The driver is the one place that records [`Event::LevelStart`] and
//! [`Event::LevelEnd`].

use vlsi_rng::Rng;
use vlsi_trace::{Event, Sink};

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Hypergraph, PartId};

use super::coarsen::{coarsen_once, CoarsenParams, Level};
use crate::config::MultilevelConfig;
use crate::engine::RunCtx;
use crate::{PartitionError, PartitionResult};

/// The coarsening knobs of the 2-way engine and the V-cycle under `cfg`:
/// clusters capped at `cfg.max_cluster_fraction` of the total weight, and
/// each part's fixed weight capped at its primary-resource maximum under
/// `balance`. (Direct k-way scales the cap by k/2 and caps each resource.)
pub(crate) fn coarsen_params(
    hg: &Hypergraph,
    balance: &BalanceConstraint,
    cfg: &MultilevelConfig,
) -> CoarsenParams {
    CoarsenParams {
        max_cluster_weight: ((hg.total_weight() as f64) * cfg.max_cluster_fraction)
            .ceil()
            .max(1.0) as u64,
        max_cluster_weights: Vec::new(),
        max_net_size_for_matching: 64,
        // Never let a partition's fixed weight outgrow its capacity.
        max_fixed_part_weight: (0..balance.num_parts())
            .map(|p| balance.max(PartId::from_index(p), 0))
            .collect(),
        allow_free_fixed_merge: false,
        threads: cfg.threads,
    }
}

/// A coarsening hierarchy over one instance: `levels[i]` is coarsened from
/// `levels[i - 1]`, and `levels[0]` from the instance itself. Level 0 is
/// the instance; higher indices are coarser.
pub(crate) struct Hierarchy<'a> {
    hg: &'a Hypergraph,
    fixed: &'a FixedVertices,
    levels: Vec<Level>,
}

impl<'a> Hierarchy<'a> {
    /// Coarsens `hg` with `params` until at most `coarsest_size` vertices
    /// remain, a matching step stalls (shrinks by less than `min_shrink`),
    /// or `ctx.cancel` fires. Records one [`Event::LevelStart`] into
    /// `ctx.sink` as each level is built.
    ///
    /// With `parts`, only vertices in the same part may merge, and `parts`
    /// is carried down: on return it is the coarsest level's partition,
    /// whose loads and objective value equal the input's.
    pub(crate) fn build<R: Rng + ?Sized, S: Sink>(
        hg: &'a Hypergraph,
        fixed: &'a FixedVertices,
        params: &CoarsenParams,
        coarsest_size: usize,
        min_shrink: f64,
        mut parts: Option<&mut Vec<PartId>>,
        ctx: RunCtx<'_, R, S>,
    ) -> Self {
        let mut h = Hierarchy {
            hg,
            fixed,
            levels: Vec::new(),
        };
        loop {
            let (cur_hg, cur_fixed) = h.coarsest();
            if cur_hg.num_vertices() <= coarsest_size || ctx.cancel.is_cancelled() {
                break;
            }
            let same_part = parts.as_deref().map(Vec::as_slice);
            let Some(level) =
                coarsen_once(cur_hg, cur_fixed, params, min_shrink, same_part, ctx.rng)
            else {
                break;
            };
            if let Some(parts) = parts.as_deref_mut() {
                // A cluster's part is any member's part: merges stayed
                // inside one part.
                let mut coarse = vec![PartId(0); level.hg.num_vertices()];
                for (v, c) in level.map.iter().enumerate() {
                    coarse[c.index()] = parts[v];
                }
                *parts = coarse;
            }
            if S::ENABLED {
                ctx.sink.record(&Event::LevelStart {
                    level: h.levels.len() as u32 + 1,
                    vertices: level.hg.num_vertices() as u64,
                    nets: level.hg.num_nets() as u64,
                });
            }
            h.levels.push(level);
        }
        h
    }

    /// The instance at level `i` (0 is the input).
    fn instance(&self, i: usize) -> (&Hypergraph, &FixedVertices) {
        match i {
            0 => (self.hg, self.fixed),
            _ => (&self.levels[i - 1].hg, &self.levels[i - 1].fixed),
        }
    }

    /// The coarsest instance (the input itself when nothing coarsened).
    pub(crate) fn coarsest(&self) -> (&Hypergraph, &FixedVertices) {
        self.instance(self.levels.len())
    }

    /// Vertex counts of every level, from the input down to the coarsest.
    pub(crate) fn level_sizes(&self) -> Vec<usize> {
        (0..=self.levels.len())
            .map(|i| self.instance(i).0.num_vertices())
            .collect()
    }

    /// Walks `coarsest`, a solution of the coarsest level, back down to the
    /// input. Records the coarsest level's [`Event::LevelEnd`], then at each
    /// finer level projects the solution, runs `refine` on it and records
    /// that level's `LevelEnd` with the refined value. Returns the input
    /// level's solution.
    ///
    /// # Errors
    /// The first error `refine` returns.
    pub(crate) fn uncoarsen<S: Sink>(
        &self,
        coarsest: PartitionResult,
        sink: &S,
        mut refine: impl FnMut(
            &Hypergraph,
            &FixedVertices,
            Vec<PartId>,
        ) -> Result<PartitionResult, PartitionError>,
    ) -> Result<PartitionResult, PartitionError> {
        let level_end = |i: usize, value: u64| {
            if S::ENABLED {
                let hg = self.instance(i).0;
                sink.record(&Event::LevelEnd {
                    level: i as u32,
                    vertices: hg.num_vertices() as u64,
                    nets: hg.num_nets() as u64,
                    cut: value,
                });
            }
        };
        let mut r = coarsest;
        level_end(self.levels.len(), r.cut);
        for i in (0..self.levels.len()).rev() {
            let (hg, fixed) = self.instance(i);
            r = refine(hg, fixed, self.levels[i].project(&r.parts))?;
            level_end(i, r.cut);
        }
        Ok(r)
    }
}
