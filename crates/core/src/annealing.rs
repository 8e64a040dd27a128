//! Simulated-annealing bipartitioning — a second classical baseline.
//!
//! Moves flip one movable vertex at a time; downhill moves are always
//! accepted, uphill moves with probability `exp(−Δ/T)`; the temperature
//! cools geometrically per sweep. The best *balanced* state seen is
//! returned (as with the FM engine, the walk itself may transiently
//! overshoot the balance window by one vertex weight).
//!
//! Fixed vertices are never proposed; `FixedAny` vertices flip only within
//! their allowed set (in a bisection: both sides).

use vlsi_rng::Rng;

use vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Fixity, Hypergraph, Objective, PartId, Partitioning, VertexId,
};
use vlsi_trace::{CancelStage, Event, Sink};

use crate::cancel::CHECK_INTERVAL;
use crate::engine::RunCtx;
use crate::{PartitionError, PartitionResult};

/// Configuration of the annealer; run it through
/// [`Partitioner::partition_ctx`](crate::Partitioner::partition_ctx) from a
/// random legal initial assignment.
///
/// # Example
/// ```
/// use vlsi_rng::SeedableRng;
/// use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
/// use vlsi_partition::{AnnealingConfig, Partitioner, RunCtx};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..8).map(|_| b.add_vertex(1)).collect();
/// for w in v.windows(2) {
///     b.add_net(1, [w[0], w[1]])?;
/// }
/// let hg = b.build()?;
/// let fixed = FixedVertices::all_free(8);
/// let balance = BalanceConstraint::bisection(8, Tolerance::Relative(0.0));
/// let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(1);
/// let sa = AnnealingConfig::default();
/// let r = sa.partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))?;
/// assert!(r.cut <= 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealingConfig {
    /// Number of sweeps (each sweep proposes `movable` flips).
    pub sweeps: usize,
    /// Geometric cooling factor per sweep.
    pub cooling: f64,
    /// Initial temperature; `None` = calibrate from the mean uphill delta
    /// of a sampling prepass.
    pub initial_temperature: Option<f64>,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            sweeps: 60,
            cooling: 0.92,
            initial_temperature: None,
        }
    }
}

/// Runs simulated annealing from the given initial assignment, drawing
/// from `ctx.rng`, emitting one [`Event::SweepFinished`] per sweep into
/// `ctx.sink` (accepted-flip count, current and best cut) and polling
/// `ctx.cancel` at sweep boundaries and every [`CHECK_INTERVAL`] proposals. A cancelled run records one
/// [`Event::Cancelled`] (stage `sweep`) and returns the best balanced state
/// visited so far.
///
/// The public entry point is [`AnnealingConfig`]'s
/// [`partition_ctx`](crate::Partitioner::partition_ctx), which draws the
/// initial assignment at random from the same RNG.
///
/// # Errors
/// * [`PartitionError::UnsupportedPartCount`] unless `balance` is 2-way.
/// * [`PartitionError::Input`] for inconsistent initial assignments.
pub(crate) fn simulated_annealing<R: Rng + ?Sized, S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    initial: Vec<PartId>,
    config: AnnealingConfig,
    ctx: RunCtx<'_, R, S>,
) -> Result<PartitionResult, PartitionError> {
    let RunCtx {
        rng, sink, cancel, ..
    } = ctx;
    if balance.num_parts() != 2 {
        return Err(PartitionError::UnsupportedPartCount {
            requested: balance.num_parts(),
            supported: 2,
        });
    }
    let mut p = Partitioning::from_parts_fixed(hg, 2, initial, fixed)?;
    let movable: Vec<VertexId> = hg
        .vertices()
        .filter(|&v| {
            let f = if v.index() < fixed.len() {
                fixed.fixity(v)
            } else {
                Fixity::Free
            };
            f.allows(PartId(0)) && f.allows(PartId(1))
        })
        .collect();
    if movable.is_empty() {
        let cut = p.cut_value(Objective::Cut);
        return Ok(PartitionResult::new(p.into_parts(), cut));
    }

    let nr = hg.num_resources();
    let mut relax = vec![0u64; nr];
    for &v in &movable {
        for (r, &w) in hg.vertex_weights(v).iter().enumerate() {
            relax[r] = relax[r].max(w);
        }
    }
    let flip_allowed = |p: &Partitioning, v: VertexId| -> bool {
        let to = p.part_of(v).other_side();
        let ws = hg.vertex_weights(v);
        (0..nr).all(|r| p.loads()[to.index() * nr + r] + ws[r] <= balance.max(to, r) + relax[r])
    };

    /// Cut delta of flipping `v` (positive = cut increases).
    fn flip_delta(hg: &Hypergraph, p: &Partitioning, v: VertexId) -> i64 {
        let from = p.part_of(v);
        let to = from.other_side();
        let cs = p.cut_state();
        let mut delta = 0i64;
        for &n in hg.vertex_nets(v) {
            let w = hg.net_weight(n) as i64;
            if cs.pins_in(n, from) == 1 {
                delta -= w;
            }
            if cs.pins_in(n, to) == 0 {
                delta += w;
            }
        }
        delta
    }

    // Calibrate the initial temperature from sampled uphill deltas.
    let mut temperature = config.initial_temperature.unwrap_or_else(|| {
        let mut sum = 0.0;
        let mut count = 0usize;
        for _ in 0..movable.len().min(200) {
            let v = movable[rng.gen_range(0..movable.len())];
            let d = flip_delta(hg, &p, v);
            if d > 0 {
                sum += d as f64;
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            2.0 * sum / count as f64
        }
    });

    let mut best_parts: Option<Vec<PartId>> = None;
    let mut best_cut = u64::MAX;
    if balance.is_satisfied(p.loads()) {
        best_cut = p.cut_value(Objective::Cut);
        best_parts = Some(p.as_slice().to_vec());
    }

    'sweeps: for sweep in 0..config.sweeps {
        if cancel.is_cancelled() {
            break;
        }
        let mut accepted = 0u64;
        for proposal in 0..movable.len() {
            if !cancel.is_never()
                && proposal.is_multiple_of(CHECK_INTERVAL)
                && cancel.is_cancelled()
            {
                break 'sweeps;
            }
            let v = movable[rng.gen_range(0..movable.len())];
            if !flip_allowed(&p, v) {
                continue;
            }
            let delta = flip_delta(hg, &p, v);
            let accept = delta <= 0
                || rng.gen_bool((-(delta as f64) / temperature.max(1e-9)).exp().min(1.0));
            if accept {
                let to = p.part_of(v).other_side();
                p.move_vertex(hg, v, to);
                if S::ENABLED {
                    accepted += 1;
                }
                let cut = p.cut_value(Objective::Cut);
                if cut < best_cut && balance.is_satisfied(p.loads()) {
                    best_cut = cut;
                    best_parts = Some(p.as_slice().to_vec());
                }
            }
        }
        temperature *= config.cooling;
        if S::ENABLED {
            sink.record(&Event::SweepFinished {
                sweep: sweep as u32,
                accepted,
                cut: p.cut_value(Objective::Cut),
                best_cut: if best_cut == u64::MAX {
                    p.cut_value(Objective::Cut)
                } else {
                    best_cut
                },
            });
        }
    }

    if S::ENABLED && cancel.is_cancelled() {
        sink.record(&Event::Cancelled {
            stage: CancelStage::Sweep,
            value: if best_cut == u64::MAX {
                p.cut_value(Objective::Cut)
            } else {
                best_cut
            },
        });
    }

    match best_parts {
        Some(parts) => Ok(PartitionResult::new(parts, best_cut)),
        None => {
            // The walk never visited a balanced state; return the final one
            // (callers starting from a legal assignment never hit this).
            let cut = p.cut_value(Objective::Cut);
            Ok(PartitionResult::new(p.into_parts(), cut))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{validate_partitioning, HypergraphBuilder, Tolerance};
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

    fn sa(
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        initial: Vec<PartId>,
        config: AnnealingConfig,
        rng: &mut ChaCha8Rng,
    ) -> Result<PartitionResult, PartitionError> {
        simulated_annealing(hg, fixed, balance, initial, config, RunCtx::new(rng))
    }

    fn two_cliques(s: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..2 * s).map(|_| b.add_vertex(1)).collect();
        for base in [0, s] {
            for i in 0..s {
                for j in (i + 1)..s {
                    b.add_net(1, [v[base + i], v[base + j]]).unwrap();
                }
            }
        }
        b.add_net(1, [v[0], v[s]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn anneals_to_the_natural_bisection() {
        let hg = two_cliques(5);
        let fixed = FixedVertices::all_free(10);
        let balance = BalanceConstraint::bisection(10, Tolerance::Relative(0.0));
        let initial: Vec<PartId> = (0..10).map(|i| PartId(i % 2)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let r = sa(
            &hg,
            &fixed,
            &balance,
            initial,
            AnnealingConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(r.cut, 1);
        let p = Partitioning::from_parts(&hg, 2, r.parts).unwrap();
        assert!(validate_partitioning(&hg, &p, &balance, &fixed).is_valid());
    }

    #[test]
    fn respects_fixed_vertices() {
        let hg = two_cliques(4);
        let mut fixed = FixedVertices::all_free(8);
        fixed.fix(VertexId(0), PartId(1));
        let balance = BalanceConstraint::bisection(8, Tolerance::Relative(0.3));
        let mut initial: Vec<PartId> = (0..8).map(|i| PartId(u32::from(i >= 4))).collect();
        initial[0] = PartId(1);
        initial[4] = PartId(0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let r = sa(
            &hg,
            &fixed,
            &balance,
            initial,
            AnnealingConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(r.parts[0], PartId(1));
    }

    #[test]
    fn fully_fixed_instance_is_identity() {
        let hg = two_cliques(3);
        let mut fixed = FixedVertices::all_free(6);
        for i in 0..6 {
            fixed.fix(VertexId(i), PartId(i % 2));
        }
        let initial: Vec<PartId> = (0..6).map(|i| PartId(i % 2)).collect();
        let balance = BalanceConstraint::bisection(6, Tolerance::Relative(0.5));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let r = sa(
            &hg,
            &fixed,
            &balance,
            initial.clone(),
            AnnealingConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(r.parts, initial);
    }

    #[test]
    fn rejects_multiway() {
        let hg = two_cliques(3);
        let fixed = FixedVertices::all_free(6);
        let balance = BalanceConstraint::even(3, &[6], Tolerance::Relative(0.5));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(matches!(
            sa(
                &hg,
                &fixed,
                &balance,
                vec![PartId(0); 6],
                AnnealingConfig::default(),
                &mut rng,
            ),
            Err(PartitionError::UnsupportedPartCount { .. })
        ));
    }

    #[test]
    fn explicit_temperature_accepted() {
        let hg = two_cliques(4);
        let fixed = FixedVertices::all_free(8);
        let balance = BalanceConstraint::bisection(8, Tolerance::Relative(0.0));
        let initial: Vec<PartId> = (0..8).map(|i| PartId(i % 2)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let cfg = AnnealingConfig {
            initial_temperature: Some(0.5),
            sweeps: 30,
            ..AnnealingConfig::default()
        };
        let r = sa(&hg, &fixed, &balance, initial, cfg, &mut rng).unwrap();
        assert!(r.cut <= 4);
    }
}
