//! Cut objectives and the incrementally-maintained per-net pin distribution.

use std::fmt;

use crate::{Hypergraph, NetId, PartId, VertexId};

/// Partitioning objective functions.
///
/// The paper (and all its tables/figures) uses minimum cut
/// ([`Objective::Cut`]); the multiway extension also supports the k−1 and
/// sum-of-external-degrees metrics common in the literature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Weighted number of nets spanning more than one partition.
    #[default]
    Cut,
    /// Sum over nets of `(span − 1) · weight`; equals `Cut` for bipartitions.
    KMinus1,
    /// Sum of external degrees: for each cut net, `span · weight`.
    Soed,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::Cut => write!(f, "cut"),
            Objective::KMinus1 => write!(f, "k-1"),
            Objective::Soed => write!(f, "soed"),
        }
    }
}

/// Per-net pin distribution over partitions, maintained incrementally as
/// vertices move.
///
/// For every net the number of its pins in each partition is tracked,
/// together with the net's *span* (number of partitions it touches) and the
/// aggregate cut / k−1 objective values. A single vertex move updates in
/// O(degree · adjacent net sizes ... no — O(degree)) time.
///
/// This is the workhorse under both the FM engines and the validators.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{CutState, HypergraphBuilder, NetId, PartId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let u = b.add_vertex(1);
/// let v = b.add_vertex(1);
/// b.add_net(1, [u, v])?;
/// let hg = b.build()?;
///
/// let mut cs = CutState::new(&hg, 2, &[PartId(0), PartId(1)]);
/// assert_eq!(cs.cut(), 1);
/// cs.move_vertex(&hg, v, PartId(1), PartId(0));
/// assert_eq!(cs.cut(), 0);
/// assert_eq!(cs.pins_in(NetId(0), PartId(0)), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutState {
    num_parts: usize,
    /// Flat `num_nets × num_parts` pin-count matrix.
    counts: Vec<u32>,
    /// Per-net span (number of partitions with ≥ 1 pin).
    spans: Vec<u32>,
    /// Weighted count of nets with span ≥ 2.
    cut: u64,
    /// Weighted `Σ (span − 1)`.
    kminus1: u64,
}

impl CutState {
    /// Builds the distribution for `assignment` (one `PartId` per vertex).
    ///
    /// # Panics
    /// Panics if `assignment.len() != hg.num_vertices()` or any part id is
    /// `>= num_parts`.
    pub fn new(hg: &Hypergraph, num_parts: usize, assignment: &[PartId]) -> Self {
        assert_eq!(assignment.len(), hg.num_vertices(), "assignment length");
        let mut counts = vec![0u32; hg.num_nets() * num_parts];
        let mut spans = vec![0u32; hg.num_nets()];
        let mut cut = 0u64;
        let mut kminus1 = 0u64;
        for net in hg.nets() {
            let base = net.index() * num_parts;
            for &pin in hg.net_pins(net) {
                let p = assignment[pin.index()];
                assert!(p.index() < num_parts, "part id out of range");
                counts[base + p.index()] += 1;
            }
            let span = counts[base..base + num_parts]
                .iter()
                .filter(|&&c| c > 0)
                .count() as u32;
            spans[net.index()] = span;
            if span >= 2 {
                cut += hg.net_weight(net);
                kminus1 += (span as u64 - 1) * hg.net_weight(net);
            }
        }
        CutState {
            num_parts,
            counts,
            spans,
            cut,
            kminus1,
        }
    }

    /// Number of partitions tracked.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of `net`'s pins currently in `part`.
    ///
    /// # Panics
    /// Panics if `net` or `part` is out of range.
    #[inline]
    pub fn pins_in(&self, net: NetId, part: PartId) -> u32 {
        self.counts[net.index() * self.num_parts + part.index()]
    }

    /// Number of partitions `net` currently touches.
    ///
    /// # Panics
    /// Panics if `net` is out of range.
    #[inline]
    pub fn span(&self, net: NetId) -> u32 {
        self.spans[net.index()]
    }

    /// Current weighted cut.
    #[inline]
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Current weighted k−1 objective.
    #[inline]
    pub fn kminus1(&self) -> u64 {
        self.kminus1
    }

    /// Current value of the requested objective.
    pub fn value(&self, objective: Objective) -> u64 {
        match objective {
            Objective::Cut => self.cut,
            Objective::KMinus1 => self.kminus1,
            // SOED = Σ_cut span·w = (k−1 objective) + (cut objective).
            Objective::Soed => self.kminus1 + self.cut,
        }
    }

    /// Applies the move of `vertex` from `from` to `to`, updating all counts,
    /// spans and objective values. A no-op when `from == to`.
    ///
    /// The caller is responsible for `from` being `vertex`'s current side —
    /// this is checked only via `debug_assert` (the hot path of FM).
    ///
    /// # Panics
    /// Panics (in debug builds) if a net has no pins recorded in `from`.
    pub fn move_vertex(&mut self, hg: &Hypergraph, vertex: VertexId, from: PartId, to: PartId) {
        if from == to {
            return;
        }
        for &net in hg.vertex_nets(vertex) {
            let base = net.index() * self.num_parts;
            let w = hg.net_weight(net);
            let from_count = &mut self.counts[base + from.index()];
            debug_assert!(*from_count > 0, "moving vertex not counted in 'from'");
            *from_count -= 1;
            let from_emptied = *from_count == 0;
            let to_count = &mut self.counts[base + to.index()];
            let to_filled = *to_count == 0;
            *to_count += 1;

            let old_span = self.spans[net.index()];
            let new_span = old_span + u32::from(to_filled) - u32::from(from_emptied);
            if new_span != old_span {
                self.spans[net.index()] = new_span;
                if old_span >= 2 {
                    self.kminus1 -= (old_span as u64 - 1) * w;
                    self.cut -= w;
                }
                if new_span >= 2 {
                    self.kminus1 += (new_span as u64 - 1) * w;
                    self.cut += w;
                }
            }
        }
    }
}

/// Recomputes the objective from scratch — O(pins). Used by validators and
/// property tests to confirm incremental maintenance.
pub(crate) fn recompute_value(
    hg: &Hypergraph,
    num_parts: usize,
    assignment: &[PartId],
    objective: Objective,
) -> u64 {
    CutState::new(hg, num_parts, assignment).value(objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn initial_cut_counted() {
        let hg = chain(4);
        let parts = vec![PartId(0), PartId(0), PartId(1), PartId(1)];
        let cs = CutState::new(&hg, 2, &parts);
        assert_eq!(cs.cut(), 1);
        assert_eq!(cs.kminus1(), 1);
        assert_eq!(cs.value(Objective::Soed), 2);
    }

    #[test]
    fn move_updates_cut_both_directions() {
        let hg = chain(3);
        let mut cs = CutState::new(&hg, 2, &[PartId(0), PartId(0), PartId(0)]);
        assert_eq!(cs.cut(), 0);
        cs.move_vertex(&hg, VertexId(1), PartId(0), PartId(1));
        assert_eq!(cs.cut(), 2);
        cs.move_vertex(&hg, VertexId(1), PartId(1), PartId(0));
        assert_eq!(cs.cut(), 0);
    }

    #[test]
    fn move_to_same_part_is_noop() {
        let hg = chain(3);
        let mut cs = CutState::new(&hg, 2, &[PartId(0); 3]);
        let before = cs.clone();
        cs.move_vertex(&hg, VertexId(0), PartId(0), PartId(0));
        assert_eq!(cs, before);
    }

    #[test]
    fn multiway_span_and_soed() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex(1)).collect();
        b.add_net(2, v.clone()).unwrap();
        let hg = b.build().unwrap();
        let mut cs = CutState::new(&hg, 3, &[PartId(0), PartId(1), PartId(2)]);
        assert_eq!(cs.span(NetId(0)), 3);
        assert_eq!(cs.value(Objective::Cut), 2);
        assert_eq!(cs.value(Objective::KMinus1), 4);
        assert_eq!(cs.value(Objective::Soed), 6);
        cs.move_vertex(&hg, v[2], PartId(2), PartId(1));
        assert_eq!(cs.span(NetId(0)), 2);
        assert_eq!(cs.value(Objective::KMinus1), 2);
    }

    #[test]
    fn weighted_nets() {
        let mut b = HypergraphBuilder::new();
        let u = b.add_vertex(1);
        let v = b.add_vertex(1);
        b.add_net(7, [u, v]).unwrap();
        let hg = b.build().unwrap();
        let cs = CutState::new(&hg, 2, &[PartId(0), PartId(1)]);
        assert_eq!(cs.cut(), 7);
    }

    #[test]
    fn incremental_matches_recompute_on_random_walk() {
        use vlsi_rng::prelude::*;
        let hg = chain(20);
        let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(11);
        let mut parts: Vec<PartId> = (0..20).map(|_| PartId(rng.gen_range(0..3))).collect();
        let mut cs = CutState::new(&hg, 3, &parts);
        for _ in 0..200 {
            let v = VertexId(rng.gen_range(0..20));
            let to = PartId(rng.gen_range(0..3));
            let from = parts[v.index()];
            cs.move_vertex(&hg, v, from, to);
            parts[v.index()] = to;
            for &obj in &[Objective::Cut, Objective::KMinus1, Objective::Soed] {
                assert_eq!(cs.value(obj), recompute_value(&hg, 3, &parts, obj));
            }
        }
    }

    /// Random hypergraph: `n` unit vertices, `m` nets of 2–4 distinct pins.
    fn random_hg(n: usize, m: usize, rng: &mut vlsi_rng::ChaCha8Rng) -> Hypergraph {
        use vlsi_rng::Rng;
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for _ in 0..m {
            let size = rng.gen_range(2..=4usize.min(n));
            let mut pins = Vec::with_capacity(size);
            while pins.len() < size {
                let cand = v[rng.gen_range(0..n)];
                if !pins.contains(&cand) {
                    pins.push(cand);
                }
            }
            b.add_net(rng.gen_range(1..4u64), pins).unwrap();
        }
        b.build().unwrap()
    }

    /// FM's bipartition gain formula (+w when the vertex is the last pin on
    /// its side, −w when the other side has none) must equal the *actual*
    /// cut delta realised by `move_vertex` — and the incrementally moved
    /// state must equal a from-scratch `CutState` — on random instances.
    #[test]
    fn gain_formula_matches_cut_delta_on_random_instances() {
        use vlsi_rng::{Rng, SeedableRng};
        let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(77);
        for trial in 0..50 {
            let n = rng.gen_range(4..30usize);
            let hg = random_hg(n, rng.gen_range(3..3 * n), &mut rng);
            let mut parts: Vec<PartId> = (0..n).map(|_| PartId(rng.gen_range(0..2))).collect();
            let mut cs = CutState::new(&hg, 2, &parts);
            for step in 0..60 {
                let v = VertexId(rng.gen_range(0..n as u32));
                let from = parts[v.index()];
                let to = PartId(1 - from.0);
                // The textbook FM gain of moving v from `from` to `to`.
                let mut gain = 0i64;
                for &net in hg.vertex_nets(v) {
                    let w = hg.net_weight(net) as i64;
                    if cs.pins_in(net, from) == 1 {
                        gain += w;
                    }
                    if cs.pins_in(net, to) == 0 {
                        gain -= w;
                    }
                }
                let before = cs.cut() as i64;
                cs.move_vertex(&hg, v, from, to);
                parts[v.index()] = to;
                assert_eq!(
                    before - cs.cut() as i64,
                    gain,
                    "trial {trial} step {step}: gain disagrees with cut delta"
                );
                let fresh = CutState::new(&hg, 2, &parts);
                assert_eq!(cs.cut(), fresh.cut());
                assert_eq!(cs.kminus1(), fresh.kminus1());
            }
        }
    }

    /// The random-walk recompute check again, but on random (non-chain)
    /// multiway instances: incremental maintenance of every objective must
    /// agree with from-scratch recomputation after each move.
    #[test]
    fn incremental_matches_recompute_on_random_instances() {
        use vlsi_rng::{Rng, SeedableRng};
        let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(91);
        for _ in 0..20 {
            let n = rng.gen_range(5..25usize);
            let k = rng.gen_range(2..5usize);
            let hg = random_hg(n, 2 * n, &mut rng);
            let mut parts: Vec<PartId> =
                (0..n).map(|_| PartId(rng.gen_range(0..k as u32))).collect();
            let mut cs = CutState::new(&hg, k, &parts);
            for _ in 0..80 {
                let v = VertexId(rng.gen_range(0..n as u32));
                let to = PartId(rng.gen_range(0..k as u32));
                let from = parts[v.index()];
                cs.move_vertex(&hg, v, from, to);
                parts[v.index()] = to;
                for &obj in &[Objective::Cut, Objective::KMinus1, Objective::Soed] {
                    assert_eq!(cs.value(obj), recompute_value(&hg, k, &parts, obj));
                }
            }
        }
    }

    #[test]
    fn objective_display() {
        assert_eq!(Objective::Cut.to_string(), "cut");
        assert_eq!(Objective::KMinus1.to_string(), "k-1");
        assert_eq!(Objective::Soed.to_string(), "soed");
    }
}
