//! The FM bipartitioning engine proper.

use vlsi_rng::Rng;

use vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Fixity, Hypergraph, NetId, Objective, PartId, Partitioning,
    VertexId,
};
use vlsi_trace::{CancelStage, Event, MoverFixity, Sink};

use crate::cancel::{CancelToken, CHECK_INTERVAL};
use crate::config::{FmConfig, PassCutoff, SelectionPolicy};
use crate::engine::RunCtx;
use crate::fm::{PassStats, RunStats};
use crate::PartitionError;

/// Gain of moving `v` to the other side under the cut objective: the net
/// weight freed by emptying `from`-critical nets minus the weight newly
/// cut by touching nets with no pin on the other side.
fn initial_gain_of(hg: &Hypergraph, parts: &[PartId], pins: &[[u32; 2]], v: VertexId) -> i64 {
    let from = parts[v.index()].index();
    let mut g = 0i64;
    for &n in hg.vertex_nets(v) {
        let w = hg.net_weight(n) as i64;
        let counts = pins[n.index()];
        if counts[from] == 1 {
            g += w;
        }
        if counts[1 - from] == 0 {
            g -= w;
        }
    }
    g
}

/// Sets `side`'s bit in a net's frozen-side mask. Returns the net's weight
/// `w` if that froze it on both sides, else 0.
#[inline]
fn freeze(mask: &mut u8, side: usize, w: u64) -> u64 {
    let before = *mask;
    *mask = before | 1 << side;
    if before == 1 << (1 - side) {
        w
    } else {
        0
    }
}

/// Result of an FM run: the final assignment, its cut, and the per-pass
/// statistics used by the paper's Tables II and III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FmResult {
    /// Final partition of every vertex.
    pub parts: Vec<PartId>,
    /// Final (best) cut value.
    pub cut: u64,
    /// Statistics of every executed pass.
    pub stats: RunStats,
}

/// Flat FM bipartitioner with fixed-vertex support.
///
/// # Example
/// ```
/// use vlsi_rng::SeedableRng;
/// use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
/// use vlsi_partition::{BipartFm, FmConfig, Partitioner, RunCtx};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two 4-cliques joined by a single net bisect with cut 1.
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..8).map(|_| b.add_vertex(1)).collect();
/// for side in [&v[0..4], &v[4..8]] {
///     for i in 0..4 {
///         for j in (i + 1)..4 {
///             b.add_net(1, [side[i], side[j]])?;
///         }
///     }
/// }
/// b.add_net(1, [v[0], v[4]])?;
/// let hg = b.build()?;
///
/// let fm = BipartFm::new(FmConfig::default());
/// let balance = BalanceConstraint::bisection(8, Tolerance::Relative(0.0));
/// let fixed = FixedVertices::all_free(8);
/// let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(3);
/// let result = fm.partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))?;
/// assert_eq!(result.cut, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BipartFm {
    config: FmConfig,
}

impl BipartFm {
    /// Creates an engine with the given configuration.
    pub fn new(config: FmConfig) -> Self {
        BipartFm { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &FmConfig {
        &self.config
    }

    /// Runs FM passes from `initial` until a pass fails to improve the cut
    /// (or `max_passes` is reached), returning the final assignment with
    /// its per-pass statistics. [`partition_ctx`](crate::Partitioner::partition_ctx) runs the same
    /// engine from a random legal initial solution.
    ///
    /// Under [`PassCutoff::Exact`] every pass, the first included, ends as
    /// soon as the nets with an unmovable pin on both sides outweigh the
    /// best prefix's cut: no later prefix could be kept, so the passes
    /// keep, roll back and hand on exactly what classic passes would.
    ///
    /// The run emits [`Event::PassStart`], [`Event::MoveCommitted`] and
    /// [`Event::PassEnd`] per pass into `ctx.sink` (with
    /// [`NullSink`](vlsi_trace::NullSink) the
    /// instrumentation compiles away) and runs on the calling thread
    /// (`ctx.threads` is not used); FM draws no randomness, so `ctx.rng`
    /// is left untouched. `ctx.cancel` is polled
    /// at pass boundaries and every [`CHECK_INTERVAL`] moves inside a
    /// pass. Cancellation is not an error: the run stops after restoring
    /// the current pass's best prefix, records one [`Event::Cancelled`]
    /// (stage `fm_pass`, value = cut at termination), and returns the best
    /// solution found so far.
    ///
    /// # Errors
    /// * [`PartitionError::UnsupportedPartCount`] if `balance` describes
    ///   more than two partitions.
    /// * [`PartitionError::Input`] if `initial` is inconsistent with the
    ///   hypergraph or violates a fixity.
    ///
    /// # Example: count the engine's work with a `CounterSink`
    /// ```
    /// use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
    /// use vlsi_partition::{BipartFm, FmConfig, RunCtx};
    /// use vlsi_rng::SeedableRng;
    /// use vlsi_trace::CounterSink;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = HypergraphBuilder::new();
    /// let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
    /// for w in v.windows(2) {
    ///     b.add_net(1, [w[0], w[1]])?;
    /// }
    /// let hg = b.build()?;
    /// let balance = BalanceConstraint::bisection(6, Tolerance::Relative(0.0));
    /// let fixed = FixedVertices::all_free(6);
    ///
    /// let counters = CounterSink::new();
    /// let fm = BipartFm::new(FmConfig::default());
    /// let initial = (0..6)
    ///     .map(|i| vlsi_hypergraph::PartId((i % 2) as u32))
    ///     .collect();
    /// let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(0);
    /// let ctx = RunCtx::new(&mut rng).with_sink(&counters);
    /// let result = fm.run(&hg, &fixed, &balance, initial, ctx)?;
    ///
    /// let c = counters.snapshot();
    /// assert_eq!(c.passes as usize, result.stats.num_passes());
    /// assert_eq!(c.moves_tried as usize, result.stats.total_moves());
    /// assert!(c.bucket_ops > 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        initial: Vec<PartId>,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<FmResult, PartitionError> {
        let RunCtx { sink, cancel, .. } = ctx;
        if balance.num_parts() != 2 {
            return Err(PartitionError::UnsupportedPartCount {
                requested: balance.num_parts(),
                supported: 2,
            });
        }
        // The partitioning validates the assignment against the graph and
        // the fixities; the pass state copies what it needs and drops it.
        let partitioning = Partitioning::from_parts_fixed(hg, 2, initial, fixed)?;
        let mut state = PassState::new(self, hg, balance, fixed, partitioning, sink, cancel);

        let mut stats = RunStats::default();
        if !cancel.is_cancelled() {
            for pass_idx in 0..self.config.max_passes {
                let cutoff_active = pass_idx > 0 || self.config.cutoff_first_pass;
                let limit = if cutoff_active {
                    self.config.cutoff.limit(state.num_movable)
                } else {
                    state.num_movable
                };
                let pass_stats = state.run_pass(pass_idx, limit);
                let improved = pass_stats.improved();
                stats.passes.push(pass_stats);
                if !improved || cancel.is_cancelled() {
                    break;
                }
            }
        }

        let cut = state.cut;
        if S::ENABLED && cancel.is_cancelled() {
            sink.record(&Event::Cancelled {
                stage: CancelStage::FmPass,
                value: cut,
            });
        }
        Ok(FmResult {
            parts: state.parts,
            cut,
            stats,
        })
    }
}

/// Sentinel for an absent bucket link.
const NONE: u32 = u32::MAX;

/// One vertex of the 2-way pass state. Gain, bucket key and bucket links
/// sit side by side, so a gain bump reads and writes one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct Node {
    /// Gain of moving the vertex to side `to`; kept current only while the
    /// vertex is in a bucket.
    gain: i64,
    /// Bucket key: the gain under LIFO, the gain minus its pass-start value
    /// under CLIP.
    key: i64,
    /// Next vertex in the bucket list (`NONE` at the tail).
    next: u32,
    /// Previous vertex in the bucket list (`NONE` at the head).
    prev: u32,
    /// Side the vertex would move to: the other side of its part.
    to: u8,
    /// Whether the vertex's fixity allows both sides.
    movable: bool,
    /// Whether the vertex is in a bucket, i.e. movable and not yet moved
    /// in this pass. Locked and immovable vertices never are.
    in_bucket: bool,
}

/// Mutable working state shared by the passes of one run.
///
/// The state is 2-way only and owns everything a pass touches: the
/// assignment, the part loads, the cut, every net's pin count on each
/// side, one [`Node`] per vertex and one bucket-head array per target
/// side. Each pass starts by copying the cut and the side-0 pin counts. At
/// its end the pin counts and the cut are restored from that copy and the
/// kept prefix of moves is replayed into them, while the assignment and
/// loads undo the moves beyond the prefix (one write per vertex each).
struct PassState<'a, S: Sink> {
    hg: &'a Hypergraph,
    balance: &'a BalanceConstraint,
    fixed: &'a FixedVertices,
    sink: &'a S,
    cancel: &'a CancelToken,
    policy: SelectionPolicy,
    /// Vertices whose fixity allows both sides.
    num_movable: usize,
    /// Per-resource transient balance slack (largest movable vertex weight).
    relax: Vec<u64>,
    /// Current side of every vertex.
    parts: Vec<PartId>,
    /// Flat `2 × num_resources` load matrix.
    loads: Vec<u64>,
    /// Current weighted cut.
    cut: u64,
    /// Weight of the nets frozen on both sides (see `frozen`): they stay
    /// cut until the pass ends, so no later state cuts less. Kept only
    /// under [`PassCutoff::Exact`]; otherwise 0.
    dead: u64,
    /// Every net's pin count on side 0 and on side 1.
    pins: Vec<[u32; 2]>,
    /// Whether `frozen` and `dead` are kept ([`PassCutoff::Exact`]).
    exact: bool,
    /// Per net, bit `s` is set once side `s` holds a pin that cannot move
    /// again in this pass: an immovable vertex, or one already moved.
    /// Empty unless `exact`.
    frozen: Vec<u8>,
    nodes: Vec<Node>,
    /// Keys range over `[-key_bound, key_bound]`.
    key_bound: i64,
    /// Bucket-list heads per target side, indexed by `key + key_bound`.
    heads: [Vec<u32>; 2],
    /// Upper bound on the highest non-empty key, per target side.
    max_key: [i64; 2],
    /// Number of vertices in the buckets, per target side.
    in_buckets: [usize; 2],
    /// The current pass's moves, oldest first.
    moves: Vec<VertexId>,
    /// Pass-start copies of the cut and the side-0 pin counts.
    start_cut: u64,
    start_pins0: Vec<u32>,
    /// Pass-start `frozen` and `dead`: the immovable vertices' sides,
    /// which no pass changes.
    start_frozen: Vec<u8>,
    start_dead: u64,
    /// Gain-bucket operations of the current pass (only maintained when
    /// `S::ENABLED`; reported on the pass's `PassEnd` event).
    bucket_ops: u64,
}

impl<'a, S: Sink> PassState<'a, S> {
    /// Takes over a validated `partitioning` and sizes the buckets.
    fn new(
        engine: &BipartFm,
        hg: &'a Hypergraph,
        balance: &'a BalanceConstraint,
        fixed: &'a FixedVertices,
        partitioning: Partitioning,
        sink: &'a S,
        cancel: &'a CancelToken,
    ) -> Self {
        let cs = partitioning.cut_state();
        let pins: Vec<[u32; 2]> = hg
            .nets()
            .map(|n| [cs.pins_in(n, PartId(0)), cs.pins_in(n, PartId(1))])
            .collect();
        let loads = partitioning.loads().to_vec();
        let cut = partitioning.cut_value(Objective::Cut);
        let parts = partitioning.into_parts();

        let nodes: Vec<Node> = hg
            .vertices()
            .map(|v| {
                let fixity = if v.index() < fixed.len() {
                    fixed.fixity(v)
                } else {
                    Fixity::Free
                };
                Node {
                    gain: 0,
                    key: 0,
                    next: NONE,
                    prev: NONE,
                    to: 0,
                    // A vertex can participate if it may sit on both sides.
                    movable: fixity.allows(PartId(0)) && fixity.allows(PartId(1)),
                    in_bucket: false,
                }
            })
            .collect();
        let num_movable = nodes.iter().filter(|node| node.movable).count();

        // The exact stop's pass-start mask, from the immovable vertices'
        // nets only.
        let exact = matches!(engine.config.cutoff, PassCutoff::Exact);
        let mut start_frozen = Vec::new();
        let mut start_dead = 0;
        if exact {
            start_frozen = vec![0u8; hg.num_nets()];
            for v in hg.vertices().filter(|v| !nodes[v.index()].movable) {
                let side = parts[v.index()].index();
                for &n in hg.vertex_nets(v) {
                    start_dead += freeze(&mut start_frozen[n.index()], side, hg.net_weight(n));
                }
            }
        }

        // Maximum possible |gain| = largest total incident net weight over
        // the *movable* vertices (immovable ones never enter the buckets;
        // a clustered mega-terminal would otherwise blow the array up).
        let gain_bound: i64 = hg
            .vertices()
            .filter(|v| nodes[v.index()].movable)
            .map(|v| {
                hg.vertex_nets(v)
                    .iter()
                    .map(|&n| hg.net_weight(n) as i64)
                    .sum()
            })
            .max()
            .unwrap_or(0)
            .max(1);
        // CLIP keys are (gain - initial gain), so they span twice the range.
        let key_bound = match engine.config.policy {
            SelectionPolicy::Lifo => gain_bound,
            SelectionPolicy::Clip => 2 * gain_bound,
        };

        // Moves may transiently overshoot the balance window by the weight
        // of the largest movable vertex (the classic FM relaxation); only
        // strictly balanced prefixes are accepted.
        let mut relax = vec![0u64; hg.num_resources()];
        for v in hg.vertices() {
            if nodes[v.index()].movable {
                for (r, &w) in hg.vertex_weights(v).iter().enumerate() {
                    relax[r] = relax[r].max(w);
                }
            }
        }

        let span = (2 * key_bound + 1) as usize;
        PassState {
            hg,
            balance,
            fixed,
            sink,
            cancel,
            policy: engine.config.policy,
            num_movable,
            relax,
            start_cut: cut,
            start_pins0: vec![0; pins.len()],
            frozen: start_frozen.clone(),
            start_frozen,
            start_dead,
            parts,
            loads,
            cut,
            dead: start_dead,
            pins,
            exact,
            nodes,
            key_bound,
            heads: [vec![NONE; span], vec![NONE; span]],
            max_key: [-key_bound; 2],
            in_buckets: [0; 2],
            // A pass moves each movable vertex at most once.
            moves: Vec::with_capacity(num_movable),
            bucket_ops: 0,
        }
    }

    /// Executes one FM pass and restores the best prefix. Returns its stats
    /// and emits the pass's trace events into the sink.
    fn run_pass(&mut self, pass: usize, move_limit: usize) -> PassStats {
        let cut_before = self.cut;
        if S::ENABLED {
            self.bucket_ops = 0;
            self.sink.record(&Event::PassStart {
                pass: pass as u32,
                cut: cut_before,
                movable: self.num_movable as u64,
                move_limit: move_limit as u64,
            });
        }
        self.start_cut = self.cut;
        for (c0, counts) in self.start_pins0.iter_mut().zip(&self.pins) {
            *c0 = counts[0];
        }
        self.frozen.copy_from_slice(&self.start_frozen);
        self.dead = self.start_dead;
        self.prepare_buckets();

        self.moves.clear();
        let mut best_len = 0;
        let mut best_cut = cut_before;
        let mut best_imbalance = self.imbalance();

        while self.moves.len() < move_limit {
            // Armed tokens are re-polled every CHECK_INTERVAL moves; the
            // best-prefix rollback below makes stopping mid-pass safe.
            if !self.cancel.is_never()
                && self.moves.len().is_multiple_of(CHECK_INTERVAL)
                && self.cancel.is_cancelled()
            {
                break;
            }
            let Some((vertex, from)) = self.select_move() else {
                break;
            };
            let to = 1 - from;
            self.unlink(vertex);
            self.nodes[vertex.index()].in_bucket = false;
            self.in_buckets[to] -= 1;
            self.decay_max(to);
            // The realised gain, read before the move's own updates.
            let gain = self.nodes[vertex.index()].gain;
            self.apply_move(vertex, from, to);
            self.moves.push(vertex);
            let cut = self.cut;
            if S::ENABLED {
                self.bucket_ops += 1; // the unlink above
                let fixity = if vertex.index() < self.fixed.len()
                    && matches!(self.fixed.fixity(vertex), Fixity::FixedAny(_))
                {
                    MoverFixity::FixedAny
                } else {
                    MoverFixity::Free
                };
                self.sink.record(&Event::MoveCommitted {
                    pass: pass as u32,
                    vertex: vertex.index() as u64,
                    gain,
                    fixity,
                    cut,
                });
            }

            // Only strictly balanced states may become the accepted prefix.
            if self.balance.is_satisfied(&self.loads) {
                let imbalance = self.imbalance();
                if cut < best_cut || (cut == best_cut && imbalance < best_imbalance) {
                    best_cut = cut;
                    best_len = self.moves.len();
                    best_imbalance = imbalance;
                }
            }
            // Every later state cuts at least `dead`, and a prefix is kept
            // only if it cuts less than the best, or as much with less
            // imbalance. Equality can still be kept, so stop strictly above.
            if self.dead > best_cut {
                break;
            }
        }

        let moves_made = self.moves.len();
        if best_len < moves_made {
            self.rollback(best_len);
        }
        debug_assert_eq!(self.cut, best_cut);

        if S::ENABLED {
            self.sink.record(&Event::PassEnd {
                pass: pass as u32,
                moves: moves_made as u64,
                best_prefix: best_len as u64,
                cut_before,
                cut_after: best_cut,
                bucket_ops: self.bucket_ops,
            });
        }

        PassStats {
            pass,
            movable: self.num_movable,
            moves_made,
            moves_kept: best_len,
            cut_before,
            cut_after: best_cut,
            move_limit,
        }
    }

    /// Keeps the first `keep` moves of the pass and takes back the rest.
    /// Every moved vertex moved once and sits on the side it moved to. The
    /// pin counts and the cut return to their pass-start copy and replay
    /// the kept moves; the assignment and loads undo the others.
    fn rollback(&mut self, keep: usize) {
        self.cut = self.start_cut;
        for (counts, &c0) in self.pins.iter_mut().zip(&self.start_pins0) {
            // A net's pin total never changes.
            *counts = [c0, counts[0] + counts[1] - c0];
        }
        for i in 0..self.moves.len() {
            let v = self.moves[i];
            let to = self.parts[v.index()].index();
            if i < keep {
                for &n in self.hg.vertex_nets(v) {
                    self.shift_pin(n, 1 - to, to);
                }
            } else {
                self.set_side(v, to, 1 - to);
            }
        }
    }

    /// Primary-resource imbalance |load(0) − load(1)| used for tie-breaking.
    fn imbalance(&self) -> u64 {
        self.loads[0].abs_diff(self.loads[self.hg.num_resources()])
    }

    /// Computes all initial gains and fills the buckets.
    fn prepare_buckets(&mut self) {
        for heads in &mut self.heads {
            heads.fill(NONE);
        }
        self.max_key = [-self.key_bound; 2];
        self.in_buckets = [0; 2];
        let hg = self.hg;
        match self.policy {
            SelectionPolicy::Lifo => {
                for v in hg.vertices() {
                    if !self.nodes[v.index()].movable {
                        continue;
                    }
                    let g = initial_gain_of(hg, &self.parts, &self.pins, v);
                    self.enter(v, g, g);
                }
            }
            SelectionPolicy::Clip => {
                // CLIP (Dutt & Deng): every vertex starts at key 0, but the
                // bucket-0 list is ordered by *decreasing initial gain*, so
                // before any delta accumulates the selection degenerates to
                // plain gain order; once moves start, the deltas cluster
                // selection around recently moved vertices. Insertion is at
                // the list head, so we insert in increasing (gain, vertex)
                // order, counting-sorted: gains lie in ±key_bound / 2.
                let gain_bound = self.key_bound / 2;
                let mut starts = vec![0u32; (2 * gain_bound + 2) as usize];
                for v in hg.vertices() {
                    if !self.nodes[v.index()].movable {
                        continue;
                    }
                    let g = initial_gain_of(hg, &self.parts, &self.pins, v);
                    self.nodes[v.index()].gain = g;
                    starts[(g + gain_bound + 1) as usize] += 1;
                }
                for i in 1..starts.len() {
                    starts[i] += starts[i - 1];
                }
                let mut order = vec![VertexId(0); self.num_movable];
                for v in hg.vertices() {
                    let node = self.nodes[v.index()];
                    if node.movable {
                        let slot = &mut starts[(node.gain + gain_bound) as usize];
                        order[*slot as usize] = v;
                        *slot += 1;
                    }
                }
                for v in order {
                    self.enter(v, self.nodes[v.index()].gain, 0);
                }
            }
        }
    }

    /// Puts movable `v` with the given gain into its target side's bucket
    /// for `key`.
    fn enter(&mut self, v: VertexId, gain: i64, key: i64) {
        let to = 1 - self.parts[v.index()].index();
        let node = &mut self.nodes[v.index()];
        node.gain = gain;
        node.to = to as u8;
        node.in_bucket = true;
        self.push_head(v, to, key);
        self.in_buckets[to] += 1;
        if S::ENABLED {
            self.bucket_ops += 1;
        }
    }

    /// Links `v` in at the head of side `to`'s bucket for `key`.
    #[inline]
    fn push_head(&mut self, v: VertexId, to: usize, key: i64) {
        debug_assert!(
            key.abs() <= self.key_bound,
            "key {key} outside ±{}",
            self.key_bound
        );
        let head = std::mem::replace(&mut self.heads[to][(key + self.key_bound) as usize], v.0);
        if head != NONE {
            self.nodes[head as usize].prev = v.0;
        }
        let node = &mut self.nodes[v.index()];
        node.key = key;
        node.next = head;
        node.prev = NONE;
        self.max_key[to] = self.max_key[to].max(key);
    }

    /// Takes `v` out of its bucket list (its flags stay as they are).
    #[inline]
    fn unlink(&mut self, v: VertexId) {
        let Node {
            next,
            prev,
            key,
            to,
            ..
        } = self.nodes[v.index()];
        if prev != NONE {
            self.nodes[prev as usize].next = next;
        } else {
            self.heads[usize::from(to)][(key + self.key_bound) as usize] = next;
        }
        if next != NONE {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Tightens the maximum-key hint of one target side after a removal.
    fn decay_max(&mut self, to: usize) {
        let heads = &self.heads[to];
        let max_key = &mut self.max_key[to];
        while *max_key > -self.key_bound && heads[(*max_key + self.key_bound) as usize] == NONE {
            *max_key -= 1;
        }
    }

    /// Picks the highest-key feasible move over both sides. Ties between
    /// sides are broken toward the heavier side (improves balance).
    /// Returns the vertex and the side it leaves.
    fn select_move(&self) -> Option<(VertexId, usize)> {
        match (self.select_to(1), self.select_to(0)) {
            (None, None) => None,
            (Some((v, _)), None) => Some((v, 0)),
            (None, Some((v, _))) => Some((v, 1)),
            (Some((v0, k0)), Some((v1, k1))) => {
                if k0 > k1 {
                    Some((v0, 0))
                } else if k1 > k0 {
                    Some((v1, 1))
                } else {
                    // Equal keys: move from the heavier side.
                    let (l0, l1) = (self.loads[0], self.loads[self.hg.num_resources()]);
                    if l0 >= l1 {
                        Some((v0, 0))
                    } else {
                        Some((v1, 1))
                    }
                }
            }
        }
    }

    /// The highest-key vertex bound for side `to` whose move fits there,
    /// scanning keys downward from the maximum and each bucket in LIFO
    /// order.
    fn select_to(&self, to: usize) -> Option<(VertexId, i64)> {
        if self.in_buckets[to] == 0 {
            return None;
        }
        let hg = self.hg;
        let nr = hg.num_resources();
        let loads = &self.loads[to * nr..(to + 1) * nr];
        let part = PartId(to as u32);
        let mut key = self.max_key[to];
        while key >= -self.key_bound {
            let mut cur = self.heads[to][(key + self.key_bound) as usize];
            while cur != NONE {
                let v = VertexId(cur);
                // Relaxed feasibility: the destination may overshoot its
                // maximum by the largest movable vertex weight.
                let fits = hg
                    .vertex_weights(v)
                    .iter()
                    .enumerate()
                    .all(|(r, &w)| loads[r] + w <= self.balance.max(part, r) + self.relax[r]);
                if fits {
                    return Some((v, key));
                }
                cur = self.nodes[cur as usize].next;
            }
            key -= 1;
        }
        None
    }

    /// Moves `vertex` from `from` to `to` with the standard FM delta-gain
    /// updates. The first loop over its nets shifts each pin count, updates
    /// the cut (and, under the exact stop, freezes the net's `to` side)
    /// and bumps the gains that depend on the `to` side's count before the
    /// move; the second bumps those that depend on the `from` side's count
    /// after it.
    fn apply_move(&mut self, vertex: VertexId, from: usize, to: usize) {
        let hg = self.hg;
        let expected_cut = self
            .cut
            .wrapping_sub(self.nodes[vertex.index()].gain as u64);
        for &n in hg.vertex_nets(vertex) {
            let to_count = self.shift_pin(n, from, to);
            // Zero-weight nets change no gain.
            let w = hg.net_weight(n) as i64;
            if w == 0 {
                continue;
            }
            if self.exact {
                // The moved vertex is locked on `to` for the rest of the pass.
                self.dead += freeze(&mut self.frozen[n.index()], to, w as u64);
            }
            if to_count == 0 {
                // Net becomes critical from the `to` side: every other pin
                // gains from following the move.
                for &u in hg.net_pins(n) {
                    if u != vertex {
                        self.bump(u, w);
                    }
                }
            } else if to_count == 1 {
                // The lone `to`-side pin loses its incentive to leave.
                if let Some(u) = self.lone_pin(n, to) {
                    self.bump(u, -w);
                }
            }
        }
        self.set_side(vertex, from, to);
        for &n in hg.vertex_nets(vertex) {
            let w = hg.net_weight(n) as i64;
            if w == 0 {
                continue;
            }
            let from_count = self.pins[n.index()][from];
            if from_count == 0 {
                // Net no longer touches `from`: following moves stop paying.
                for &u in hg.net_pins(n) {
                    if u != vertex {
                        self.bump(u, -w);
                    }
                }
            } else if from_count == 1 {
                // The lone `from`-side pin can now uncut the net by moving.
                if let Some(u) = self.lone_pin(n, from) {
                    self.bump(u, w);
                }
            }
        }
        debug_assert_eq!(
            self.cut, expected_cut,
            "gain of {vertex} disagreed with actual cut delta"
        );
        debug_assert!(self.dead <= self.cut, "a dead net is not cut");
    }

    /// Moves one pin of net `n` from side `from` to side `to` and updates
    /// the cut. Returns the `to` side's pin count before the shift.
    #[inline]
    fn shift_pin(&mut self, n: NetId, from: usize, to: usize) -> u32 {
        let counts = &mut self.pins[n.index()];
        let (from_count, to_count) = (counts[from], counts[to]);
        debug_assert!(from_count > 0, "moving vertex not counted in 'from'");
        counts[from] = from_count - 1;
        counts[to] = to_count + 1;
        // A net is cut while both sides hold a pin.
        if to_count == 0 && from_count > 1 {
            self.cut += self.hg.net_weight(n);
        } else if to_count > 0 && from_count == 1 {
            self.cut -= self.hg.net_weight(n);
        }
        to_count
    }

    /// Puts `v` on side `to` and moves its weights between the part loads.
    fn set_side(&mut self, v: VertexId, from: usize, to: usize) {
        self.parts[v.index()] = PartId(to as u32);
        let nr = self.hg.num_resources();
        for (r, &w) in self.hg.vertex_weights(v).iter().enumerate() {
            self.loads[from * nr + r] -= w;
            self.loads[to * nr + r] += w;
        }
    }

    /// Finds the single pin of `n` on `side` (caller guarantees exactly one).
    fn lone_pin(&self, n: NetId, side: usize) -> Option<VertexId> {
        let side = PartId(side as u32);
        self.hg
            .net_pins(n)
            .iter()
            .copied()
            .find(|&u| self.parts[u.index()] == side)
    }

    /// Adds `delta` to `u`'s gain and moves it to the head of its new
    /// bucket, if `u` is in a bucket.
    #[inline]
    fn bump(&mut self, u: VertexId, delta: i64) {
        let node = self.nodes[u.index()];
        if !node.in_bucket {
            return;
        }
        self.unlink(u);
        self.nodes[u.index()].gain = node.gain + delta;
        self.push_head(u, usize::from(node.to), node.key + delta);
        if S::ENABLED {
            self.bucket_ops += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{validate_partitioning, HypergraphBuilder, PartSet, Tolerance};
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

    /// Two cliques of size `s` joined by `bridges` two-pin nets.
    fn two_cliques(s: usize, bridges: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..2 * s).map(|_| b.add_vertex(1)).collect();
        for base in [0, s] {
            for i in 0..s {
                for j in (i + 1)..s {
                    b.add_net(1, [v[base + i], v[base + j]]).unwrap();
                }
            }
        }
        for k in 0..bridges {
            b.add_net(1, [v[k % s], v[s + (k % s)]]).unwrap();
        }
        b.build().unwrap()
    }

    /// FM from a random legal initial solution drawn with `rng`.
    fn run_random(
        fm: &BipartFm,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        rng: &mut ChaCha8Rng,
    ) -> Result<FmResult, PartitionError> {
        let initial = crate::random_initial(hg, fixed, balance, 2, rng)?;
        fm.run(hg, fixed, balance, initial, RunCtx::new(rng))
    }

    fn run_default(hg: &Hypergraph, fixed: &FixedVertices, tol: f64, seed: u64) -> FmResult {
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(tol));
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        run_random(&fm, hg, fixed, &balance, &mut rng).unwrap()
    }

    #[test]
    fn finds_the_obvious_bisection() {
        let hg = two_cliques(6, 1);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        for seed in 0..5 {
            let result = run_default(&hg, &fixed, 0.0, seed);
            assert_eq!(result.cut, 1, "seed {seed}");
        }
    }

    #[test]
    fn solution_is_always_valid() {
        let hg = two_cliques(5, 3);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig::default());
        for seed in 0..10 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let result = run_random(&fm, &hg, &fixed, &balance, &mut rng).unwrap();
            let p = Partitioning::from_parts(&hg, 2, result.parts.clone()).unwrap();
            let report = validate_partitioning(&hg, &p, &balance, &fixed);
            assert!(report.is_valid(), "seed {seed}: {report}");
            assert_eq!(report.recomputed_cut, result.cut);
        }
    }

    /// Random hypergraph: `n` unit vertices, `m` nets of 2–4 distinct pins.
    fn random_hg(n: usize, m: usize, rng: &mut ChaCha8Rng) -> Hypergraph {
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

    /// End-to-end gain consistency on random instances, for both selection
    /// policies. Every applied move is already self-checked in debug builds
    /// (`apply_move_with_gain_updates` asserts the bucketed gain equals the
    /// realised cut delta), so driving full FM runs here exercises that
    /// assertion across thousands of delta-updates; the reported cut must
    /// also match a from-scratch recomputation.
    #[test]
    fn incremental_gains_agree_with_recomputation_on_random_instances() {
        use vlsi_rng::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for policy in [SelectionPolicy::Lifo, SelectionPolicy::Clip] {
            let fm = BipartFm::new(FmConfig {
                policy,
                ..FmConfig::default()
            });
            for trial in 0..30 {
                let n = rng.gen_range(6..40usize);
                let hg = random_hg(n, rng.gen_range(n..4 * n), &mut rng);
                let mut fixed = FixedVertices::all_free(n);
                for i in 0..n {
                    if rng.gen_bool(0.2) {
                        fixed.fix(VertexId(i as u32), PartId(rng.gen_range(0..2)));
                    }
                }
                let balance =
                    BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.10));
                let Ok(result) = run_random(&fm, &hg, &fixed, &balance, &mut rng) else {
                    continue; // random fixing made the instance infeasible
                };
                let p = Partitioning::from_parts(&hg, 2, result.parts.clone()).unwrap();
                assert_eq!(
                    p.cut_value(Objective::Cut),
                    result.cut,
                    "{policy:?} trial {trial}: reported cut diverged from recomputation"
                );
                let report = validate_partitioning(&hg, &p, &balance, &fixed);
                assert!(report.is_valid(), "{policy:?} trial {trial}: {report}");
            }
        }
    }

    #[test]
    fn fixed_vertices_never_move() {
        let hg = two_cliques(5, 2);
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        // Pin one vertex of each clique: the best solution flips the whole
        // cliques to match (cut = the 2 bridges), and the pins stay put.
        fixed.fix(VertexId(0), PartId(1));
        fixed.fix(VertexId(5), PartId(0));
        let result = run_default(&hg, &fixed, 0.0, 7);
        assert_eq!(result.parts[0], PartId(1));
        assert_eq!(result.parts[5], PartId(0));
        assert!(result.cut >= 2);
    }

    #[test]
    fn fixed_any_moves_within_allowed_set() {
        let hg = two_cliques(4, 1);
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        // FixedAny over both sides is equivalent to free in a bisection.
        fixed.fix_any(VertexId(0), PartSet::all(2));
        let result = run_default(&hg, &fixed, 0.0, 9);
        assert_eq!(result.cut, 1);
    }

    #[test]
    fn good_fixed_vertices_make_the_instance_trivial() {
        let hg = two_cliques(6, 1);
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        for i in 0..6 {
            fixed.fix(VertexId(i), PartId(0));
            fixed.fix(VertexId(6 + i), PartId(1));
        }
        // Everything fixed consistently: FM has nothing to do, cut is 1.
        let result = run_default(&hg, &fixed, 0.0, 1);
        assert_eq!(result.cut, 1);
        assert_eq!(result.stats.total_moves(), 0);
    }

    #[test]
    fn clip_policy_reaches_same_quality_here() {
        let hg = two_cliques(6, 1);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig {
            policy: SelectionPolicy::Clip,
            ..FmConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let result = run_random(&fm, &hg, &fixed, &balance, &mut rng).unwrap();
        assert_eq!(result.cut, 1);
    }

    #[test]
    fn pass_cutoff_limits_moves_after_first_pass() {
        let hg = two_cliques(8, 4);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig {
            cutoff: crate::PassCutoff::Fraction(0.25),
            ..FmConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let result = run_random(&fm, &hg, &fixed, &balance, &mut rng).unwrap();
        for p in &result.stats.passes {
            if p.pass == 0 {
                assert_eq!(p.move_limit, p.movable);
            } else {
                assert_eq!(p.move_limit, 4); // 25% of 16
                assert!(p.moves_made <= 4);
            }
        }
    }

    #[test]
    fn exact_stop_keeps_the_classic_answer_in_fewer_moves() {
        let hg = two_cliques(8, 2);
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        for i in 0..4 {
            fixed.fix(VertexId(i), PartId(0));
            fixed.fix(VertexId(8 + i), PartId(1));
        }
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let run = |cutoff| {
            let fm = BipartFm::new(FmConfig {
                cutoff,
                ..FmConfig::default()
            });
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            run_random(&fm, &hg, &fixed, &balance, &mut rng).unwrap()
        };
        let (classic, exact) = (
            run(crate::PassCutoff::Unlimited),
            run(crate::PassCutoff::Exact),
        );
        assert_eq!(exact.parts, classic.parts);
        assert_eq!(exact.cut, classic.cut);
        assert_eq!(exact.stats.num_passes(), classic.stats.num_passes());
        assert!(exact.stats.total_moves() < classic.stats.total_moves());
    }

    #[test]
    fn stats_record_full_first_pass() {
        let hg = two_cliques(6, 2);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let result = run_default(&hg, &fixed, 0.0, 3);
        let first = &result.stats.passes[0];
        assert_eq!(first.movable, 12);
        // Without terminals the first pass flips essentially every vertex.
        assert!(first.moves_made >= 10);
    }

    #[test]
    fn weighted_vertices_respect_balance() {
        let mut b = HypergraphBuilder::new();
        let heavy = b.add_vertex(6);
        let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
        for &u in &v {
            b.add_net(1, [heavy, u]).unwrap();
        }
        let hg = b.build().unwrap();
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(12, Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let result = run_random(&fm, &hg, &fixed, &balance, &mut rng).unwrap();
        let p = Partitioning::from_parts(&hg, 2, result.parts).unwrap();
        assert_eq!(p.load(PartId(0), 0), 6);
        assert_eq!(p.load(PartId(1), 0), 6);
    }

    #[test]
    fn rejects_multiway_balance() {
        let hg = two_cliques(3, 1);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::even(3, &[hg.total_weight()], Tolerance::Relative(0.5));
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let initial = vec![PartId(0); hg.num_vertices()];
        let err = fm
            .run(&hg, &fixed, &balance, initial, RunCtx::new(&mut rng))
            .unwrap_err();
        assert!(matches!(err, PartitionError::UnsupportedPartCount { .. }));
    }

    #[test]
    fn trace_covers_every_move_of_every_pass() {
        use vlsi_trace::{replay, VecSink};
        let hg = two_cliques(6, 2);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let initial = crate::random_initial(&hg, &fixed, &balance, 2, &mut rng).unwrap();
        let sink = VecSink::new();
        let ctx = RunCtx::new(&mut rng).with_sink(&sink);
        let result = fm.run(&hg, &fixed, &balance, initial, ctx).unwrap();
        let traces = replay::pass_summaries(&sink.take());
        assert_eq!(traces.len(), result.stats.passes.len());
        for (trace, stats) in traces.iter().zip(&result.stats.passes) {
            assert_eq!(trace.cuts.len(), stats.moves_made);
            assert_eq!(trace.cut_before, stats.cut_before);
            // The minimum of the trajectory is the accepted cut (or the
            // pass start if nothing improved).
            if let Some(&min) = trace.cuts.iter().min() {
                assert_eq!(stats.cut_after, min.min(stats.cut_before));
            }
        }
    }

    #[test]
    fn weighted_nets_drive_gains() {
        // v1 attached to v0 by weight-5 net and to v2 by weight-1 net;
        // optimum puts v1 with v0.
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let v1 = b.add_vertex(1);
        let v2 = b.add_vertex(1);
        let v3 = b.add_vertex(1);
        b.add_net(5, [v0, v1]).unwrap();
        b.add_net(1, [v1, v2]).unwrap();
        b.add_net(1, [v2, v3]).unwrap();
        let hg = b.build().unwrap();
        let fixed = FixedVertices::all_free(4);
        let balance = BalanceConstraint::bisection(4, Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let initial = vec![PartId(0), PartId(1), PartId(0), PartId(1)];
        let result = fm
            .run(&hg, &fixed, &balance, initial, RunCtx::new(&mut rng))
            .unwrap();
        assert_eq!(result.cut, 1);
        assert_eq!(result.parts[0], result.parts[1]);
    }
}
