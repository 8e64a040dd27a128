//! Differential tests pinning the 2-way FM engine to the pass loop it
//! replaced.
//!
//! The `reference` module is a port of the earlier pass loop: gains in a
//! two-target `KwayGains` container, assignment, loads and pin counts in a
//! `Partitioning`, and a rollback that undoes every move beyond the best
//! prefix, newest first. The properties drive both over random instances
//! and require equal results (assignment and cut) and equal trace event
//! streams, which carry every pass's statistics down to its `bucket_ops`.
//!
//! The corpus covers what the pass loop branches on: 0–50% fixed
//! vertices, some of them `FixedAny`; one to three resources under even
//! or explicit per-part capacity rows; zero-weight and weighted nets and
//! vertices; LIFO and CLIP; unlimited and fractional `PassCutoff`s;
//! unbalanced and fixity-violating starts; and a sink
//! that cancels the run's token at the N-th committed move. A second
//! property runs the same check on instances of over 2,100 vertices.
//!
//! A third test runs the engine under [`PassCutoff::Exact`] against the
//! reference's classic passes over both corpora, without cancellation: the
//! stop may only drop the moves after it, never change what a pass keeps.
//!
//! A fourth property pins [`FmStack`], whose stages share one pass state,
//! to the reference run as its first stage and then, unless the token has
//! fired, as its second stage from the first one's output. Stage configs
//! are drawn over both policies, unlimited, fractional and exact cutoffs
//! and pass budgets; the reference's exact stop is a port of the engine's
//! rule (off for the other cutoffs). Parts, cut, event streams and errors
//! must be equal, on both corpora and under cancellation.
//!
//! A fifth property covers the engine's two-pin path (one merged gain
//! update per two-pin net, its other pin found from the net's pin XOR) on
//! a corpus of at least 75% two-pin nets, weightless ones and ones with an
//! immovable pin among them, plus one-pin nets. Each case runs as a CLIP
//! and a LIFO stage under the exact stop and as a CLIP→LIFO stack; the
//! events, `bucket_ops` included, must equal the reference's.

use std::cell::Cell;

use vlsi_rng::seq::SliceRandom;
use vlsi_rng::{ChaCha8Rng, Rng, SeedableRng};
use vlsi_testkit::gen::{instances, InstanceConfig, RawInstance};
use vlsi_testkit::{prop_test, PropConfig, TestRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Fixity, Hypergraph, HypergraphBuilder, PartId, PartSet,
    Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_partition::trace::{Event, Sink, VecSink};
use fixed_vertices_repro::vlsi_partition::{
    random_initial, BipartFm, CancelToken, FmConfig, FmStack, PartitionError, PartitionResult,
    PassCutoff, Refiner, RunCtx, SelectionPolicy,
};

/// A port of the earlier 2-way pass loop, single-threaded (gain
/// initialization at any thread budget replays the sequential order).
mod reference {
    use super::*;
    use fixed_vertices_repro::vlsi_hypergraph::{NetId, Objective, Partitioning};
    use fixed_vertices_repro::vlsi_partition::cancel::CHECK_INTERVAL;
    use fixed_vertices_repro::vlsi_partition::trace::MoverFixity;
    use fixed_vertices_repro::vlsi_partition::{KwayGains, MoveLog};

    pub fn run<S: Sink>(
        config: &FmConfig,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        initial: Vec<PartId>,
        sink: &S,
        cancel: &CancelToken,
    ) -> Result<PartitionResult, PartitionError> {
        if balance.num_parts() != 2 {
            return Err(PartitionError::UnsupportedPartCount {
                requested: balance.num_parts(),
                supported: 2,
            });
        }
        let mut partitioning = Partitioning::from_parts_fixed(hg, 2, initial, fixed)?;

        let movable: Vec<bool> = hg
            .vertices()
            .map(|v| {
                let fixity = if v.index() < fixed.len() {
                    fixed.fixity(v)
                } else {
                    Fixity::Free
                };
                fixity.allows(PartId(0)) && fixity.allows(PartId(1))
            })
            .collect();
        let num_movable = movable.iter().filter(|&&m| m).count();

        let gain_bound: i64 = hg
            .vertices()
            .filter(|v| movable[v.index()])
            .map(|v| {
                hg.vertex_nets(v)
                    .iter()
                    .map(|&n| hg.net_weight(n) as i64)
                    .sum()
            })
            .max()
            .unwrap_or(0)
            .max(1);
        let key_bound = match config.policy {
            SelectionPolicy::Lifo => gain_bound,
            SelectionPolicy::Clip => 2 * gain_bound,
        };

        let mut relax = vec![0u64; hg.num_resources()];
        for v in hg.vertices() {
            if movable[v.index()] {
                for (r, &w) in hg.vertex_weights(v).iter().enumerate() {
                    relax[r] = relax[r].max(w);
                }
            }
        }

        let mut state = PassState {
            hg,
            balance,
            exact: matches!(config.cutoff, PassCutoff::Exact),
            movable: &movable,
            partitioning: &mut partitioning,
            gains: KwayGains::new(2, hg.num_vertices(), key_bound),
            gain: vec![0i64; hg.num_vertices()],
            locked: vec![false; hg.num_vertices()],
            policy: config.policy,
            relax,
            fixed,
            sink,
            cancel,
            bucket_ops: 0,
        };

        if !cancel.is_cancelled() {
            for pass_idx in 0..config.max_passes {
                let limit = if pass_idx > 0 {
                    config.cutoff.limit(num_movable)
                } else {
                    num_movable
                };
                let improved = state.run_pass(pass_idx, num_movable, limit);
                if !improved || cancel.is_cancelled() {
                    break;
                }
            }
        }

        let cut = partitioning.cut_value(Objective::Cut);
        if S::ENABLED && cancel.is_cancelled() {
            sink.record(&Event::Cancelled {
                stage: fixed_vertices_repro::vlsi_partition::trace::CancelStage::FmPass,
                value: cut,
            });
        }
        Ok(PartitionResult::new(partitioning.into_parts(), cut))
    }

    struct PassState<'a, S: Sink> {
        hg: &'a Hypergraph,
        balance: &'a BalanceConstraint,
        /// Whether passes end with the exact stop.
        exact: bool,
        movable: &'a [bool],
        partitioning: &'a mut Partitioning,
        gains: KwayGains,
        gain: Vec<i64>,
        locked: Vec<bool>,
        policy: SelectionPolicy,
        relax: Vec<u64>,
        fixed: &'a FixedVertices,
        sink: &'a S,
        cancel: &'a CancelToken,
        bucket_ops: u64,
    }

    /// Marks `side` of net `n` frozen; returns the net's weight `w` if
    /// that froze it on both sides.
    fn freeze(frozen: &mut [u8], n: NetId, side: usize, w: u64) -> u64 {
        let before = frozen[n.index()];
        frozen[n.index()] |= 1 << side;
        if before != 3 && frozen[n.index()] == 3 {
            w
        } else {
            0
        }
    }

    impl<S: Sink> PassState<'_, S> {
        /// Runs one pass; returns whether it improved the cut.
        fn run_pass(&mut self, pass: usize, num_movable: usize, move_limit: usize) -> bool {
            let cut_before = self.partitioning.cut_value(Objective::Cut);
            if S::ENABLED {
                self.bucket_ops = 0;
                self.sink.record(&Event::PassStart {
                    pass: pass as u32,
                    cut: cut_before,
                    movable: num_movable as u64,
                    move_limit: move_limit as u64,
                });
            }
            self.prepare_buckets();

            // The exact stop: per net, the sides holding a pin that cannot
            // move again in this pass (immovable, or already moved), and
            // the weight of the nets frozen on both sides.
            let mut frozen = vec![0u8; self.hg.num_nets()];
            let mut dead = 0u64;
            if self.exact {
                for v in self.hg.vertices().filter(|v| !self.movable[v.index()]) {
                    let side = self.partitioning.part_of(v).index();
                    for &n in self.hg.vertex_nets(v) {
                        dead += freeze(&mut frozen, n, side, self.hg.net_weight(n));
                    }
                }
            }

            let mut move_log = MoveLog::with_capacity(move_limit);
            let mut best_cut = cut_before;
            let mut best_imbalance = self.imbalance();

            while move_log.len() < move_limit {
                if !self.cancel.is_never()
                    && move_log.len().is_multiple_of(CHECK_INTERVAL)
                    && self.cancel.is_cancelled()
                {
                    break;
                }
                let Some((vertex, from)) = self.select_move() else {
                    break;
                };
                let to = from.other_side();
                self.gains.remove(vertex, to);
                self.gains.decay_max_for(to);
                self.locked[vertex.index()] = true;
                let gain = self.gain[vertex.index()];
                self.apply_move_with_gain_updates(vertex, from, to);
                if self.exact {
                    for &n in self.hg.vertex_nets(vertex) {
                        dead += freeze(&mut frozen, n, to.index(), self.hg.net_weight(n));
                    }
                }
                move_log.record(vertex, from);
                let cut = self.partitioning.cut_value(Objective::Cut);
                if S::ENABLED {
                    self.bucket_ops += 1;
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

                if self.balance.is_satisfied(self.partitioning.loads()) {
                    let imbalance = self.imbalance();
                    if cut < best_cut || (cut == best_cut && imbalance < best_imbalance) {
                        best_cut = cut;
                        move_log.mark_best();
                        best_imbalance = imbalance;
                    }
                }
                // Frozen nets stay cut: no later prefix cuts less.
                if dead > best_cut {
                    break;
                }
            }

            let moves_made = move_log.len();
            let best_len = move_log.best_len();
            let (hg, partitioning) = (self.hg, &mut *self.partitioning);
            move_log.rollback_to_best(|vertex, from| {
                partitioning.move_vertex(hg, vertex, from);
            });
            assert_eq!(self.partitioning.cut_value(Objective::Cut), best_cut);

            self.locked.fill(false);
            self.gains.clear();

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
            best_cut < cut_before
        }

        fn imbalance(&self) -> u64 {
            let a = self.partitioning.load(PartId(0), 0);
            let b = self.partitioning.load(PartId(1), 0);
            a.abs_diff(b)
        }

        fn prepare_buckets(&mut self) {
            self.gains.clear();
            match self.policy {
                SelectionPolicy::Lifo => {
                    for v in self.hg.vertices() {
                        if !self.movable[v.index()] {
                            continue;
                        }
                        let g = self.initial_gain(v);
                        self.gain[v.index()] = g;
                        let to = self.partitioning.part_of(v).other_side();
                        self.gains.insert(v, to, g);
                        if S::ENABLED {
                            self.bucket_ops += 1;
                        }
                    }
                }
                SelectionPolicy::Clip => {
                    let mut by_gain: Vec<(i64, VertexId)> = self
                        .hg
                        .vertices()
                        .filter(|v| self.movable[v.index()])
                        .map(|v| (self.initial_gain(v), v))
                        .collect();
                    by_gain.sort_unstable();
                    for &(g, v) in &by_gain {
                        self.gain[v.index()] = g;
                        let to = self.partitioning.part_of(v).other_side();
                        self.gains.insert(v, to, 0);
                        if S::ENABLED {
                            self.bucket_ops += 1;
                        }
                    }
                }
            }
        }

        fn initial_gain(&self, v: VertexId) -> i64 {
            let from = self.partitioning.part_of(v);
            let to = from.other_side();
            let cs = self.partitioning.cut_state();
            let mut g = 0i64;
            for &n in self.hg.vertex_nets(v) {
                let w = self.hg.net_weight(n) as i64;
                if cs.pins_in(n, from) == 1 {
                    g += w;
                }
                if cs.pins_in(n, to) == 0 {
                    g -= w;
                }
            }
            g
        }

        fn select_move(&mut self) -> Option<(VertexId, PartId)> {
            let mut candidates: [Option<(VertexId, i64)>; 2] = [None, None];
            for (side, slot) in candidates.iter_mut().enumerate() {
                let from = PartId(side as u32);
                let to = from.other_side();
                let hg = self.hg;
                let balance = self.balance;
                let relax = &self.relax;
                let loads = self.partitioning.loads();
                let nr = hg.num_resources();
                *slot = self.gains.select_from(to, |v| {
                    hg.vertex_weights(v).iter().enumerate().all(|(r, &w)| {
                        loads[to.index() * nr + r] + w <= balance.max(to, r) + relax[r]
                    })
                });
            }
            match (candidates[0], candidates[1]) {
                (None, None) => None,
                (Some((v, _)), None) => Some((v, PartId(0))),
                (None, Some((v, _))) => Some((v, PartId(1))),
                (Some((v0, k0)), Some((v1, k1))) => {
                    if k0 > k1 {
                        Some((v0, PartId(0)))
                    } else if k1 > k0 {
                        Some((v1, PartId(1)))
                    } else {
                        let l0 = self.partitioning.load(PartId(0), 0);
                        let l1 = self.partitioning.load(PartId(1), 0);
                        if l0 >= l1 {
                            Some((v0, PartId(0)))
                        } else {
                            Some((v1, PartId(1)))
                        }
                    }
                }
            }
        }

        fn apply_move_with_gain_updates(&mut self, vertex: VertexId, from: PartId, to: PartId) {
            let expected_cut = self
                .partitioning
                .cut_value(Objective::Cut)
                .wrapping_sub(self.gain[vertex.index()] as u64);
            for &n in self.hg.vertex_nets(vertex) {
                let w = self.hg.net_weight(n) as i64;
                let to_count = self.partitioning.cut_state().pins_in(n, to);
                if to_count == 0 {
                    for &u in self.hg.net_pins(n) {
                        if u != vertex {
                            self.bump_gain(u, w);
                        }
                    }
                } else if to_count == 1 {
                    if let Some(u) = self.lone_pin(n, to) {
                        self.bump_gain(u, -w);
                    }
                }
            }
            self.partitioning.move_vertex(self.hg, vertex, to);
            for &n in self.hg.vertex_nets(vertex) {
                let w = self.hg.net_weight(n) as i64;
                let from_count = self.partitioning.cut_state().pins_in(n, from);
                if from_count == 0 {
                    for &u in self.hg.net_pins(n) {
                        if u != vertex {
                            self.bump_gain(u, -w);
                        }
                    }
                } else if from_count == 1 {
                    if let Some(u) = self.lone_pin(n, from) {
                        self.bump_gain(u, w);
                    }
                }
            }
            assert_eq!(
                self.partitioning.cut_value(Objective::Cut),
                expected_cut,
                "reference: gain of {vertex} disagreed with actual cut delta"
            );
        }

        fn lone_pin(&self, n: NetId, side: PartId) -> Option<VertexId> {
            self.hg
                .net_pins(n)
                .iter()
                .copied()
                .find(|&u| self.partitioning.part_of(u) == side)
        }

        fn bump_gain(&mut self, u: VertexId, delta: i64) {
            if delta == 0 {
                return;
            }
            self.gain[u.index()] += delta;
            if !self.locked[u.index()] && self.movable[u.index()] {
                let to = self.partitioning.part_of(u).other_side();
                self.gains.adjust(u, to, delta);
                if S::ENABLED {
                    self.bucket_ops += 1;
                }
            }
        }
    }
}

/// Records every event and cancels `token` when the `at`-th
/// `MoveCommitted` arrives, so a mid-pass cancel lands at the same move in
/// every run.
struct CancelAt {
    events: VecSink,
    token: CancelToken,
    at: u64,
    seen: Cell<u64>,
}

impl CancelAt {
    fn new(at: u64) -> Self {
        CancelAt {
            events: VecSink::new(),
            token: CancelToken::new(),
            at,
            seen: Cell::new(0),
        }
    }
}

impl Sink for CancelAt {
    fn record(&self, event: &Event) {
        if matches!(event, Event::MoveCommitted { .. }) {
            self.seen.set(self.seen.get() + 1);
            if self.seen.get() == self.at {
                self.token.cancel();
            }
        }
        self.events.record(event);
    }
}

/// Everything besides the hypergraph that one run takes, derived from a
/// knob seed so that shrinking the seed toward 0 also simplifies the case.
#[derive(Debug)]
struct Setup {
    hg: Hypergraph,
    fixed: FixedVertices,
    balance: BalanceConstraint,
    initial: Vec<PartId>,
    config: FmConfig,
    /// `None`: never cancel. `Some(0)`: cancelled before the run starts.
    /// `Some(n)`: cancelled at the n-th committed move.
    cancel_at: Option<u64>,
}

fn setup(inst: &RawInstance, knob: u64) -> Setup {
    let mut rng = ChaCha8Rng::seed_from_u64(knob);
    let plain = knob == 0;
    let n = inst.weights.len();

    // Resources beyond the first carry small weights, zero included; now
    // and then a primary weight is zero too, like the paper's pads.
    let resources = if plain { 1 } else { rng.gen_range(1..=3) };
    let mut b = HypergraphBuilder::with_resources(resources);
    let vs: Vec<VertexId> = inst
        .weights
        .iter()
        .map(|&w| {
            let primary = if !plain && rng.gen_bool(0.1) { 0 } else { w };
            let mut ws = vec![primary];
            ws.extend((1..resources).map(|_| rng.gen_range(0..=4u64)));
            b.add_vertex_multi(&ws).expect("arity matches")
        })
        .collect();
    for net in &inst.nets {
        let weight = if plain {
            1
        } else if rng.gen_bool(0.2) {
            0
        } else {
            rng.gen_range(1..=5)
        };
        // Shrinking may empty a net or repeat a pin; keep such nets valid.
        if !net.is_empty() {
            b.add_net_dedup(weight, net.iter().map(|&i| vs[i]))
                .expect("generated nets are valid");
        }
    }
    let hg = b.build().expect("generated instance builds");

    // The raw mask fixes about half the vertices; keep a random share of
    // it, so 0-50% end up fixed. Every third kept fixity is `FixedAny`:
    // over both sides (movable, reported as a `FixedAny` mover), or over
    // one side plus a part a bisection does not have (immovable).
    let keep = if plain { 1.0 } else { rng.gen_range(0.0..1.0) };
    let mut fixed = FixedVertices::all_free(n);
    for (i, f) in inst.fixities.iter().enumerate() {
        let Some(p) = f else { continue };
        if !rng.gen_bool(keep) {
            continue;
        }
        let p = PartId(u32::from(*p) % 2);
        let v = VertexId::from_index(i);
        if i % 3 == 0 {
            let mut set = PartSet::single(p);
            set.insert(if rng.gen_bool(0.5) {
                p.other_side()
            } else {
                PartId(2)
            });
            fixed.fix_any(v, set);
        } else {
            fixed.fix(v, p);
        }
    }

    let totals = hg.total_weights().to_vec();
    let tolerance = Tolerance::Relative(if plain { 0.1 } else { rng.gen_range(0.0..0.4) });
    let balance = if plain || rng.gen_bool(0.5) {
        BalanceConstraint::even(2, &totals, tolerance)
    } else {
        // Explicit capacity rows: asymmetric per-part maxima (sometimes
        // tight, sometimes loose) and small or zero minima.
        let (mut min, mut max) = (Vec::new(), Vec::new());
        for _part in 0..2 {
            for &total in &totals {
                let share: f64 = rng.gen_range(0.35..0.9);
                max.push((total as f64 * share).ceil() as u64 + rng.gen_range(0..=2u64));
                min.push(if rng.gen_bool(0.5) {
                    0
                } else {
                    (total as f64 * rng.gen_range(0.0..0.3f64)) as u64
                });
            }
        }
        BalanceConstraint::explicit(2, totals.len(), min, max).expect("shape matches")
    };

    // A legal random start when one exists; otherwise, and sometimes
    // anyway, a fixity-respecting assignment that may be unbalanced; and
    // now and then one that puts a fixed vertex on a forbidden side.
    let mut initial_rng = ChaCha8Rng::seed_from_u64(inst.seed);
    let drawn = random_initial(&hg, &fixed, &balance, 2, &mut initial_rng);
    let initial = match drawn {
        Ok(parts) if plain || rng.gen_bool(0.8) => parts,
        _ => {
            let violate = !plain && rng.gen_bool(0.05);
            (0..n)
                .map(|i| {
                    let fixity = fixed.fixity(VertexId::from_index(i));
                    let p = PartId(rng.gen_range(0..2u32));
                    if fixity.allows(p) || violate {
                        p
                    } else {
                        p.other_side()
                    }
                })
                .collect()
        }
    };

    let config = FmConfig {
        policy: if plain || rng.gen_bool(0.5) {
            SelectionPolicy::Lifo
        } else {
            SelectionPolicy::Clip
        },
        cutoff: if plain || rng.gen_bool(0.5) {
            PassCutoff::Unlimited
        } else {
            PassCutoff::Fraction(rng.gen_range(0.0..1.0))
        },
        max_passes: if plain || rng.gen_bool(0.7) {
            FmConfig::default().max_passes
        } else {
            rng.gen_range(0..=4)
        },
    };
    let cancel_at = (!plain && rng.gen_bool(0.3)).then(|| rng.gen_range(0..=2 * n as u64));

    Setup {
        hg,
        fixed,
        balance,
        initial,
        config,
        cancel_at,
    }
}

/// A recording sink and the token it cancels as `s.cancel_at` asks.
fn cancel_sink(s: &Setup) -> (CancelAt, CancelToken) {
    let sink = CancelAt::new(s.cancel_at.unwrap_or(u64::MAX));
    let token = match s.cancel_at {
        None => CancelToken::never(),
        Some(at) => {
            if at == 0 {
                sink.token.cancel();
            }
            sink.token.clone()
        }
    };
    (sink, token)
}

/// Runs `fm` (or the reference, when `fm` is `None`) and returns the
/// result with the recorded events.
fn run(s: &Setup, fm: Option<&BipartFm>) -> (Result<PartitionResult, PartitionError>, Vec<Event>) {
    let (sink, token) = cancel_sink(s);
    let initial = s.initial.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let result = match fm {
        Some(fm) => {
            let ctx = RunCtx::new(&mut rng).with_sink(&sink).with_cancel(&token);
            fm.refine_ctx(&s.hg, &s.fixed, &s.balance, initial, ctx)
        }
        None => reference::run(
            &s.config, &s.hg, &s.fixed, &s.balance, initial, &sink, &token,
        ),
    };
    (result, sink.events.take())
}

/// Requires the engine to match the reference's result and event stream,
/// and its untraced run to match the result.
fn check(s: &Setup) {
    let (want, want_events) = run(s, None);
    let fm = BipartFm::new(s.config);
    let (got, got_events) = run(s, Some(&fm));
    assert_eq!(got, want, "result");
    assert_eq!(got_events, want_events, "events");
    if s.cancel_at.is_none() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let quiet = fm.refine_ctx(
            &s.hg,
            &s.fixed,
            &s.balance,
            s.initial.clone(),
            RunCtx::new(&mut rng),
        );
        assert_eq!(quiet, want, "untraced result");
    }
}

/// The events a pass stop must leave alone: each pass's `MoveCommitted`
/// events cut to its first `moves[pass]`, and `PassEnd` without its
/// `moves` and `bucket_ops`.
fn kept_events(events: &[Event], moves: &[u64]) -> Vec<Event> {
    let mut seen = vec![0u64; moves.len()];
    events
        .iter()
        .filter_map(|e| match *e {
            Event::MoveCommitted { pass, .. } => {
                let seen = &mut seen[pass as usize];
                *seen += 1;
                (*seen <= moves[pass as usize]).then(|| e.clone())
            }
            Event::PassEnd {
                pass,
                best_prefix,
                cut_before,
                cut_after,
                ..
            } => Some(Event::PassEnd {
                pass,
                moves: 0,
                best_prefix,
                cut_before,
                cut_after,
                bucket_ops: 0,
            }),
            ref other => Some(other.clone()),
        })
        .collect()
}

/// Each pass's move count, from its `PassEnd` event, in stream order.
fn pass_moves(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match *e {
            Event::PassEnd { moves, .. } => Some(moves),
            _ => None,
        })
        .collect()
}

/// Requires the engine under the exact stop to keep what the reference's
/// classic passes keep, pass by pass, and returns how many of its passes
/// the stop ended early.
fn check_exact_stop(mut s: Setup) -> usize {
    s.cancel_at = None;
    s.config.cutoff = PassCutoff::Unlimited;
    let (want, want_events) = run(&s, None);
    let fm = BipartFm::new(FmConfig {
        cutoff: PassCutoff::Exact,
        ..s.config
    });
    let (got, got_events) = run(&s, Some(&fm));
    assert_eq!(got, want, "result");
    if got.is_err() {
        return 0;
    }
    // The kept events hold each pass's index, start cut, movable count and
    // move limit (`PassStart`) and its kept prefix and cuts (`PassEnd`).
    let (moves, want_moves) = (pass_moves(&got_events), pass_moves(&want_events));
    assert_eq!(moves.len(), want_moves.len(), "passes");
    let mut stopped = 0;
    for (pass, (g, w)) in moves.iter().zip(&want_moves).enumerate() {
        assert!(g <= w, "pass {pass} moved more");
        stopped += usize::from(g < w);
    }
    assert_eq!(
        kept_events(&got_events, &moves),
        kept_events(&want_events, &moves),
        "events"
    );
    stopped
}

/// One FM stage: either policy, an unlimited, fractional or exact cutoff,
/// and the default or a small pass budget.
fn stage_config(rng: &mut ChaCha8Rng) -> FmConfig {
    FmConfig {
        policy: if rng.gen_bool(0.5) {
            SelectionPolicy::Lifo
        } else {
            SelectionPolicy::Clip
        },
        cutoff: match rng.gen_range(0..3) {
            0 => PassCutoff::Unlimited,
            1 => PassCutoff::Fraction(rng.gen_range(0.0..1.0)),
            _ => PassCutoff::Exact,
        },
        max_passes: if rng.gen_bool(0.7) {
            FmConfig::default().max_passes
        } else {
            rng.gen_range(0..=4)
        },
    }
}

/// Requires an [`FmStack`] of the stages `first` and `second` to match
/// the reference run as its first stage and then, unless the token has
/// fired, as its second from the first one's output: equal parts and cut,
/// or equal errors, and equal event streams. Returns whether a second
/// stage ran.
fn check_stack(s: &Setup, first: FmConfig, second: Option<FmConfig>) -> bool {
    let (sink, token) = cancel_sink(s);
    let reference = |config: &FmConfig, initial: Vec<PartId>| {
        reference::run(config, &s.hg, &s.fixed, &s.balance, initial, &sink, &token)
    };
    let mut want = reference(&first, s.initial.clone());
    let mut second_ran = false;
    let mid = want.as_ref().ok().map(|r| r.parts.clone());
    if let (Some(parts), Some(second)) = (mid, &second) {
        if !token.is_cancelled() {
            want = reference(second, parts);
            second_ran = true;
        }
    }
    let want = want.map(|r| (r.parts, r.cut));
    let want_events = sink.events.take();

    let (sink, token) = cancel_sink(s);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let ctx = RunCtx::new(&mut rng).with_sink(&sink).with_cancel(&token);
    let got = FmStack::new(first, second)
        .refine_ctx(&s.hg, &s.fixed, &s.balance, s.initial.clone(), ctx)
        .map(|r| (r.parts, r.cut));
    assert_eq!(got, want, "result");
    assert_eq!(sink.events.take(), want_events, "events");
    second_ran
}

/// Requires a two-pin-heavy case to match the reference as one CLIP and
/// one LIFO stage under the exact stop, and as a CLIP→LIFO [`FmStack`]
/// with the exact stop, the multilevel engine's refinement.
fn check_two_pin(mut s: Setup) {
    let stage = |policy| FmConfig {
        policy,
        cutoff: PassCutoff::Exact,
        ..s.config
    };
    let (clip, lifo) = (stage(SelectionPolicy::Clip), stage(SelectionPolicy::Lifo));
    check_stack(&s, clip, Some(lifo));
    for config in [clip, lifo] {
        s.config = config;
        check(&s);
    }
}

fn small_cases() -> impl Fn(&mut TestRng) -> (RawInstance, u64) {
    let gen = instances(InstanceConfig {
        vertices: 2..40,
        max_weight: 5,
        nets_per_vertex: 3.0,
        max_net_size: 6,
        fix_prob: 0.5,
        fix_parts: 2,
    });
    move |rng| {
        let inst = gen(rng);
        let knob = rng.gen_range(0..u64::MAX);
        (inst, knob)
    }
}

/// Instances whose nets are at least 75% two-pin, the rest one-pin nets
/// and nets of three to five pins, in random order. `setup` makes a fifth
/// of them weightless and fixes up to half the vertices, so two-pin nets
/// with an immovable pin occur too.
fn two_pin_cases() -> impl Fn(&mut TestRng) -> (RawInstance, u64) {
    let gen = instances(InstanceConfig {
        vertices: 2..60,
        max_weight: 5,
        nets_per_vertex: 1.0,
        max_net_size: 2,
        fix_prob: 0.5,
        fix_parts: 2,
    });
    move |rng| {
        let mut inst = gen(rng);
        let n = inst.weights.len();
        let m = rng.gen_range(n..=3 * n);
        inst.nets = (0..m)
            .map(|i| {
                let size = if 4 * i < 3 * m {
                    2
                } else if i % 2 == 0 {
                    1
                } else {
                    rng.gen_range(3..=5usize).min(n)
                };
                let mut pins = Vec::with_capacity(size);
                while pins.len() < size {
                    let pin = rng.gen_range(0..n);
                    if !pins.contains(&pin) {
                        pins.push(pin);
                    }
                }
                pins.sort_unstable();
                pins
            })
            .collect();
        inst.nets.shuffle(rng);
        let knob = rng.gen_range(0..u64::MAX);
        (inst, knob)
    }
}

/// Instances with over 2,100 vertices.
fn large_cases() -> impl Fn(&mut TestRng) -> (RawInstance, u64) {
    let gen = instances(InstanceConfig {
        vertices: 2100..2600,
        max_weight: 5,
        nets_per_vertex: 3.0,
        max_net_size: 5,
        fix_prob: 0.5,
        fix_parts: 2,
    });
    move |rng| {
        let mut inst = gen(rng);
        // `instances` draws the net count uniformly; keep enough nets.
        let n = inst.weights.len();
        while inst.nets.len() < 2 * n {
            let a = rng.gen_range(0..n);
            let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
            inst.nets.push(vec![a.min(b), a.max(b)]);
        }
        let knob = rng.gen_range(0..u64::MAX);
        (inst, knob)
    }
}

prop_test! {
    #[cases(400)]
    fn fm_passes_match_reference_loop(case in small_cases()) {
        let (inst, knob) = case;
        check(&setup(&inst, knob));
    }

    #[cases(4)]
    fn fm_passes_match_reference_loop_on_large_instances(case in large_cases()) {
        let (inst, knob) = case;
        check(&setup(&inst, knob));
    }

    #[cases(400)]
    fn two_pin_nets_match_reference_loop(case in two_pin_cases()) {
        let (inst, knob) = case;
        check_two_pin(setup(&inst, knob));
    }
}

#[test]
fn exact_pass_stop_keeps_the_classic_passes() {
    let stopped = Cell::new(0);
    let count = |case: (RawInstance, u64)| {
        let (inst, knob) = case;
        stopped.set(stopped.get() + check_exact_stop(setup(&inst, knob)));
    };
    vlsi_testkit::check(
        "exact_pass_stop_keeps_the_classic_passes",
        PropConfig::cases(400),
        small_cases(),
        count,
    );
    vlsi_testkit::check(
        "exact_pass_stop_keeps_the_classic_passes_on_large_instances",
        PropConfig::cases(4),
        large_cases(),
        count,
    );
    assert!(
        stopped.get() > 0,
        "no pass stopped early: the check was vacuous"
    );
}

#[test]
fn fm_stack_matches_the_reference_stage_by_stage() {
    let seconds = Cell::new(0);
    let count = |case: (RawInstance, u64)| {
        let (inst, knob) = case;
        let mut rng = ChaCha8Rng::seed_from_u64(knob.rotate_left(32));
        let first = stage_config(&mut rng);
        let second = rng.gen_bool(0.8).then(|| stage_config(&mut rng));
        let ran = check_stack(&setup(&inst, knob), first, second);
        seconds.set(seconds.get() + usize::from(ran));
    };
    vlsi_testkit::check(
        "fm_stack_matches_the_reference_stage_by_stage",
        PropConfig::cases(400),
        small_cases(),
        count,
    );
    vlsi_testkit::check(
        "fm_stack_matches_the_reference_stage_by_stage_on_large_instances",
        PropConfig::cases(4),
        large_cases(),
        count,
    );
    assert!(
        seconds.get() > 0,
        "no second stage ran: the check was vacuous"
    );
}
