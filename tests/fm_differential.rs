//! Differential tests pinning the 2-way FM engine to the pass loop it
//! replaced.
//!
//! The `reference` module is a port of the earlier pass loop: gains in a
//! two-target `KwayGains` container, assignment, loads and pin counts in a
//! `Partitioning`, and a rollback that undoes every move beyond the best
//! prefix, newest first. The properties drive both over random instances
//! and require equal [`FmResult`]s (assignment, cut and per-pass
//! statistics) and equal trace event streams, down to each pass's
//! `bucket_ops`.
//!
//! The corpus covers what the pass loop branches on: 0–50% fixed
//! vertices, some of them `FixedAny`; one to three resources under even
//! or explicit per-part capacity rows; zero-weight and weighted nets and
//! vertices; LIFO and CLIP; every `PassCutoff` with and without
//! `cutoff_first_pass`; unbalanced and fixity-violating starts; and a sink
//! that cancels the run's token at the N-th committed move. A second
//! property runs the same check on instances of over 2,100 vertices.

use std::cell::Cell;

use vlsi_rng::{ChaCha8Rng, Rng, SeedableRng};
use vlsi_testkit::gen::{instances, InstanceConfig, RawInstance};
use vlsi_testkit::{prop_test, TestRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Fixity, Hypergraph, HypergraphBuilder, PartId, PartSet,
    Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_partition::trace::{Event, Sink, VecSink};
use fixed_vertices_repro::vlsi_partition::{
    random_initial, BipartFm, CancelToken, FmConfig, FmResult, PartitionError, PassCutoff, RunCtx,
    SelectionPolicy,
};

/// A port of the earlier 2-way pass loop, single-threaded (gain
/// initialization at any thread budget replays the sequential order).
mod reference {
    use super::*;
    use fixed_vertices_repro::vlsi_hypergraph::{NetId, Objective, Partitioning};
    use fixed_vertices_repro::vlsi_partition::cancel::CHECK_INTERVAL;
    use fixed_vertices_repro::vlsi_partition::trace::MoverFixity;
    use fixed_vertices_repro::vlsi_partition::{KwayGains, MoveLog, PassStats, RunStats};

    pub fn run<S: Sink>(
        config: &FmConfig,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        initial: Vec<PartId>,
        sink: &S,
        cancel: &CancelToken,
    ) -> Result<FmResult, PartitionError> {
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

        let mut stats = RunStats::default();
        if !cancel.is_cancelled() {
            for pass_idx in 0..config.max_passes {
                let cutoff_active = pass_idx > 0 || config.cutoff_first_pass;
                let limit = if cutoff_active {
                    config.cutoff.limit(num_movable)
                } else {
                    num_movable
                };
                let pass_stats = state.run_pass(pass_idx, num_movable, limit);
                let improved = pass_stats.improved();
                stats.passes.push(pass_stats);
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
        Ok(FmResult {
            parts: partitioning.into_parts(),
            cut,
            stats,
        })
    }

    struct PassState<'a, S: Sink> {
        hg: &'a Hypergraph,
        balance: &'a BalanceConstraint,
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

    impl<S: Sink> PassState<'_, S> {
        fn run_pass(&mut self, pass: usize, num_movable: usize, move_limit: usize) -> PassStats {
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

                if !self.balance.is_satisfied(self.partitioning.loads()) {
                    continue;
                }
                let imbalance = self.imbalance();
                if cut < best_cut || (cut == best_cut && imbalance < best_imbalance) {
                    best_cut = cut;
                    move_log.mark_best();
                    best_imbalance = imbalance;
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

            PassStats {
                pass,
                movable: num_movable,
                moves_made,
                moves_kept: best_len,
                cut_before,
                cut_after: best_cut,
                move_limit,
            }
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
        cutoff: match if plain { 0 } else { rng.gen_range(0..3) } {
            0 => PassCutoff::Unlimited,
            1 => PassCutoff::Fraction(rng.gen_range(0.0..1.0)),
            _ => PassCutoff::Moves(rng.gen_range(0..=n + 1)),
        },
        max_passes: if plain || rng.gen_bool(0.7) {
            FmConfig::default().max_passes
        } else {
            rng.gen_range(0..=4)
        },
        cutoff_first_pass: !plain && rng.gen_bool(0.3),
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

/// Runs `fm` (or the reference, when `fm` is `None`) and returns the
/// result with the recorded events.
fn run(s: &Setup, fm: Option<&BipartFm>) -> (Result<FmResult, PartitionError>, Vec<Event>) {
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
    let initial = s.initial.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let result = match fm {
        Some(fm) => {
            let ctx = RunCtx::new(&mut rng).with_sink(&sink).with_cancel(&token);
            fm.run(&s.hg, &s.fixed, &s.balance, initial, ctx)
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
        let quiet = fm.run(
            &s.hg,
            &s.fixed,
            &s.balance,
            s.initial.clone(),
            RunCtx::new(&mut rng),
        );
        assert_eq!(quiet, want, "untraced result");
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
}
