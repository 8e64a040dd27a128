//! The multistart driver: independent starts, top-N retention, and the
//! iterated-multilevel quality phase, behind one builder-style API.
//!
//! [`Multistart`] reproduces the paper's 1/2/4/8-start protocol — run the
//! engine `starts` times from independent random seeds and keep the best —
//! and layers the two quality-at-fixed-cost levers of ROADMAP item 5 on
//! top: **V-cycles** (re-coarsen respecting the best partition, re-refine)
//! and **ensemble recombination** (force-coarsen the agreement clusters of
//! the retained top-N starts, then solve seeded from the best). See
//! [`crate::quality`] for the algorithms and their invariants.
//!
//! # Entry points
//!
//! Two runs over any [`Partitioner`], differing in where randomness comes
//! from:
//!
//! * **Sequential** ([`Multistart::run`]): starts share the caller's RNG
//!   through a [`RunCtx`], advancing it across starts — one stream,
//!   exactly as a hand-written loop would. The context's sink receives the
//!   engine's events and an [`Event::StartFinished`] per start, its cancel
//!   token skips starts after the first once fired, and its thread budget
//!   is forwarded to the engine and the quality phase.
//! * **Parallel** ([`Multistart::run_parallel`]): start `i` always runs on
//!   `ChaCha8Rng::seed_from_u64(base_seed + i)`, so the outcome is
//!   identical for every worker-thread count — including one — and to a
//!   sequential loop with the same per-start seeding. Starts are sharded
//!   over at most `threads` OS threads in contiguous chunks.
//!
//! With quality knobs off (the default), both reduce exactly to the
//! classic keep-the-best loop.
//!
//! # Determinism
//!
//! Every path is deterministic in its seeds, and the parallel family is
//! worker-thread-count invariant end-to-end: per-start seeding fixes the
//! starts, and the quality phase draws from its own RNG derived from
//! `base_seed` (never from a worker's stream), running only
//! thread-invariant machinery (restricted coarsening, the FM stack, the
//! k-way pass loop).
//!
//! # Example
//!
//! ```
//! use vlsi_rng::SeedableRng;
//! use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
//! use vlsi_partition::{EngineConfig, Multistart, RunCtx};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::new();
//! let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
//! for w in v.windows(2) {
//!     b.add_net(1, [w[0], w[1]])?;
//! }
//! let hg = b.build()?;
//! let balance = BalanceConstraint::bisection(6, Tolerance::Relative(0.0));
//! let fixed = FixedVertices::all_free(6);
//! let engine = EngineConfig::by_name("fm").unwrap();
//!
//! let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(0);
//! let outcome = Multistart::new(4)
//!     .keep_top(2)
//!     .run(&hg, &fixed, &balance, &engine, RunCtx::new(&mut rng))?;
//! assert_eq!(outcome.best.cut, 1);
//! assert_eq!(outcome.starts.len(), 4);
//! assert_eq!(outcome.top.len(), 2);
//! # Ok(())
//! # }
//! ```

use std::time::{Duration, Instant};

use vlsi_rng::{ChaCha8Rng, Rng, SeedableRng};

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Hypergraph, Objective};
use vlsi_trace::{CancelStage, Event, Sink};

use crate::cancel::CancelToken;
use crate::engine::{Partitioner, RunCtx};
use crate::quality;
use crate::{PartitionError, PartitionResult};

/// One independent start: its cut and wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartRecord {
    /// Cut achieved by this start.
    pub cut: u64,
    /// Wall-clock time the start took.
    pub elapsed: Duration,
}

/// Outcome of a multistart run: the best solution, the retained top
/// solutions, and per-start records.
#[derive(Debug, Clone, PartialEq)]
pub struct MultistartOutcome {
    /// The best solution of the whole run, including the quality phase
    /// when V-cycles or recombination were enabled — never worse than
    /// `top[0]`.
    pub best: PartitionResult,
    /// Per-start cut/time records, in execution order. Only the raw
    /// starts: the quality phase adds no records.
    pub starts: Vec<StartRecord>,
    /// The retained top start solutions, **ordered by (cut ascending,
    /// start index ascending)** — ties keep the earlier start, so
    /// `top[0]` is always the best *raw* start. Length is
    /// `min(keep_top, executed starts)` (cancellation can shorten it).
    /// The quality phase never rewrites this list.
    pub top: Vec<PartitionResult>,
}

impl MultistartOutcome {
    /// Best cut among the first `n` starts (the paper's "best of s starts"
    /// protocol — s ∈ {1, 2, 4, 8}). As with [`time_of_first`](Self::time_of_first),
    /// `n` is clamped to the number of executed starts, so asking for more
    /// starts than ran reports the best over all of them. Returns `None`
    /// only when `n` is zero (no starts considered).
    pub fn best_of_first(&self, n: usize) -> Option<u64> {
        self.starts[..n.min(self.starts.len())]
            .iter()
            .map(|s| s.cut)
            .min()
    }

    /// Total wall-clock time of the first `n` starts.
    pub fn time_of_first(&self, n: usize) -> Duration {
        self.starts[..n.min(self.starts.len())]
            .iter()
            .map(|s| s.elapsed)
            .sum()
    }

    /// Mean per-start wall-clock time.
    pub fn avg_start_time(&self) -> Duration {
        if self.starts.is_empty() {
            Duration::ZERO
        } else {
            self.time_of_first(self.starts.len()) / self.starts.len() as u32
        }
    }
}

/// Default top-N retention when `ensemble` is enabled without an explicit
/// `keep_top`: agreement over four solutions is selective enough to leave
/// movable mass while still compressing strongly.
const ENSEMBLE_DEFAULT_TOP: usize = 4;

/// XOR salt deriving the quality phase's RNG from `base_seed` in the
/// parallel family — disjoint from every per-start seed (those are the
/// consecutive values `base_seed..base_seed + starts`).
const QUALITY_SEED_SALT: u64 = 0x5143_5943_4C45_u64; // "QCYCLE"

/// Builder-style multistart driver. See the [module docs](self) for the
/// API tour and determinism contract.
///
/// Defaults: retain only the best solution, no V-cycles, no recombination,
/// cut objective.
#[derive(Debug, Clone)]
pub struct Multistart {
    starts: usize,
    keep_top: usize,
    vcycles: usize,
    ensemble: bool,
    objective: Objective,
}

impl Multistart {
    /// A driver running `starts` independent starts.
    ///
    /// # Panics
    /// The run methods panic if `starts == 0`.
    pub fn new(starts: usize) -> Self {
        Multistart {
            starts,
            keep_top: 1,
            vcycles: 0,
            ensemble: false,
            objective: Objective::Cut,
        }
    }

    /// Retains the best `n` start solutions in [`MultistartOutcome::top`]
    /// (ordered by cut, then start index; ties keep the earlier start).
    /// `0` is treated as `1` — the best solution is always retained.
    #[must_use]
    pub fn keep_top(mut self, n: usize) -> Self {
        self.keep_top = n;
        self
    }

    /// Runs up to `n` V-cycles after the starts: re-coarsen respecting the
    /// best partition, re-refine down the new hierarchy, stop early at the
    /// first cycle without strict improvement. The best value is
    /// monotonically non-increasing across cycles.
    #[must_use]
    pub fn vcycles(mut self, n: usize) -> Self {
        self.vcycles = n;
        self
    }

    /// Enables ensemble recombination: the retained top solutions'
    /// agreement clusters are force-coarsened and a final constrained
    /// solve runs seeded from the best start (never worse than it). With
    /// the default `keep_top` of 1 the retention is raised to
    /// `min(4, starts)` solutions so the agreement is over an actual
    /// ensemble; an explicit [`keep_top`](Self::keep_top) ≥ 2 wins.
    /// Recombination runs before any V-cycles.
    #[must_use]
    pub fn ensemble(mut self, on: bool) -> Self {
        self.ensemble = on;
        self
    }

    /// Sets the objective the quality phase refines and reports
    /// (default: plain cut). The engine must be configured for the same
    /// objective — the driver does not rewrite engine configs.
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Effective top-N retention cap.
    fn retention(&self) -> usize {
        if self.ensemble {
            self.keep_top.max(ENSEMBLE_DEFAULT_TOP)
        } else {
            self.keep_top.max(1)
        }
    }

    /// Sequential run of an engine: starts share `ctx.rng` (one stream,
    /// advancing across starts), the engine streams its events into
    /// `ctx.sink` and polls `ctx.cancel`, and `ctx.threads` is forwarded
    /// to the engine and the quality phase. Start 0 always executes, so a
    /// pre-expired token still yields a legal solution; a cancelled run
    /// records one [`Event::Cancelled`] (stage `multistart`) and skips the
    /// quality phase.
    ///
    /// # Errors
    /// Propagates the first error returned by the engine.
    ///
    /// # Panics
    /// Panics if `starts == 0`.
    pub fn run<R, S, E>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        engine: &E,
        mut ctx: RunCtx<'_, R, S>,
    ) -> Result<MultistartOutcome, PartitionError>
    where
        R: Rng + ?Sized,
        S: Sink,
        E: Partitioner,
    {
        assert!(self.starts > 0, "at least one start required");
        let mut records = Vec::with_capacity(self.starts);
        let mut top = TopSet::new(self.retention());
        for start in 0..self.starts {
            if start > 0 && ctx.cancel.is_cancelled() {
                break;
            }
            let t0 = Instant::now();
            let result = engine.partition_ctx(hg, fixed, balance, ctx.reborrow())?;
            let elapsed = t0.elapsed();
            if S::ENABLED {
                ctx.sink.record(&Event::StartFinished {
                    start: start as u32,
                    cut: result.cut,
                    micros: elapsed.as_micros() as u64,
                });
            }
            records.push(StartRecord {
                cut: result.cut,
                elapsed,
            });
            top.offer(start, result);
        }
        self.finish(hg, fixed, balance, records, top, ctx)
    }

    /// Parallel run of an engine across up to `threads` OS threads with
    /// deterministic per-start seeding (`base_seed + i` for start `i`).
    ///
    /// `sink` receives the deterministic summary stream: one
    /// [`Event::StartFinished`] per completed start in ascending order at
    /// collection time, the quality phase's events, then one
    /// [`Event::Cancelled`] when the run was cut short. `engine_sink`
    /// instead receives the engines' internal streams **live from the
    /// worker threads** — with `threads > 1` only the multiset of its
    /// events is deterministic, not their order. It exists for
    /// order-insensitive consumers (above all the
    /// [`CounterSink`](vlsi_trace::CounterSink) a serving layer
    /// aggregates); pass [`NullSink`](vlsi_trace::NullSink) to opt out.
    ///
    /// Start 0 always runs; starts not yet begun when `cancel` fires are
    /// skipped entirely, so `outcome.starts` may be shorter than `starts`
    /// — but never empty — and the quality phase is skipped.
    ///
    /// # Errors
    /// Propagates the error of the lowest-indexed failing start.
    ///
    /// # Panics
    /// Panics if `starts == 0` or `threads == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_parallel<S, ES, E>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        threads: usize,
        base_seed: u64,
        engine: &E,
        sink: &S,
        engine_sink: &ES,
        cancel: &CancelToken,
    ) -> Result<MultistartOutcome, PartitionError>
    where
        S: Sink,
        ES: Sink + Sync,
        E: Partitioner + Sync,
    {
        let starts = self.starts;
        assert!(starts > 0, "at least one start required");
        assert!(threads > 0, "at least one thread required");
        let workers = threads.min(starts);

        let mut slots: Vec<Option<Result<(PartitionResult, Duration), PartitionError>>> =
            (0..starts).map(|_| None).collect();
        std::thread::scope(|scope| {
            let per = starts.div_ceil(workers);
            for (c, chunk) in slots.chunks_mut(per).enumerate() {
                let first_index = c * per;
                scope.spawn(move || {
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        let i = first_index + off;
                        // Start 0 must yield a result; everything else is
                        // skippable once the token fires.
                        if i > 0 && cancel.is_cancelled() {
                            continue;
                        }
                        let mut rng = ChaCha8Rng::seed_from_u64(base_seed.wrapping_add(i as u64));
                        let ctx = RunCtx::new(&mut rng)
                            .with_sink(engine_sink)
                            .with_cancel(cancel);
                        let t0 = Instant::now();
                        let result = engine.partition_ctx(hg, fixed, balance, ctx);
                        *slot = Some(result.map(|r| (r, t0.elapsed())));
                    }
                });
            }
        });

        let mut records = Vec::new();
        let mut top = TopSet::new(self.retention());
        for (i, slot) in slots.into_iter().enumerate() {
            let Some(outcome) = slot else {
                continue; // start skipped by cancellation
            };
            let (result, elapsed) = outcome?;
            if S::ENABLED {
                sink.record(&Event::StartFinished {
                    start: i as u32,
                    cut: result.cut,
                    micros: elapsed.as_micros() as u64,
                });
            }
            records.push(StartRecord {
                cut: result.cut,
                elapsed,
            });
            top.offer(i, result);
        }
        // The quality phase never consumes a worker's stream: its RNG is
        // derived from `base_seed` (salted away from every start seed), so
        // the whole run stays worker-thread-count invariant.
        let mut qrng = ChaCha8Rng::seed_from_u64(base_seed ^ QUALITY_SEED_SALT);
        let ctx = RunCtx::new(&mut qrng)
            .with_sink(sink)
            .with_cancel(cancel)
            .with_threads(threads);
        self.finish(hg, fixed, balance, records, top, ctx)
    }

    /// Ends a run: a cancelled run records one [`Event::Cancelled`] and
    /// keeps the best start; otherwise the quality phase runs on it —
    /// recombination over the raw retained starts, then V-cycles. Both
    /// accept a candidate only when it is no worse, so the returned
    /// solution never regresses past the best start.
    fn finish<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        starts: Vec<StartRecord>,
        top: TopSet,
        mut ctx: RunCtx<'_, R, S>,
    ) -> Result<MultistartOutcome, PartitionError> {
        let mut best = top.best().clone();
        if ctx.cancel.is_cancelled() {
            if S::ENABLED {
                ctx.sink.record(&Event::Cancelled {
                    stage: CancelStage::Multistart,
                    value: best.cut,
                });
            }
        } else {
            if self.ensemble {
                let r = quality::recombine(
                    hg,
                    fixed,
                    balance,
                    self.objective,
                    top.solutions(),
                    ctx.reborrow(),
                )?;
                if let Some(r) = r.filter(|r| r.cut <= best.cut) {
                    best = r;
                }
            }
            if self.vcycles > 0 {
                best = quality::run_vcycles(
                    hg,
                    fixed,
                    balance,
                    self.objective,
                    best,
                    self.vcycles,
                    ctx,
                )?;
            }
        }
        Ok(MultistartOutcome {
            best,
            starts,
            top: top.into_vec(),
        })
    }
}

/// Bounded retention of the best `cap` start solutions, ordered by
/// (cut ascending, start index ascending) — the ordering guarantee
/// documented on [`MultistartOutcome::top`].
struct TopSet {
    cap: usize,
    keys: Vec<(u64, usize)>,
    sols: Vec<PartitionResult>,
}

impl TopSet {
    fn new(cap: usize) -> Self {
        TopSet {
            cap: cap.max(1),
            keys: Vec::new(),
            sols: Vec::new(),
        }
    }

    /// Offers start `start`'s solution; keeps it only while it ranks among
    /// the best `cap` seen. Starts must be offered in ascending index
    /// order (keys are then unique, making the order total).
    fn offer(&mut self, start: usize, sol: PartitionResult) {
        let key = (sol.cut, start);
        let pos = self.keys.partition_point(|k| *k <= key);
        if pos >= self.cap {
            return;
        }
        self.keys.insert(pos, key);
        self.sols.insert(pos, sol);
        if self.keys.len() > self.cap {
            self.keys.pop();
            self.sols.pop();
        }
    }

    /// The best solution (ties keep the earliest start).
    fn best(&self) -> &PartitionResult {
        self.sols.first().expect("start 0 always runs")
    }

    fn solutions(&self) -> &[PartitionResult] {
        &self.sols
    }

    fn into_vec(self) -> Vec<PartitionResult> {
        self.sols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vlsi_hypergraph::{HypergraphBuilder, PartId, Tolerance};
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;
    use vlsi_trace::NullSink;

    fn tiny() -> (Hypergraph, FixedVertices, BalanceConstraint) {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
        b.add_net(1, [v[0], v[1]]).unwrap();
        b.add_net(1, [v[2], v[3]]).unwrap();
        let hg = b.build().unwrap();
        let fx = FixedVertices::all_free(4);
        let bc = BalanceConstraint::bisection(4, Tolerance::Relative(0.0));
        (hg, fx, bc)
    }

    /// A test engine that answers call `i` with `script[i % len]`, so the
    /// driver's bookkeeping can be checked against known per-start results.
    struct Scripted {
        script: Vec<Result<PartitionResult, PartitionError>>,
        calls: AtomicUsize,
    }

    impl Scripted {
        /// Start `i` reports cut `cuts[i]` on an assignment tagged with `i`
        /// (every vertex in part `i`).
        fn cuts(cuts: &[u64]) -> Self {
            Scripted::results(
                cuts.iter()
                    .enumerate()
                    .map(|(i, &cut)| Ok(PartitionResult::new(vec![PartId(i as u32); 4], cut)))
                    .collect(),
            )
        }

        fn results(script: Vec<Result<PartitionResult, PartitionError>>) -> Self {
            Scripted {
                script,
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl Partitioner for Scripted {
        fn partition_ctx<R: Rng + ?Sized, S: Sink>(
            &self,
            _: &Hypergraph,
            _: &FixedVertices,
            _: &BalanceConstraint,
            _: RunCtx<'_, R, S>,
        ) -> Result<PartitionResult, PartitionError> {
            let i = self.calls.fetch_add(1, Ordering::Relaxed);
            self.script[i % self.script.len()].clone()
        }
    }

    fn boom() -> PartitionError {
        PartitionError::InfeasibleInstance {
            vertex: None,
            detail: "boom".into(),
        }
    }

    fn run_scripted(
        ms: &Multistart,
        engine: &Scripted,
    ) -> Result<MultistartOutcome, PartitionError> {
        let (hg, fx, bc) = tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        ms.run(&hg, &fx, &bc, engine, RunCtx::new(&mut rng))
    }

    fn run_parallel_scripted(
        ms: &Multistart,
        threads: usize,
        engine: &Scripted,
    ) -> Result<MultistartOutcome, PartitionError> {
        let (hg, fx, bc) = tiny();
        let never = CancelToken::never();
        ms.run_parallel(
            &hg, &fx, &bc, threads, 0, engine, &NullSink, &NullSink, &never,
        )
    }

    #[test]
    fn keeps_best_and_all_records() {
        let outcome = run_scripted(&Multistart::new(3), &Scripted::cuts(&[5, 2, 7])).unwrap();
        assert_eq!(outcome.best.cut, 2);
        assert_eq!(outcome.starts.len(), 3);
        assert_eq!(outcome.best_of_first(1), Some(5));
        assert_eq!(outcome.best_of_first(2), Some(2));
        assert_eq!(outcome.best_of_first(9), Some(2));
        assert_eq!(outcome.best_of_first(0), None);
        // Default retention: only the best survives, and it IS the best.
        assert_eq!(outcome.top.len(), 1);
        assert_eq!(outcome.top[0], outcome.best);
    }

    #[test]
    fn best_of_first_clamps_to_executed_starts() {
        let outcome = run_scripted(&Multistart::new(3), &Scripted::cuts(&[5, 2, 7])).unwrap();
        // Exactly at, one past, and far past the executed-start count all
        // report the best over every start that actually ran.
        assert_eq!(outcome.best_of_first(3), Some(2));
        assert_eq!(outcome.best_of_first(4), Some(2));
        assert_eq!(outcome.best_of_first(usize::MAX), Some(2));
        // Zero starts considered: nothing to report.
        assert_eq!(outcome.best_of_first(0), None);
    }

    #[test]
    fn top_n_retention_orders_by_cut_then_start() {
        let engine = Scripted::cuts(&[5, 2, 7, 2, 3]);
        let outcome = run_scripted(&Multistart::new(5).keep_top(3), &engine).unwrap();
        // (2, start 1) < (2, start 3) < (3, start 4); 5 and 7 fall out.
        let cuts: Vec<u64> = outcome.top.iter().map(|r| r.cut).collect();
        assert_eq!(cuts, vec![2, 2, 3]);
        let tags: Vec<u32> = outcome.top.iter().map(|r| r.parts[0].0).collect();
        assert_eq!(tags, vec![1, 3, 4]);
        assert_eq!(outcome.best, outcome.top[0]);
        // Retention never exceeds the executed starts.
        let shallow = run_scripted(&Multistart::new(2).keep_top(8), &Scripted::cuts(&[4])).unwrap();
        assert_eq!(shallow.top.len(), 2);
    }

    #[test]
    fn errors_propagate() {
        let err =
            run_scripted(&Multistart::new(2), &Scripted::results(vec![Err(boom())])).unwrap_err();
        assert!(matches!(err, PartitionError::InfeasibleInstance { .. }));
    }

    #[test]
    fn ties_keep_earlier_start() {
        let outcome = run_scripted(&Multistart::new(2), &Scripted::cuts(&[3, 3])).unwrap();
        assert_eq!(outcome.best.parts[0], PartId(0));
    }

    #[test]
    fn parallel_matches_sequential_seeding() {
        let (hg, fx, bc) = tiny();
        let fm = crate::BipartFm::new(crate::FmConfig::default());
        let never = CancelToken::never();
        let par = Multistart::new(5)
            .run_parallel(&hg, &fx, &bc, 3, 42, &fm, &NullSink, &NullSink, &never)
            .unwrap();
        // Sequential reference with the same per-start seeding.
        let mut seq_cuts = Vec::new();
        for i in 0..5u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(42 + i);
            let r = fm.partition_ctx(&hg, &fx, &bc, RunCtx::new(&mut rng));
            seq_cuts.push(r.unwrap().cut);
        }
        let par_cuts: Vec<u64> = par.starts.iter().map(|s| s.cut).collect();
        assert_eq!(par_cuts, seq_cuts);
        assert_eq!(par.best.cut, *seq_cuts.iter().min().unwrap());
    }

    #[test]
    fn parallel_single_thread_works() {
        let outcome = run_parallel_scripted(&Multistart::new(3), 1, &Scripted::cuts(&[2])).unwrap();
        assert_eq!(outcome.starts.len(), 3);
        assert_eq!(outcome.best.cut, 2);
    }

    #[test]
    fn parallel_errors_propagate() {
        let engine = Scripted::results(vec![Err(boom())]);
        let err = run_parallel_scripted(&Multistart::new(4), 2, &engine).unwrap_err();
        assert!(matches!(err, PartitionError::InfeasibleInstance { .. }));
    }

    #[test]
    fn sink_sees_one_start_event_per_start() {
        use vlsi_trace::{replay, VecSink};
        let (hg, fx, bc) = tiny();
        let fm = crate::BipartFm::new(crate::FmConfig::default());
        let sink = VecSink::new();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let outcome = Multistart::new(3)
            .run(&hg, &fx, &bc, &fm, RunCtx::new(&mut rng).with_sink(&sink))
            .unwrap();
        let events = sink.take();
        let start_events: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::StartFinished { start, cut, .. } => Some((*start, *cut)),
                _ => None,
            })
            .collect();
        assert_eq!(start_events.len(), 3);
        for (i, (start, cut)) in start_events.iter().enumerate() {
            assert_eq!(*start as usize, i);
            assert_eq!(*cut, outcome.starts[i].cut);
        }
        // The FM pass events of every start rode the same stream.
        assert!(!replay::pass_summaries(&events).is_empty());
    }

    #[test]
    fn every_registry_engine_runs_under_both_drivers() {
        use crate::engine::{EngineConfig, ENGINES};
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..12).map(|_| b.add_vertex(1)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        let hg = b.build().unwrap();
        let fx = FixedVertices::all_free(12);
        let bc = BalanceConstraint::bisection(12, Tolerance::Relative(0.2));
        for info in ENGINES {
            let engine = EngineConfig::by_name(info.name).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let seq = Multistart::new(2)
                .run(&hg, &fx, &bc, &engine, RunCtx::new(&mut rng))
                .unwrap();
            let never = CancelToken::never();
            let par = Multistart::new(2)
                .run_parallel(&hg, &fx, &bc, 2, 5, &engine, &NullSink, &NullSink, &never)
                .unwrap();
            assert_eq!(seq.starts.len(), 2, "{}", info.name);
            assert_eq!(par.starts.len(), 2, "{}", info.name);
            assert!(par.best.cut >= 1, "{}", info.name);
        }
    }

    #[test]
    fn cancelled_token_still_yields_start_zero() {
        use crate::engine::EngineConfig;
        use vlsi_trace::VecSink;
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..12).map(|_| b.add_vertex(1)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        let hg = b.build().unwrap();
        let fx = FixedVertices::all_free(12);
        let bc = BalanceConstraint::bisection(12, Tolerance::Relative(0.2));
        let engine = EngineConfig::by_name("fm").unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();

        let sink = VecSink::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let seq = Multistart::new(8)
            .run(
                &hg,
                &fx,
                &bc,
                &engine,
                RunCtx::new(&mut rng).with_sink(&sink).with_cancel(&cancel),
            )
            .unwrap();
        assert_eq!(seq.starts.len(), 1, "only start 0 runs when pre-cancelled");
        assert_eq!(seq.best.parts.len(), 12);
        assert!(sink.take().iter().any(
            |e| matches!(e, Event::Cancelled { stage, .. } if *stage == CancelStage::Multistart)
        ));

        let sink = VecSink::new();
        let par = Multistart::new(8)
            .vcycles(2) // must be skipped: the run is already cancelled
            .run_parallel(&hg, &fx, &bc, 2, 3, &engine, &sink, &NullSink, &cancel)
            .unwrap();
        assert!(
            !par.starts.is_empty() && par.starts.len() < 8,
            "pre-cancelled parallel run skips later starts"
        );
        assert_eq!(par.best.parts.len(), 12);
        let events = sink.take();
        assert!(events.iter().any(
            |e| matches!(e, Event::Cancelled { stage, .. } if *stage == CancelStage::Multistart)
        ));
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, Event::VCycleStart { .. })),
            "quality phase must not run after cancellation"
        );
    }

    #[test]
    fn timing_accumulates() {
        let outcome = run_scripted(&Multistart::new(2), &Scripted::cuts(&[1])).unwrap();
        assert!(outcome.time_of_first(2) >= outcome.starts[0].elapsed);
        assert!(outcome.avg_start_time() <= outcome.time_of_first(2));
    }

    /// A 2D grid: structured enough that V-cycles and recombination have
    /// real work to do, unlike the `tiny()` fixture.
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

    #[test]
    fn vcycles_and_ensemble_never_worsen_the_best_start() {
        use crate::engine::EngineConfig;
        let hg = grid(10);
        let fx = FixedVertices::all_free(hg.num_vertices());
        let bc = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
        let engine = EngineConfig::by_name("fm").unwrap();
        let never = CancelToken::never();
        let plain = Multistart::new(4)
            .run_parallel(&hg, &fx, &bc, 1, 77, &engine, &NullSink, &NullSink, &never)
            .unwrap();
        let quality = Multistart::new(4)
            .vcycles(2)
            .ensemble(true)
            .run_parallel(&hg, &fx, &bc, 1, 77, &engine, &NullSink, &NullSink, &never)
            .unwrap();
        // Same starts (same seeding), so the raw records agree...
        let a: Vec<u64> = plain.starts.iter().map(|s| s.cut).collect();
        let b: Vec<u64> = quality.starts.iter().map(|s| s.cut).collect();
        assert_eq!(a, b);
        // ...and the quality phase can only improve on the best of them.
        assert!(quality.best.cut <= plain.best.cut);
        // Ensemble without explicit keep_top retains up to 4 solutions.
        assert_eq!(quality.top.len(), 4);
    }

    #[test]
    fn quality_phase_emits_trace_brackets() {
        use crate::engine::EngineConfig;
        use vlsi_trace::VecSink;
        let hg = grid(8);
        let fx = FixedVertices::all_free(hg.num_vertices());
        let bc = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
        let engine = EngineConfig::by_name("fm").unwrap();
        let sink = VecSink::new();
        let never = CancelToken::never();
        let outcome = Multistart::new(4)
            .vcycles(1)
            .ensemble(true)
            .run_parallel(&hg, &fx, &bc, 2, 13, &engine, &sink, &NullSink, &never)
            .unwrap();
        let events = sink.take();
        let vstarts = events
            .iter()
            .filter(|e| matches!(e, Event::VCycleStart { .. }))
            .count();
        let vends = events
            .iter()
            .filter(|e| matches!(e, Event::VCycleEnd { .. }))
            .count();
        assert_eq!(vstarts, vends);
        assert!(vstarts >= 1, "at least one V-cycle bracket");
        // VCycleEnd values never exceed their VCycleStart.
        let mut open = None;
        for e in &events {
            match e {
                Event::VCycleStart { value, .. } => open = Some(*value),
                Event::VCycleEnd { value, .. } => {
                    assert!(*value <= open.expect("bracketed"));
                    open = None;
                }
                _ => {}
            }
        }
        // Recombination announced itself (the grid's starts agree widely).
        if let Some(Event::RecombineStart {
            solutions, value, ..
        }) = events
            .iter()
            .find(|e| matches!(e, Event::RecombineStart { .. }))
        {
            assert_eq!(*solutions, 4);
            assert_eq!(*value, outcome.top[0].cut);
        }
        assert!(outcome.best.cut <= outcome.top[0].cut);
    }
}
