//! A timestamping trace sink and the phase split derived from its stamps.
//!
//! The engines already emit level, pass, round and V-cycle boundary events;
//! [`StampSink`] records when each arrives and ignores per-move events, so
//! the split is measured from outside the program.

use std::sync::Mutex;
use std::time::Instant;

use vlsi_partition::trace::{Event, Sink};

/// A boundary event kept by [`StampSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// A coarse level was built (1-based level index).
    LevelStart(u32),
    /// Refinement at one level finished.
    LevelEnd,
    KwayPassStart,
    /// A k-way pass ended: moves applied, moves kept, gain-container ops.
    KwayPassEnd {
        moves: u64,
        kept: u64,
        bucket_ops: u64,
    },
    RoundStart,
    RoundApplied,
    VCycleStart,
    VCycleEnd,
}

/// Records the arrival time of every boundary event.
#[derive(Debug, Default)]
pub struct StampSink {
    stamps: Mutex<Vec<(Instant, Mark)>>,
}

impl StampSink {
    /// Drains the recorded stamps in arrival order.
    pub fn take(&self) -> Vec<(Instant, Mark)> {
        std::mem::take(&mut *self.stamps.lock().expect("stamp sink lock"))
    }
}

impl Sink for StampSink {
    fn record(&self, event: &Event) {
        let mark = match *event {
            Event::LevelStart { level, .. } => Mark::LevelStart(level),
            Event::LevelEnd { .. } => Mark::LevelEnd,
            Event::KwayPassStart { .. } => Mark::KwayPassStart,
            Event::KwayPassEnd {
                moves,
                best_prefix,
                bucket_ops,
                ..
            } => Mark::KwayPassEnd {
                moves,
                kept: best_prefix,
                bucket_ops,
            },
            Event::RoundStart { .. } => Mark::RoundStart,
            Event::RoundApplied { .. } => Mark::RoundApplied,
            Event::VCycleStart { .. } => Mark::VCycleStart,
            Event::VCycleEnd { .. } => Mark::VCycleEnd,
            _ => return,
        };
        let now = Instant::now();
        self.stamps
            .lock()
            .expect("stamp sink lock")
            .push((now, mark));
    }
}

/// Where one job's time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Split {
    /// Job start to the last level of the outer coarsening.
    pub coarsen_ms: f64,
    /// Levels of the outer coarsening.
    pub levels: u32,
    /// Coarsest solve: end of coarsening to the first refinement.
    pub initial_ms: f64,
    /// First refinement to the last outer `LevelEnd` (level 0).
    pub refine_ms: f64,
    /// Refinement of level 0 alone.
    pub finest_ms: f64,
    /// Coarsening + initial solve + refinement.
    pub covered_ms: f64,
    /// Time inside k-way passes.
    pub kway_ms: f64,
    pub kway_moves: u64,
    pub kway_kept: u64,
    pub kway_bucket_ops: u64,
    /// Parallel-round proposal time: pass start or previous round's apply
    /// up to `RoundStart`.
    pub propose_ms: f64,
    /// Parallel-round apply time: `RoundStart` to `RoundApplied`.
    pub apply_ms: f64,
    /// Time inside V-cycles.
    pub vcycle_ms: f64,
}

fn ms(from: Instant, to: Instant) -> f64 {
    crate::ms(to.saturating_duration_since(from))
}

/// Splits one multilevel job that started at `t0` into its phases.
///
/// The outer coarsening is the leading run of `LevelStart` 1, 2, …, L.
/// A k-way job solves its coarsest level by nested bisections that emit
/// their own levels, so the outer hierarchy's `LevelEnd`s are the last
/// L + 1. Refinement starts at the first k-way pass when there is one,
/// otherwise at the coarsest level's `LevelEnd`.
pub fn split(t0: Instant, stamps: &[(Instant, Mark)]) -> Split {
    let mut s = Split::default();
    let mut coarsen_end = t0;
    for &(t, mark) in stamps {
        match mark {
            Mark::LevelStart(l) if l == s.levels + 1 => {
                s.levels = l;
                coarsen_end = t;
            }
            _ => break,
        }
    }
    let ends: Vec<Instant> = stamps
        .iter()
        .filter(|(_, m)| *m == Mark::LevelEnd)
        .map(|&(t, _)| t)
        .collect();
    let outer = &ends[ends.len().saturating_sub(s.levels as usize + 1)..];
    let refine_start = stamps
        .iter()
        .find(|(_, m)| *m == Mark::KwayPassStart)
        .map(|&(t, _)| t)
        .or_else(|| outer.first().copied())
        .unwrap_or(coarsen_end);
    let refine_end = outer.last().copied().unwrap_or(refine_start);
    s.coarsen_ms = ms(t0, coarsen_end);
    s.initial_ms = ms(coarsen_end, refine_start);
    s.refine_ms = ms(refine_start, refine_end);
    if let [.., a, b] = outer {
        s.finest_ms = ms(*a, *b);
    }
    s.covered_ms = ms(t0, refine_end);

    let (mut pass_open, mut round_open, mut round_start, mut vcycle_open) = (t0, t0, t0, t0);
    for &(t, mark) in stamps {
        match mark {
            Mark::KwayPassStart => {
                pass_open = t;
                round_open = t;
            }
            Mark::KwayPassEnd {
                moves,
                kept,
                bucket_ops,
            } => {
                s.kway_ms += ms(pass_open, t);
                s.kway_moves += moves;
                s.kway_kept += kept;
                s.kway_bucket_ops += bucket_ops;
            }
            Mark::RoundStart => {
                s.propose_ms += ms(round_open, t);
                round_start = t;
            }
            Mark::RoundApplied => {
                s.apply_ms += ms(round_start, t);
                round_open = t;
            }
            Mark::VCycleStart => vcycle_open = t,
            Mark::VCycleEnd => s.vcycle_ms += ms(vcycle_open, t),
            Mark::LevelStart(_) | Mark::LevelEnd => {}
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t0: Instant, ms: u64) -> Instant {
        t0 + Duration::from_millis(ms)
    }

    fn assert_ms(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-6, "got {got:?}, want {want:?}");
        }
    }

    #[test]
    fn bisection_stream_splits_into_contiguous_phases() {
        let t0 = Instant::now();
        let stamps = [
            (at(t0, 10), Mark::LevelStart(1)),
            (at(t0, 15), Mark::LevelStart(2)),
            (at(t0, 17), Mark::LevelEnd),
            (at(t0, 30), Mark::LevelEnd),
            (at(t0, 90), Mark::LevelEnd),
        ];
        let s = split(t0, &stamps);
        assert_eq!(s.levels, 2);
        assert_ms(
            &[
                s.coarsen_ms,
                s.initial_ms,
                s.refine_ms,
                s.finest_ms,
                s.covered_ms,
            ],
            &[15.0, 2.0, 73.0, 60.0, 90.0],
        );
    }

    #[test]
    fn kway_stream_skips_nested_levels_and_times_rounds() {
        let t0 = Instant::now();
        let stamps = [
            (at(t0, 10), Mark::LevelStart(1)),
            // nested bisection at the coarsest level
            (at(t0, 12), Mark::LevelStart(1)),
            (at(t0, 13), Mark::LevelEnd),
            (at(t0, 14), Mark::LevelEnd),
            (at(t0, 20), Mark::KwayPassStart),
            (at(t0, 24), Mark::RoundStart),
            (at(t0, 25), Mark::RoundApplied),
            (
                at(t0, 26),
                Mark::KwayPassEnd {
                    moves: 3,
                    kept: 3,
                    bucket_ops: 9,
                },
            ),
            (at(t0, 27), Mark::LevelEnd),
            (at(t0, 50), Mark::LevelEnd),
        ];
        let s = split(t0, &stamps);
        assert_eq!(s.levels, 1);
        assert_ms(
            &[s.coarsen_ms, s.initial_ms, s.refine_ms],
            &[10.0, 10.0, 30.0],
        );
        assert_ms(&[s.kway_ms, s.propose_ms, s.apply_ms], &[6.0, 4.0, 1.0]);
        assert_eq!((s.kway_moves, s.kway_bucket_ops), (3, 9));
    }
}
