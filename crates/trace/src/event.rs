//! The event vocabulary and its deterministic JSONL encoding.

use std::fmt::Write as _;

/// Fixity of a vertex that moved — only vertices allowed on both sides
/// ever move, so the interesting distinction is plain-free versus
/// "or"-fixed (`FixedAny` over a set containing both sides).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoverFixity {
    /// The vertex carries no fixity constraint.
    Free,
    /// The vertex is `FixedAny` over a set that permits both sides.
    FixedAny,
}

impl MoverFixity {
    /// The JSONL string form (`"free"` / `"fixed_any"`).
    pub fn as_str(self) -> &'static str {
        match self {
            MoverFixity::Free => "free",
            MoverFixity::FixedAny => "fixed_any",
        }
    }
}

/// The engine loop at which a cooperative-cancellation check observed an
/// expired cancel token (`vlsi_partition::CancelToken`) — producers name
/// the loop they were about to enter (or continue) when they stopped
/// early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelStage {
    /// An FM run skipped its remaining 2-way passes.
    FmPass,
    /// A Kernighan–Lin run skipped its remaining passes.
    KlPass,
    /// A k-way refinement skipped its remaining passes.
    KwayPass,
    /// A simulated-annealing run skipped its remaining sweeps.
    Sweep,
    /// A multilevel driver short-circuited its remaining work (coarse
    /// starts, V-cycles, or coarsening levels).
    Level,
    /// A multistart driver skipped its remaining starts.
    Multistart,
}

impl CancelStage {
    /// The JSONL string form.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelStage::FmPass => "fm_pass",
            CancelStage::KlPass => "kl_pass",
            CancelStage::KwayPass => "kway_pass",
            CancelStage::Sweep => "sweep",
            CancelStage::Level => "level",
            CancelStage::Multistart => "multistart",
        }
    }
}

/// One structured trace event.
///
/// Events carry plain integers only, so this crate stays decoupled from
/// the hypergraph types. Producers (the FM engine, the multilevel driver,
/// the multistart driver) document which events they emit and when; see
/// `docs/TRACING.md` for the full contract and the JSONL schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A coarsening level was built (multilevel engine; `level` is
    /// 1-based, the original graph being level 0).
    LevelStart {
        /// Coarsening level index (1 = first coarse graph).
        level: u32,
        /// Vertex count of the level's hypergraph.
        vertices: u64,
        /// Net count of the level's hypergraph.
        nets: u64,
    },
    /// Refinement at one level finished (multilevel engine; emitted from
    /// the coarsest level down to level 0, the original graph).
    LevelEnd {
        /// Level index (0 = original graph).
        level: u32,
        /// Vertex count of the level's hypergraph.
        vertices: u64,
        /// Net count of the level's hypergraph.
        nets: u64,
        /// Cut after refinement at this level.
        cut: u64,
    },
    /// An FM pass began.
    PassStart {
        /// 0-based pass index within the FM run.
        pass: u32,
        /// Cut at the start of the pass.
        cut: u64,
        /// Number of movable vertices in the run.
        movable: u64,
        /// Move limit in force (equals `movable` when unlimited).
        move_limit: u64,
    },
    /// One move was applied inside a pass (it may later be rolled back;
    /// compare against the enclosing [`Event::PassEnd`]'s `best_prefix`).
    MoveCommitted {
        /// Pass index the move belongs to.
        pass: u32,
        /// Index of the moved vertex.
        vertex: u64,
        /// The gain the move realised (positive = cut decreased).
        gain: i64,
        /// Fixity of the moved vertex.
        fixity: MoverFixity,
        /// Cut value after the move.
        cut: u64,
    },
    /// An FM pass ended and its best prefix was restored.
    PassEnd {
        /// 0-based pass index within the FM run.
        pass: u32,
        /// Moves applied before the pass ended.
        moves: u64,
        /// Length of the kept (best) prefix; `moves - best_prefix` moves
        /// were rolled back.
        best_prefix: u64,
        /// Cut at the start of the pass.
        cut_before: u64,
        /// Cut after restoring the best prefix.
        cut_after: u64,
        /// Gain-bucket operations (inserts, removals, key adjustments)
        /// performed during the pass.
        bucket_ops: u64,
    },
    /// One multistart start completed.
    StartFinished {
        /// 0-based start index.
        start: u32,
        /// Cut achieved by the start.
        cut: u64,
        /// Wall-clock time of the start, in microseconds.
        micros: u64,
    },
    /// A k-way refinement pass began (k-way engines; `value` is the
    /// objective being refined — cut, k−1 or SOED — not necessarily the
    /// plain cut).
    KwayPassStart {
        /// 0-based pass index within the k-way refinement.
        pass: u32,
        /// Objective value at the start of the pass.
        value: u64,
        /// Number of movable vertices in the pass.
        movable: u64,
    },
    /// One k-way move was applied inside a pass (it may later be rolled
    /// back; compare against the enclosing [`Event::KwayPassEnd`]'s
    /// `best_prefix`). Unlike [`Event::MoveCommitted`] this carries the
    /// source and destination block indices.
    KwayMove {
        /// Pass index the move belongs to.
        pass: u32,
        /// Index of the moved vertex.
        vertex: u64,
        /// Source block index.
        from: u32,
        /// Destination block index.
        to: u32,
        /// The gain the move realised (positive = objective decreased).
        gain: i64,
        /// Objective value after the move.
        value: u64,
    },
    /// A k-way refinement pass ended and its best prefix was restored.
    KwayPassEnd {
        /// 0-based pass index within the k-way refinement.
        pass: u32,
        /// Moves applied before the pass ended.
        moves: u64,
        /// Length of the kept (best) prefix.
        best_prefix: u64,
        /// Objective value at the start of the pass.
        value_before: u64,
        /// Objective value after restoring the best prefix.
        value_after: u64,
        /// Gain-container operations (inserts, removals, key adjustments)
        /// performed during the pass.
        bucket_ops: u64,
    },
    /// A synchronous round of the k-way round pass began: proposals were
    /// collected under the round-start state and merged into the
    /// deterministic apply order. Emitted once per round, inside a
    /// `KwayPassStart`/`KwayPassEnd` bracket.
    RoundStart {
        /// 0-based pass index the round belongs to.
        pass: u32,
        /// 0-based round index within the pass.
        round: u32,
        /// Objective value at the start of the round.
        value: u64,
        /// Number of merged move proposals entering the apply stage.
        proposed: u64,
    },
    /// A synchronous round of the k-way round pass finished its apply
    /// stage: proposals were re-validated in merge order and the
    /// surviving moves applied. `applied <= proposed` of the matching
    /// [`Event::RoundStart`]; a round with `applied = 0` ends the pass.
    RoundApplied {
        /// 0-based pass index the round belongs to.
        pass: u32,
        /// 0-based round index within the pass.
        round: u32,
        /// Moves that survived re-validation and were applied.
        applied: u64,
        /// Objective value after the round's moves.
        value: u64,
    },
    /// A cooperative-cancellation check observed an expired token and the
    /// enclosing engine stopped early, returning its best-so-far solution.
    /// Emitted at most once per engine loop that stops.
    Cancelled {
        /// The engine loop that observed the cancellation.
        stage: CancelStage,
        /// Best-so-far objective value at the moment the loop stopped
        /// (the cut for 2-way engines, the refined objective for k-way).
        value: u64,
    },
    /// One simulated-annealing sweep completed.
    SweepFinished {
        /// 0-based sweep index.
        sweep: u32,
        /// Proposals accepted during the sweep.
        accepted: u64,
        /// Cut at the end of the sweep.
        cut: u64,
        /// Best balanced cut seen so far.
        best_cut: u64,
    },
    /// A refinement run was seeded from an existing partition instead of
    /// partitioning from scratch (the service's warm-start path). Emitted
    /// once per warm run, after the seed has been re-legalized against
    /// fixity and balance and before the first refinement pass.
    WarmStart {
        /// Vertices that kept their seed assignment through legalization.
        reused: u64,
        /// Vertices relocated while re-legalizing fixity and balance.
        relocated: u64,
        /// Objective value of the legalized seed, before refinement.
        value: u64,
    },
    /// The serving layer refused a job at admission: the queue crossed its
    /// load-shedding high-water mark, or the client exhausted its
    /// fairness token bucket.
    Shed {
        /// Job-queue depth observed when the decision was made.
        queue_depth: u64,
    },
    /// One V-cycle of the iterated-multilevel quality loop began: the
    /// hypergraph is about to be re-coarsened respecting the current best
    /// partition (matching only within parts, fixed vertices pinned) and
    /// re-refined down the new hierarchy.
    VCycleStart {
        /// 0-based V-cycle index within the quality loop.
        cycle: u32,
        /// Objective value of the best solution entering the cycle.
        value: u64,
    },
    /// One V-cycle of the iterated-multilevel quality loop finished.
    /// `value` is never larger than the matching [`Event::VCycleStart`]'s
    /// (same-part coarsening preserves the objective exactly and the
    /// refiners never accept a worse solution).
    VCycleEnd {
        /// 0-based V-cycle index within the quality loop.
        cycle: u32,
        /// Objective value of the best solution leaving the cycle.
        value: u64,
    },
    /// Ensemble recombination began: agreement clusters (vertices
    /// co-assigned across the retained top solutions, split under the
    /// per-resource cluster-weight caps) are force-coarsened and a final
    /// constrained solve runs seeded from the best start.
    RecombineStart {
        /// Number of retained start solutions the agreement is over.
        solutions: u32,
        /// Number of agreement clusters after cap splitting.
        clusters: u64,
        /// Objective value of the best retained solution.
        value: u64,
    },
}

impl Event {
    /// The event's type tag as it appears in the JSONL `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::LevelStart { .. } => "level_start",
            Event::LevelEnd { .. } => "level_end",
            Event::PassStart { .. } => "pass_start",
            Event::MoveCommitted { .. } => "move",
            Event::PassEnd { .. } => "pass_end",
            Event::StartFinished { .. } => "start",
            Event::KwayPassStart { .. } => "kway_pass_start",
            Event::KwayMove { .. } => "kway_move",
            Event::KwayPassEnd { .. } => "kway_pass_end",
            Event::RoundStart { .. } => "round_start",
            Event::RoundApplied { .. } => "round_applied",
            Event::Cancelled { .. } => "cancelled",
            Event::SweepFinished { .. } => "sweep",
            Event::WarmStart { .. } => "warm_start",
            Event::Shed { .. } => "shed",
            Event::VCycleStart { .. } => "vcycle_start",
            Event::VCycleEnd { .. } => "vcycle_end",
            Event::RecombineStart { .. } => "recombine_start",
        }
    }

    /// Renders the event as one JSON object with deterministic field
    /// order (the order the fields are declared in). No trailing newline.
    ///
    /// ```
    /// use vlsi_trace::Event;
    /// let e = Event::PassStart { pass: 2, cut: 41, movable: 100, move_limit: 25 };
    /// assert_eq!(
    ///     e.to_jsonl(),
    ///     r#"{"ev":"pass_start","pass":2,"cut":41,"movable":100,"move_limit":25}"#
    /// );
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"ev\":\"{}\"", self.kind());
        match *self {
            Event::LevelStart {
                level,
                vertices,
                nets,
            } => {
                let _ = write!(
                    s,
                    ",\"level\":{level},\"vertices\":{vertices},\"nets\":{nets}"
                );
            }
            Event::LevelEnd {
                level,
                vertices,
                nets,
                cut,
            } => {
                let _ = write!(
                    s,
                    ",\"level\":{level},\"vertices\":{vertices},\"nets\":{nets},\"cut\":{cut}"
                );
            }
            Event::PassStart {
                pass,
                cut,
                movable,
                move_limit,
            } => {
                let _ = write!(
                    s,
                    ",\"pass\":{pass},\"cut\":{cut},\"movable\":{movable},\"move_limit\":{move_limit}"
                );
            }
            Event::MoveCommitted {
                pass,
                vertex,
                gain,
                fixity,
                cut,
            } => {
                let _ = write!(
                    s,
                    ",\"pass\":{pass},\"vertex\":{vertex},\"gain\":{gain},\"fixity\":\"{}\",\"cut\":{cut}",
                    fixity.as_str()
                );
            }
            Event::PassEnd {
                pass,
                moves,
                best_prefix,
                cut_before,
                cut_after,
                bucket_ops,
            } => {
                let _ = write!(
                    s,
                    ",\"pass\":{pass},\"moves\":{moves},\"best_prefix\":{best_prefix},\"cut_before\":{cut_before},\"cut_after\":{cut_after},\"bucket_ops\":{bucket_ops}"
                );
            }
            Event::StartFinished { start, cut, micros } => {
                let _ = write!(s, ",\"start\":{start},\"cut\":{cut},\"micros\":{micros}");
            }
            Event::KwayPassStart {
                pass,
                value,
                movable,
            } => {
                let _ = write!(
                    s,
                    ",\"pass\":{pass},\"value\":{value},\"movable\":{movable}"
                );
            }
            Event::KwayMove {
                pass,
                vertex,
                from,
                to,
                gain,
                value,
            } => {
                let _ = write!(
                    s,
                    ",\"pass\":{pass},\"vertex\":{vertex},\"from\":{from},\"to\":{to},\"gain\":{gain},\"value\":{value}"
                );
            }
            Event::KwayPassEnd {
                pass,
                moves,
                best_prefix,
                value_before,
                value_after,
                bucket_ops,
            } => {
                let _ = write!(
                    s,
                    ",\"pass\":{pass},\"moves\":{moves},\"best_prefix\":{best_prefix},\"value_before\":{value_before},\"value_after\":{value_after},\"bucket_ops\":{bucket_ops}"
                );
            }
            Event::RoundStart {
                pass,
                round,
                value,
                proposed,
            } => {
                let _ = write!(
                    s,
                    ",\"pass\":{pass},\"round\":{round},\"value\":{value},\"proposed\":{proposed}"
                );
            }
            Event::RoundApplied {
                pass,
                round,
                applied,
                value,
            } => {
                let _ = write!(
                    s,
                    ",\"pass\":{pass},\"round\":{round},\"applied\":{applied},\"value\":{value}"
                );
            }
            Event::Cancelled { stage, value } => {
                let _ = write!(s, ",\"stage\":\"{}\",\"value\":{value}", stage.as_str());
            }
            Event::SweepFinished {
                sweep,
                accepted,
                cut,
                best_cut,
            } => {
                let _ = write!(
                    s,
                    ",\"sweep\":{sweep},\"accepted\":{accepted},\"cut\":{cut},\"best_cut\":{best_cut}"
                );
            }
            Event::WarmStart {
                reused,
                relocated,
                value,
            } => {
                let _ = write!(
                    s,
                    ",\"reused\":{reused},\"relocated\":{relocated},\"value\":{value}"
                );
            }
            Event::Shed { queue_depth } => {
                let _ = write!(s, ",\"queue_depth\":{queue_depth}");
            }
            Event::VCycleStart { cycle, value } | Event::VCycleEnd { cycle, value } => {
                let _ = write!(s, ",\"cycle\":{cycle},\"value\":{value}");
            }
            Event::RecombineStart {
                solutions,
                clusters,
                value,
            } => {
                let _ = write!(
                    s,
                    ",\"solutions\":{solutions},\"clusters\":{clusters},\"value\":{value}"
                );
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_field_order_is_deterministic() {
        let cases = [
            (
                Event::LevelStart {
                    level: 1,
                    vertices: 500,
                    nets: 800,
                },
                r#"{"ev":"level_start","level":1,"vertices":500,"nets":800}"#,
            ),
            (
                Event::LevelEnd {
                    level: 0,
                    vertices: 1000,
                    nets: 1600,
                    cut: 42,
                },
                r#"{"ev":"level_end","level":0,"vertices":1000,"nets":1600,"cut":42}"#,
            ),
            (
                Event::MoveCommitted {
                    pass: 0,
                    vertex: 7,
                    gain: -2,
                    fixity: MoverFixity::FixedAny,
                    cut: 44,
                },
                r#"{"ev":"move","pass":0,"vertex":7,"gain":-2,"fixity":"fixed_any","cut":44}"#,
            ),
            (
                Event::PassEnd {
                    pass: 3,
                    moves: 10,
                    best_prefix: 2,
                    cut_before: 50,
                    cut_after: 44,
                    bucket_ops: 123,
                },
                r#"{"ev":"pass_end","pass":3,"moves":10,"best_prefix":2,"cut_before":50,"cut_after":44,"bucket_ops":123}"#,
            ),
            (
                Event::StartFinished {
                    start: 4,
                    cut: 99,
                    micros: 1500,
                },
                r#"{"ev":"start","start":4,"cut":99,"micros":1500}"#,
            ),
            (
                Event::KwayPassStart {
                    pass: 0,
                    value: 31,
                    movable: 80,
                },
                r#"{"ev":"kway_pass_start","pass":0,"value":31,"movable":80}"#,
            ),
            (
                Event::KwayMove {
                    pass: 0,
                    vertex: 12,
                    from: 3,
                    to: 1,
                    gain: -1,
                    value: 32,
                },
                r#"{"ev":"kway_move","pass":0,"vertex":12,"from":3,"to":1,"gain":-1,"value":32}"#,
            ),
            (
                Event::KwayPassEnd {
                    pass: 0,
                    moves: 9,
                    best_prefix: 4,
                    value_before: 31,
                    value_after: 27,
                    bucket_ops: 61,
                },
                r#"{"ev":"kway_pass_end","pass":0,"moves":9,"best_prefix":4,"value_before":31,"value_after":27,"bucket_ops":61}"#,
            ),
            (
                Event::RoundStart {
                    pass: 1,
                    round: 2,
                    value: 40,
                    proposed: 12,
                },
                r#"{"ev":"round_start","pass":1,"round":2,"value":40,"proposed":12}"#,
            ),
            (
                Event::RoundApplied {
                    pass: 1,
                    round: 2,
                    applied: 7,
                    value: 33,
                },
                r#"{"ev":"round_applied","pass":1,"round":2,"applied":7,"value":33}"#,
            ),
            (
                Event::Cancelled {
                    stage: CancelStage::FmPass,
                    value: 17,
                },
                r#"{"ev":"cancelled","stage":"fm_pass","value":17}"#,
            ),
            (
                Event::SweepFinished {
                    sweep: 7,
                    accepted: 13,
                    cut: 20,
                    best_cut: 18,
                },
                r#"{"ev":"sweep","sweep":7,"accepted":13,"cut":20,"best_cut":18}"#,
            ),
            (
                Event::WarmStart {
                    reused: 190,
                    relocated: 10,
                    value: 37,
                },
                r#"{"ev":"warm_start","reused":190,"relocated":10,"value":37}"#,
            ),
            (
                Event::Shed { queue_depth: 48 },
                r#"{"ev":"shed","queue_depth":48}"#,
            ),
            (
                Event::VCycleStart {
                    cycle: 0,
                    value: 51,
                },
                r#"{"ev":"vcycle_start","cycle":0,"value":51}"#,
            ),
            (
                Event::VCycleEnd {
                    cycle: 0,
                    value: 47,
                },
                r#"{"ev":"vcycle_end","cycle":0,"value":47}"#,
            ),
            (
                Event::RecombineStart {
                    solutions: 4,
                    clusters: 120,
                    value: 47,
                },
                r#"{"ev":"recombine_start","solutions":4,"clusters":120,"value":47}"#,
            ),
        ];
        for (event, expected) in cases {
            assert_eq!(event.to_jsonl(), expected);
        }
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            Event::LevelStart {
                level: 0,
                vertices: 0,
                nets: 0,
            }
            .kind(),
            Event::LevelEnd {
                level: 0,
                vertices: 0,
                nets: 0,
                cut: 0,
            }
            .kind(),
            Event::PassStart {
                pass: 0,
                cut: 0,
                movable: 0,
                move_limit: 0,
            }
            .kind(),
            Event::MoveCommitted {
                pass: 0,
                vertex: 0,
                gain: 0,
                fixity: MoverFixity::Free,
                cut: 0,
            }
            .kind(),
            Event::PassEnd {
                pass: 0,
                moves: 0,
                best_prefix: 0,
                cut_before: 0,
                cut_after: 0,
                bucket_ops: 0,
            }
            .kind(),
            Event::StartFinished {
                start: 0,
                cut: 0,
                micros: 0,
            }
            .kind(),
            Event::KwayPassStart {
                pass: 0,
                value: 0,
                movable: 0,
            }
            .kind(),
            Event::KwayMove {
                pass: 0,
                vertex: 0,
                from: 0,
                to: 0,
                gain: 0,
                value: 0,
            }
            .kind(),
            Event::KwayPassEnd {
                pass: 0,
                moves: 0,
                best_prefix: 0,
                value_before: 0,
                value_after: 0,
                bucket_ops: 0,
            }
            .kind(),
            Event::RoundStart {
                pass: 0,
                round: 0,
                value: 0,
                proposed: 0,
            }
            .kind(),
            Event::RoundApplied {
                pass: 0,
                round: 0,
                applied: 0,
                value: 0,
            }
            .kind(),
            Event::Cancelled {
                stage: CancelStage::Level,
                value: 0,
            }
            .kind(),
            Event::SweepFinished {
                sweep: 0,
                accepted: 0,
                cut: 0,
                best_cut: 0,
            }
            .kind(),
            Event::WarmStart {
                reused: 0,
                relocated: 0,
                value: 0,
            }
            .kind(),
            Event::Shed { queue_depth: 0 }.kind(),
            Event::VCycleStart { cycle: 0, value: 0 }.kind(),
            Event::VCycleEnd { cycle: 0, value: 0 }.kind(),
            Event::RecombineStart {
                solutions: 0,
                clusters: 0,
                value: 0,
            }
            .kind(),
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
