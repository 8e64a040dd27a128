//! Structured observability for the partitioning engines.
//!
//! The source paper's core evidence is *instrumentation*: Table II counts
//! vertices moved per LIFO-FM pass and where in the pass the improvements
//! land, and Figures 1–2 trace best cut and CPU time per multistart. This
//! crate is the measurement substrate those analyses are built on: the
//! engines emit a stream of [`Event`]s into a caller-chosen [`Sink`], and
//! everything downstream — the Table II columns, the within-pass profiles,
//! JSONL trace files — is an aggregation of that one stream.
//!
//! Like every crate in this workspace, it has **zero external
//! dependencies** (the hermetic-build rule), and it deliberately does not
//! depend on the hypergraph crates either: events carry plain integers, so
//! any layer can emit or consume them.
//!
//! # Sinks
//!
//! * [`NullSink`] — the default. [`Sink::ENABLED`] is `false`, so
//!   instrumented engine code compiles to *nothing*: event construction is
//!   statically skipped and an un-traced run carries no tracing code
//!   (`cargo bench --bench trace_overhead` times it against the live
//!   sinks).
//! * [`CounterSink`] — lock-free atomic counters (passes, moves tried /
//!   committed / rolled back, gain-bucket operations, cut-changing moves,
//!   levels, starts). Cheap enough to leave on in production.
//! * [`VecSink`] — buffers events in memory for replay; the experiment
//!   harness aggregates these via [`replay::pass_summaries`].
//! * [`JsonlSink`] — buffered structured output, one JSON object per line
//!   with deterministic field order (see `docs/TRACING.md` for the schema).
//! * [`Tee`] — fans one stream out to two sinks.
//!
//! # Example: count FM work with a [`CounterSink`]
//!
//! ```
//! use vlsi_trace::{CounterSink, Event, MoverFixity, Sink};
//!
//! let counters = CounterSink::new();
//! // An engine emits events; here we stand in for it by hand.
//! counters.record(&Event::PassStart { pass: 0, cut: 9, movable: 4, move_limit: 4 });
//! counters.record(&Event::MoveCommitted {
//!     pass: 0, vertex: 2, gain: 3, fixity: MoverFixity::Free, cut: 6,
//! });
//! counters.record(&Event::PassEnd {
//!     pass: 0, moves: 1, best_prefix: 1, cut_before: 9, cut_after: 6, bucket_ops: 5,
//! });
//!
//! let c = counters.snapshot();
//! assert_eq!(c.passes, 1);
//! assert_eq!(c.moves_tried, 1);
//! assert_eq!(c.moves_committed, 1);
//! assert_eq!(c.moves_rolled_back, 0);
//! assert_eq!(c.bucket_ops, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod replay;
mod sink;

pub use event::{CancelStage, Event, MoverFixity};
pub use sink::{CounterSink, Counters, JsonlSink, NullSink, Sink, Tee, VecSink};
