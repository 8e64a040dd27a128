//! Event sinks: null, counting, buffering, and JSONL output.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::Event;

/// A consumer of trace [`Event`]s.
///
/// Engines are generic over `S: Sink` and guard every emission site with
/// `if S::ENABLED { ... }`, so with [`NullSink`] (where `ENABLED` is
/// `false`) the instrumentation — including the construction of the event
/// itself — is compiled out entirely.
///
/// `record` takes `&self`: sinks use interior mutability (atomics or a
/// mutex) so one sink can serve concurrent starts.
pub trait Sink {
    /// Compile-time switch. When `false`, instrumented code skips event
    /// construction and recording entirely; `record` is never called.
    const ENABLED: bool = true;

    /// Records one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output. The default does nothing.
    fn flush(&self) {}
}

/// The no-op sink: tracing statically disabled, zero overhead.
///
/// This is the sink of a default run context (`RunCtx::new` in
/// `vlsi-partition`); the `trace_overhead` benchmark times an FM run
/// through `NullSink` against the live sinks.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&self, _event: &Event) {}
}

/// A point-in-time copy of a [`CounterSink`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// FM passes executed ([`Event::PassEnd`] count).
    pub passes: u64,
    /// Moves applied inside passes ([`Event::MoveCommitted`] count).
    pub moves_tried: u64,
    /// Moves that survived rollback (sum of `best_prefix` over passes).
    pub moves_committed: u64,
    /// Moves rolled back at pass ends (`moves - best_prefix` summed).
    pub moves_rolled_back: u64,
    /// Gain-bucket operations (inserts, removals, key adjustments).
    pub bucket_ops: u64,
    /// Applied moves that changed the cut value (non-zero gain).
    pub cut_updates: u64,
    /// Coarsening levels built ([`Event::LevelStart`] count).
    pub levels: u64,
    /// Multistart starts finished ([`Event::StartFinished`] count).
    pub starts: u64,
    /// K-way refinement passes executed ([`Event::KwayPassEnd`] count).
    /// Their moves and bucket ops fold into the shared counters above.
    pub kway_passes: u64,
    /// Synchronous parallel-refinement rounds applied
    /// ([`Event::RoundApplied`] count).
    pub rounds: u64,
    /// Simulated-annealing sweeps finished ([`Event::SweepFinished`] count).
    pub sweeps: u64,
    /// Cooperative cancellations observed ([`Event::Cancelled`] count).
    pub cancellations: u64,
    /// Warm-started refinement runs seeded from a cached partition
    /// ([`Event::WarmStart`] count).
    pub warm_starts: u64,
    /// Jobs refused at admission — queue high-water load-shedding or
    /// token-bucket exhaustion ([`Event::Shed`] count).
    pub sheds: u64,
    /// Iterated-multilevel V-cycles completed ([`Event::VCycleEnd`] count).
    pub vcycles: u64,
    /// Ensemble recombinations attempted ([`Event::RecombineStart`] count).
    pub recombinations: u64,
}

impl Counters {
    /// Every counter with its name: the one field list that renderings
    /// such as the service's metrics line are built from. The destructuring
    /// below names every field, so a counter added to the struct fails to
    /// compile here until it is listed.
    pub fn fields(&self) -> [(&'static str, u64); 16] {
        let Counters {
            passes,
            moves_tried,
            moves_committed,
            moves_rolled_back,
            bucket_ops,
            cut_updates,
            levels,
            starts,
            kway_passes,
            rounds,
            sweeps,
            cancellations,
            warm_starts,
            sheds,
            vcycles,
            recombinations,
        } = *self;
        [
            ("passes", passes),
            ("kway_passes", kway_passes),
            ("moves_tried", moves_tried),
            ("moves_committed", moves_committed),
            ("moves_rolled_back", moves_rolled_back),
            ("bucket_ops", bucket_ops),
            ("cut_updates", cut_updates),
            ("levels", levels),
            ("starts", starts),
            ("sweeps", sweeps),
            ("cancellations", cancellations),
            ("warm_starts", warm_starts),
            ("sheds", sheds),
            ("rounds", rounds),
            ("vcycles", vcycles),
            ("recombinations", recombinations),
        ]
    }
}

impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "passes {} (+{} k-way), moves {} tried / {} committed / {} rolled back, \
             bucket ops {}, cut updates {}, levels {}, starts {}, rounds {}, sweeps {}, \
             cancellations {}, warm starts {}, sheds {}, vcycles {}, recombinations {}",
            self.passes,
            self.kway_passes,
            self.moves_tried,
            self.moves_committed,
            self.moves_rolled_back,
            self.bucket_ops,
            self.cut_updates,
            self.levels,
            self.starts,
            self.rounds,
            self.sweeps,
            self.cancellations,
            self.warm_starts,
            self.sheds,
            self.vcycles,
            self.recombinations
        )
    }
}

/// Lock-free counting sink: aggregates the stream into atomic counters.
///
/// Relaxed ordering is used throughout — the counters are statistics, not
/// synchronisation, and a [`snapshot`](CounterSink::snapshot) taken while
/// engines are running is a consistent-enough view for reporting.
#[derive(Debug, Default)]
pub struct CounterSink {
    passes: AtomicU64,
    moves_tried: AtomicU64,
    moves_committed: AtomicU64,
    moves_rolled_back: AtomicU64,
    bucket_ops: AtomicU64,
    cut_updates: AtomicU64,
    levels: AtomicU64,
    starts: AtomicU64,
    kway_passes: AtomicU64,
    rounds: AtomicU64,
    sweeps: AtomicU64,
    cancellations: AtomicU64,
    warm_starts: AtomicU64,
    sheds: AtomicU64,
    vcycles: AtomicU64,
    recombinations: AtomicU64,
}

impl CounterSink {
    /// Creates a sink with all counters at zero.
    pub fn new() -> Self {
        CounterSink::default()
    }

    /// Copies the current counter values out.
    pub fn snapshot(&self) -> Counters {
        Counters {
            passes: self.passes.load(Ordering::Relaxed),
            moves_tried: self.moves_tried.load(Ordering::Relaxed),
            moves_committed: self.moves_committed.load(Ordering::Relaxed),
            moves_rolled_back: self.moves_rolled_back.load(Ordering::Relaxed),
            bucket_ops: self.bucket_ops.load(Ordering::Relaxed),
            cut_updates: self.cut_updates.load(Ordering::Relaxed),
            levels: self.levels.load(Ordering::Relaxed),
            starts: self.starts.load(Ordering::Relaxed),
            kway_passes: self.kway_passes.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            cancellations: self.cancellations.load(Ordering::Relaxed),
            warm_starts: self.warm_starts.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            vcycles: self.vcycles.load(Ordering::Relaxed),
            recombinations: self.recombinations.load(Ordering::Relaxed),
        }
    }
}

impl Sink for CounterSink {
    fn record(&self, event: &Event) {
        match *event {
            Event::PassEnd {
                moves, best_prefix, ..
            } => {
                self.passes.fetch_add(1, Ordering::Relaxed);
                self.moves_committed
                    .fetch_add(best_prefix, Ordering::Relaxed);
                self.moves_rolled_back
                    .fetch_add(moves - best_prefix, Ordering::Relaxed);
            }
            Event::MoveCommitted { gain, .. } => {
                self.moves_tried.fetch_add(1, Ordering::Relaxed);
                if gain != 0 {
                    self.cut_updates.fetch_add(1, Ordering::Relaxed);
                }
            }
            Event::PassStart { .. } => {}
            Event::LevelStart { .. } => {
                self.levels.fetch_add(1, Ordering::Relaxed);
            }
            Event::LevelEnd { .. } => {}
            Event::StartFinished { .. } => {
                self.starts.fetch_add(1, Ordering::Relaxed);
            }
            Event::KwayPassEnd {
                moves, best_prefix, ..
            } => {
                self.kway_passes.fetch_add(1, Ordering::Relaxed);
                self.moves_committed
                    .fetch_add(best_prefix, Ordering::Relaxed);
                self.moves_rolled_back
                    .fetch_add(moves - best_prefix, Ordering::Relaxed);
            }
            Event::KwayMove { gain, .. } => {
                self.moves_tried.fetch_add(1, Ordering::Relaxed);
                if gain != 0 {
                    self.cut_updates.fetch_add(1, Ordering::Relaxed);
                }
            }
            Event::KwayPassStart { .. } => {}
            Event::RoundStart { .. } => {}
            Event::RoundApplied { .. } => {
                self.rounds.fetch_add(1, Ordering::Relaxed);
            }
            Event::Cancelled { .. } => {
                self.cancellations.fetch_add(1, Ordering::Relaxed);
            }
            Event::SweepFinished { .. } => {
                self.sweeps.fetch_add(1, Ordering::Relaxed);
            }
            Event::WarmStart { .. } => {
                self.warm_starts.fetch_add(1, Ordering::Relaxed);
            }
            Event::Shed { .. } => {
                self.sheds.fetch_add(1, Ordering::Relaxed);
            }
            Event::VCycleStart { .. } => {}
            Event::VCycleEnd { .. } => {
                self.vcycles.fetch_add(1, Ordering::Relaxed);
            }
            Event::RecombineStart { .. } => {
                self.recombinations.fetch_add(1, Ordering::Relaxed);
            }
        }
        // bucket_ops arrive pre-aggregated on pass ends (counting them as
        // individual events would put an emission in the hottest loop).
        match *event {
            Event::PassEnd { bucket_ops, .. } | Event::KwayPassEnd { bucket_ops, .. } => {
                self.bucket_ops.fetch_add(bucket_ops, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// In-memory buffering sink; the replay helpers aggregate its contents.
///
/// ```
/// use vlsi_trace::{Event, Sink, VecSink};
/// let sink = VecSink::new();
/// sink.record(&Event::StartFinished { start: 0, cut: 7, micros: 12 });
/// let events = sink.take();
/// assert_eq!(events.len(), 1);
/// assert!(sink.take().is_empty()); // take() drains
/// ```
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<Event>>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Drains and returns the buffered events in emission order.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("not poisoned"))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("not poisoned").len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for VecSink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("not poisoned")
            .push(event.clone());
    }
}

/// Buffered JSONL output sink: one JSON object per line, deterministic
/// field order ([`Event::to_jsonl`]), flushed on [`Sink::flush`] and drop.
///
/// Write errors are counted, not propagated — tracing must never abort a
/// partitioning run. Check [`JsonlSink::write_errors`] after flushing if
/// the trace file matters.
pub struct JsonlSink {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    write_errors: AtomicU64,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("write_errors", &self.write_errors.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`, creating parent
    /// directories as needed. The conventional location for trace files is
    /// `results/trace/*.jsonl`.
    ///
    /// # Errors
    /// Propagates file/directory creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink::from_writer(Box::new(File::create(path)?)))
    }

    /// Wraps an arbitrary writer (useful for tests and `io::sink()`).
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(writer)),
            write_errors: AtomicU64::new(0),
        }
    }

    /// Number of write errors swallowed so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut w = self.writer.lock().expect("not poisoned");
        let line = event.to_jsonl();
        if writeln!(w, "{line}").is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        if self.writer.lock().expect("not poisoned").flush().is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// An optional sink: `Some` records into the wrapped sink, `None` drops
/// every event. This is how an optional trace file rides in a [`Tee`]
/// beside a sink that is always on, without a second call site per
/// engine.
///
/// ```
/// use vlsi_trace::{CounterSink, Event, Sink, Tee, VecSink};
/// let counters = CounterSink::new();
/// let ev = Event::StartFinished { start: 0, cut: 7, micros: 1 };
/// let (off, on): (Option<VecSink>, _) = (None, Some(VecSink::new()));
/// Tee::new(&counters, &off).record(&ev);
/// Tee::new(&counters, &on).record(&ev);
/// assert_eq!(counters.snapshot().starts, 2);
/// assert_eq!(on.map(|trace| trace.len()), Some(1));
/// ```
impl<S: Sink> Sink for Option<S> {
    const ENABLED: bool = S::ENABLED;

    fn record(&self, event: &Event) {
        if let Some(sink) = self {
            sink.record(event);
        }
    }

    fn flush(&self) {
        if let Some(sink) = self {
            sink.flush();
        }
    }
}

/// Fans one event stream out to two sinks.
///
/// `ENABLED` is the OR of the parts, and each part is guarded by its own
/// flag, so `Tee<VecSink, NullSink>` costs exactly a `VecSink`.
#[derive(Debug)]
pub struct Tee<'a, A: Sink, B: Sink> {
    a: &'a A,
    b: &'a B,
}

impl<'a, A: Sink, B: Sink> Tee<'a, A, B> {
    /// Combines two sinks.
    pub fn new(a: &'a A, b: &'a B) -> Self {
        Tee { a, b }
    }
}

impl<A: Sink, B: Sink> Sink for Tee<'_, A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn record(&self, event: &Event) {
        if A::ENABLED {
            self.a.record(event);
        }
        if B::ENABLED {
            self.b.record(event);
        }
    }

    fn flush(&self) {
        if A::ENABLED {
            self.a.flush();
        }
        if B::ENABLED {
            self.b.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MoverFixity;

    fn sample_pass() -> Vec<Event> {
        vec![
            Event::PassStart {
                pass: 0,
                cut: 10,
                movable: 3,
                move_limit: 3,
            },
            Event::MoveCommitted {
                pass: 0,
                vertex: 1,
                gain: 2,
                fixity: MoverFixity::Free,
                cut: 8,
            },
            Event::MoveCommitted {
                pass: 0,
                vertex: 2,
                gain: 0,
                fixity: MoverFixity::Free,
                cut: 8,
            },
            Event::PassEnd {
                pass: 0,
                moves: 2,
                best_prefix: 1,
                cut_before: 10,
                cut_after: 8,
                bucket_ops: 9,
            },
        ]
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        NullSink.record(&Event::StartFinished {
            start: 0,
            cut: 0,
            micros: 0,
        });
    }

    #[test]
    fn counter_sink_aggregates() {
        let sink = CounterSink::new();
        for e in sample_pass() {
            sink.record(&e);
        }
        sink.record(&Event::LevelStart {
            level: 1,
            vertices: 10,
            nets: 20,
        });
        sink.record(&Event::StartFinished {
            start: 0,
            cut: 8,
            micros: 100,
        });
        let c = sink.snapshot();
        assert_eq!(c.passes, 1);
        assert_eq!(c.moves_tried, 2);
        assert_eq!(c.moves_committed, 1);
        assert_eq!(c.moves_rolled_back, 1);
        assert_eq!(c.bucket_ops, 9);
        assert_eq!(c.cut_updates, 1); // only the gain != 0 move
        assert_eq!(c.levels, 1);
        assert_eq!(c.starts, 1);
        let text = c.to_string();
        assert!(text.contains("passes 1"), "{text}");
    }

    #[test]
    fn vec_sink_buffers_in_order() {
        let sink = VecSink::new();
        for e in sample_pass() {
            sink.record(&e);
        }
        assert_eq!(sink.len(), 4);
        let events = sink.take();
        assert_eq!(events, sample_pass());
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        use std::sync::{Arc, Mutex};

        /// A writer handing each byte chunk to a shared buffer.
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::from_writer(Box::new(Shared(buf.clone())));
        for e in sample_pass() {
            sink.record(&e);
        }
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].starts_with(r#"{"ev":"pass_start""#),
            "{}",
            lines[0]
        );
        assert!(lines[3].ends_with('}'));
        assert_eq!(sink.write_errors(), 0);
    }

    #[test]
    fn jsonl_sink_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("vlsi-trace-test-{}", std::process::id()));
        let path = dir.join("nested/trace.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(&Event::StartFinished {
                start: 0,
                cut: 3,
                micros: 1,
            });
        } // drop flushes
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"ev\":\"start\",\"start\":0,\"cut\":3,\"micros\":1}\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tee_fans_out_and_respects_enabled() {
        let counters = CounterSink::new();
        let vec = VecSink::new();
        let tee = Tee::new(&counters, &vec);
        const { assert!(<Tee<'_, CounterSink, VecSink> as Sink>::ENABLED) };
        for e in sample_pass() {
            tee.record(&e);
        }
        assert_eq!(counters.snapshot().passes, 1);
        assert_eq!(vec.len(), 4);

        // A tee onto two NullSinks is statically disabled.
        const { assert!(!<Tee<'_, NullSink, NullSink> as Sink>::ENABLED) };
    }
}
