//! The batch partitioning server: transports, job execution, lifecycle.
//!
//! A [`Service`] owns the shared state (solution cache, metrics, optional
//! JSONL trace sink) and a [`WorkerPool`] draining a bounded two-lane job
//! queue. Every transport enters through one front door: the `frame`
//! module's line framer splits a session's bytes into request lines (the
//! 64 MiB line cap lives there), and `Service::accept_line` turns each
//! line into a reply, a shutdown or an admitted job (the UTF-8 check, the
//! parse, control requests and admission live there). [`Service::serve`]
//! (stdio, and TCP off Linux) and the epoll event loop in the `eventloop`
//! module (TCP on Linux, `docs/OPERATIONS.md`) differ only in how bytes
//! arrive, how an admitted job is queued (a blocking push on stdio, a
//! shed with `overloaded` when the queue is full on the loop) and where
//! replies go. Responses travel back through a per-job reply closure so a
//! slow job never blocks a reader, and the bounded queue pushes back on
//! clients that submit faster than the workers drain.
//!
//! Admission control ([`AdmissionConfig`]) sits in front of the queue:
//! per-client token buckets answer `rate_limited` to floods, and once the
//! queue depth crosses the high-water mark new jobs are shed with
//! `overloaded` instead of queued.
//!
//! Every job takes one path. Warm-start jobs (`warm_start` in the request)
//! whose seed is still cached refine from it via
//! [`vlsi_partition::refine_from_partition_ctx`]; every other job, an
//! evicted seed included (`"warm":"miss"`), runs the cold multistart. Both
//! kinds then share one sequence: cache lookup, run, the independent
//! referee, cache insert (complete runs only) and one response. The
//! optional JSONL trace file is an `Option<JsonlSink>` teed beside the
//! engine counters, so traced and untraced jobs make the same engine call.
//!
//! Shutdown is graceful end to end: `{"op":"shutdown"}` (or EOF on stdio)
//! stops the reader, every already-accepted job still runs and answers,
//! the pool joins, and the trace sink is flushed before
//! [`Service::shutdown`] returns the final metrics snapshot.

use std::io::{self, BufRead, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use vlsi_hypergraph::{BalanceConstraint, Objective, PartId, Partitioning, Tolerance};
use vlsi_partition::{
    refine_from_partition_ctx, CancelToken, EngineConfig, Multistart, PartitionError, RunCtx,
};
use vlsi_rng::{ChaCha8Rng, SeedableRng};
use vlsi_trace::{Event, JsonlSink, Sink, Tee};

use crate::admission::{AdmissionConfig, TokenBucket};
use crate::cache::{cache_key, CacheStats, Solution, SolutionCache};
use crate::frame::LineFramer;
use crate::json::JsonError;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::protocol::{parse_request, JobRequest, JobResponse, ProtocolError, Request};
use crate::queue::{BoundedQueue, WorkerPool};

/// Refinement passes a warm-start job runs from its seed (matches the
/// k-way refiner's default budget).
const WARM_MAX_PASSES: usize = 4;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (defaults to the machine's
    /// available parallelism).
    pub workers: usize,
    /// Bounded queue depth; stdio producers block when it is full, the
    /// TCP event loop sheds.
    pub queue_capacity: usize,
    /// Maximum solutions held by the content-addressed cache.
    pub cache_capacity: usize,
    /// Optional JSONL trace file receiving engine events from every job.
    pub trace_path: Option<std::path::PathBuf>,
    /// Admission control (rate limiting and load shedding); off by
    /// default.
    pub admission: AdmissionConfig,
    /// TCP connections idle longer than this (no traffic, no jobs in
    /// flight) are closed by the event loop.
    pub idle_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 64,
            cache_capacity: 128,
            trace_path: None,
            admission: AdmissionConfig::default(),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// State shared by transports and workers.
struct ServiceCtx {
    cache: Mutex<SolutionCache>,
    metrics: ServiceMetrics,
    trace: Option<JsonlSink>,
}

/// A queued job: the validated request plus the reply path back to its
/// connection (an mpsc sender on stdio, an event-loop completion on TCP).
pub(crate) struct Job {
    request: Box<JobRequest>,
    reply: Box<dyn FnOnce(String) + Send>,
}

/// The answer to `{"op":"shutdown"}`.
pub(crate) const SHUTDOWN_REPLY: &str = "{\"status\":\"ok\",\"op\":\"shutdown\"}";

/// What [`Service::accept_line`] made of one request line.
pub(crate) enum Accepted {
    /// A line of JSON whitespace only: nothing to answer.
    Blank,
    /// The line is answered at once: an error, a refusal or the metrics.
    Reply(String),
    /// `{"op":"shutdown"}`: the transport answers [`SHUTDOWN_REPLY`] and
    /// takes no more jobs.
    Shutdown,
    /// A job that passed admission, for the transport to
    /// [`Service::submit`].
    Job(Box<JobRequest>),
}

/// How a connection's request loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The input stream reached end-of-file.
    Eof,
    /// The client sent `{"op":"shutdown"}`.
    ShutdownRequested,
}

/// A running batch partitioning service.
pub struct Service {
    ctx: Arc<ServiceCtx>,
    pool: WorkerPool<Job>,
    admission: AdmissionConfig,
    idle_timeout: Duration,
}

impl Service {
    /// Builds the shared state and spawns the worker pool.
    ///
    /// # Errors
    /// Propagates trace-file creation failures.
    pub fn start(config: ServiceConfig) -> io::Result<Service> {
        let trace = config
            .trace_path
            .as_ref()
            .map(JsonlSink::create)
            .transpose()?;
        let ctx = Arc::new(ServiceCtx {
            cache: Mutex::new(SolutionCache::new(config.cache_capacity)),
            metrics: ServiceMetrics::new(),
            trace,
        });
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let run_ctx = Arc::clone(&ctx);
        let panic_ctx = Arc::clone(&ctx);
        let pool = WorkerPool::spawn(
            config.workers,
            queue,
            move |job: Job| run_job(&run_ctx, job),
            move |_payload| {
                // Backstop only: run_job catches its own panics so it can
                // still answer the client. Reaching here means the reply
                // path itself failed mid-unwind.
                panic_ctx.metrics.panics.fetch_add(1, Ordering::Relaxed);
            },
        );
        Ok(Service {
            ctx,
            pool,
            admission: config.admission,
            idle_timeout: config.idle_timeout,
        })
    }

    /// Serves one line-delimited JSON connection until EOF or shutdown.
    ///
    /// Responses are written as they complete (jobs may answer out of
    /// submission order; match on `id`). The call returns only after every
    /// job accepted from *this* connection has been answered and flushed.
    /// The connection gets its own admission token bucket; below the
    /// high-water mark a full queue blocks the reader (backpressure), at
    /// or above it jobs are shed with `overloaded`. Lines are framed and
    /// answered as on every transport (`docs/PROTOCOL.md`, "Framing").
    ///
    /// # Errors
    /// Propagates read errors, `InvalidData` for a line longer than
    /// 64 MiB (which ends the session unanswered), and write errors, which
    /// end the response pump. Jobs accepted before a read error still
    /// answer first.
    pub fn serve<R, W>(&self, mut reader: R, writer: W) -> io::Result<ServeOutcome>
    where
        R: BufRead,
        W: Write + Send,
    {
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<String>();
            let pump = scope.spawn(move || -> io::Result<()> {
                let mut writer = writer;
                for line in rx {
                    writeln!(writer, "{line}")?;
                    writer.flush()?;
                }
                writer.flush()
            });

            let mut bucket = self.token_bucket();
            let mut on_line = |line: &[u8]| {
                match self.accept_line(line, &mut bucket, false) {
                    Accepted::Blank => {}
                    Accepted::Reply(reply) => {
                        let _ = tx.send(reply);
                    }
                    Accepted::Shutdown => {
                        let _ = tx.send(SHUTDOWN_REPLY.to_string());
                        return ControlFlow::Break(());
                    }
                    Accepted::Job(request) => {
                        let reply_tx = tx.clone();
                        let reply = Box::new(move |line| {
                            let _ = reply_tx.send(line);
                        });
                        // Backpressure: a full queue blocks this reader.
                        if let Err(refusal) = self.submit(request, reply, true) {
                            let _ = tx.send(refusal);
                        }
                    }
                }
                ControlFlow::Continue(())
            };
            let mut framer = LineFramer::default();
            let read = loop {
                let chunk = match reader.fill_buf() {
                    Ok(chunk) => chunk,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => break Err(e),
                };
                if chunk.is_empty() {
                    break Ok(framer.finish(&mut on_line));
                }
                let len = chunk.len();
                match framer.feed(chunk, &mut on_line) {
                    Ok(ControlFlow::Continue(())) => reader.consume(len),
                    ended => break ended,
                }
            };
            // Dropping our sender leaves only in-flight jobs holding clones;
            // the pump drains their answers and exits when the last one is
            // done — so returning from here implies all responses are out.
            drop(tx);
            let pumped = pump.join().expect("response pump never panics");
            let outcome = match read? {
                ControlFlow::Break(()) => ServeOutcome::ShutdownRequested,
                ControlFlow::Continue(()) => ServeOutcome::Eof,
            };
            pumped.map(|()| outcome)
        })
    }

    /// The one dispatcher behind every transport: turns one request line
    /// into a reply, a shutdown or an admitted job.
    ///
    /// A line of JSON whitespace only is skipped, and every other line
    /// goes to [`parse_request`] as received; a line that is not UTF-8 is
    /// a `bad_json` error at its first invalid byte. Parse errors are
    /// counted. A job is refused with `queue_closed` while the transport
    /// is `draining`, and otherwise goes through admission control: the
    /// instance-size cap first (a property of the request, refused without
    /// spending a token), then the client's token bucket, then the queue
    /// high-water mark. An admission refusal is recorded as a shed.
    pub(crate) fn accept_line(
        &self,
        line: &[u8],
        bucket: &mut TokenBucket,
        draining: bool,
    ) -> Accepted {
        if line.iter().all(|b| matches!(b, b' ' | b'\t' | b'\r')) {
            return Accepted::Blank;
        }
        let request = std::str::from_utf8(line)
            .map_err(|e| ProtocolError {
                id: None,
                code: "bad_json",
                message: JsonError {
                    offset: e.valid_up_to(),
                    message: "invalid UTF-8".to_string(),
                }
                .to_string(),
            })
            .and_then(parse_request);
        let request = match request {
            Err(e) => {
                self.ctx
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return Accepted::Reply(e.to_line());
            }
            Ok(Request::Metrics) => return Accepted::Reply(self.metrics().to_line()),
            Ok(Request::Shutdown) => return Accepted::Shutdown,
            Ok(Request::Job(request)) if draining => {
                return Accepted::Reply(queue_closed(request.id))
            }
            Ok(Request::Job(request)) => request,
        };
        let num_pins = request.hg.num_pins();
        if num_pins > self.admission.max_pins {
            let message = format!(
                "instance has {num_pins} pins, above the admission limit of {}",
                self.admission.max_pins
            );
            return Accepted::Reply(self.shed(&request.id, "too_large", message));
        }
        if !bucket.try_take(Instant::now()) {
            let message = "client exceeded its admission rate; retry later".to_string();
            return Accepted::Reply(self.shed(&request.id, "rate_limited", message));
        }
        let depth = self.pool.queue().len();
        if depth >= self.admission.high_water {
            let message = format!("job queue depth {depth} is at the high-water mark; retry later");
            return Accepted::Reply(self.shed(&request.id, "overloaded", message));
        }
        Accepted::Job(request)
    }

    /// Queues an admitted job with the path its answer takes. With `wait`
    /// a full queue blocks the caller (stdio backpressure); without it the
    /// job is shed with `overloaded`, since the event loop never blocks.
    /// A refused job comes back as the error line to send.
    pub(crate) fn submit(
        &self,
        request: Box<JobRequest>,
        reply: Box<dyn FnOnce(String) + Send>,
        wait: bool,
    ) -> Result<(), String> {
        let id = request.id.clone();
        let lane = request.priority;
        let job = Job { request, reply };
        let queue = self.pool.queue();
        // `Err(None)`: the queue is closed. `Err(Some(job))`: it is full,
        // which only `try_push` gives up on.
        let pushed = if wait {
            queue.push(job, lane).map_err(|_closed| None)
        } else {
            queue.try_push(job, lane)
        };
        match pushed {
            Ok(()) => Ok(()),
            Err(Some(_full)) => {
                let message = "job queue is full; retry later".to_string();
                Err(self.shed(&id, "overloaded", message))
            }
            Err(None) => Err(queue_closed(id)),
        }
    }

    /// A full admission token bucket for a new connection.
    pub(crate) fn token_bucket(&self) -> TokenBucket {
        TokenBucket::new(&self.admission, Instant::now())
    }

    /// The current metrics snapshot (engine + service counters).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.ctx.metrics.snapshot()
    }

    /// The cache's own counters (hits/misses/evictions/entries).
    pub fn cache_stats(&self) -> CacheStats {
        self.ctx.cache.lock().expect("cache mutex").stats()
    }

    pub(crate) fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    /// Refuses job `id` at admission: records a shed at the current queue
    /// depth in the engine counters and the trace stream, and returns the
    /// error line to send.
    fn shed(&self, id: &str, code: &'static str, message: String) -> String {
        Tee::new(&self.ctx.metrics.engine, &self.ctx.trace).record(&Event::Shed {
            queue_depth: self.pool.queue().len() as u64,
        });
        ProtocolError {
            id: Some(id.to_string()),
            code,
            message,
        }
        .to_line()
    }

    /// Drains the queue, joins every worker, flushes the trace sink, and
    /// returns the final metrics snapshot.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.pool.shutdown();
        self.ctx.trace.flush();
        self.ctx.metrics.snapshot()
    }
}

/// The `queue_closed` refusal of job `id`.
fn queue_closed(id: String) -> String {
    ProtocolError {
        id: Some(id),
        code: "queue_closed",
        message: "service is shutting down".to_string(),
    }
    .to_line()
}

/// Executes one job end to end and answers through the job's reply path.
/// Panics inside the engine are caught here so the client still gets an
/// `internal_error` response with its request id.
fn run_job(ctx: &ServiceCtx, job: Job) {
    let Job { request, reply } = job;
    let id = request.id.clone();
    let line = match panic::catch_unwind(AssertUnwindSafe(|| execute_job(ctx, &request))) {
        Ok(line) => line,
        Err(_) => {
            ctx.metrics.panics.fetch_add(1, Ordering::Relaxed);
            ctx.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
            ProtocolError {
                id: Some(id),
                code: "internal_error",
                message: "worker panicked while executing the job".to_string(),
            }
            .to_line()
        }
    };
    reply(line);
}

fn error_code(err: &PartitionError) -> &'static str {
    match err {
        PartitionError::InfeasibleInstance { .. } | PartitionError::Balance(_) => "infeasible",
        _ => "bad_request",
    }
}

/// The per-engine latency label a warm-start job is recorded under, so
/// warm and cold latencies of the same engine stay separable in the
/// metrics snapshot.
fn warm_label(engine: &str) -> &'static str {
    match engine {
        "fm" => "warm:fm",
        "ml" => "warm:ml",
        "kl" => "warm:kl",
        "sa" => "warm:sa",
        "rb" => "warm:rb",
        "kway" => "warm:kway",
        _ => "warm:other",
    }
}

/// The independent referee: one [`Partitioning::from_parts_fixed`] checks
/// the assignment's length, part range and fixities, and its loads must
/// satisfy the job's balance constraint. A legal assignment comes back
/// with both reported metrics read off the `CutState` that build counted:
/// the engine optimizes the requested objective, but the response always
/// carries cut *and* km1 so clients can compare runs across objectives.
/// `None` means the assignment is illegal.
fn referee(req: &JobRequest, balance: &BalanceConstraint, parts: Vec<PartId>) -> Option<Solution> {
    let p = Partitioning::from_parts_fixed(&req.hg, req.k, parts, &req.fixed).ok()?;
    if !balance.is_satisfied(p.loads()) {
        return None;
    }
    let (cut, km1) = (p.cut_value(Objective::Cut), p.cut_value(Objective::KMinus1));
    Some(Solution {
        parts: p.into_parts(),
        cut,
        km1,
    })
}

/// The balance constraint a job is solved and validated under: explicit
/// per-part capacity vectors when the request supplies them, otherwise the
/// legacy uniform even split at the requested tolerance.
fn job_balance(req: &JobRequest) -> BalanceConstraint {
    match &req.part_capacities {
        Some(caps) => caps.to_balance(),
        None => BalanceConstraint::even(
            req.k,
            req.hg.total_weights(),
            Tolerance::Relative(req.tolerance),
        ),
    }
}

/// Executes one job: warm when its `warm_start` seed is still cached and
/// fits the instance, cold otherwise. Both kinds run one sequence — cache
/// lookup, run (warm refinement or the cold multistart), referee, cache
/// insert, response — and differ only in the cache key, the latency label,
/// the `warm` note and the run itself.
fn execute_job(ctx: &ServiceCtx, req: &JobRequest) -> String {
    let t0 = Instant::now();
    let engine = EngineConfig::by_name(&req.engine)
        .expect("engine validated at ingress")
        .with_objective(req.objective);
    let balance = job_balance(req);
    // A seed for a different vertex count cannot be re-legalized onto this
    // instance — treat it like an eviction.
    let seed = req.warm_from.as_deref().and_then(|sid| {
        let cached = ctx.cache.lock().expect("cache mutex").get_by_id(sid);
        cached
            .filter(|parts| parts.len() == req.hg.num_vertices())
            .map(|parts| (sid, parts))
    });
    // The warm path refines from the seed and never runs the multistart
    // quality phase, so the vcycles/ensemble knobs do not influence its
    // output — they stay out of the warm key (identical executions share
    // one entry).
    let (key_engine, vcycles, ensemble, label, warm) = match &seed {
        Some((sid, _)) => (
            format!("warm:{sid}:{}", req.engine),
            0,
            false,
            warm_label(engine.name()),
            Some("hit"),
        ),
        None => (
            req.engine.clone(),
            req.vcycles,
            req.ensemble,
            engine.name(),
            req.warm_from.as_ref().map(|_| "miss"),
        ),
    };
    let key = cache_key(
        &key_engine,
        req.k,
        req.tolerance,
        req.starts,
        req.seed,
        false,
        vcycles,
        ensemble,
        req.objective,
        req.part_capacities.as_ref(),
        &req.hg,
        &req.fixed,
    );

    let cached = ctx.cache.lock().expect("cache mutex").get(&key);
    let cache_hit = cached.is_some();
    let (solution, starts_run, deadline_expired, solution_id) = match cached {
        Some(solution) => {
            ctx.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            (solution, 0, false, Some(key.solution_id()))
        }
        None => {
            ctx.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
            let cancel = match req.deadline_ms {
                Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
                None => CancelToken::never(),
            };
            let sink = Tee::new(&ctx.metrics.engine, &ctx.trace);
            let run = match &seed {
                Some((_, seed)) => {
                    let mut rng = ChaCha8Rng::seed_from_u64(req.seed);
                    refine_from_partition_ctx(
                        &req.hg,
                        &req.fixed,
                        &balance,
                        seed,
                        req.objective,
                        WARM_MAX_PASSES,
                        RunCtx::new(&mut rng).with_sink(&sink).with_cancel(&cancel),
                    )
                    .map(|outcome| (outcome.result, 1))
                }
                // The engine counters additionally see every start's
                // internal events (levels, passes, moves) via the driver's
                // engine sink; the JSONL trace keeps the deterministic
                // summary stream only.
                None => Multistart::new(req.starts)
                    .vcycles(req.vcycles)
                    .ensemble(req.ensemble)
                    .objective(req.objective)
                    .run_parallel(
                        &req.hg,
                        &req.fixed,
                        &balance,
                        req.threads,
                        req.seed,
                        &engine,
                        &sink,
                        &ctx.metrics.engine,
                        &cancel,
                    )
                    .map(|outcome| (outcome.best, outcome.starts.len())),
            };
            let (result, starts_run) = match run {
                Ok(run) => run,
                Err(e) => {
                    ctx.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                    return ProtocolError {
                        id: Some(req.id.clone()),
                        code: error_code(&e),
                        message: e.to_string(),
                    }
                    .to_line();
                }
            };
            let deadline_expired = cancel.is_cancelled();

            // Independent referee: never hand out an illegal partition,
            // even from a cancelled best-so-far path.
            let Some(solution) = referee(req, &balance, result.parts) else {
                ctx.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                let source = if seed.is_some() {
                    "warm refinement"
                } else {
                    "engine"
                };
                return ProtocolError {
                    id: Some(req.id.clone()),
                    code: "internal_error",
                    message: format!("{source} returned a partition that failed validation"),
                }
                .to_line();
            };

            let solution_id = if deadline_expired {
                ctx.metrics
                    .deadline_expirations
                    .fetch_add(1, Ordering::Relaxed);
                None
            } else {
                // Only complete runs are cached: a best-so-far solution
                // would otherwise shadow the full-quality answer for later
                // requests.
                let sid = key.solution_id();
                ctx.cache
                    .lock()
                    .expect("cache mutex")
                    .insert(key, solution.clone());
                Some(sid)
            };
            (solution, starts_run, deadline_expired, solution_id)
        }
    };
    ctx.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
    let micros = t0.elapsed().as_micros() as u64;
    ctx.metrics.record_latency_us(label, micros);

    JobResponse {
        id: req.id.clone(),
        cut: solution.cut,
        km1: solution.km1,
        parts: solution.parts.iter().map(|p| p.index() as u32).collect(),
        cache_hit,
        deadline_expired,
        starts_run,
        micros,
        solution_id,
        warm,
    }
    .to_line()
}

/// Runs the service over stdin/stdout until EOF or `{"op":"shutdown"}`,
/// then shuts down gracefully and returns the final metrics snapshot.
///
/// # Errors
/// Propagates transport I/O and trace-file errors.
///
/// # Example
///
/// ```no_run
/// use vlsi_service::{serve_stdio, ServiceConfig};
///
/// let snapshot = serve_stdio(ServiceConfig::default())?;
/// eprintln!("served {} jobs", snapshot.jobs_ok);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn serve_stdio(config: ServiceConfig) -> io::Result<MetricsSnapshot> {
    let service = Service::start(config)?;
    let stdin = io::stdin();
    service.serve(stdin.lock(), io::stdout())?;
    Ok(service.shutdown())
}

/// Runs the service on a TCP listener until a client requests shutdown,
/// then drains in-flight jobs, answers them, and returns the final
/// snapshot.
///
/// On Linux (x86_64/aarch64) this is a single-threaded nonblocking epoll
/// event loop handling every connection: line framing, per-client
/// admission token buckets, idle timeouts ([`ServiceConfig::idle_timeout`])
/// and load shedding all happen on the loop while the worker pool runs
/// jobs. Elsewhere it falls back to one thread per connection, each a
/// [`Service::serve`] session. Either way a line is framed and answered
/// as on stdio.
///
/// # Errors
/// Propagates bind and trace-file errors; per-connection I/O errors only
/// end that connection.
///
/// # Example
///
/// ```no_run
/// use vlsi_service::{serve_tcp, ServiceConfig};
///
/// let snapshot = serve_tcp(ServiceConfig::default(), "127.0.0.1:7171")?;
/// eprintln!("p99 latency: {}us", snapshot.p99_us);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn serve_tcp(config: ServiceConfig, addr: impl ToSocketAddrs) -> io::Result<MetricsSnapshot> {
    let listener = TcpListener::bind(addr)?;
    let service = Service::start(config)?;
    serve_listener(&service, listener)?;
    Ok(service.shutdown())
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn serve_listener(service: &Service, listener: TcpListener) -> io::Result<()> {
    crate::eventloop::run(service, listener)
}

/// Fallback accept loop for targets without the epoll front end: one
/// thread per connection, polling accept, each connection a
/// [`Service::serve`] session.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn serve_listener(service: &Service, listener: TcpListener) -> io::Result<()> {
    use std::sync::atomic::AtomicBool;

    listener.set_nonblocking(true)?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let service = &service;
                    let stop = &stop;
                    scope.spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(s) => io::BufReader::new(s),
                            Err(_) => return,
                        };
                        if let Ok(ServeOutcome::ShutdownRequested) = service.serve(reader, stream) {
                            stop.store(true, Ordering::Relaxed);
                        }
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::CutState;

    /// The job a request line is accepted as.
    fn job(line: &str) -> JobRequest {
        match parse_request(line) {
            Ok(Request::Job(job)) => *job,
            _ => panic!("not an accepted job: {line}"),
        }
    }

    /// k = 3 on six unit vertices under the even split at ±50% (loads 1
    /// to 3 per part), vertex 0 fixed in part 0, one net over three parts.
    fn even_job() -> JobRequest {
        job(
            r#"{"id":"e","k":3,"tolerance":0.5,"hypergraph":{"vertices":[1,1,1,1,1,1],
            "nets":[[0,2,4],[1,2],[3,4,5],[0,5]]},"fixed":[0,-1,-1,-1,-1,-1]}"#,
        )
    }

    /// k = 2 with two resources and explicit capacities of 3 and 4 per part.
    fn capacities_job() -> JobRequest {
        job(
            r#"{"id":"c","hypergraph":{"vertices":[1,1,1,1],"nets":[[0,1],[1,2],[2,3]]},
            "resources":[[1,1],[1,1],[1,3],[1,3]],"part_capacities":[[3,4],[3,4]]}"#,
        )
    }

    fn judge(req: &JobRequest, parts: &[u32]) -> Option<Solution> {
        referee(
            req,
            &job_balance(req),
            parts.iter().map(|&p| PartId(p)).collect(),
        )
    }

    #[test]
    fn the_referee_refuses_every_illegal_assignment() {
        let even = even_job();
        for (what, parts) in [
            ("wrong length", &[0, 0, 1, 1, 2][..]),
            ("part >= k", &[0, 0, 1, 1, 2, 3]),
            ("fixity violation", &[1, 0, 0, 1, 2, 2]),
            ("overfull", &[0, 0, 0, 0, 1, 2]),
            ("underfull", &[0, 0, 0, 1, 1, 1]),
        ] {
            assert_eq!(judge(&even, parts), None, "{what}");
        }
        // Resource 0 fits both parts (2 and 2 of 3); resource 1 holds 2
        // and 6 against 4.
        let caps = capacities_job();
        assert_eq!(
            judge(&caps, &[0, 0, 1, 1]),
            None,
            "overfull in the second resource only"
        );
    }

    #[test]
    fn a_legal_assignment_carries_the_cut_and_km1_a_fresh_count_gives() {
        for (req, parts) in [
            (even_job(), &[0, 0, 1, 1, 2, 2][..]),
            (capacities_job(), &[0, 1, 0, 1]),
        ] {
            let parts: Vec<PartId> = parts.iter().map(|&p| PartId(p)).collect();
            let fresh = CutState::new(&req.hg, req.k, &parts);
            let solution = referee(&req, &job_balance(&req), parts.clone()).expect("legal");
            assert_eq!(solution.parts, parts);
            assert_eq!(solution.cut, fresh.value(Objective::Cut));
            assert_eq!(solution.km1, fresh.value(Objective::KMinus1));
        }
        // The net over three parts counts once in the cut, twice in km1.
        let even = even_job();
        let solution = judge(&even, &[0, 0, 1, 1, 2, 2]).expect("legal");
        assert_eq!((solution.cut, solution.km1), (4, 5));
    }
}
