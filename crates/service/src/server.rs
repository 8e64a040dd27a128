//! The batch partitioning server: transports, job execution, lifecycle.
//!
//! A [`Service`] owns the shared state (solution cache, metrics, optional
//! JSONL trace sink) and a [`WorkerPool`] draining a bounded two-lane job
//! queue. Transports are thin: the stdio loop feeds request lines into
//! [`Service::serve`], and the TCP front end (`docs/OPERATIONS.md`) is a
//! nonblocking epoll event loop in the `eventloop` module that frames lines
//! itself and submits through the same admission and execution path.
//! Responses travel back through a per-job reply closure so a slow job
//! never blocks a reader, and the bounded queue pushes back on clients
//! that submit faster than the workers drain.
//!
//! Admission control ([`AdmissionConfig`]) sits in front of the queue:
//! per-client token buckets answer `rate_limited` to floods, and once the
//! queue depth crosses the high-water mark new jobs are shed with
//! `overloaded` instead of queued. Warm-start jobs (`warm_start` in the
//! request) resolve their seed in the solution cache and refine from it
//! via [`vlsi_partition::refine_from_partition_ctx`] instead of
//! partitioning from scratch, falling back to a cold run (`"warm":"miss"`)
//! when the seed has been evicted.
//!
//! Shutdown is graceful end to end: `{"op":"shutdown"}` (or EOF on stdio)
//! stops the reader, every already-accepted job still runs and answers,
//! the pool joins, and the trace sink is flushed before
//! [`Service::shutdown`] returns the final metrics snapshot.

use std::io::{self, BufRead, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use vlsi_hypergraph::{
    validate_partitioning, BalanceConstraint, CutState, Hypergraph, Objective, PartId,
    Partitioning, Tolerance,
};
use vlsi_partition::{
    refine_from_partition_ctx, CancelToken, EngineConfig, Multistart, PartitionError, RunCtx,
};
use vlsi_rng::{ChaCha8Rng, SeedableRng};
use vlsi_trace::{Event, JsonlSink, Sink, Tee};

use crate::admission::{AdmissionConfig, TokenBucket};
use crate::cache::{cache_key, CacheStats, SolutionCache};
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

impl ServiceCtx {
    /// Records one admission refusal (rate limit or load shed) at the
    /// given queue depth in the engine counters and the trace stream.
    fn record_shed(&self, depth: usize) {
        let ev = Event::Shed {
            queue_depth: depth as u64,
        };
        self.metrics.engine.record(&ev);
        if let Some(trace) = &self.trace {
            trace.record(&ev);
        }
    }
}

/// A queued job: the validated request plus the reply path back to its
/// connection (an mpsc sender on stdio, an event-loop completion on TCP).
pub(crate) struct Job {
    request: Box<JobRequest>,
    reply: Box<dyn FnOnce(String) + Send>,
}

/// Why [`Service::try_submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// The queue is at capacity right now.
    Full,
    /// The service is shutting down.
    Closed,
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
    /// or above it jobs are shed with `overloaded`.
    ///
    /// # Errors
    /// Propagates read errors; write errors end the response pump.
    pub fn serve<R, W>(&self, reader: R, writer: W) -> io::Result<ServeOutcome>
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

            let mut bucket = TokenBucket::new(&self.admission, Instant::now());
            let mut outcome = ServeOutcome::Eof;
            for line in reader.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                match parse_request(&line) {
                    Err(e) => {
                        self.note_protocol_error();
                        let _ = tx.send(e.to_line());
                    }
                    Ok(Request::Metrics) => {
                        let _ = tx.send(self.metrics_line());
                    }
                    Ok(Request::Shutdown) => {
                        let _ = tx.send("{\"status\":\"ok\",\"op\":\"shutdown\"}".to_string());
                        outcome = ServeOutcome::ShutdownRequested;
                        break;
                    }
                    Ok(Request::Job(request)) => {
                        let id = request.id.clone();
                        let pins = request.hg.num_pins();
                        if let Err(e) = self.admit(&mut bucket, &id, pins, Instant::now()) {
                            let _ = tx.send(e.to_line());
                            continue;
                        }
                        let lane = request.priority;
                        let reply_tx = tx.clone();
                        let job = Job {
                            request,
                            reply: Box::new(move |line| {
                                let _ = reply_tx.send(line);
                            }),
                        };
                        if self.pool.queue().push(job, lane).is_err() {
                            let _ = tx.send(
                                ProtocolError {
                                    id: Some(id),
                                    code: "queue_closed",
                                    message: "service is shutting down".to_string(),
                                }
                                .to_line(),
                            );
                        }
                    }
                }
            }
            // Dropping our sender leaves only in-flight jobs holding clones;
            // the pump drains their answers and exits when the last one is
            // done — so returning from here implies all responses are out.
            drop(tx);
            pump.join().expect("response pump never panics")?;
            Ok(outcome)
        })
    }

    /// Applies admission control for one job: the instance-size cap
    /// first (a property of the request, refused without spending a
    /// token), then the client's token bucket, then the queue high-water
    /// mark. A refusal is recorded as a shed and returned as the
    /// structured error to send.
    pub(crate) fn admit(
        &self,
        bucket: &mut TokenBucket,
        id: &str,
        num_pins: usize,
        now: Instant,
    ) -> Result<(), ProtocolError> {
        if num_pins > self.admission.max_pins {
            self.note_shed();
            return Err(ProtocolError {
                id: Some(id.to_string()),
                code: "too_large",
                message: format!(
                    "instance has {num_pins} pins, above the admission limit of {}",
                    self.admission.max_pins
                ),
            });
        }
        if !bucket.try_take(now) {
            self.note_shed();
            return Err(ProtocolError {
                id: Some(id.to_string()),
                code: "rate_limited",
                message: "client exceeded its admission rate; retry later".to_string(),
            });
        }
        let depth = self.pool.queue().len();
        if depth >= self.admission.high_water {
            self.note_shed();
            return Err(ProtocolError {
                id: Some(id.to_string()),
                code: "overloaded",
                message: format!("job queue depth {depth} is at the high-water mark; retry later"),
            });
        }
        Ok(())
    }

    /// Submits a job without blocking (the event-loop path).
    pub(crate) fn try_submit(
        &self,
        request: Box<JobRequest>,
        reply: Box<dyn FnOnce(String) + Send>,
    ) -> Result<(), SubmitError> {
        let lane = request.priority;
        let job = Job { request, reply };
        self.pool.queue().try_push(job, lane).map_err(|e| match e {
            Some(_) => SubmitError::Full,
            None => SubmitError::Closed,
        })
    }

    /// The current metrics snapshot (engine + service counters).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.ctx.metrics.snapshot()
    }

    /// The cache's own counters (hits/misses/evictions/entries).
    pub fn cache_stats(&self) -> CacheStats {
        self.ctx.cache.lock().expect("cache mutex").stats()
    }

    pub(crate) fn metrics_line(&self) -> String {
        self.ctx.metrics.snapshot().to_line()
    }

    pub(crate) fn admission(&self) -> AdmissionConfig {
        self.admission
    }

    pub(crate) fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    pub(crate) fn note_protocol_error(&self) {
        self.ctx
            .metrics
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_shed(&self) {
        self.ctx.record_shed(self.pool.queue().len());
    }

    /// Drains the queue, joins every worker, flushes the trace sink, and
    /// returns the final metrics snapshot.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.pool.shutdown();
        if let Some(trace) = &self.ctx.trace {
            trace.flush();
        }
        self.ctx.metrics.snapshot()
    }
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

/// Both reported metrics of a final assignment. The engine optimizes the
/// requested objective; the response always carries cut *and* km1 so
/// clients can compare runs across objectives.
fn cut_and_km1(hg: &Hypergraph, k: usize, parts: &[PartId]) -> (u64, u64) {
    let cs = CutState::new(hg, k, parts);
    (cs.value(Objective::Cut), cs.value(Objective::KMinus1))
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

fn execute_job(ctx: &ServiceCtx, req: &JobRequest) -> String {
    let t0 = Instant::now();
    if let Some(sid) = req.warm_from.as_deref() {
        let seed = ctx.cache.lock().expect("cache mutex").get_by_id(sid);
        match seed {
            // A seed for a different vertex count cannot be re-legalized
            // onto this instance — treat it like an eviction.
            Some((parts, _)) if parts.len() == req.hg.num_vertices() => {
                return execute_warm(ctx, req, sid, &parts, t0);
            }
            _ => return execute_cold(ctx, req, t0, Some("miss")),
        }
    }
    execute_cold(ctx, req, t0, None)
}

/// Runs a warm-start job: legalize the cached seed against the (possibly
/// delta-edited) instance, refine from it, cache under a warm key.
fn execute_warm(
    ctx: &ServiceCtx,
    req: &JobRequest,
    sid: &str,
    seed: &[PartId],
    t0: Instant,
) -> String {
    let engine = EngineConfig::by_name(&req.engine).expect("engine validated at ingress");
    let label = warm_label(engine.name());
    let balance = job_balance(req);
    let warm_engine = format!("warm:{sid}:{}", req.engine);
    // The warm path refines from the seed and never runs the multistart
    // quality phase, so the vcycles/ensemble knobs do not influence its
    // output — they stay out of the warm key (identical executions share
    // one entry).
    let key = cache_key(
        &warm_engine,
        req.k,
        req.tolerance,
        req.starts,
        req.seed,
        false,
        0,
        false,
        req.objective,
        req.part_capacities.as_ref(),
        &req.hg,
        &req.fixed,
    );
    if let Some((parts, _value)) = ctx.cache.lock().expect("cache mutex").get(&key) {
        ctx.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        ctx.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
        let micros = t0.elapsed().as_micros() as u64;
        ctx.metrics.record_latency_us(label, micros);
        let (cut, km1) = cut_and_km1(&req.hg, req.k, &parts);
        return JobResponse {
            id: req.id.clone(),
            cut,
            km1,
            parts: parts.iter().map(|p| p.index() as u32).collect(),
            cache_hit: true,
            deadline_expired: false,
            starts_run: 0,
            micros,
            solution_id: Some(key.solution_id()),
            warm: Some("hit"),
        }
        .to_line();
    }
    ctx.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

    let cancel = match req.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::never(),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(req.seed);
    let outcome = match &ctx.trace {
        Some(trace) => {
            let sink = Tee::new(&ctx.metrics.engine, trace);
            refine_from_partition_ctx(
                &req.hg,
                &req.fixed,
                &balance,
                seed,
                req.objective,
                WARM_MAX_PASSES,
                RunCtx::new(&mut rng).with_sink(&sink).with_cancel(&cancel),
            )
        }
        None => refine_from_partition_ctx(
            &req.hg,
            &req.fixed,
            &balance,
            seed,
            req.objective,
            WARM_MAX_PASSES,
            RunCtx::new(&mut rng)
                .with_sink(&ctx.metrics.engine)
                .with_cancel(&cancel),
        ),
    };

    let outcome = match outcome {
        Ok(o) => o,
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

    // Same independent referee as the cold path: never hand out an
    // illegal partition.
    let legal = Partitioning::from_parts(&req.hg, req.k, outcome.result.parts.clone())
        .map(|p| validate_partitioning(&req.hg, &p, &balance, &req.fixed).is_valid())
        .unwrap_or(false);
    if !legal {
        ctx.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
        return ProtocolError {
            id: Some(req.id.clone()),
            code: "internal_error",
            message: "warm refinement returned a partition that failed validation".to_string(),
        }
        .to_line();
    }

    let solution_id = if deadline_expired {
        ctx.metrics
            .deadline_expirations
            .fetch_add(1, Ordering::Relaxed);
        None
    } else {
        let sid = key.solution_id();
        ctx.cache.lock().expect("cache mutex").insert(
            key,
            outcome.result.parts.clone(),
            outcome.result.cut,
        );
        Some(sid)
    };
    ctx.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
    let micros = t0.elapsed().as_micros() as u64;
    ctx.metrics.record_latency_us(label, micros);

    let (cut, km1) = cut_and_km1(&req.hg, req.k, &outcome.result.parts);
    JobResponse {
        id: req.id.clone(),
        cut,
        km1,
        parts: outcome
            .result
            .parts
            .iter()
            .map(|p: &PartId| p.index() as u32)
            .collect(),
        cache_hit: false,
        deadline_expired,
        starts_run: 1,
        micros,
        solution_id,
        warm: Some("hit"),
    }
    .to_line()
}

fn execute_cold(
    ctx: &ServiceCtx,
    req: &JobRequest,
    t0: Instant,
    warm_note: Option<&'static str>,
) -> String {
    let engine = EngineConfig::by_name(&req.engine)
        .expect("engine validated at ingress")
        .with_objective(req.objective);
    // With several multistart workers the starts already saturate the
    // requested threads; only a single start hands them to the engine's
    // coarsening instead. Neither changes the answer.
    let engine = if req.starts == 1 {
        engine.with_threads(req.threads.max(1))
    } else {
        engine
    };
    let balance = job_balance(req);

    let key = cache_key(
        &req.engine,
        req.k,
        req.tolerance,
        req.starts,
        req.seed,
        false,
        req.vcycles,
        req.ensemble,
        req.objective,
        req.part_capacities.as_ref(),
        &req.hg,
        &req.fixed,
    );
    let cached = ctx.cache.lock().expect("cache mutex").get(&key);
    if let Some((parts, _value)) = cached {
        ctx.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        ctx.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
        let micros = t0.elapsed().as_micros() as u64;
        ctx.metrics.record_latency_us(engine.name(), micros);
        let (cut, km1) = cut_and_km1(&req.hg, req.k, &parts);
        return JobResponse {
            id: req.id.clone(),
            cut,
            km1,
            parts: parts.iter().map(|p| p.index() as u32).collect(),
            cache_hit: true,
            deadline_expired: false,
            starts_run: 0,
            micros,
            solution_id: Some(key.solution_id()),
            warm: warm_note,
        }
        .to_line();
    }
    ctx.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

    let cancel = match req.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::never(),
    };
    // The engine counters additionally see every start's internal events
    // (levels, passes, moves) via the driver's engine sink; the JSONL
    // trace keeps the deterministic summary stream only.
    let driver = Multistart::new(req.starts)
        .vcycles(req.vcycles)
        .ensemble(req.ensemble)
        .objective(req.objective);
    let outcome = match &ctx.trace {
        Some(trace) => {
            let sink = Tee::new(&ctx.metrics.engine, trace);
            driver.run_parallel(
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
        }
        None => driver.run_parallel(
            &req.hg,
            &req.fixed,
            &balance,
            req.threads,
            req.seed,
            &engine,
            &ctx.metrics.engine,
            &ctx.metrics.engine,
            &cancel,
        ),
    };

    let outcome = match outcome {
        Ok(o) => o,
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

    // Independent referee: never hand out an illegal partition, even from
    // a cancelled best-so-far path.
    let legal = Partitioning::from_parts(&req.hg, req.k, outcome.best.parts.clone())
        .map(|p| validate_partitioning(&req.hg, &p, &balance, &req.fixed).is_valid())
        .unwrap_or(false);
    if !legal {
        ctx.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
        return ProtocolError {
            id: Some(req.id.clone()),
            code: "internal_error",
            message: "engine returned a partition that failed validation".to_string(),
        }
        .to_line();
    }

    let solution_id = if deadline_expired {
        ctx.metrics
            .deadline_expirations
            .fetch_add(1, Ordering::Relaxed);
        None
    } else {
        // Only complete runs are cached: a best-so-far solution would
        // otherwise shadow the full-quality answer for later requests.
        let sid = key.solution_id();
        ctx.cache.lock().expect("cache mutex").insert(
            key,
            outcome.best.parts.clone(),
            outcome.best.cut,
        );
        Some(sid)
    };
    ctx.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
    let micros = t0.elapsed().as_micros() as u64;
    ctx.metrics.record_latency_us(engine.name(), micros);

    let (cut, km1) = cut_and_km1(&req.hg, req.k, &outcome.best.parts);
    JobResponse {
        id: req.id.clone(),
        cut,
        km1,
        parts: outcome
            .best
            .parts
            .iter()
            .map(|p: &PartId| p.index() as u32)
            .collect(),
        cache_hit: false,
        deadline_expired,
        starts_run: outcome.starts.len(),
        micros,
        solution_id,
        warm: warm_note,
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
/// jobs. Elsewhere it falls back to one thread per connection.
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
/// thread per connection, polling accept.
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
