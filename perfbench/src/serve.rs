//! The `serve-eco` workload: an in-process service with one worker and one
//! closed-loop client connection, driven by a seeded script of cold
//! solves, warm-start ECO re-solves and exact repeats that the cache
//! answers.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, BufRead, Read, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;
use std::time::Instant;

use vlsi_hypergraph::io::{read_fix, read_hgr};
use vlsi_hypergraph::{
    BalanceConstraint, CutState, FixedVertices, Hypergraph, Objective, PartId, Tolerance,
};
use vlsi_partition::trace::{CounterSink, NullSink, Sink, Tee};
use vlsi_partition::{
    refine_from_partition_ctx, CancelToken, EngineConfig, Multistart, PartitionError, RunCtx,
};
use vlsi_rng::{ChaCha8Rng, SeedableRng};
use vlsi_service::{
    cache_key, parse_request, JobRequest, JobResponse, Request, Service, ServiceConfig,
};

use crate::batch::{coarsen_speedup, Input};
use crate::gen::TOLERANCE;
use crate::host::{peak_rss_mib, steal_pct, CpuTimes, RefLoop};
use crate::phases::{split, StampSink};
use crate::stats::{highest_tail, median, norm_ratio};
use crate::{legal, ms, Metrics, Opts, Outcome};

/// Refinement passes the service's warm path runs from its seed. This
/// mirrors the server's own constant; if the server changes it, the replay
/// stops matching the service's answers and the run reports failures.
const WARM_MAX_PASSES: usize = 4;
/// Extra service start → first answer → shutdown cycles run before the
/// script passes, so that set-up time is a median over several samples.
const SETUP_CYCLES: usize = 3;
/// Seconds of `--seconds` per script pass (one pass is about 4 s on the
/// machine the benchmark was sized on).
const SECONDS_PER_PASS: f64 = 5.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Warm,
    Hit,
}

/// One script line.
struct Step {
    id: String,
    design: usize,
    version: usize,
    text: String,
}

/// The referee's copy of one design version.
struct Version {
    hg: Hypergraph,
    balance: BalanceConstraint,
}

struct Script {
    steps: Vec<Step>,
    versions: HashMap<(usize, usize), Version>,
    fixed: Vec<FixedVertices>,
}

fn load(dir: &Path) -> Result<Script, String> {
    let text = fs::read_to_string(dir.join("script.jsonl")).map_err(|e| e.to_string())?;
    let mut steps = Vec::new();
    for line in text.lines() {
        let id = string_field(line, "\"id\":").ok_or("script line without an id")?;
        let (design, version) = id
            .strip_prefix('d')
            .and_then(|r| r.split_once('v'))
            .and_then(|(d, v)| Some((d.parse().ok()?, v.parse().ok()?)))
            .ok_or_else(|| format!("bad script id `{id}`"))?;
        steps.push(Step {
            id: id.to_string(),
            design,
            version,
            text: line.to_string(),
        });
    }
    let open = |name: String| File::open(dir.join(&name)).map_err(|e| format!("{name}: {e}"));
    let mut versions = HashMap::new();
    let mut fixed = Vec::new();
    for s in &steps {
        if versions.contains_key(&(s.design, s.version)) {
            continue;
        }
        let hg = read_hgr(open(format!("d{}v{}.hgr", s.design, s.version))?)
            .map_err(|e| e.to_string())?;
        if s.design == fixed.len() {
            let fx = read_fix(open(format!("d{}.fix", s.design))?, hg.num_vertices())
                .map_err(|e| e.to_string())?;
            fixed.push(fx);
        }
        let balance =
            BalanceConstraint::even(2, hg.total_weights(), Tolerance::Relative(TOLERANCE));
        versions.insert((s.design, s.version), Version { hg, balance });
    }
    Ok(Script {
        steps,
        versions,
        fixed,
    })
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|i| &line[i + key.len()..])
}

fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = field(line, key)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

fn number_field(line: &str, key: &str) -> Option<u64> {
    let rest = field(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The fields of a successful job response the client checks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reply {
    cut: u64,
    parts: Vec<PartId>,
    cache_hit: bool,
    warm_hit: bool,
    solution_id: String,
}

/// Reads an `ok` response for request `id`; `None` for anything else.
fn parse_reply(line: &str, id: &str) -> Option<Reply> {
    if string_field(line, "\"id\":")? != id || !line.contains("\"status\":\"ok\"") {
        return None;
    }
    let parts = field(line, "\"parts\":[")?;
    let parts = parts[..parts.find(']')?]
        .split(',')
        .map(|p| p.parse().ok().map(PartId))
        .collect::<Option<Vec<_>>>()?;
    Some(Reply {
        cut: number_field(line, "\"cut\":")?,
        parts,
        cache_hit: line.contains("\"cache_hit\":true"),
        warm_hit: line.contains("\"warm\":\"hit\""),
        solution_id: string_field(line, "\"solution_id\":")?.to_string(),
    })
}

/// The server's side of the connection: request bytes arrive whole over a
/// channel.
struct ChanReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChanReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        while self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]), // the client hung up: end of input
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The server's output: each complete line goes to the client.
struct ChanWriter {
    tx: Sender<String>,
    pending: Vec<u8>,
}

impl Write for ChanWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let line = String::from_utf8_lossy(&line[..end]).into_owned();
            self.tx
                .send(line)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "client gone"))?;
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One request as sent and answered.
struct Exchange {
    class: Class,
    step: usize,
    sent: String,
    lat_ms: f64,
    /// The reference loop run right after this request's design batch.
    ref_ms: f64,
    reply: Option<Reply>,
}

struct Session {
    setup_s: f64,
    exchanges: Vec<Exchange>,
    metrics_line: String,
}

/// Starts a service, runs the first `steps` script lines over one
/// connection, reads the metrics line, and shuts the service down. Set-up
/// time runs from service start until the answer to the first request (a
/// cold solve) arrives. The sent text is kept only when `keep_sent` (for
/// the traced replay).
fn session(
    script: &Script,
    steps: usize,
    refs: &mut RefLoop,
    keep_sent: bool,
) -> Result<Session, String> {
    let t0 = Instant::now();
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let (req_tx, req_rx) = mpsc::channel();
    let (resp_tx, resp_rx) = mpsc::channel();
    let (client, served) = thread::scope(|s| {
        let client =
            s.spawn(move || client(t0, req_tx, resp_rx, &script.steps[..steps], refs, keep_sent));
        let served = service.serve(
            ChanReader {
                rx: req_rx,
                buf: Vec::new(),
                pos: 0,
            },
            ChanWriter {
                tx: resp_tx,
                pending: Vec::new(),
            },
        );
        (client.join(), served)
    });
    service.shutdown();
    served.map_err(|e| format!("service: {e}"))?;
    client.map_err(|_| "client thread panicked".to_string())?
}

fn client(
    t0: Instant,
    tx: Sender<Vec<u8>>,
    rx: Receiver<String>,
    steps: &[Step],
    refs: &mut RefLoop,
    keep_sent: bool,
) -> Result<Session, String> {
    let ask = |text: &str| -> Result<(String, f64), String> {
        let mut bytes = Vec::with_capacity(text.len() + 1);
        bytes.extend_from_slice(text.as_bytes());
        bytes.push(b'\n');
        let t = Instant::now();
        tx.send(bytes).map_err(|_| "service stopped reading")?;
        let line = rx.recv().map_err(|_| "service closed the connection")?;
        Ok((line, ms(t.elapsed())))
    };
    let mut setup_s = 0.0;
    let mut exchanges: Vec<Exchange> = Vec::new();
    // A line repeating the previous line's id is its exact repeat.
    let mut last: Option<(&str, String)> = None;
    let mut prev_sid: Option<String> = None;
    let mut batch_start = 0;
    for (i, step) in steps.iter().enumerate() {
        let (class, text) = match &last {
            Some((id, text)) if *id == step.id => (Class::Hit, text.clone()),
            _ => {
                let text = match &prev_sid {
                    Some(sid) => step.text.replace("@prev", sid),
                    None => step.text.clone(),
                };
                let class = if step.version == 0 {
                    Class::Cold
                } else {
                    Class::Warm
                };
                (class, text)
            }
        };
        let (line, lat_ms) = ask(&text)?;
        if i == 0 {
            setup_s = t0.elapsed().as_secs_f64();
        }
        let reply = parse_reply(&line, &step.id);
        if class != Class::Hit {
            prev_sid = reply.as_ref().map(|r| r.solution_id.clone());
        }
        exchanges.push(Exchange {
            class,
            step: i,
            sent: if keep_sent {
                text.clone()
            } else {
                String::new()
            },
            lat_ms,
            ref_ms: 0.0,
            reply,
        });
        last = Some((&step.id, text));
        let batch_done = steps
            .get(i + 1)
            .is_none_or(|next| next.design != step.design);
        if batch_done {
            let loop_ms = refs.time_ms();
            for e in &mut exchanges[batch_start..] {
                e.ref_ms = loop_ms;
            }
            batch_start = exchanges.len();
            prev_sid = None;
        }
    }
    let (metrics_line, _) = ask(r#"{"op":"metrics"}"#)?;
    Ok(Session {
        setup_s,
        exchanges,
        metrics_line,
    })
}

/// Whether an answer is the scripted outcome and a legal partition.
fn verdict(e: &Exchange, script: &Script) -> bool {
    let Some(r) = &e.reply else {
        return false;
    };
    let step = &script.steps[e.step];
    let v = &script.versions[&(step.design, step.version)];
    let class_ok = match e.class {
        Class::Cold => !r.cache_hit && !r.warm_hit,
        Class::Warm => !r.cache_hit && r.warm_hit,
        Class::Hit => r.cache_hit && r.warm_hit,
    };
    class_ok
        && legal(
            &v.hg,
            &script.fixed[step.design],
            &v.balance,
            2,
            &r.parts,
            r.cut,
        )
}

fn cold<S: Sink + Sync>(
    job: &JobRequest,
    balance: &BalanceConstraint,
    sink: &S,
) -> Result<Vec<PartId>, PartitionError> {
    let engine = EngineConfig::by_name(&job.engine)
        .expect("engine validated at ingress")
        .with_objective(job.objective);
    let engine = if job.starts == 1 {
        engine.with_threads(job.threads.max(1))
    } else {
        engine
    };
    Multistart::new(job.starts)
        .vcycles(job.vcycles)
        .ensemble(job.ensemble)
        .objective(job.objective)
        .run_parallel(
            &job.hg,
            &job.fixed,
            balance,
            job.threads,
            job.seed,
            &engine,
            sink,
            sink,
            &CancelToken::never(),
        )
        .map(|o| o.best.parts)
}

fn warm<S: Sink>(
    job: &JobRequest,
    balance: &BalanceConstraint,
    seed: &[PartId],
    sink: &S,
) -> Result<Vec<PartId>, PartitionError> {
    let mut rng = ChaCha8Rng::seed_from_u64(job.seed);
    refine_from_partition_ctx(
        &job.hg,
        &job.fixed,
        balance,
        seed,
        job.objective,
        WARM_MAX_PASSES,
        RunCtx::new(&mut rng)
            .with_sink(sink)
            .with_threads(job.threads),
    )
    .map(|o| o.result.parts)
}

/// The serving layers re-timed from outside by replaying a session's
/// requests through the service's public functions.
#[derive(Default)]
struct Replay {
    decode: Vec<f64>,
    key: Vec<f64>,
    encode: Vec<f64>,
    overhead: Vec<f64>,
    cold: Vec<f64>,
    warm: Vec<f64>,
    plain: Vec<f64>,
    traced: Vec<f64>,
    vcycle: Vec<f64>,
    kway: Vec<f64>,
    solved: u64,
    fm_passes: u64,
    fm_tried: u64,
    fm_committed: u64,
    fm_bucket_ops: u64,
    kway_passes: u64,
    rounds: u64,
}

impl Replay {
    /// Replays every answered request of `s`: decode, cache key, the solve
    /// untraced and then traced, and the response encoding. Returns the
    /// number of requests whose replay disagreed with the service.
    fn session(&mut self, s: &Session, first: bool) -> u64 {
        let mut store: HashMap<String, Vec<PartId>> = HashMap::new();
        let mut failures = 0;
        for e in &s.exchanges {
            let Some(reply) = &e.reply else {
                continue; // already failed by the verdict
            };
            if !self.request(e, reply, &mut store, first) {
                failures += 1;
            }
        }
        failures
    }

    fn request(
        &mut self,
        e: &Exchange,
        reply: &Reply,
        store: &mut HashMap<String, Vec<PartId>>,
        first: bool,
    ) -> bool {
        let t = Instant::now();
        let parsed = parse_request(&e.sent);
        let decode_ms = ms(t.elapsed());
        let Ok(Request::Job(job)) = parsed else {
            return false;
        };
        let balance = BalanceConstraint::even(
            job.k,
            job.hg.total_weights(),
            Tolerance::Relative(job.tolerance),
        );
        let t = Instant::now();
        let key = match &job.warm_from {
            Some(sid) => cache_key(
                &format!("warm:{sid}:{}", job.engine),
                job.k,
                job.tolerance,
                job.starts,
                job.seed,
                job.threads >= 2,
                0,
                false,
                job.objective,
                job.part_capacities.as_ref(),
                &job.hg,
                &job.fixed,
            ),
            None => cache_key(
                &job.engine,
                job.k,
                job.tolerance,
                job.starts,
                job.seed,
                job.starts == 1 && job.threads >= 2,
                job.vcycles,
                job.ensemble,
                job.objective,
                job.part_capacities.as_ref(),
                &job.hg,
                &job.fixed,
            ),
        };
        let key_ms = ms(t.elapsed());
        std::hint::black_box(key);

        let seed = match &job.warm_from {
            Some(sid) => match store.get(sid) {
                Some(p) => Some(p.clone()),
                None => return false,
            },
            None => None,
        };
        let (parts, solve_ms) = if e.class == Class::Hit {
            match store.get(&reply.solution_id) {
                Some(p) => (p.clone(), 0.0),
                None => return false,
            }
        } else {
            let t = Instant::now();
            let plain = match &seed {
                Some(seed) => warm(&job, &balance, seed, &NullSink),
                None => cold(&job, &balance, &NullSink),
            };
            let plain_ms = ms(t.elapsed());
            let stamps = StampSink::default();
            let counters = CounterSink::new();
            let tee = Tee::new(&stamps, &counters);
            let t0 = Instant::now();
            let traced = match &seed {
                Some(seed) => warm(&job, &balance, seed, &tee),
                None => cold(&job, &balance, &tee),
            };
            let traced_ms = ms(t0.elapsed());
            let (Ok(plain), Ok(traced)) = (plain, traced) else {
                return false;
            };
            if plain != traced {
                return false;
            }
            let split = split(t0, &stamps.take());
            self.plain.push(plain_ms);
            self.traced.push(traced_ms);
            self.kway.push(split.kway_ms);
            if seed.is_some() {
                self.warm.push(plain_ms);
            } else {
                self.cold.push(plain_ms);
                self.vcycle.push(split.vcycle_ms);
            }
            if first {
                let c = counters.snapshot();
                self.solved += 1;
                self.fm_passes += c.passes;
                self.fm_tried += c.moves_tried.saturating_sub(split.kway_moves);
                self.fm_committed += c.moves_committed.saturating_sub(split.kway_kept);
                self.fm_bucket_ops += c.bucket_ops.saturating_sub(split.kway_bucket_ops);
                self.kway_passes += c.kway_passes;
                self.rounds += c.rounds;
            }
            (plain, plain_ms)
        };

        let cs = CutState::new(&job.hg, job.k, &parts);
        let response = JobResponse {
            id: job.id.clone(),
            cut: cs.value(Objective::Cut),
            km1: cs.value(Objective::KMinus1),
            parts: parts.iter().map(|p| p.0).collect(),
            cache_hit: e.class == Class::Hit,
            deadline_expired: false,
            starts_run: job.starts,
            micros: 0,
            solution_id: Some(reply.solution_id.clone()),
            warm: job.warm_from.as_ref().map(|_| "hit"),
        };
        let t = Instant::now();
        let line = response.to_line();
        let encode_ms = ms(t.elapsed());
        std::hint::black_box(line);

        self.decode.push(decode_ms);
        self.key.push(key_ms);
        self.encode.push(encode_ms);
        self.overhead
            .push(e.lat_ms - decode_ms - key_ms - solve_ms - encode_ms);
        let agrees = parts == reply.parts && response.cut == reply.cut;
        store.insert(reply.solution_id.clone(), parts);
        agrees
    }

    fn report(&self, m: &mut Metrics) {
        let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
        let per_job = |x: u64| x as f64 / self.solved.max(1) as f64;
        m.set("protocol.decode_ms", med(&self.decode));
        m.set("protocol.encode_ms", med(&self.encode));
        m.set("cache.key_ms", med(&self.key));
        m.set("warmstart.ms", med(&self.warm));
        m.set("multistart.solve_ms", med(&self.cold));
        m.set("quality.vcycle_ms", med(&self.vcycle));
        m.set("service.overhead_ms", med(&self.overhead));
        m.set("kway.refine_ms", med(&self.kway));
        m.set("kway.passes", per_job(self.kway_passes));
        m.set("parallel.rounds", per_job(self.rounds));
        m.set("fm.passes", per_job(self.fm_passes));
        m.set("fm.moves_tried", per_job(self.fm_tried));
        m.set("fm.moves_committed", per_job(self.fm_committed));
        m.set("fm.bucket_ops", per_job(self.fm_bucket_ops));
        m.set(
            "fm.useful_move_ratio",
            if self.fm_tried == 0 {
                0.0
            } else {
                self.fm_committed as f64 / self.fm_tried as f64
            },
        );
        if let (Some(t), Some(p)) = (median(&self.traced), median(&self.plain)) {
            m.set("trace.overhead_pct", 100.0 * (t / p - 1.0));
        }
    }
}

/// Runs the `serve-eco` workload: a fixed number of script passes sized by
/// `opts.seconds`, each on a freshly started service (a traced run replays
/// every pass, so it runs half as many).
pub fn run(dir: &Path, opts: &Opts) -> Result<Outcome, String> {
    let script = load(dir)?;
    let mut refs = RefLoop::new();
    let cpu_before = CpuTimes::now();
    let mut setup = Vec::new();
    for _ in 0..SETUP_CYCLES {
        setup.push(session(&script, 1, &mut refs, false)?.setup_s);
    }

    let mut out = Outcome::default();
    let mut replay = Replay::default();
    let (mut lat, mut norm, mut refs_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_class: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut cuts: Vec<Option<u64>> = vec![None; script.steps.len()];
    let mut metrics_line = String::new();
    let passes = ((opts.seconds / SECONDS_PER_PASS) as usize >> usize::from(opts.trace)).max(1);
    for pass in 0..passes {
        let s = session(&script, script.steps.len(), &mut refs, opts.trace)?;
        setup.push(s.setup_s);
        for e in &s.exchanges {
            out.attempted += 1;
            let repeats = e
                .reply
                .as_ref()
                .is_some_and(|r| *cuts[e.step].get_or_insert(r.cut) == r.cut);
            if !(repeats && verdict(e, &script)) {
                eprintln!("request {}: unexpected answer", script.steps[e.step].id);
                out.failed += 1;
                continue;
            }
            lat.push(e.lat_ms);
            norm.push(norm_ratio(e.lat_ms, e.ref_ms).ok_or("reference loop took no time")?);
            let class = match e.class {
                Class::Cold => "cold",
                Class::Warm => "warm",
                Class::Hit => "hit",
            };
            by_class.entry(class).or_default().push(e.lat_ms);
        }
        refs_ms.extend(s.exchanges.iter().map(|e| e.ref_ms));
        if opts.trace {
            out.failed += replay.session(&s, pass == 0);
        }
        metrics_line = s.metrics_line;
    }
    let steal = steal_pct(cpu_before, CpuTimes::now());
    let ref_med = median(&refs_ms).unwrap_or(0.0);
    println!(
        "host: ref_ms={ref_med} steal_pct={steal} requests={} failed={}",
        out.attempted, out.failed
    );
    println!(
        "latency p50: {} ms over {} samples",
        median(&lat).unwrap_or(0.0),
        lat.len()
    );
    let tail = highest_tail(&lat);
    match tail {
        Some(t) if t.pct >= 90.0 => println!(
            "latency p90: {} ms ({} samples, {} beyond)",
            t.value, t.samples, t.beyond
        ),
        _ => println!(
            "latency p90: not reported ({} samples, fewer than 10 beyond p90)",
            lat.len()
        ),
    }

    let m = &mut out.metrics;
    if opts.trace {
        replay.report(m);
        let class_p50 = |c: &str| by_class.get(c).and_then(|xs| median(xs)).unwrap_or(0.0);
        m.set("service.cold_p50_ms", class_p50("cold"));
        m.set("service.warm_p50_ms", class_p50("warm"));
        m.set("service.hit_p50_ms", class_p50("hit"));
        let count = |key: &str| number_field(&metrics_line, key).unwrap_or(0) as f64;
        let (hits, misses) = (count("\"cache_hits\":"), count("\"cache_misses\":"));
        m.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
        m.set("service.sheds", count("\"sheds\":"));
        m.set("service.jobs_failed", count("\"jobs_failed\":"));
        let (hg, fixed) = (&script.versions[&(0, 0)].hg, &script.fixed[0]);
        let input = Input {
            balance: script.versions[&(0, 0)].balance.clone(),
            hg: hg.clone(),
            fixed: fixed.clone(),
            k: 2,
        };
        m.set("parallel.coarsen_speedup", coarsen_speedup(&input));
        if let Some(t) = tail {
            m.set("latency.tail_pct", t.pct);
            m.set("latency.tail_ms", t.value);
        }
        m.set("latency.p50_ms", median(&lat).unwrap_or(0.0));
        m.set("latency.samples", lat.len() as f64);
        m.set("host.ref_ms", ref_med);
        m.set("host.steal_pct", steal);
    } else {
        let first: Vec<u64> = cuts.iter().flatten().copied().collect();
        if let (Some(s), Some(n)) = (median(&setup), median(&norm)) {
            m.set("setup_s", s);
            m.set("latency_p50_norm", n);
        }
        if !first.is_empty() {
            m.set("cut", first.iter().sum::<u64>() as f64 / first.len() as f64);
        }
        m.set("peak_rss_mib", peak_rss_mib().ok_or("VmHWM unavailable")?);
    }
    Ok(out)
}
