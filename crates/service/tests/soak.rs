//! TCP soak tests for the epoll front end and the warm-start path.
//!
//! Three gates from the scale-out issue:
//!
//! 1. Warm-start jobs on an instance with a substantial fixed fraction
//!    must run **strictly fewer** k-way refinement passes than identical
//!    cold jobs (measured through the engine counters in the metrics
//!    snapshot) and serve at a lower per-engine p50.
//! 2. A bounded concurrent soak (several connections, mixed cold/warm
//!    traffic) must finish without errors within a generous p99 bound.
//! 3. Responses must be byte-identical (modulo the timing field) across
//!    1/2/4/8 worker threads — the event loop and worker count must never
//!    leak into results.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use vlsi_service::json::{self, Json};
use vlsi_service::{serve_tcp, MetricsSnapshot, ServiceConfig};

const K: usize = 4;
const TOLERANCE: f64 = 0.2;

/// A ring with deterministic chords and every fifth vertex fixed
/// round-robin over the parts: 20% fixed, enough connectivity that a cold
/// multilevel run does real refinement work.
fn instance_json(n: usize) -> String {
    let vertices = vec!["1"; n].join(",");
    let mut nets: Vec<String> = (0..n).map(|i| format!("[{},{}]", i, (i + 1) % n)).collect();
    for i in 0..n / 2 {
        let a = (i * 13 + 5) % n;
        let b = (a + n / 3 + (i % 7)) % n;
        if a != b {
            nets.push(format!("[{a},{b}]"));
        }
    }
    let fixed: Vec<String> = (0..n)
        .map(|i| {
            if i % 5 == 0 {
                ((i / 5) % K).to_string()
            } else {
                "-1".to_string()
            }
        })
        .collect();
    format!(
        r#""hypergraph":{{"vertices":[{}],"nets":[{}]}},"fixed":[{}]"#,
        vertices,
        nets.join(","),
        fixed.join(",")
    )
}

/// One synchronous line-protocol client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        // The accept loop may not be up yet — retry briefly.
        for _ in 0..200 {
            if let Ok(s) = TcpStream::connect(addr) {
                s.set_nodelay(true).expect("nodelay");
                let reader = BufReader::new(s.try_clone().expect("clone stream"));
                return Client { writer: s, reader };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("could not connect to {addr}");
    }

    fn send_raw(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("send request");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        assert!(!resp.is_empty(), "server closed mid-request");
        resp.trim().to_string()
    }

    fn send(&mut self, line: &str) -> Json {
        let raw = self.send_raw(line);
        json::parse(&raw).expect("response is valid JSON")
    }

    fn metrics(&mut self) -> Json {
        self.send(r#"{"op":"metrics"}"#)
    }

    fn shutdown(mut self) {
        let ack = self.send(r#"{"op":"shutdown"}"#);
        assert_eq!(ack.get("op").and_then(|v| v.as_str()), Some("shutdown"));
        // Drain to EOF: the server closes once the drain completes.
        let mut rest = String::new();
        while self.reader.read_line(&mut rest).expect("drain") > 0 {
            rest.clear();
        }
    }
}

fn spawn_server(config: ServiceConfig) -> (SocketAddr, std::thread::JoinHandle<MetricsSnapshot>) {
    let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
    let addr = probe.local_addr().expect("addr");
    drop(probe);
    let handle =
        std::thread::spawn(move || serve_tcp(config, addr).expect("serve_tcp runs to shutdown"));
    (addr, handle)
}

fn engine_counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("metrics")
        .and_then(|m| m.get("engine"))
        .and_then(|e| e.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("metrics line has engine counter {name}"))
}

fn engine_p50(metrics: &Json, engine: &str) -> u64 {
    metrics
        .get("metrics")
        .and_then(|m| m.get("engines"))
        .and_then(|e| e.get(engine))
        .and_then(|l| l.get("p50_us"))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("metrics line has a latency entry for {engine}"))
}

#[test]
fn warm_start_runs_fewer_passes_and_serves_faster_than_cold() {
    const JOBS: usize = 10;
    let (addr, server) = spawn_server(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(addr);
    // A cold run takes one k-way pass per uncoarsening level; a warm start
    // takes one pass in total. So warm jobs refine strictly less only if
    // the cold runs have at least two levels: the 240-vertex instance must
    // coarsen at least once.
    let inst = instance_json(240);

    let passes_before = engine_counter(&client.metrics(), "kway_passes");

    // Cold phase: distinct seeds so every job really runs the engine.
    let mut sids = Vec::new();
    for i in 0..JOBS {
        let resp = client.send(&format!(
            r#"{{"id":"c{i}","engine":"kway","k":{K},"tolerance":{TOLERANCE},"seed":{},{inst}}}"#,
            1000 + i
        ));
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"), "{resp:?}");
        assert_eq!(resp.get("cache_hit").unwrap().as_bool(), Some(false));
        assert!(
            resp.get("warm").is_none(),
            "cold responses carry no warm note"
        );
        sids.push(
            resp.get("solution_id")
                .and_then(|v| v.as_str())
                .expect("completed cold run returns a solution id")
                .to_string(),
        );
    }
    let after_cold = client.metrics();
    let cold_passes = engine_counter(&after_cold, "kway_passes") - passes_before;
    assert!(cold_passes > 0, "cold jobs must do refinement work");

    // Warm phase: the same instances, each seeded from its cold solution.
    for (i, sid) in sids.iter().enumerate() {
        let resp = client.send(&format!(
            r#"{{"id":"w{i}","engine":"kway","k":{K},"tolerance":{TOLERANCE},"seed":{},"warm_start":{{"solution_id":"{sid}"}},{inst}}}"#,
            1000 + i
        ));
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"), "{resp:?}");
        assert_eq!(
            resp.get("warm").unwrap().as_str(),
            Some("hit"),
            "the seed is cached, so this must be a warm hit"
        );
        assert!(resp.get("solution_id").is_some());
    }
    let after_warm = client.metrics();
    let warm_passes =
        engine_counter(&after_warm, "kway_passes") - engine_counter(&after_cold, "kway_passes");
    assert_eq!(
        engine_counter(&after_warm, "warm_starts"),
        JOBS as u64,
        "every warm job records one warm-start event"
    );
    assert!(
        warm_passes < cold_passes,
        "warm starts must refine strictly less: warm {warm_passes} vs cold {cold_passes} passes"
    );
    assert!(
        engine_p50(&after_warm, "warm:kway") < engine_p50(&after_warm, "kway"),
        "warm p50 {} must beat cold p50 {}",
        engine_p50(&after_warm, "warm:kway"),
        engine_p50(&after_warm, "kway")
    );

    client.shutdown();
    let snapshot = server.join().expect("server thread");
    assert_eq!(snapshot.jobs_ok, 2 * JOBS as u64);
    assert_eq!(snapshot.jobs_failed, 0);
    assert_eq!(snapshot.engine.warm_starts, JOBS as u64);
}

#[test]
fn concurrent_mixed_soak_stays_clean_and_bounded() {
    const CONNS: usize = 8;
    const REQS: usize = 6;
    let (addr, server) = spawn_server(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });

    let t0 = Instant::now();
    let latencies: Vec<Vec<Duration>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let inst = instance_json(96);
                    let mut lat = Vec::with_capacity(REQS);
                    let mut sid: Option<String> = None;
                    for i in 0..REQS {
                        // Alternate cold and warm once a solution exists;
                        // interactive lane for the warm (incremental) jobs.
                        let req = match (&sid, i % 2) {
                            (Some(s), 1) => format!(
                                r#"{{"id":"s{c}-{i}","engine":"kway","k":{K},"tolerance":{TOLERANCE},"seed":{},"priority":"interactive","warm_start":{{"solution_id":"{s}"}},{inst}}}"#,
                                c * 100 + i
                            ),
                            _ => format!(
                                r#"{{"id":"s{c}-{i}","engine":"kway","k":{K},"tolerance":{TOLERANCE},"seed":{},{inst}}}"#,
                                c * 100 + i
                            ),
                        };
                        let start = Instant::now();
                        let resp = client.send(&req);
                        lat.push(start.elapsed());
                        assert_eq!(
                            resp.get("status").unwrap().as_str(),
                            Some("ok"),
                            "soak request failed: {resp:?}"
                        );
                        if let Some(s) = resp.get("solution_id").and_then(|v| v.as_str()) {
                            sid = Some(s.to_string());
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conn"))
            .collect()
    });
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "soak wall clock exploded"
    );

    let mut all: Vec<Duration> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(all.len(), CONNS * REQS);
    // Generous absolute bound: p99 of a 48-request soak of ~100-vertex
    // jobs must stay interactive even on a loaded CI machine.
    let p99 = all[(all.len() * 99).div_ceil(100).min(all.len()) - 1];
    assert!(p99 < Duration::from_secs(5), "p99 {p99:?} out of bounds");

    Client::connect(addr).shutdown();
    let snapshot = server.join().expect("server thread");
    assert_eq!(snapshot.jobs_ok, (CONNS * REQS) as u64);
    assert_eq!(snapshot.jobs_failed, 0);
    assert!(snapshot.p99_us >= snapshot.p50_us);
}

/// Strips the only nondeterministic response field (wall-clock micros).
fn normalize(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(pos) = rest.find("\"micros\":") {
        let (head, tail) = rest.split_at(pos);
        out.push_str(head);
        out.push_str("\"micros\":0");
        let digits_start = "\"micros\":".len();
        let digits_end = tail[digits_start..]
            .find(|c: char| !c.is_ascii_digit())
            .map(|off| digits_start + off)
            .unwrap_or(tail.len());
        rest = &tail[digits_end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn responses_are_byte_identical_across_worker_counts() {
    let inst = instance_json(72);
    let script: Vec<String> = {
        let mut lines = Vec::new();
        for i in 0..4 {
            lines.push(format!(
                r#"{{"id":"c{i}","engine":"kway","k":{K},"tolerance":{TOLERANCE},"seed":{i},{inst}}}"#
            ));
        }
        // Warm continuations, one per cold job, at threads 1 on the first
        // two and threads 2 on the last two.
        lines
    };

    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (addr, server) = spawn_server(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });
        let mut client = Client::connect(addr);
        let mut transcript = Vec::new();
        let mut sids = Vec::new();
        for line in &script {
            let raw = client.send_raw(line);
            let resp = json::parse(&raw).expect("valid response");
            assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"), "{raw}");
            sids.push(
                resp.get("solution_id")
                    .and_then(|v| v.as_str())
                    .expect("solution id")
                    .to_string(),
            );
            transcript.push(normalize(&raw));
        }
        for (i, sid) in sids.iter().enumerate() {
            let threads = if i >= 2 { 2 } else { 1 };
            let raw = client.send_raw(&format!(
                r#"{{"id":"w{i}","engine":"kway","k":{K},"tolerance":{TOLERANCE},"seed":{i},"threads":{threads},"warm_start":{{"solution_id":"{sid}"}},{inst}}}"#
            ));
            let resp = json::parse(&raw).expect("valid response");
            assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"), "{raw}");
            transcript.push(normalize(&raw));
        }
        client.shutdown();
        server.join().expect("server thread");
        transcripts.push(transcript);
    }

    for other in &transcripts[1..] {
        assert_eq!(
            &transcripts[0], other,
            "responses (including solution ids) must not depend on the worker count"
        );
    }
}
