//! End-to-end service test over the in-process stdio transport.
//!
//! One worker, one connection, a scripted batch of requests covering the
//! whole protocol surface: a fresh solve, an identical duplicate (must be
//! answered from the content-addressed cache), a zero-deadline job (must
//! return a *valid* best-so-far partition flagged `deadline_expired`, and
//! must never be cached), malformed requests, and a metrics query. Every
//! successful response is re-validated against the balance and fixity
//! invariants by the independent referee.

use std::io::Cursor;

use vlsi_hypergraph::{
    validate_partitioning, BalanceConstraint, FixedVertices, Fixity, HypergraphBuilder, PartId,
    Partitioning, Tolerance, VertexId,
};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_service::json::{self, Json};
use vlsi_service::{ServeOutcome, Service, ServiceConfig};

const N: usize = 40;
const TOLERANCE: f64 = 0.1;

/// The test instance as both JSON (for the wire) and a built hypergraph
/// (for the referee): a 40-vertex chain with the ends fixed apart.
fn instance_json() -> String {
    let vertices = vec!["1"; N].join(",");
    let nets: Vec<String> = (0..N - 1).map(|i| format!("[{},{}]", i, i + 1)).collect();
    let mut fixed = vec!["-1".to_string(); N];
    fixed[0] = "0".to_string();
    fixed[N - 1] = "1".to_string();
    format!(
        r#""hypergraph":{{"vertices":[{}],"nets":[{}]}},"fixed":[{}]"#,
        vertices,
        nets.join(","),
        fixed.join(",")
    )
}

fn referee() -> (
    vlsi_hypergraph::Hypergraph,
    FixedVertices,
    BalanceConstraint,
) {
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..N).map(|_| b.add_vertex(1)).collect();
    for w in v.windows(2) {
        b.add_net(1, [w[0], w[1]]).unwrap();
    }
    let hg = b.build().unwrap();
    let mut fixed = FixedVertices::all_free(N);
    fixed.fix(VertexId::from_index(0), PartId::from_index(0));
    fixed.fix(VertexId::from_index(N - 1), PartId::from_index(1));
    let balance = BalanceConstraint::even(2, hg.total_weights(), Tolerance::Relative(TOLERANCE));
    (hg, fixed, balance)
}

fn assert_legal_response(resp: &Json) {
    let (hg, fixed, balance) = referee();
    let parts: Vec<PartId> = resp
        .get("parts")
        .and_then(|p| p.as_arr())
        .expect("ok response has parts")
        .iter()
        .map(|p| PartId::from_index(p.as_u64().expect("part id") as usize))
        .collect();
    let p = Partitioning::from_parts(&hg, 2, parts).expect("well-formed assignment");
    let report = validate_partitioning(&hg, &p, &balance, &fixed);
    assert!(report.is_valid(), "response violates invariants: {report}");
    assert_eq!(
        report.recomputed_cut,
        resp.get("cut").and_then(|c| c.as_u64()).expect("cut"),
        "reported cut must match the independently recomputed cut"
    );
}

#[test]
fn stdio_session_covers_cache_deadline_and_errors() {
    let trace_path = std::env::temp_dir().join(format!(
        "vlsi-service-e2e-{}-trace.jsonl",
        std::process::id()
    ));
    let service = Service::start(ServiceConfig {
        workers: 1, // sequential job order makes the duplicate a guaranteed hit
        trace_path: Some(trace_path.clone()),
        ..ServiceConfig::default()
    })
    .expect("service starts");

    let inst = instance_json();
    let requests = [
        // Fresh solve.
        format!(
            r#"{{"id":"j1","engine":"ml","starts":2,"seed":5,"tolerance":{TOLERANCE},{inst}}}"#
        ),
        // Byte-different JSON, identical content: must hit the cache.
        format!(
            r#"{{ "starts": 2, "seed": 5, "tolerance": {TOLERANCE}, "engine": "multilevel", "id": "j2", {inst} }}"#
        ),
        // Already-expired deadline: best-so-far, flagged, never cached.
        format!(
            r#"{{"id":"j3","engine":"ml","starts":4,"seed":77,"tolerance":{TOLERANCE},"deadline_ms":0,{inst}}}"#
        ),
        // Duplicate of the expired job: expired runs are not cached.
        format!(
            r#"{{"id":"j4","engine":"ml","starts":4,"seed":77,"tolerance":{TOLERANCE},"deadline_ms":0,{inst}}}"#
        ),
        // Malformed JSON and a structurally invalid job.
        "{this is not json".to_string(),
        r#"{"id":"j5","hypergraph":{"vertices":[1,1],"nets":[[0,9]]}}"#.to_string(),
        // Metrics is answered inline (possibly before jobs finish).
        r#"{"op":"metrics"}"#.to_string(),
    ];
    let input = requests.join("\n") + "\n";

    let mut out = Vec::new();
    let outcome = service
        .serve(Cursor::new(input), &mut out)
        .expect("session runs");
    assert_eq!(outcome, ServeOutcome::Eof);

    let cache = service.cache_stats();
    let snapshot = service.shutdown();

    // The trace sink was flushed on graceful shutdown: the deadline jobs
    // recorded cancellation events, the others their start brackets.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file exists");
    assert!(
        trace.lines().any(|l| l.contains("\"ev\":\"start\"")),
        "trace records start events: {trace:?}"
    );
    assert!(
        trace.lines().any(|l| l.contains("\"ev\":\"cancelled\"")),
        "trace records the deadline cancellations: {trace:?}"
    );
    std::fs::remove_file(&trace_path).ok();

    let text = String::from_utf8(out).expect("utf8 output");
    let responses: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).expect("valid JSON"))
        .collect();
    assert_eq!(responses.len(), requests.len(), "one response per request");
    let by_id = |id: &str| {
        responses
            .iter()
            .find(|r| r.get("id").and_then(|v| v.as_str()) == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}"))
    };

    // j1: fresh solve.
    let j1 = by_id("j1");
    assert_eq!(j1.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(j1.get("cache_hit").unwrap().as_bool(), Some(false));
    assert_eq!(j1.get("deadline_expired").unwrap().as_bool(), Some(false));
    assert_eq!(j1.get("starts_run").unwrap().as_u64(), Some(2));
    assert_legal_response(j1);

    // j2: same content, different formatting — a cache hit with the same
    // solution.
    let j2 = by_id("j2");
    assert_eq!(j2.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        j2.get("cache_hit").unwrap().as_bool(),
        Some(true),
        "identical content must be answered from the cache"
    );
    assert_eq!(j2.get("cut"), j1.get("cut"));
    assert_eq!(j2.get("parts"), j1.get("parts"));
    assert_legal_response(j2);

    // j3: zero deadline — flagged best-so-far, still a legal partition.
    let j3 = by_id("j3");
    assert_eq!(j3.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(j3.get("deadline_expired").unwrap().as_bool(), Some(true));
    assert_eq!(j3.get("cache_hit").unwrap().as_bool(), Some(false));
    assert_eq!(
        j3.get("starts_run").unwrap().as_u64(),
        Some(1),
        "an expired deadline still runs exactly the guaranteed first start"
    );
    assert_legal_response(j3);

    // j4: re-submitting the expired job misses the cache again.
    let j4 = by_id("j4");
    assert_eq!(j4.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        j4.get("cache_hit").unwrap().as_bool(),
        Some(false),
        "deadline-expired solutions must never be cached"
    );
    assert_eq!(j4.get("deadline_expired").unwrap().as_bool(), Some(true));
    assert_legal_response(j4);

    // Malformed lines got structured errors.
    let errors: Vec<&Json> = responses
        .iter()
        .filter(|r| r.get("status").and_then(|s| s.as_str()) == Some("error"))
        .collect();
    assert_eq!(errors.len(), 2);
    assert!(errors
        .iter()
        .any(|e| e.get("code").unwrap().as_str() == Some("bad_json")));
    let j5 = by_id("j5");
    assert_eq!(j5.get("code").unwrap().as_str(), Some("bad_request"));

    // The inline metrics response is well-formed.
    let metrics_resp = responses
        .iter()
        .find(|r| r.get("metrics").is_some())
        .expect("metrics response");
    assert!(metrics_resp.get("metrics").unwrap().get("engine").is_some());

    // Final counters (after shutdown, so every job is accounted for).
    assert_eq!(snapshot.jobs_ok, 4);
    assert_eq!(snapshot.jobs_failed, 0);
    assert_eq!(snapshot.cache_hits, 1);
    assert_eq!(snapshot.cache_misses, 3);
    assert_eq!(snapshot.deadline_expirations, 2);
    assert_eq!(snapshot.protocol_errors, 2);
    assert!(snapshot.p99_us >= snapshot.p50_us);
    assert_eq!(cache.hits, 1);
    assert_eq!(cache.entries, 1, "only the completed run was cached");
    // At least the multistart-summary cancellation of each deadline job;
    // the instrumented driver additionally counts the engines' internal
    // cancellation checkpoints.
    assert!(
        snapshot.engine.cancellations >= 2,
        "each deadline job records its cancellation: {}",
        snapshot.engine.cancellations
    );
}

#[test]
fn kway_jobs_at_different_thread_counts_share_one_cache_entry() {
    // No answer depends on the thread count, so the same single-start
    // k-way job at threads 1 and then 2 is one cache entry.
    let service = Service::start(ServiceConfig {
        workers: 1, // sequential job order makes the second job a guaranteed hit
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let inst = instance_json();
    let job = |id: &str, threads: usize| {
        format!(
            r#"{{"id":"{id}","engine":"kway","k":4,"starts":1,"seed":3,"threads":{threads},"tolerance":{TOLERANCE},{inst}}}"#
        )
    };
    let input = format!("{}\n{}\n", job("t1", 1), job("t2", 2));
    let mut out = Vec::new();
    service
        .serve(Cursor::new(input), &mut out)
        .expect("session runs");
    service.shutdown();

    let text = String::from_utf8(out).expect("utf8 output");
    let responses: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).expect("valid JSON"))
        .collect();
    let by_id = |id: &str| {
        responses
            .iter()
            .find(|r| r.get("id").and_then(|v| v.as_str()) == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}: {text}"))
    };
    let (first, second) = (by_id("t1"), by_id("t2"));
    for r in [first, second] {
        assert_eq!(
            r.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "{text}"
        );
    }
    assert_eq!(
        first.get("cache_hit").and_then(|h| h.as_bool()),
        Some(false)
    );
    assert_eq!(
        second.get("cache_hit").and_then(|h| h.as_bool()),
        Some(true),
        "threads 2 must be answered from the threads 1 entry"
    );
    assert_eq!(first.get("parts"), second.get("parts"));
}

#[test]
fn kway_job_with_fixed_vertices_gets_a_legal_answer() {
    // A netgen circuit with every tenth vertex fixed round-robin: the
    // direct k-way engine's coarsest even split comes back over capacity
    // here, and the job must still be answered with a legal partition,
    // never `internal_error`.
    let k = 4;
    let hg = ibm01_like_scaled(0.04, 7).hypergraph;
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for v in hg.vertices().step_by(10) {
        fixed.fix(v, PartId::from_index(v.index() / 10 % k));
    }
    let list = |items: Vec<String>| items.join(",");
    let vertices = list(
        hg.vertices()
            .map(|v| hg.vertex_weight(v).to_string())
            .collect(),
    );
    let nets = list(
        hg.nets()
            .map(|n| {
                let pins = list(
                    hg.net_pins(n)
                        .iter()
                        .map(|p| p.index().to_string())
                        .collect(),
                );
                format!(r#"{{"w":{},"pins":[{pins}]}}"#, hg.net_weight(n))
            })
            .collect(),
    );
    let fixities = list(
        hg.vertices()
            .map(|v| match fixed.fixity(v) {
                Fixity::Fixed(p) => p.index().to_string(),
                _ => "-1".to_string(),
            })
            .collect(),
    );
    let job = format!(
        r#"{{"id":"k4","engine":"kway","k":{k},"starts":1,"seed":1999,"tolerance":{TOLERANCE},"hypergraph":{{"vertices":[{vertices}],"nets":[{nets}]}},"fixed":[{fixities}]}}"#
    );
    let service = Service::start(ServiceConfig::default()).expect("service starts");
    let mut out = Vec::new();
    service
        .serve(Cursor::new(format!("{job}\n")), &mut out)
        .expect("session runs");
    service.shutdown();

    let text = String::from_utf8(out).expect("utf8 output");
    let resp = json::parse(text.lines().next().expect("one response")).expect("valid JSON");
    assert_eq!(
        resp.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{text}"
    );
    let parts: Vec<PartId> = resp
        .get("parts")
        .and_then(|p| p.as_arr())
        .expect("ok response has parts")
        .iter()
        .map(|p| PartId::from_index(p.as_u64().expect("part id") as usize))
        .collect();
    let balance = BalanceConstraint::even(k, hg.total_weights(), Tolerance::Relative(TOLERANCE));
    let p = Partitioning::from_parts(&hg, k, parts).expect("well-formed assignment");
    let report = validate_partitioning(&hg, &p, &balance, &fixed);
    assert!(report.is_valid(), "response violates invariants: {report}");
    assert_eq!(
        report.recomputed_cut,
        resp.get("cut").and_then(|c| c.as_u64()).expect("cut")
    );
}

#[test]
fn a_net_too_heavy_for_the_gain_buckets_gets_an_error_line_from_a_live_worker() {
    // An 8-vertex cycle whose closing net weighs 2^40: every gain-bucket
    // engine refuses it, and the one worker answers the next job.
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let mut nets: Vec<String> = (0..7).map(|i| format!("[{},{}]", i, i + 1)).collect();
    nets.push(format!(r#"{{"w":{},"pins":[7,0]}}"#, 1u64 << 40));
    let heavy = |id: &str, engine: &str| {
        format!(
            r#"{{"id":"{id}","engine":"{engine}","starts":2,"seed":3,"hypergraph":{{"vertices":[1,1,1,1,1,1,1,1],"nets":[{}]}}}}"#,
            nets.join(",")
        )
    };
    let input = format!(
        "{}\n{}\n{}\n",
        heavy("ml", "ml"),
        heavy("fm", "fm"),
        r#"{"id":"after","engine":"ml","starts":1,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
    );
    let mut out = Vec::new();
    service
        .serve(Cursor::new(input), &mut out)
        .expect("session runs");
    let snapshot = service.shutdown();

    let text = String::from_utf8(out).unwrap();
    let responses: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).expect("valid JSON"))
        .collect();
    let field = |r: &Json, key: &str| r.get(key).and_then(|v| v.as_str()).map(str::to_string);
    for id in ["ml", "fm"] {
        let r = responses
            .iter()
            .find(|r| field(r, "id").as_deref() == Some(id))
            .expect("answered");
        assert_eq!(field(r, "status").as_deref(), Some("error"), "{text}");
        assert_eq!(field(r, "code").as_deref(), Some("bad_request"), "{text}");
        assert_eq!(
            field(r, "message").as_deref(),
            Some(
                "the nets of two or more pins of v0 weigh 1099511627777 in total, \
                 past the gain range's 1073741823"
            ),
        );
    }
    let after = responses
        .iter()
        .find(|r| field(r, "id").as_deref() == Some("after"))
        .expect("answered");
    assert_eq!(field(after, "status").as_deref(), Some("ok"), "{text}");
    assert_eq!((snapshot.jobs_ok, snapshot.jobs_failed), (1, 2));
    assert_eq!(snapshot.panics, 0);
}

#[test]
fn shutdown_op_ends_the_session_and_queued_jobs_still_answer() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let inst = instance_json();
    let input = format!(
        "{}\n{}\n{}\n",
        format_args!(
            r#"{{"id":"a","engine":"fm","starts":1,"seed":2,"tolerance":{TOLERANCE},{inst}}}"#
        ),
        r#"{"op":"shutdown"}"#,
        r#"{"id":"after","engine":"fm","starts":1,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
    );
    let mut out = Vec::new();
    let outcome = service
        .serve(Cursor::new(input), &mut out)
        .expect("session runs");
    assert_eq!(outcome, ServeOutcome::ShutdownRequested);
    let snapshot = service.shutdown();

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The job accepted before shutdown was answered; the line after the
    // shutdown request was never read.
    assert!(text.contains("\"id\":\"a\""));
    assert!(text.contains("\"op\":\"shutdown\""));
    assert!(!text.contains("\"id\":\"after\""));
    assert_eq!(lines.len(), 2);
    assert_eq!(snapshot.jobs_ok, 1);
}

#[test]
fn tcp_transport_round_trips() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    // Bind on an OS-assigned port, then hand the address to serve_tcp via
    // the listener's own local_addr.
    let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
    let addr = probe.local_addr().expect("addr");
    drop(probe);

    let server = std::thread::spawn(move || {
        vlsi_service::serve_tcp(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            addr,
        )
        .expect("serve_tcp runs")
    });

    // The accept loop may not be up yet — retry the connect briefly.
    let mut stream = None;
    for _ in 0..100 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let mut stream = stream.expect("connect to service");
    let inst = instance_json();
    writeln!(
        stream,
        r#"{{"id":"t1","engine":"fm","starts":1,"seed":9,"tolerance":{TOLERANCE},{inst}}}"#
    )
    .expect("send job");
    stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("send shutdown");

    // Responses may interleave: the shutdown acknowledgment is written
    // inline while the job is still running. Read until EOF and match by id.
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    let responses: Vec<Json> = reader
        .lines()
        .map(|l| json::parse(l.expect("read response").trim()).expect("valid response"))
        .collect();
    let resp = responses
        .iter()
        .find(|r| r.get("id").and_then(|v| v.as_str()) == Some("t1"))
        .expect("job response present");
    assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
    assert_legal_response(resp);
    assert!(responses
        .iter()
        .any(|r| r.get("op").and_then(|v| v.as_str()) == Some("shutdown")));

    let snapshot = server.join().expect("server thread");
    assert_eq!(snapshot.jobs_ok, 1);
}

#[test]
fn tcp_multi_mib_line_sent_in_small_chunks_is_answered() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
    let addr = probe.local_addr().expect("addr");
    drop(probe);

    let server = std::thread::spawn(move || {
        vlsi_service::serve_tcp(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            addr,
        )
        .expect("serve_tcp runs")
    });

    let mut stream = None;
    for _ in 0..100 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut stream = stream.expect("connect to service");
    stream.set_nodelay(true).expect("nodelay");

    // Whitespace between tokens pads the job line to 3 MiB; 4 KiB writes
    // with pauses make it arrive over many readiness events, each of
    // which must scan only the bytes it read.
    let inst = instance_json();
    let pad = " ".repeat(3 << 20);
    let line = format!(
        "{{\"id\":\"big\",{pad}\"engine\":\"fm\",\"starts\":1,\"seed\":9,\"tolerance\":{TOLERANCE},{inst}}}\n"
    );
    for (i, chunk) in line.as_bytes().chunks(4096).enumerate() {
        stream.write_all(chunk).expect("send chunk");
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("send shutdown");

    let reader = BufReader::new(stream.try_clone().expect("clone"));
    let responses: Vec<Json> = reader
        .lines()
        .map(|l| json::parse(l.expect("read response").trim()).expect("valid response"))
        .collect();
    let resp = responses
        .iter()
        .find(|r| r.get("id").and_then(|v| v.as_str()) == Some("big"))
        .expect("job response present");
    assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
    assert_legal_response(resp);

    let snapshot = server.join().expect("server thread");
    assert_eq!(snapshot.jobs_ok, 1);
}
