//! Golden service session: fixed-seed responses and trace pinned across
//! commits.
//!
//! One worker answers a scripted session over the stdio transport on a
//! netgen circuit with every tenth vertex fixed: a cold multilevel run
//! with a V-cycle and its exact repeat (a cache hit), direct k-way under
//! km1 on two threads, recursive bisection with ensemble recombination
//! (whose illegal answer the referee refuses), a warm start with a
//! netlist delta and its repeat, a warm start whose seed is unknown (the
//! cold fallback), a zero-deadline job, an infeasible job, an unknown
//! engine, and finally a metrics query. Each response line,
//! with `micros` and every `*_us` value masked, folds into one 64-bit
//! FNV-1a digest, and the JSONL trace file (with `micros` masked) into one
//! more. The session runs with and without a trace file and must answer
//! the same either way.
//!
//! A change that claims to leave the service's answers alone must leave
//! every digest unchanged. On a mismatch the test prints the recomputed
//! table, ready to paste over [`RESPONSES`] and [`TRACE`].

use std::io::Cursor;
use std::path::Path;

use vlsi_hypergraph::{FixedVertices, Fixity, Hypergraph, PartId};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_rng::fnv1a_64;
use vlsi_service::json::{self, Json};
use vlsi_service::{Service, ServiceConfig};

/// Recorded response digests, one per request, in session order.
const RESPONSES: &[(&str, u64)] = &[
    ("cold", 0xaad24c75dd5a1e2e),
    ("repeat", 0x13b2242688e5b15c),
    ("kway", 0xd18194294835d82d),
    ("rb", 0x5fa5d7f2040286fb),
    ("warm", 0xcc41234bb56b5938),
    ("warm-repeat", 0x1fc52cef21399630),
    ("warm-miss", 0xa22580f742492e25),
    ("deadline", 0x0e5f618b3598520b),
    ("infeasible", 0xb95c45b17b900d4d),
    ("unknown", 0x74f88a0bc4c8ccde),
    ("metrics", 0x8fc20112031124c6),
];

/// Recorded digest of the JSONL trace of the whole session.
const TRACE: u64 = 0xf494dde10eeb77be;

/// The request line of every vertex weight, net and fixity of `hg`.
fn instance_json(hg: &Hypergraph, fixed: &FixedVertices) -> String {
    let join = |items: Vec<String>| items.join(",");
    let vertices = join(
        hg.vertices()
            .map(|v| hg.vertex_weight(v).to_string())
            .collect(),
    );
    let nets = join(
        hg.nets()
            .map(|n| {
                let pins = join(
                    hg.net_pins(n)
                        .iter()
                        .map(|p| p.index().to_string())
                        .collect(),
                );
                format!(r#"{{"w":{},"pins":[{pins}]}}"#, hg.net_weight(n))
            })
            .collect(),
    );
    let fixities = join(
        hg.vertices()
            .map(|v| match fixed.fixity(v) {
                Fixity::Fixed(p) => p.index().to_string(),
                _ => "-1".to_string(),
            })
            .collect(),
    );
    format!(r#""hypergraph":{{"vertices":[{vertices}],"nets":[{nets}]}},"fixed":[{fixities}]"#)
}

/// Replaces the number after every `"micros":` and `"…_us":` key with 0:
/// the wall-clock fields are the only nondeterministic output.
fn mask_timings(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find("\":") {
        let (head, tail) = rest.split_at(pos + 2);
        out.push_str(head);
        rest = tail;
        let key = head[..pos].rsplit('"').next().unwrap_or_default();
        if key == "micros" || key.ends_with("_us") {
            out.push('0');
            rest = rest.trim_start_matches(|c: char| c.is_ascii_digit());
        }
    }
    out.push_str(rest);
    out
}

/// Serves `requests` as one connection and returns the responses in
/// request order (matched on `id`; the metrics answer has none). The call
/// returns only once every job of the connection has answered.
fn serve(service: &Service, requests: &[(&str, String)]) -> Vec<String> {
    let input: String = requests.iter().map(|(_, r)| format!("{r}\n")).collect();
    let mut out = Vec::new();
    service
        .serve(Cursor::new(input), &mut out)
        .expect("session runs");
    let text = String::from_utf8(out).expect("utf8 output");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), requests.len(), "one response per request");
    requests
        .iter()
        .map(|(id, _)| {
            let line = lines
                .iter()
                .find(|l| {
                    let resp = json::parse(l).expect("valid JSON");
                    resp.get("id").and_then(Json::as_str).unwrap_or("metrics") == *id
                })
                .unwrap_or_else(|| panic!("no response for {id}: {text}"));
            line.to_string()
        })
        .collect()
}

/// Runs the whole session on a fresh one-worker service and returns each
/// response line (in session order, with its id) and the trace file's
/// contents when one was configured.
fn run_session(trace: Option<&Path>) -> (Vec<(String, String)>, Option<String>) {
    let hg = ibm01_like_scaled(0.04, 7).hypergraph;
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for v in hg.vertices().step_by(10) {
        fixed.fix(v, PartId::from_index(v.index() / 10 % 2));
    }
    let inst = instance_json(&hg, &fixed);
    let all_fixed = FixedVertices::from_fixities(
        (0..hg.num_vertices())
            .map(|_| Fixity::Fixed(PartId::from_index(0)))
            .collect(),
    );
    let infeasible = instance_json(&hg, &all_fixed);

    let service = Service::start(ServiceConfig {
        workers: 1, // one worker runs the jobs in submission order
        trace_path: trace.map(Path::to_path_buf),
        ..ServiceConfig::default()
    })
    .expect("service starts");

    let cold = format!(
        r#"{{"id":"cold","engine":"ml","starts":2,"vcycles":1,"seed":5,"tolerance":0.1,{inst}}}"#
    );
    let first = [
        ("cold", cold.clone()),
        ("repeat", cold.replace(r#""id":"cold""#, r#""id":"repeat""#)),
        (
            "kway",
            format!(
                r#"{{"id":"kway","engine":"kway","k":4,"objective":"km1","starts":1,"threads":2,"seed":3,"tolerance":0.1,{inst}}}"#
            ),
        ),
        (
            "rb",
            format!(
                r#"{{"id":"rb","engine":"rb","k":4,"starts":3,"ensemble":true,"seed":11,"tolerance":0.1,{inst}}}"#
            ),
        ),
    ];
    let mut responses = serve(&service, &first);
    let sid = json::parse(&responses[0])
        .expect("valid JSON")
        .get("solution_id")
        .and_then(Json::as_str)
        .expect("the cold run is cached")
        .to_string();

    let warm = format!(
        r#"{{"id":"warm","engine":"ml","seed":5,"tolerance":0.1,"warm_start":{{"solution_id":"{sid}","delta":{{"removed_nets":[3,17],"added_nets":[[5,9],{{"w":2,"pins":[1,4,6]}}],"moved_fixed":[[12,0],[30,-1]]}}}},{inst}}}"#
    );
    let second = [
        ("warm", warm.clone()),
        (
            "warm-repeat",
            warm.replace(r#""id":"warm""#, r#""id":"warm-repeat""#),
        ),
        (
            "warm-miss",
            format!(
                r#"{{"id":"warm-miss","engine":"ml","starts":2,"seed":8,"tolerance":0.1,"warm_start":{{"solution_id":"s0000000000000000"}},{inst}}}"#
            ),
        ),
        (
            "deadline",
            format!(
                r#"{{"id":"deadline","engine":"ml","starts":4,"seed":77,"tolerance":0.1,"deadline_ms":0,{inst}}}"#
            ),
        ),
        (
            "infeasible",
            format!(r#"{{"id":"infeasible","engine":"ml","seed":1,"tolerance":0.1,{infeasible}}}"#),
        ),
        (
            "unknown",
            format!(r#"{{"id":"unknown","engine":"nope","seed":1,{inst}}}"#),
        ),
    ];
    responses.extend(serve(&service, &second));
    // Metrics on a connection of its own, after every job has answered:
    // its counters then cover the whole session.
    responses.extend(serve(
        &service,
        &[("metrics", r#"{"op":"metrics"}"#.to_string())],
    ));
    service.shutdown();

    let ids = first.iter().chain(&second).map(|(id, _)| *id);
    let lines = ids
        .chain(["metrics"])
        .zip(responses)
        .map(|(id, line)| (id.to_string(), mask_timings(&line)))
        .collect();
    let trace_text = trace.map(|p| mask_timings(&std::fs::read_to_string(p).expect("trace file")));
    (lines, trace_text)
}

#[test]
fn masking_zeroes_only_the_timing_fields() {
    assert_eq!(
        mask_timings(
            r#"{"id":"a","micros":812,"cut":3,"engines":{"ml":{"count":2,"p50_us":64,"p99_us":7}}}"#
        ),
        r#"{"id":"a","micros":0,"cut":3,"engines":{"ml":{"count":2,"p50_us":0,"p99_us":0}}}"#
    );
}

#[test]
fn service_session_matches_the_recorded_digests() {
    let trace_path = std::env::temp_dir().join(format!(
        "vlsi-service-golden-{}-trace.jsonl",
        std::process::id()
    ));
    let (traced, trace) = run_session(Some(&trace_path));
    std::fs::remove_file(&trace_path).ok();
    let (untraced, _) = run_session(None);
    assert_eq!(
        traced, untraced,
        "a trace file must not change any response"
    );
    // `rb` does not repair its answer against the uniform split, and the
    // referee refuses the illegal partition it returns here.
    let rb = traced
        .iter()
        .find(|(id, _)| id == "rb")
        .expect("rb answered");
    assert_eq!(
        rb.1,
        r#"{"id":"rb","status":"error","code":"internal_error","message":"engine returned a partition that failed validation"}"#
    );

    let digests: Vec<(String, u64)> = traced
        .iter()
        .map(|(id, line)| (id.clone(), fnv1a_64(line.as_bytes())))
        .collect();
    let trace_digest = fnv1a_64(trace.expect("traced run").as_bytes());
    let recorded: Vec<(String, u64)> = RESPONSES
        .iter()
        .map(|(id, d)| (id.to_string(), *d))
        .collect();
    if digests != recorded || trace_digest != TRACE {
        let mut table = String::from("const RESPONSES: &[(&str, u64)] = &[\n");
        for (id, d) in &digests {
            table.push_str(&format!("    (\"{id}\", {d:#018x}),\n"));
        }
        table.push_str(&format!("];\n\nconst TRACE: u64 = {trace_digest:#018x};\n"));
        for (id, line) in &traced {
            let shown: String = line.chars().take(240).collect();
            eprintln!("{id}: {shown}");
        }
        panic!("service session digests changed; recomputed:\n{table}");
    }
}
