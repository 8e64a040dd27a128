//! End-to-end coverage of the heterogeneous resource surface: a
//! multi-resource km1 job over the stdio transport and over TCP, plus the
//! structured ingress rejection of capacity vectors that cannot hold the
//! instance.
//!
//! Every accepted response is re-checked from scratch: the parts are
//! replayed against the capacity balance built by the same
//! `PartCapacities::to_balance()` the server uses, per-part per-resource
//! loads are summed by hand, and both reported metrics (`cut`, `km1`) are
//! compared to an independent `CutState` recomputation.

use std::io::Cursor;

use vlsi_hypergraph::{
    io::apply_multi_areas, CutState, HypergraphBuilder, Objective, PartCapacities, PartId,
};
use vlsi_service::json::{self, Json};
use vlsi_service::{ServeOutcome, Service, ServiceConfig};

const N: usize = 9;
const K: usize = 3;

/// Per-vertex resource vectors: dimension 0 is uniform area, dimension 1
/// marks every odd vertex as consuming one unit of a scarcer resource.
fn resource_rows() -> Vec<[u64; 2]> {
    (0..N).map(|i| [1, (i % 2) as u64]).collect()
}

/// Feasible per-part capacities: totals are [9, 4], caps sum to [12, 6].
const FEASIBLE_CAPS: [[u64; 2]; K] = [[4, 2], [4, 2], [4, 2]];

/// The instance on the wire: a 9-vertex chain, vertex 0 fixed to part 0,
/// two resources per vertex.
fn hetero_request(id: &str, caps: &[[u64; 2]]) -> String {
    let vertices = ["1"; N].join(",");
    let nets: Vec<String> = (0..N - 1).map(|i| format!("[{},{}]", i, i + 1)).collect();
    let mut fixed = vec!["-1".to_string(); N];
    fixed[0] = "0".to_string();
    let resources: Vec<String> = resource_rows()
        .iter()
        .map(|r| format!("[{},{}]", r[0], r[1]))
        .collect();
    let caps: Vec<String> = caps
        .iter()
        .map(|c| format!("[{},{}]", c[0], c[1]))
        .collect();
    format!(
        r#"{{"id":"{id}","engine":"kway","k":{K},"objective":"km1","seed":3,"hypergraph":{{"vertices":[{vertices}],"nets":[{}]}},"resources":[{}],"part_capacities":[{}],"fixed":[{}]}}"#,
        nets.join(","),
        resources.join(","),
        caps.join(","),
        fixed.join(",")
    )
}

/// Replays a response against the instance: legality under the capacity
/// balance, fixity, and both reported metrics.
fn assert_hetero_response_legal(resp: &Json) {
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..N).map(|_| b.add_vertex(1)).collect();
    for w in v.windows(2) {
        b.add_net(1, [w[0], w[1]]).unwrap();
    }
    let flat: Vec<u64> = resource_rows().iter().flatten().copied().collect();
    let hg = apply_multi_areas(&b.build().unwrap(), 2, &flat).unwrap();

    let parts: Vec<PartId> = resp
        .get("parts")
        .and_then(|p| p.as_arr())
        .expect("ok response has parts")
        .iter()
        .map(|p| PartId::from_index(p.as_u64().expect("part id") as usize))
        .collect();
    assert_eq!(parts.len(), N);
    assert_eq!(parts[0], PartId::from_index(0), "fixed vertex respected");

    // Hand-summed per-part per-resource loads against the capacity rows.
    let rows = resource_rows();
    let mut loads = [[0u64; 2]; K];
    for (i, p) in parts.iter().enumerate() {
        assert!(p.index() < K, "part id in range");
        for (r, &w) in rows[i].iter().enumerate() {
            loads[p.index()][r] += w;
        }
    }
    for (p, load) in loads.iter().enumerate() {
        for r in 0..2 {
            assert!(
                load[r] <= FEASIBLE_CAPS[p][r],
                "part {p} resource {r}: load {} exceeds capacity {}",
                load[r],
                FEASIBLE_CAPS[p][r]
            );
        }
    }
    // The same constraint the server validates under accepts the answer.
    let caps =
        PartCapacities::explicit(K, 2, FEASIBLE_CAPS.iter().flatten().copied().collect()).unwrap();
    let balance = caps.to_balance();
    for (p, load) in loads.iter().enumerate() {
        for (r, &l) in load.iter().enumerate() {
            assert!(l <= balance.max(PartId::from_index(p), r));
        }
    }

    // Both metrics are reported and match an independent recomputation.
    let cs = CutState::new(&hg, K, &parts);
    let cut = resp.get("cut").and_then(|c| c.as_u64()).expect("cut");
    let km1 = resp.get("km1").and_then(|c| c.as_u64()).expect("km1");
    assert_eq!(cut, cs.value(Objective::Cut), "reported cut");
    assert_eq!(km1, cs.value(Objective::KMinus1), "reported km1");
    assert!(km1 >= cut, "connectivity dominates cut at any k");
}

#[test]
fn stdio_multi_resource_km1_job_round_trips() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("service starts");

    let input = format!(
        "{}\n{}\n",
        hetero_request("h1", &FEASIBLE_CAPS),
        // Same content again: the heterogeneous job is cacheable too.
        hetero_request("h2", &FEASIBLE_CAPS),
    );
    let mut out = Vec::new();
    let outcome = service
        .serve(Cursor::new(input), &mut out)
        .expect("session runs");
    assert_eq!(outcome, ServeOutcome::Eof);
    let snapshot = service.shutdown();

    let text = String::from_utf8(out).expect("utf8");
    let responses: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).expect("valid JSON"))
        .collect();
    assert_eq!(responses.len(), 2);
    let by_id = |id: &str| {
        responses
            .iter()
            .find(|r| r.get("id").and_then(|v| v.as_str()) == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}"))
    };

    let h1 = by_id("h1");
    assert_eq!(h1.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(h1.get("cache_hit").unwrap().as_bool(), Some(false));
    assert_hetero_response_legal(h1);

    let h2 = by_id("h2");
    assert_eq!(h2.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        h2.get("cache_hit").unwrap().as_bool(),
        Some(true),
        "identical heterogeneous content is answered from the cache"
    );
    assert_eq!(h2.get("parts"), h1.get("parts"));
    assert_hetero_response_legal(h2);

    assert_eq!(snapshot.jobs_ok, 2);
    assert_eq!(snapshot.jobs_failed, 0);
}

#[test]
fn infeasible_capacity_vectors_are_refused_at_ingress() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("service starts");

    // Totals are [9, 4]; these caps sum to [6, 3] — resource 0 alone
    // already cannot fit.
    let infeasible = [[2u64, 1], [2, 1], [2, 1]];
    let input = format!("{}\n", hetero_request("bad", &infeasible));
    let mut out = Vec::new();
    service
        .serve(Cursor::new(input), &mut out)
        .expect("session runs");
    let snapshot = service.shutdown();

    let text = String::from_utf8(out).expect("utf8");
    let resp = json::parse(text.lines().next().expect("one response")).expect("valid JSON");
    assert_eq!(resp.get("status").unwrap().as_str(), Some("error"));
    assert_eq!(
        resp.get("code").unwrap().as_str(),
        Some("infeasible_capacities"),
        "structured admission rejection: {text}"
    );
    assert_eq!(resp.get("id").unwrap().as_str(), Some("bad"));
    // Refused before reaching a worker: no job ran at all.
    assert_eq!(snapshot.jobs_ok + snapshot.jobs_failed, 0);
    assert_eq!(snapshot.protocol_errors, 1);
}

#[test]
fn tcp_multi_resource_km1_job_round_trips() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

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
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let mut stream = stream.expect("connect to service");
    writeln!(stream, "{}", hetero_request("t1", &FEASIBLE_CAPS)).expect("send job");
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
        .find(|r| r.get("id").and_then(|v| v.as_str()) == Some("t1"))
        .expect("job response present");
    assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
    assert_hetero_response_legal(resp);

    let snapshot = server.join().expect("server thread");
    assert_eq!(snapshot.jobs_ok, 1);
}

/// Serves `line` as a session of its own on `service` and returns the one
/// response.
fn serve_one(service: &Service, line: &str) -> Json {
    let mut out = Vec::new();
    service
        .serve(Cursor::new(format!("{line}\n")), &mut out)
        .expect("session runs");
    let text = String::from_utf8(out).expect("utf8");
    json::parse(text.lines().next().expect("one response")).expect("valid JSON")
}

#[test]
fn warm_delta_with_capacities_keeps_every_resource_dimension() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("service starts");

    let cold = serve_one(&service, &hetero_request("c1", &FEASIBLE_CAPS));
    assert_eq!(cold.get("status").unwrap().as_str(), Some("ok"), "{cold:?}");
    let sid = cold
        .get("solution_id")
        .and_then(|s| s.as_str())
        .expect("cold answer is cached");

    // Drop the chain's first net, add a chord, and pin the last vertex
    // to part 2: the delta must keep both resource dimensions, or the
    // capacity rows no longer match the instance.
    let warm_clause = format!(
        r#"{{"warm_start":{{"solution_id":"{sid}","delta":{{"removed_nets":[0],"added_nets":[[0,4]],"moved_fixed":[[8,2]]}}}},"#
    );
    let warm_line = hetero_request("w1", &FEASIBLE_CAPS).replacen('{', &warm_clause, 1);
    let warm = serve_one(&service, &warm_line);
    let snapshot = service.shutdown();
    assert_eq!(warm.get("status").unwrap().as_str(), Some("ok"), "{warm:?}");
    assert_eq!(warm.get("warm").unwrap().as_str(), Some("hit"));

    let parts: Vec<PartId> = warm
        .get("parts")
        .and_then(|p| p.as_arr())
        .expect("ok response has parts")
        .iter()
        .map(|p| PartId::from_index(p.as_u64().expect("part id") as usize))
        .collect();
    assert_eq!(parts.len(), N);
    assert_eq!(parts[0], PartId::from_index(0), "fixed vertex respected");
    assert_eq!(
        parts[8],
        PartId::from_index(2),
        "re-pinned vertex respected"
    );
    let rows = resource_rows();
    let mut loads = [[0u64; 2]; K];
    for (i, p) in parts.iter().enumerate() {
        for (r, &w) in rows[i].iter().enumerate() {
            loads[p.index()][r] += w;
        }
    }
    for (p, load) in loads.iter().enumerate() {
        for r in 0..2 {
            assert!(
                load[r] <= FEASIBLE_CAPS[p][r],
                "part {p} resource {r}: load {} exceeds capacity {}",
                load[r],
                FEASIBLE_CAPS[p][r]
            );
        }
    }

    // Both metrics match a recomputation on the post-delta instance.
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..N).map(|_| b.add_vertex(1)).collect();
    for w in v.windows(2).skip(1) {
        b.add_net(1, [w[0], w[1]]).unwrap();
    }
    b.add_net(1, [v[0], v[4]]).unwrap();
    let cs = CutState::new(&b.build().unwrap(), K, &parts);
    assert_eq!(
        warm.get("cut").and_then(|c| c.as_u64()),
        Some(cs.value(Objective::Cut))
    );
    assert_eq!(
        warm.get("km1").and_then(|c| c.as_u64()),
        Some(cs.value(Objective::KMinus1))
    );
    assert_eq!(snapshot.jobs_ok, 2);
    assert_eq!(snapshot.panics, 0);
}
