//! The `serve` binary reports its final metrics at exit.
//!
//! A stdio session that ends at EOF must leave on stderr, as its last
//! line, the metrics object a `{"op":"metrics"}` request returns, engine
//! counters included, so that what the session did is not lost when no
//! metrics request arrives after its last job.

use std::io::Write;
use std::process::{Command, Stdio};

use vlsi_service::json::{self, Json};

#[test]
fn stdio_session_prints_its_final_metrics_at_eof() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let job = r#"{"id":"a","engine":"fm","starts":2,"seed":1,"hypergraph":{"vertices":[1,1,1,1],"nets":[[0,1],[1,2],[2,3]]}}"#;
    // Dropping stdin after the job closes it: the session ends at EOF.
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(format!("{job}\n").as_bytes())
        .expect("job written");
    let out = child.wait_with_output().expect("serve exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve failed: {stderr}");

    let stdout = String::from_utf8_lossy(&out.stdout);
    let response =
        json::parse(stdout.lines().next().expect("one response")).expect("JSON response");
    assert_eq!(response.get("id").and_then(Json::as_str), Some("a"));
    assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));

    let last = stderr.lines().last().expect("stderr has a line");
    let snapshot = json::parse(last)
        .unwrap_or_else(|e| panic!("stderr's last line is not JSON ({e:?}): {last}"));
    let metrics = snapshot.get("metrics").expect("a metrics object");
    assert_eq!(metrics.get("jobs_ok").and_then(Json::as_u64), Some(1));
    let engine = metrics
        .get("engine")
        .and_then(Json::as_obj)
        .expect("an engine object");
    assert!(!engine.is_empty(), "no engine counters: {last}");
}
