//! The `partition` binary answers the same with and without `--trace`.
//!
//! A traced run must describe the run the user asked for: the same starts
//! on the same per-start seeds, the same quality phase, the same written
//! assignment. The tests write a small netgen circuit with every seventh
//! vertex fixed, run the binary on it, and compare the `--out` files, and
//! the traces of two thread budgets with the wall-clock `micros` masked.
//! With a second weight column (`--are`), a bisection must balance both
//! resources, as a k-way run does.

use std::fs::File;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::Command;

use vlsi_hypergraph::io::{write_fix, write_hgr};
use vlsi_hypergraph::{BalanceConstraint, FixedVertices, PartId, Tolerance};
use vlsi_netgen::instances::ibm01_like_scaled;

/// A scratch directory, removed when the guard drops: at the end of a
/// test and when a failed assertion unwinds it.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// A fresh scratch directory holding the test instance as `inst.hgr` and
/// `inst.fix`.
fn instance_dir(name: &str) -> ScratchDir {
    let dir = ScratchDir(
        std::env::temp_dir().join(format!("vlsi-partition-cli-{}-{name}", std::process::id())),
    );
    std::fs::create_dir_all(&*dir).expect("scratch dir");
    let hg = ibm01_like_scaled(0.05, 3).hypergraph;
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for v in hg.vertices().step_by(7) {
        fixed.fix(v, PartId::from_index(v.index() / 7 % 2));
    }
    write_hgr(File::create(dir.join("inst.hgr")).unwrap(), &hg).unwrap();
    write_fix(File::create(dir.join("inst.fix")).unwrap(), &fixed).unwrap();
    dir
}

/// Runs `partition` on the instance in `dir` with `flags`, writing the
/// assignment to `out` (and the trace to `trace`, when given), and returns
/// the assignment file's contents.
fn partition(dir: &Path, flags: &[&str], out: &str, trace: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_partition"));
    cmd.arg("--hgr")
        .arg(dir.join("inst.hgr"))
        .arg("--fix")
        .arg(dir.join("inst.fix"))
        .args(flags)
        .arg("--out")
        .arg(dir.join(out));
    if let Some(trace) = trace {
        cmd.arg("--trace").arg(dir.join(trace));
    }
    let run = cmd.output().expect("partition runs");
    assert!(
        run.status.success(),
        "partition {flags:?} failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    std::fs::read_to_string(dir.join(out)).expect("assignment written")
}

/// The trace file with every `"micros":N` zeroed.
fn masked_trace(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("trace written");
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(pos) = rest.find("\"micros\":") {
        let (head, tail) = rest.split_at(pos + "\"micros\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn trace_does_not_change_the_answer() {
    let dir = instance_dir("answer");
    for seed in ["1", "2", "4"] {
        let flags = [
            "--starts",
            "4",
            "--vcycles",
            "1",
            "--tolerance",
            "0.1",
            "--threads",
            "2",
            "--seed",
            seed,
        ];
        let plain = partition(&dir, &flags, "plain.txt", None);
        let traced = partition(&dir, &flags, "traced.txt", Some("trace.jsonl"));
        assert!(
            plain == traced,
            "seed {seed}: --trace changed the assignment"
        );
    }
}

#[test]
fn traced_runs_do_not_depend_on_the_thread_count() {
    let dir = instance_dir("threads");
    let flags = |threads| {
        [
            "--starts",
            "4",
            "--vcycles",
            "1",
            "--tolerance",
            "0.1",
            "--seed",
            "5",
            "--threads",
            threads,
        ]
    };
    let one = partition(&dir, &flags("1"), "t1.txt", Some("t1.jsonl"));
    let two = partition(&dir, &flags("2"), "t2.txt", Some("t2.jsonl"));
    assert!(one == two, "the thread count changed the traced assignment");
    let trace = masked_trace(&dir.join("t1.jsonl"));
    assert!(
        trace.contains("\"ev\":\"start\"") && trace.contains("\"ev\":\"vcycle_end\""),
        "the trace records the starts and the quality phase"
    );
    assert!(
        trace == masked_trace(&dir.join("t2.jsonl")),
        "the thread count changed the trace"
    );
}

#[test]
fn two_resource_bisections_balance_both_resources() {
    let dir = instance_dir("are");
    let hg = ibm01_like_scaled(0.05, 3).hypergraph;
    let second: Vec<u64> = hg.vertices().map(|v| v.index() as u64 % 3 + 1).collect();
    let rows: String = hg
        .vertices()
        .map(|v| format!("{} {}\n", hg.vertex_weight(v), second[v.index()]))
        .collect();
    let are = dir.join("inst.are");
    std::fs::write(&are, rows).expect("are written");
    let totals = [hg.total_weight(), second.iter().sum()];
    let balance = BalanceConstraint::even(2, &totals, Tolerance::Relative(0.1));
    for engine in ["ml", "fm", "rb", "kway"] {
        let flags = [
            "--are",
            are.to_str().expect("utf-8 path"),
            "--k",
            "2",
            "--tolerance",
            "0.1",
            "--starts",
            "1",
            "--seed",
            "3",
            "--engine",
            engine,
        ];
        let parts = partition(&dir, &flags, "are.txt", None);
        let mut loads = [0u64; 4];
        for (v, part) in parts.lines().enumerate() {
            let p: usize = part.parse().expect("part id");
            loads[2 * p] += hg.vertex_weight(vlsi_hypergraph::VertexId::from_index(v));
            loads[2 * p + 1] += second[v];
        }
        assert!(
            balance.is_satisfied(&loads),
            "{engine}: loads {loads:?} against totals {totals:?}"
        );
    }
}
