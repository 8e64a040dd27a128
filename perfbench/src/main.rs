//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload bisect-pads --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Inputs are generated from the seed alone, by a child process, so that
//! generation shows in neither the timings nor the peak RSS. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`.
//! `perfbench/NOTES.md` says why each workload exists.

mod batch;
mod gen;
mod host;
mod phases;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{self, Command};
use std::time::Duration;

use vlsi_hypergraph::{
    validate_partitioning, BalanceConstraint, CutState, FixedVertices, Hypergraph, PartId,
    Partitioning,
};

/// End-to-end metrics, measured with tracing off: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_norm", "ratio"),
    ("cut", "nets"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit). A layer that a
/// workload does not run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_ms", "ms"),
    ("coarsen.ms", "ms"),
    ("coarsen.levels", "count"),
    ("initial.ms", "ms"),
    ("refine.ms", "ms"),
    ("refine.finest_ms", "ms"),
    ("phase.coverage_pct", "%"),
    ("fm.passes", "count"),
    ("fm.moves_tried", "count"),
    ("fm.moves_committed", "count"),
    ("fm.useful_move_ratio", "ratio"),
    ("fm.bucket_ops", "count"),
    ("kway.refine_ms", "ms"),
    ("kway.passes", "count"),
    ("parallel.rounds", "count"),
    ("parallel.propose_ms", "ms"),
    ("parallel.apply_ms", "ms"),
    ("parallel.coarsen_speedup", "ratio"),
    ("protocol.decode_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("cache.key_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("warmstart.ms", "ms"),
    ("multistart.solve_ms", "ms"),
    ("quality.vcycle_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.cold_p50_ms", "ms"),
    ("service.warm_p50_ms", "ms"),
    ("service.hit_p50_ms", "ms"),
    ("service.sheds", "count"),
    ("service.jobs_failed", "count"),
    ("latency.p50_ms", "ms"),
    ("latency.tail_pct", "%"),
    ("latency.tail_ms", "ms"),
    ("latency.samples", "count"),
    ("host.ref_ms", "ms"),
    ("host.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["bisect-pads", "bisect-placed", "kway2-t2", "serve-eco"];

/// Metric values of one run, by the names in [`END_TO_END`] and
/// [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets one metric; the name must be listed in a schema.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is in no schema"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The independent referee: fixities and balance hold, and the reported cut
/// equals the cut recomputed from scratch.
pub fn legal(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    k: usize,
    parts: &[PartId],
    cut: u64,
) -> bool {
    Partitioning::from_parts(hg, k, parts.to_vec())
        .is_ok_and(|p| validate_partitioning(hg, &p, balance, fixed).is_valid())
        && CutState::new(hg, k, parts).cut() == cut
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{value}` for --trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1) as f64,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn measure(opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    let status = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .arg("--generate")
        .arg(&opts.workload)
        .arg(opts.seed.to_string())
        .arg(dir)
        .status()
        .map_err(|e| format!("input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }
    match opts.workload.as_str() {
        "bisect-pads" => batch::run(
            batch::Workload {
                engine: batch::Engine::Bisect,
                fix_file: "pads.fix",
                jobs_per_second: 1.0,
            },
            dir,
            opts,
        ),
        "bisect-placed" => batch::run(
            batch::Workload {
                engine: batch::Engine::Bisect,
                fix_file: "placed.fix",
                jobs_per_second: 2.0,
            },
            dir,
            opts,
        ),
        "kway2-t2" => batch::run(
            batch::Workload {
                engine: batch::Engine::Kway2,
                fix_file: "pads.fix",
                jobs_per_second: 3.5,
            },
            dir,
            opts,
        ),
        _ => serve::run(dir, opts),
    }
}

fn render(out: &Outcome, trace: bool) -> Result<String, String> {
    let schema = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(schema.len());
    for &(name, unit) in schema {
        let value = match out.metrics.get(name) {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        fields.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    let correct = stats::failure_share(out.failed, out.attempted) == 0.0;
    Ok(format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.attempted,
        out.failed,
        fields.join(",")
    ))
}

/// Makes every thread allocate from one malloc arena. With glibc's default
/// of an arena per thread, which arena each fresh service thread landed in
/// varied between runs and moved `serve-eco`'s peak RSS between two levels
/// 24% apart. Only `serve-eco` needs it: the batch workloads' peak RSS is
/// steady, and one arena slows the two-thread `kway2-t2` jobs by ~20%.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only tunes glibc's allocator and accepts any
    // positive arena limit; it runs before this process starts a thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload, seed, dir] = args.as_slice() {
        if flag == "--generate" {
            let seed = seed.parse().unwrap_or_else(|_| {
                eprintln!("bad seed `{seed}`");
                process::exit(2)
            });
            if let Err(e) = gen::generate(workload, seed, Path::new(dir)) {
                eprintln!("generating inputs: {e}");
                process::exit(1);
            }
            return;
        }
    }
    let opts = parse_opts(&args).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
        process::exit(2)
    });
    if opts.workload == "serve-eco" {
        single_malloc_arena();
    }
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        opts.workload,
        opts.seed,
        process::id()
    ));
    let outcome = measure(&opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome.and_then(|o| render(&o, opts.trace)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            process::exit(1);
        }
    }
}
