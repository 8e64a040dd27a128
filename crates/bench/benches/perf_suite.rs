//! The CI perf-regression suite. Unlike the paper-table benches, this
//! target exists to be *gated*: it measures the hot phases (coarsening's
//! sharded contraction and an end-to-end multilevel partition at several
//! thread counts, a full flat-FM run, one k-way refinement pass under both
//! the cut and the connectivity objectives, and the V-cycle quality phase
//! on top of the multistart driver at one and four threads), writes
//! `results/bench/BENCH_partition.json`, and — when `PERF_GATE=1` — fails
//! the process if any benchmark's median regressed more than 15% against
//! the checked-in baseline (`PERF_BASELINE`, defaulting to
//! `results/bench/BENCH_partition.baseline.json`). The cut-objective
//! refinement slice (`partition/refine_parallel/t1`) additionally carries
//! a tighter min-vs-min bound — see `CUT_REFINE_MAX_REGRESSION`.
//!
//! The baseline is regenerated on purpose, never by accident:
//! `TESTKIT_BENCH_DIR=... cargo bench -p bench --bench perf_suite` and
//! copy the JSON over the baseline file.

use std::hint::black_box;

use vlsi_rng::{ChaCha8Rng, SeedableRng};
use vlsi_testkit::bench::Criterion;

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, PartId, Tolerance, VertexId};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_partition::multilevel::{coarsen_once, CoarsenParams};
use vlsi_partition::{
    BipartFm, FmConfig, MultilevelConfig, MultilevelPartitioner, Partitioner, RunCtx,
    SelectionPolicy,
};

/// Thread counts every phase is measured at.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The default gate threshold: a benchmark fails if its median exceeds
/// the baseline median by more than this factor. `PERF_MAX_REGRESSION`
/// (a percentage, e.g. `40`) overrides it for noisy builders.
const MAX_REGRESSION: f64 = 1.15;

/// Wider gate for the single-shot `scale/` *wall-clock* records: a ~30 s
/// partition measured once cannot amortize builder noise the way a
/// multi-sample median can (observed run-to-run spread on the CI box is
/// ~±20% for identical code). `PERF_SCALE_MAX_REGRESSION` overrides.
/// The `scale/peak_rss/*` record stays on the tight default — memory is
/// repeatable to within a few percent and is the gate that matters here.
const SCALE_TIME_MAX_REGRESSION: f64 = 1.5;

fn max_regression() -> f64 {
    std::env::var("PERF_MAX_REGRESSION")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(|pct| 1.0 + pct / 100.0)
        .unwrap_or(MAX_REGRESSION)
}

fn scale_time_max_regression() -> f64 {
    std::env::var("PERF_SCALE_MAX_REGRESSION")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(|pct| 1.0 + pct / 100.0)
        .unwrap_or(SCALE_TIME_MAX_REGRESSION)
}

/// Tighter gate for the cut-objective refinement engine slice
/// (`partition/refine_parallel/t1`): the pluggable-objective gain layer
/// must stay near-free when the objective is `Cut`, so a ≤5% drift bound
/// keeps that promise standing. The tripwire compares **min-vs-min** —
/// background load only ever adds time, so the minimum sample is the
/// statistic least polluted by the builder — over a ≥30-sample floor
/// (see `min_samples` in `bench_refine_pass`), where the min repeats
/// to within ±2% on the CI box. `PERF_CUT_MAX_REGRESSION` overrides it for
/// noisy builders.
const CUT_REFINE_MAX_REGRESSION: f64 = 1.05;

fn cut_refine_max_regression() -> f64 {
    std::env::var("PERF_CUT_MAX_REGRESSION")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(|pct| 1.0 + pct / 100.0)
        .unwrap_or(CUT_REFINE_MAX_REGRESSION)
}

fn fixture() -> (
    vlsi_hypergraph::Hypergraph,
    FixedVertices,
    BalanceConstraint,
) {
    let circuit = ibm01_like_scaled(0.60, 7);
    let hg = circuit.hypergraph;
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 20 {
        fixed.fix(VertexId((i * 7) as u32), PartId((i % 2) as u32));
    }
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
    (hg, fixed, balance)
}

fn bench_coarsen(c: &mut Criterion, hg: &vlsi_hypergraph::Hypergraph, fixed: &FixedVertices) {
    let mut group = c.benchmark_group("partition/coarsen_once");
    group.sample_size(15);
    for threads in THREADS {
        let params = CoarsenParams {
            max_cluster_weight: hg.total_weight() / 20,
            max_cluster_weights: Vec::new(),
            max_net_size_for_matching: 64,
            max_fixed_part_weight: Vec::new(),
            allow_free_fixed_merge: false,
            threads,
        };
        group.bench_function(format!("t{threads}").as_str(), |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            b.iter(|| black_box(coarsen_once(hg, fixed, &params, 0.99, None, &mut rng)))
        });
    }
    group.finish();
}

fn bench_flat_fm(
    c: &mut Criterion,
    hg: &vlsi_hypergraph::Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
) {
    // A full flat-FM run from a random initial solution.
    let mut group = c.benchmark_group("partition/flat_fm");
    group.sample_size(10);
    let fm = BipartFm::new(FmConfig {
        policy: SelectionPolicy::Clip,
        ..FmConfig::default()
    });
    group.bench_function("t1", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            black_box(
                fm.partition_ctx(hg, fixed, balance, RunCtx::new(&mut rng))
                    .expect("fm runs"),
            )
        })
    });
    group.finish();
}

fn bench_multilevel(
    c: &mut Criterion,
    hg: &vlsi_hypergraph::Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
) {
    let mut group = c.benchmark_group("partition/multilevel");
    group.sample_size(10);
    for threads in THREADS {
        let ml = MultilevelPartitioner::new(MultilevelConfig {
            coarsest_size: 60,
            coarse_starts: 2,
            threads,
            ..MultilevelConfig::default()
        });
        group.bench_function(format!("t{threads}").as_str(), |b| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(23);
                black_box(
                    ml.partition_ctx(hg, fixed, balance, RunCtx::new(&mut rng))
                        .expect("ml runs"),
                )
            })
        });
    }
    group.finish();
}

fn bench_refine_pass(c: &mut Criterion, hg: &vlsi_hypergraph::Hypergraph) {
    // One k-way refinement pass (`KwayRefiner { max_passes: 1 }`, the
    // synchronous-round pass at this 10% window) from a random initial
    // solution. The group keeps its `refine_parallel` id from when the pass
    // was also measured at forked budgets.
    use vlsi_hypergraph::Objective;
    use vlsi_partition::{random_initial, KwayRefiner, Refiner};

    let k = 4;
    let balance = BalanceConstraint::even(k, &[hg.total_weight()], Tolerance::Relative(0.1));
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 20 {
        fixed.fix(VertexId((i * 7) as u32), PartId((i % k) as u32));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let initial = random_initial(hg, &fixed, &balance, k, &mut rng).expect("feasible fixture");
    let one_pass = |objective| {
        let refiner = KwayRefiner {
            objective,
            max_passes: 1,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0); // unused by the refiner
        refiner
            .refine_ctx(hg, &fixed, &balance, initial.clone(), RunCtx::new(&mut rng))
            .expect("k-way pass runs")
    };

    let mut group = c.benchmark_group("partition/refine_parallel");
    group.sample_size(30);
    // The t1 slice is gated min-vs-min at the tight cut-path bound; the
    // min only converges with enough samples (observed ±1.6% across runs
    // at 30 samples vs ±11% at 5), so the floor holds even under the CI
    // speed knob (`TESTKIT_BENCH_SAMPLES=5`).
    group.min_samples(30);
    group.bench_function("t1", |b| b.iter(|| black_box(one_pass(Objective::Cut))));
    group.finish();

    // The same pass under the connectivity objective: km1 deltas touch
    // every pin's part-count bookkeeping instead of the boundary test, so
    // this group prices the heterogeneous-objective tier on the exact
    // workload the cut slice above uses.
    let mut group = c.benchmark_group("partition/km1_refine");
    group.sample_size(30);
    group.min_samples(30);
    group.bench_function("t1", |b| b.iter(|| black_box(one_pass(Objective::KMinus1))));
    group.finish();
}

fn bench_vcycle(
    c: &mut Criterion,
    hg: &vlsi_hypergraph::Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
) {
    // The iterated-multilevel quality phase end to end: a 2-start parallel
    // multistart followed by two V-cycles over the incumbent best. This
    // prices what `--vcycles 2` adds on top of the plain driver — the
    // restricted re-coarsening plus re-refinement per cycle — at the
    // sequential and 4-thread budgets. Gated on the general median bound.
    use vlsi_partition::trace::NullSink;
    use vlsi_partition::{CancelToken, EngineConfig, Multistart};

    let engine = EngineConfig::by_name("ml").expect("ml is registered");
    let driver = Multistart::new(2).vcycles(2);
    let mut group = c.benchmark_group("partition/vcycle");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(format!("t{threads}").as_str(), |b| {
            let never = CancelToken::never();
            b.iter(|| {
                black_box(
                    driver
                        .run_parallel(
                            hg, fixed, balance, threads, 23, &engine, &NullSink, &NullSink, &never,
                        )
                        .expect("quality run succeeds"),
                )
            })
        });
    }
    group.finish();
}

/// Whether the million-cell `scale/` group runs (skip with `PERF_SCALE=0`
/// on builders that cannot afford a ~30 s single-shot partition; the gate
/// then ignores `scale/` baseline entries instead of failing on them).
fn scale_enabled() -> bool {
    std::env::var("PERF_SCALE").as_deref() != Ok("0")
}

/// The million-cell tier: wall-clock for streaming generation + CSR
/// build (a real calibrated benchmark — it is sub-second) and a
/// single-shot full multilevel partition, plus the process peak RSS.
/// Single-shot because one partition run takes ~30 s; the computation is
/// deterministic, so run-to-run variance stays well inside the 15% gate.
/// Runs after every other group so the reported peak RSS (a process-wide
/// high-water mark) is dominated by the million-cell instance, not by the
/// small fixtures.
fn bench_scale(c: &mut Criterion) {
    use vlsi_netgen::instances::million_cells_scaled;

    let mut group = c.benchmark_group("scale/build");
    group.sample_size(3);
    group.bench_function("1M", |b| b.iter(|| black_box(million_cells_scaled(1.0, 7))));
    group.finish();

    let circuit = million_cells_scaled(1.0, 7);
    let hg = &circuit.hypergraph;
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for i in 0..hg.num_vertices() / 50 {
        fixed.fix(VertexId((i * 41) as u32), PartId((i % 2) as u32));
    }
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
    let ml = MultilevelPartitioner::new(MultilevelConfig {
        coarse_starts: 1,
        threads: 8,
        ..MultilevelConfig::default()
    });
    let t = std::time::Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let result = ml
        .partition_ctx(hg, &fixed, &balance, RunCtx::new(&mut rng))
        .expect("ml runs at 1M cells");
    let wall_ns = t.elapsed().as_nanos() as f64;
    black_box(&result);
    c.report_value("scale/partition/1M/t8", wall_ns);
    if let Some(peak) = bench::mem::peak_rss_bytes() {
        c.report_value("scale/peak_rss/1M/bytes", peak as f64);
    }
}

/// One record pulled from a testkit bench JSON file.
struct BenchRecord {
    id: String,
    median_ns: f64,
    min_ns: f64,
}

/// Scans one numeric field (`"name": 123.4`) out of a record chunk.
fn scan_field(chunk: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\": ");
    let pos = chunk.find(&needle)?;
    let rest = &chunk[pos + needle.len()..];
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse::<f64>().ok()
}

/// Pulls `(id, median_ns, min_ns)` records out of a testkit bench JSON
/// file with a plain string scan (the format is fixed: `"id": "...", ...
/// "min_ns": 123.4, ... "median_ns": 123.4`), so the gate needs no JSON
/// dependency. Single-sample "reported" records carry the value in every
/// statistic, so `min_ns` falls back to `median_ns` when absent.
fn parse_records(json: &str) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    for chunk in json.split("\"id\": \"").skip(1) {
        let Some(id_end) = chunk.find('"') else {
            continue;
        };
        let id = chunk[..id_end].to_string();
        let Some(median_ns) = scan_field(chunk, "median_ns") else {
            continue;
        };
        let min_ns = scan_field(chunk, "min_ns").unwrap_or(median_ns);
        out.push(BenchRecord {
            id,
            median_ns,
            min_ns,
        });
    }
    out
}

/// Reports the speedup of the parallelized phases at the largest measured
/// thread count the machine has cores for and, when `PERF_GATE=1`,
/// compares every benchmark's median against the baseline. Returns
/// `false` if the gate failed.
fn gate(results_path: &std::path::Path) -> bool {
    let Ok(current_json) = std::fs::read_to_string(results_path) else {
        eprintln!("perf_suite: no results at {}", results_path.display());
        return true;
    };
    let current = parse_records(&current_json);

    // A slice with more threads than cores measures oversubscription, not
    // parallel speedup.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for phase in [
        "partition/coarsen_once",
        "partition/multilevel",
        "partition/vcycle",
    ] {
        let median = |threads: usize| {
            let id = format!("{phase}/t{threads}");
            current.iter().find(|r| r.id == id).map(|r| r.median_ns)
        };
        let widest = THREADS
            .iter()
            .rev()
            .filter(|&&t| t > 1 && t <= cores)
            .find_map(|&t| median(t).map(|m| (t, m)));
        match (median(1), widest) {
            (Some(t1), Some((t, tn))) => println!(
                "perf_suite: {phase} speedup at {t} threads: {:.2}x (available_parallelism {cores})",
                t1 / tn
            ),
            _ => println!(
                "perf_suite: {phase} speedup: no multi-thread slice within available_parallelism {cores}"
            ),
        }
    }

    if std::env::var("PERF_GATE").as_deref() != Ok("1") {
        return true;
    }
    // Cargo runs bench binaries with the crate dir as cwd, so relative
    // paths (including the PERF_BASELINE default) resolve against the
    // workspace root instead.
    let workspace_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let baseline_path = std::env::var("PERF_BASELINE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            std::path::PathBuf::from("results/bench/BENCH_partition.baseline.json")
        });
    let baseline_path = if baseline_path.is_absolute() {
        baseline_path
    } else {
        workspace_root.join(baseline_path)
    };
    let baseline_json = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "perf_suite: PERF_GATE=1 but cannot read baseline {}: {e}",
                baseline_path.display()
            );
            return false;
        }
    };
    let baseline = parse_records(&baseline_json);

    let threshold = max_regression();
    let mut ok = true;
    for base in &baseline {
        let id = &base.id;
        if !scale_enabled() && id.starts_with("scale/") {
            println!("perf_suite: gate skip: {id} (PERF_SCALE=0)");
            continue;
        }
        let Some(cur) = current.iter().find(|r| &r.id == id) else {
            eprintln!("perf_suite: GATE FAIL: benchmark {id} missing from current run");
            ok = false;
            continue;
        };
        // Cut-objective refinement: the pluggable-objective layer must
        // stay near-free for `Objective::Cut`, so the engine-cost slice
        // is held to the tighter cut-path bound, compared min-vs-min so
        // builder load (which only ever adds time) cannot trip it.
        let cut_slice = id == "partition/refine_parallel/t1";
        let threshold = if id.starts_with("scale/") && !id.starts_with("scale/peak_rss") {
            threshold.max(scale_time_max_regression())
        } else if cut_slice {
            cut_refine_max_regression()
        } else {
            threshold
        };
        let (stat, cur_v, base_v) = if cut_slice {
            ("min", cur.min_ns, base.min_ns)
        } else {
            ("median", cur.median_ns, base.median_ns)
        };
        let ratio = cur_v / base_v;
        if ratio > threshold {
            eprintln!(
                "perf_suite: GATE FAIL: {id} regressed {:.0}% ({stat} {cur_v:.0} ns vs baseline {base_v:.0} ns)",
                (ratio - 1.0) * 100.0,
            );
            ok = false;
        } else {
            println!(
                "perf_suite: gate ok: {id} at {:.0}% of baseline ({stat})",
                ratio * 100.0
            );
        }
    }
    ok
}

fn main() {
    // The file name doubles as the CI artifact name, so it is pinned here
    // instead of deriving from the crate name like the other targets.
    let mut c = Criterion::new("BENCH_partition", env!("CARGO_MANIFEST_DIR"));
    let (hg, fixed, balance) = fixture();
    bench_coarsen(&mut c, &hg, &fixed);
    bench_flat_fm(&mut c, &hg, &fixed, &balance);
    bench_multilevel(&mut c, &hg, &fixed, &balance);
    bench_refine_pass(&mut c, &hg);
    bench_vcycle(&mut c, &hg, &fixed, &balance);
    if scale_enabled() {
        bench_scale(&mut c);
    } else {
        println!("perf_suite: scale/ group skipped (PERF_SCALE=0)");
    }
    c.finalize();

    let out_dir = std::env::var_os("TESTKIT_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("results")
                .join("bench")
        });
    if !gate(&out_dir.join("BENCH_partition.json")) {
        std::process::exit(1);
    }
}
