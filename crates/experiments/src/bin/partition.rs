//! Command-line partitioner: reads an hMetis `.hgr` file (and optionally a
//! `.fix` fixed-vertex file), partitions it, and writes/prints the
//! solution — the downstream-user entry point of this repository.
//!
//! ```text
//! usage: partition --hgr FILE [--fix FILE] [--k N] [--tolerance F]
//!                  [--starts N] [--seed N] [--threads N] [--engine NAME]
//!                  [--objective cut|km1] [--are FILE] [--resource-dims N]
//!                  [--part-capacities SPEC] [--vcycles N] [--ensemble]
//!                  [--out FILE] [--trace FILE]
//!        partition --list-engines
//! ```
//!
//! `--engine` accepts any name from the `vlsi_partition` engine registry
//! (`--list-engines` dumps it); the default is the paper's multilevel
//! engine.
//!
//! The heterogeneous surface: `--are FILE` loads multi-dimensional vertex
//! weights (one whitespace-separated row per vertex, uniform arity;
//! `--resource-dims N` asserts the arity), `--part-capacities
//! "100,8;60,4;..."` replaces the uniform tolerance balance (every
//! resource split evenly over the `k` parts, at every `k`) with explicit
//! per-part capacity vectors (parts separated by `;`, one capacity per
//! resource separated by `,`), and `--objective km1` switches the engines
//! from the cut to the connectivity (λ−1) metric.
//!
//! `--threads N` spreads the starts over at most `N` worker threads
//! (default: the machine's available parallelism), capped at the number
//! of cores; each start runs on one thread with deterministic per-start
//! seeding, so no answer depends on `--threads`: it only changes speed.
//! A single start runs on one thread whatever `N` is. `--trace` streams
//! the engine events of every start, then the start summaries and the
//! quality phase, into one JSONL file. A traced run keeps its starts on
//! one worker, so the file is one deterministic interleaving, and it
//! returns the same answer as the untraced run.
//!
//! A start that returns an error is dropped, and the run fails only when
//! no start answered. The summary reads "best cut over A of N starts (F
//! failed)", and each answered start's line carries its index in `0..N`,
//! the index its seed and its trace `start` event use.
//!
//! The quality-at-fixed-cost levers: `--vcycles N` runs up to `N` iterated
//! multilevel V-cycles over the best start (stopping early without strict
//! improvement), and `--ensemble` recombines the agreement clusters of the
//! top starts into a final constrained solve. Both only ever improve the
//! reported best and keep every determinism guarantee above.

use std::fs::File;
use std::io::Write as _;
use std::process::exit;

use vlsi_experiments::opts::{run_with_trace, TraceRun};
use vlsi_hypergraph::io::{apply_multi_areas, read_fix, read_hgr, read_multi_are};
use vlsi_hypergraph::{
    validate_partitioning, BalanceConstraint, FixedVertices, Hypergraph, Objective, PartCapacities,
    PartId, Partitioning, Tolerance,
};
use vlsi_partition::trace::Sink;
use vlsi_partition::{
    CancelToken, EngineConfig, Multistart, MultistartOutcome, PartitionError, ENGINES,
};

struct Args {
    hgr: String,
    fix: Option<String>,
    k: usize,
    tolerance: f64,
    objective: Objective,
    /// Multi-resource vertex weights (`.are` file, one row per vertex).
    are: Option<String>,
    /// Expected arity of the `.are` rows; mismatch is an error.
    resource_dims: Option<usize>,
    /// Explicit per-part capacity vectors replacing the tolerance balance.
    part_capacities: Option<PartCapacities>,
    /// `None` = choose automatically from the fixed fraction (the paper's
    /// guideline via `vlsi_partition::policy`).
    starts: Option<usize>,
    seed: u64,
    /// Most worker threads the starts spread over (capped at the number
    /// of cores); `--trace` forces 1 (the traced run must be a single
    /// deterministic event interleaving).
    threads: usize,
    engine: EngineConfig,
    /// Iterated-multilevel V-cycles applied to the best start.
    vcycles: usize,
    /// Ensemble recombination over the retained top starts.
    ensemble: bool,
    out: Option<String>,
    trace: Option<String>,
    list_engines: bool,
}

const USAGE: &str = "usage: partition --hgr FILE [--fix FILE] [--k N] [--tolerance F] [--starts N|auto] [--seed N] [--threads N] [--engine NAME] [--objective cut|km1] [--are FILE] [--resource-dims N] [--part-capacities SPEC] [--vcycles N] [--ensemble] [--out FILE] [--trace FILE]\n       partition --list-engines";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        hgr: String::new(),
        fix: None,
        k: 2,
        tolerance: 0.02,
        objective: Objective::Cut,
        are: None,
        resource_dims: None,
        part_capacities: None,
        starts: Some(4),
        seed: 1,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        engine: EngineConfig::by_name("ml").expect("ml is registered"),
        vcycles: 0,
        ensemble: false,
        out: None,
        trace: None,
        list_engines: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--hgr" => args.hgr = value("--hgr")?,
            "--fix" => args.fix = Some(value("--fix")?),
            "--k" => args.k = value("--k")?.parse().map_err(|_| "bad --k")?,
            "--objective" => {
                args.objective = match value("--objective")?.as_str() {
                    "cut" => Objective::Cut,
                    "km1" => Objective::KMinus1,
                    other => return Err(format!("bad --objective `{other}` (cut or km1)")),
                }
            }
            "--are" => args.are = Some(value("--are")?),
            "--resource-dims" => {
                args.resource_dims = Some(
                    value("--resource-dims")?
                        .parse()
                        .map_err(|_| "bad --resource-dims")?,
                )
            }
            "--part-capacities" => {
                args.part_capacities = Some(
                    value("--part-capacities")?
                        .parse()
                        .map_err(|e| format!("bad --part-capacities: {e}"))?,
                )
            }
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|_| "bad --tolerance")?
            }
            "--starts" => {
                let v = value("--starts")?;
                args.starts = if v == "auto" {
                    None
                } else {
                    Some(v.parse().map_err(|_| "bad --starts")?)
                };
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|_| "bad --threads")?
            }
            "--engine" => {
                let name = value("--engine")?;
                args.engine = EngineConfig::by_name(&name)
                    .map_err(|e| format!("{e}\n(see --list-engines)"))?;
            }
            "--vcycles" => {
                args.vcycles = value("--vcycles")?.parse().map_err(|_| "bad --vcycles")?
            }
            "--ensemble" => args.ensemble = true,
            "--out" => args.out = Some(value("--out")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--list-engines" => args.list_engines = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.list_engines {
        return Ok(args);
    }
    if args.hgr.is_empty() {
        return Err(format!("--hgr is required\n{USAGE}"));
    }
    if args.starts == Some(0) {
        return Err("--starts must be at least 1".into());
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if args.k < 2 {
        return Err("--k must be at least 2".into());
    }
    if args.resource_dims.is_some() && args.are.is_none() {
        return Err("--resource-dims needs --are".into());
    }
    if let Some(caps) = &args.part_capacities {
        if caps.num_parts() != args.k {
            return Err(format!(
                "--part-capacities has {} parts, --k is {}",
                caps.num_parts(),
                args.k
            ));
        }
    }
    Ok(args)
}

fn print_engine_registry() {
    println!("available engines (usable as --engine NAME or any alias):");
    for info in ENGINES {
        let aliases = if info.aliases.is_empty() {
            String::new()
        } else {
            format!(" (alias: {})", info.aliases.join(", "))
        };
        println!("  {:<6}{aliases:<22} {}", info.name, info.summary);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            exit(2);
        }
    };
    if args.list_engines {
        print_engine_registry();
        return;
    }

    let hg = match File::open(&args.hgr)
        .map_err(|e| e.to_string())
        .and_then(|f| read_hgr(f).map_err(|e| e.to_string()))
    {
        Ok(hg) => hg,
        Err(e) => {
            eprintln!("{}: {e}", args.hgr);
            exit(1);
        }
    };
    let hg = match &args.are {
        None => hg,
        Some(path) => {
            let loaded = File::open(path)
                .map_err(|e| e.to_string())
                .and_then(|f| read_multi_are(f, hg.num_vertices()).map_err(|e| e.to_string()))
                .and_then(|(dims, weights)| {
                    if let Some(expect) = args.resource_dims {
                        if dims != expect {
                            return Err(format!(
                                "has {dims} resource dimensions, --resource-dims says {expect}"
                            ));
                        }
                    }
                    apply_multi_areas(&hg, dims, &weights).map_err(|e| e.to_string())
                });
            match loaded {
                Ok(hg) => {
                    println!("{path}: {} resource dimensions", hg.num_resources());
                    hg
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    exit(1);
                }
            }
        }
    };
    let fixed = match &args.fix {
        None => FixedVertices::all_free(hg.num_vertices()),
        Some(path) => match File::open(path)
            .map_err(|e| e.to_string())
            .and_then(|f| read_fix(f, hg.num_vertices()).map_err(|e| e.to_string()))
        {
            Ok(fx) => fx,
            Err(e) => {
                eprintln!("{path}: {e}");
                exit(1);
            }
        },
    };

    println!(
        "{}: {} vertices ({} fixed), {} nets, {} pins",
        args.hgr,
        hg.num_vertices(),
        fixed.num_fixed(),
        hg.num_nets(),
        hg.num_pins()
    );

    let starts = args.starts.unwrap_or_else(|| {
        let s = vlsi_partition::policy::recommended_starts(fixed.fixed_fraction());
        println!(
            "auto start count: {s} ({}% of vertices fixed)",
            (100.0 * fixed.fixed_fraction()).round()
        );
        s
    });

    let balance = match &args.part_capacities {
        Some(caps) => {
            if caps.num_resources() != hg.num_resources() {
                eprintln!(
                    "--part-capacities has {} resources per part, the instance has {}",
                    caps.num_resources(),
                    hg.num_resources()
                );
                exit(1);
            }
            if let Err(e) = caps.check_feasible(hg.total_weights()) {
                eprintln!("--part-capacities cannot hold the instance: {e}");
                exit(1);
            }
            caps.to_balance()
        }
        None => BalanceConstraint::even(
            args.k,
            hg.total_weights(),
            Tolerance::Relative(args.tolerance),
        ),
    };
    let base_engine = args.engine.with_objective(args.objective);
    println!("engine: {}", base_engine.info().summary);
    if args.vcycles > 0 || args.ensemble {
        println!(
            "quality phase: {} V-cycle(s), ensemble recombination {}",
            args.vcycles,
            if args.ensemble { "on" } else { "off" }
        );
    }
    let driver = Multistart::new(starts)
        .vcycles(args.vcycles)
        .ensemble(args.ensemble)
        .objective(args.objective);
    let solved = run_with_trace(
        args.trace.as_deref().map(std::path::Path::new),
        Solve {
            hg: &hg,
            fixed: &fixed,
            balance: &balance,
            engine: &base_engine,
            driver: &driver,
            seed: args.seed,
            // A traced run keeps its starts on one worker, so the trace is
            // one deterministic interleaving; the answer is the same.
            threads: if args.trace.is_some() {
                1
            } else {
                args.threads
            },
        },
    );
    let outcome = match solved {
        Ok(o) => o,
        Err(e) => {
            eprintln!("partitioning failed: {e}");
            exit(1);
        }
    };

    let p = Partitioning::from_parts(&hg, args.k, outcome.best.parts.clone())
        .expect("engine output is well-formed");
    let report = validate_partitioning(&hg, &p, &balance, &fixed);
    // One load figure per part: the scalar load for single-resource
    // instances, the comma-joined resource vector otherwise.
    let loads: Vec<String> = (0..args.k)
        .map(|part| {
            (0..hg.num_resources())
                .map(|r| p.load(PartId::from_index(part), r).to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    let metric = match args.objective {
        Objective::KMinus1 => "km1",
        _ => "cut",
    };
    let answered = outcome.starts.len();
    println!(
        "best {metric} over {answered} of {starts} starts ({} failed): {} ({}; loads {})",
        starts - answered,
        outcome.best.cut,
        report,
        loads.join(" / "),
    );
    for s in &outcome.starts {
        println!(
            "  start {}: {metric} {} in {:.3}s",
            s.index,
            s.cut,
            s.elapsed.as_secs_f64()
        );
    }

    if let Some(out) = &args.out {
        let mut f = match File::create(out) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{out}: {e}");
                exit(1);
            }
        };
        for part in &outcome.best.parts {
            if let Err(e) = writeln!(f, "{}", part.0) {
                eprintln!("{out}: {e}");
                exit(1);
            }
        }
        println!("wrote assignment to {out}");
    }
    if !report.is_valid() {
        exit(3);
    }
}

/// The multistart protocol with every start traced into the `--trace`
/// sink (monomorphised away entirely when no trace file was requested):
/// the sink takes the engine events of every start, then the start
/// summaries and the quality phase.
struct Solve<'a> {
    hg: &'a Hypergraph,
    fixed: &'a FixedVertices,
    balance: &'a BalanceConstraint,
    engine: &'a EngineConfig,
    driver: &'a Multistart,
    seed: u64,
    threads: usize,
}

impl TraceRun for Solve<'_> {
    type Output = Result<MultistartOutcome, PartitionError>;

    fn run<S: Sink + Sync>(self, sink: &S) -> Self::Output {
        self.driver.run_parallel(
            self.hg,
            self.fixed,
            self.balance,
            self.threads,
            self.seed,
            self.engine,
            sink,
            sink,
            &CancelToken::never(),
        )
    }
}
