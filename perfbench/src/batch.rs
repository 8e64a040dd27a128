//! The batch workloads: what a `partition` CLI user pays. Set-up parses the
//! workload's `.hgr` + `.fix`; each job is one partition call on the parsed
//! input and is followed by the reference loop.

use std::fs::File;
use std::path::Path;
use std::time::Instant;

use vlsi_hypergraph::io::{read_fix, read_hgr};
use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Hypergraph, PartId, Tolerance};
use vlsi_partition::multilevel::{coarsen_once, CoarsenParams, Level};
use vlsi_partition::trace::{CounterSink, Counters, NullSink, Sink, Tee};
use vlsi_partition::{
    EngineConfig, KwayConfig, MultilevelConfig, MultilevelPartitioner, PartitionError,
    PartitionResult, Partitioner, RunCtx,
};
use vlsi_rng::{mix64, ChaCha8Rng, SeedableRng};

use crate::host::{peak_rss_mib, steal_pct, CpuTimes, RefLoop};
use crate::phases::{split, StampSink};
use crate::stats::{highest_tail, median, norm_ratio};
use crate::{legal, ms, Metrics, Opts, Outcome};

/// Smallest share of a traced job's latency its phase split must cover.
const MIN_COVERAGE: f64 = 0.9;
/// Balance tolerance of the k-way workload.
const KWAY_TOLERANCE: f64 = 0.1;
/// Seed of the coarsening chains timed for `parallel.coarsen_speedup`.
const COARSEN_SEED: u64 = 7;

/// The engine a batch workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// Default multilevel bisection, ±5%, one thread.
    Bisect,
    /// Direct multilevel k-way at k = 2, ±10%, one start, two threads. At
    /// k = 4 the engine returns balance-violating partitions on this
    /// circuit for many seeds (see NOTES.md), so the workload bisects.
    Kway2,
}

/// A parsed instance with its constraint.
pub struct Input {
    pub hg: Hypergraph,
    pub fixed: FixedVertices,
    pub balance: BalanceConstraint,
    pub k: usize,
}

impl Engine {
    fn input(self, hg: Hypergraph, fixed: FixedVertices) -> Input {
        let (k, balance) = match self {
            Engine::Bisect => (
                2,
                BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05)),
            ),
            Engine::Kway2 => (
                2,
                BalanceConstraint::even(2, hg.total_weights(), Tolerance::Relative(KWAY_TOLERANCE)),
            ),
        };
        Input {
            hg,
            fixed,
            balance,
            k,
        }
    }

    fn run<S: Sink>(
        self,
        input: &Input,
        seed: u64,
        sink: &S,
    ) -> Result<PartitionResult, PartitionError> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ctx = RunCtx::new(&mut rng).with_sink(sink);
        let (hg, fixed, balance) = (&input.hg, &input.fixed, &input.balance);
        match self {
            Engine::Bisect => MultilevelPartitioner::new(MultilevelConfig::default())
                .partition_ctx(hg, fixed, balance, ctx),
            Engine::Kway2 => EngineConfig::KwayDirect(KwayConfig {
                tolerance: KWAY_TOLERANCE,
                ..KwayConfig::default()
            })
            .partition_ctx(hg, fixed, balance, ctx.with_threads(2)),
        }
    }
}

fn parse(dir: &Path, fix_file: &str) -> Result<(Hypergraph, FixedVertices), String> {
    let open = |name: &str| File::open(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let hg = read_hgr(open("circuit.hgr")?).map_err(|e| format!("circuit.hgr: {e}"))?;
    let fixed =
        read_fix(open(fix_file)?, hg.num_vertices()).map_err(|e| format!("{fix_file}: {e}"))?;
    Ok((hg, fixed))
}

/// Times the coarsening chain a multilevel run builds on `input` (the
/// engines' own cluster caps, same seed) at one and at two threads, and
/// returns the one-thread time over the two-thread time.
pub fn coarsen_speedup(input: &Input) -> f64 {
    let cfg = MultilevelConfig::default();
    let k = input.k;
    let chain_ms = |threads: usize| {
        let params = CoarsenParams {
            max_cluster_weight: ((input.hg.total_weight() as f64) * cfg.max_cluster_fraction
                / (k as f64 / 2.0))
                .ceil()
                .max(1.0) as u64,
            max_cluster_weights: Vec::new(),
            max_net_size_for_matching: 64,
            max_fixed_part_weight: (0..k)
                .map(|p| input.balance.max(PartId::from_index(p), 0))
                .collect(),
            allow_free_fixed_merge: false,
            threads,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(COARSEN_SEED);
        let t = Instant::now();
        let mut levels: Vec<Level> = Vec::new();
        loop {
            let (hg, fixed) = levels
                .last()
                .map_or((&input.hg, &input.fixed), |l| (&l.hg, &l.fixed));
            if hg.num_vertices() <= cfg.coarsest_size.max(4 * k) {
                break;
            }
            match coarsen_once(hg, fixed, &params, cfg.min_shrink, None, &mut rng) {
                Some(level) => levels.push(level),
                None => break,
            }
        }
        let elapsed = ms(t.elapsed());
        std::hint::black_box(&levels);
        elapsed
    };
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        one.push(chain_ms(1));
        two.push(chain_ms(2));
    }
    median(&one).unwrap_or(0.0) / median(&two).unwrap_or(f64::INFINITY)
}

/// Per-job phase times and first-pass counts of the traced executions.
#[derive(Default)]
struct Traced {
    lat: Vec<f64>,
    coarsen: Vec<f64>,
    initial: Vec<f64>,
    refine: Vec<f64>,
    finest: Vec<f64>,
    kway: Vec<f64>,
    propose: Vec<f64>,
    apply: Vec<f64>,
    min_coverage: Option<f64>,
    /// Sums over the traced jobs.
    levels: u64,
    counters: Counters,
    kway_moves: u64,
    kway_kept: u64,
    kway_bucket_ops: u64,
}

impl Traced {
    /// Runs job `seed` traced, checks it against the untraced `plain`
    /// result and the coverage floor, and records its phases. Returns
    /// whether the job passed.
    fn job(&mut self, engine: Engine, input: &Input, seed: u64, plain: &PartitionResult) -> bool {
        let stamps = StampSink::default();
        let counters = CounterSink::new();
        let t0 = Instant::now();
        let traced = engine.run(input, seed, &Tee::new(&stamps, &counters));
        let lat = ms(t0.elapsed());
        let Ok(traced) = traced else {
            return false;
        };
        let s = split(t0, &stamps.take());
        let coverage = s.covered_ms / lat;
        self.min_coverage = Some(self.min_coverage.map_or(coverage, |c: f64| c.min(coverage)));
        self.lat.push(lat);
        self.coarsen.push(s.coarsen_ms);
        self.initial.push(s.initial_ms);
        self.refine.push(s.refine_ms);
        self.finest.push(s.finest_ms);
        self.kway.push(s.kway_ms);
        self.propose.push(s.propose_ms);
        self.apply.push(s.apply_ms);
        let c = counters.snapshot();
        self.levels += u64::from(s.levels);
        self.counters.passes += c.passes;
        self.counters.moves_tried += c.moves_tried;
        self.counters.moves_committed += c.moves_committed;
        self.counters.bucket_ops += c.bucket_ops;
        self.counters.kway_passes += c.kway_passes;
        self.counters.rounds += c.rounds;
        self.kway_moves += s.kway_moves;
        self.kway_kept += s.kway_kept;
        self.kway_bucket_ops += s.kway_bucket_ops;
        traced.cut == plain.cut && traced.parts == plain.parts && coverage >= MIN_COVERAGE
    }

    /// Per-layer metrics. The `CounterSink` folds k-way moves and bucket
    /// operations into its FM counters; the k-way passes' own totals are
    /// taken back out so `fm.*` counts 2-way FM alone.
    fn report(&self, m: &mut Metrics) {
        let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
        let per_job = |x: u64| x as f64 / self.lat.len().max(1) as f64;
        let c = &self.counters;
        let tried = c.moves_tried.saturating_sub(self.kway_moves);
        let committed = c.moves_committed.saturating_sub(self.kway_kept);
        m.set("coarsen.ms", med(&self.coarsen));
        m.set("coarsen.levels", per_job(self.levels));
        m.set("initial.ms", med(&self.initial));
        m.set("refine.ms", med(&self.refine));
        m.set("refine.finest_ms", med(&self.finest));
        m.set(
            "phase.coverage_pct",
            100.0 * self.min_coverage.unwrap_or(0.0),
        );
        m.set("fm.passes", per_job(c.passes));
        m.set("fm.moves_tried", per_job(tried));
        m.set("fm.moves_committed", per_job(committed));
        m.set(
            "fm.useful_move_ratio",
            if tried == 0 {
                0.0
            } else {
                committed as f64 / tried as f64
            },
        );
        m.set(
            "fm.bucket_ops",
            per_job(c.bucket_ops.saturating_sub(self.kway_bucket_ops)),
        );
        m.set("kway.refine_ms", med(&self.kway));
        m.set("kway.passes", per_job(c.kway_passes));
        m.set("parallel.rounds", per_job(c.rounds));
        m.set("parallel.propose_ms", med(&self.propose));
        m.set("parallel.apply_ms", med(&self.apply));
    }
}

/// A batch workload: an engine, the fixity file it reads, and the rate
/// that sizes its job list.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub engine: Engine,
    pub fix_file: &'static str,
    /// Jobs per second of `--seconds` on the machine the benchmark was
    /// sized on; the job list has that many distinct jobs, rounded to odd.
    pub jobs_per_second: f64,
}

/// Runs one batch workload: set-up, then a fixed list of distinct jobs
/// whose length follows from `opts.seconds`. A traced run executes every
/// job untraced and traced, so it runs half the list.
pub fn run(w: Workload, dir: &Path, opts: &Opts) -> Result<Outcome, String> {
    let mut refs = RefLoop::new();
    let cpu_before = CpuTimes::now();
    // Set-up is timed once before the jobs and once more after every job,
    // so its median spans the same machine windows as the job latencies.
    let mut setup_s = Vec::new();
    let mut timed_parse = || -> Result<_, String> {
        let t = Instant::now();
        let parsed = parse(dir, w.fix_file)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(parsed)
    };
    let (hg, fixed) = timed_parse()?;
    let input = w.engine.input(hg, fixed);
    let engine = w.engine;

    let mut out = Outcome::default();
    let mut traced = Traced::default();
    if opts.trace {
        out.metrics
            .set("parallel.coarsen_speedup", coarsen_speedup(&input));
    }
    let share = if opts.trace { 0.5 } else { 1.0 };
    let jobs = ((opts.seconds * w.jobs_per_second * share) as usize / 2) * 2 + 1;
    let (mut lat, mut norm, mut ref_ms, mut cuts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for j in 0..jobs {
        let seed = mix64(opts.seed ^ ((j as u64 + 1) << 32));
        out.attempted += 1;
        let t = Instant::now();
        let result = engine.run(&input, seed, &NullSink);
        let job_ms = ms(t.elapsed());
        let loop_ms = refs.time_ms();
        timed_parse()?;
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("job {j}: {e}");
                out.failed += 1;
                continue;
            }
        };
        let ok = legal(
            &input.hg,
            &input.fixed,
            &input.balance,
            input.k,
            &r.parts,
            r.cut,
        ) && (!opts.trace || traced.job(engine, &input, seed, &r));
        if !ok {
            eprintln!("job {j}: answer failed the referee");
            out.failed += 1;
            continue;
        }
        lat.push(job_ms);
        ref_ms.push(loop_ms);
        cuts.push(r.cut);
        norm.push(norm_ratio(job_ms, loop_ms).ok_or("reference loop took no time")?);
    }
    let steal = steal_pct(cpu_before, CpuTimes::now());
    let ref_med = median(&ref_ms).unwrap_or(0.0);
    println!(
        "host: ref_ms={ref_med} steal_pct={steal} jobs={} failed={}",
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
        traced.report(m);
        m.set("io.parse_ms", 1e3 * median(&setup_s).unwrap_or(0.0));
        if let Some(t) = tail {
            m.set("latency.tail_pct", t.pct);
            m.set("latency.tail_ms", t.value);
        }
        m.set("latency.p50_ms", median(&lat).unwrap_or(0.0));
        m.set("latency.samples", lat.len() as f64);
        m.set("host.ref_ms", ref_med);
        m.set("host.steal_pct", steal);
        if let (Some(t), Some(p)) = (median(&traced.lat), median(&lat)) {
            m.set("trace.overhead_pct", 100.0 * (t / p - 1.0));
        }
    } else {
        if let (Some(s), Some(n)) = (median(&setup_s), median(&norm)) {
            m.set("setup_s", s);
            m.set("latency_p50_norm", n);
        }
        if !cuts.is_empty() {
            m.set("cut", cuts.iter().sum::<u64>() as f64 / cuts.len() as f64);
        }
        m.set("peak_rss_mib", peak_rss_mib().ok_or("VmHWM unavailable")?);
    }
    Ok(out)
}
