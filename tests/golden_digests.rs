//! Golden digests: fixed-seed outputs pinned across commits.
//!
//! Every public way to run an engine is driven on one small netlist with
//! about 10% of its vertices fixed, at one and at two worker threads, and
//! its output is folded into a 64-bit FNV-1a digest: the partition vector,
//! the reported value, and every trace event's JSONL line (with the
//! wall-clock `StartFinished.micros` zeroed). A refactor that claims to be
//! output-preserving must leave every digest unchanged. A change that
//! alters partitions on purpose re-records the table below and says why.
//!
//! On a mismatch the test prints the whole recomputed table, ready to paste
//! over [`GOLDEN`].

use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Hypergraph, Objective, PartId, Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_netgen::instances::ibm01_like_scaled;
use fixed_vertices_repro::vlsi_partition::trace::{Event, NullSink, VecSink};
use fixed_vertices_repro::vlsi_partition::{
    refine_from_partition_ctx, CancelToken, EngineConfig, KwayRefiner, MultilevelConfig,
    Multistart, PartitionResult, Partitioner, Refiner, RunCtx, ENGINES,
};
use vlsi_rng::{ChaCha8Rng, SeedableRng};

/// Recorded digests, one per case. No answer depends on the thread count,
/// so each case must produce its digest at both budgets.
const GOLDEN: &[(&str, u64)] = &[
    ("fm/k2", 0x57c877fa53fc5534),
    ("ml/k2", 0x4e91fb030ecbb1bc),
    ("kl/k2", 0xf888348ae42b93fb),
    ("sa/k2", 0xd723cef41b6d0d05),
    ("rb/k2", 0x15a5270520291b53),
    ("kway/k2", 0xb9dd3e2022664162),
    ("rb/k4", 0x95e75567539e2fd5),
    ("kway/k4", 0x1b02c8948af74965),
    ("rb/k4/km1", 0x6fadbedd0132a7f5),
    ("kway/k4/km1", 0xa43b6717478e450c),
    ("multistart/run", 0x0f653179944ba73f),
    ("multistart/run_parallel", 0x3961f01cf2124fea),
    ("multistart/ml_vcycle", 0x078ca0eb36aa98e8),
    ("warmstart/k2", 0x1fac5516ab2b1252),
    ("warmstart/k4/km1", 0x1e8238469bc47de6),
    ("kway_refiner/k4/km1", 0x5e5d6ce04c9905cc),
];

const SEED: u64 = 1999;
const TOLERANCE: f64 = 0.1;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of one run: parts, value, then the deterministic event stream.
fn digest(parts: &[PartId], value: u64, events: &[Event]) -> u64 {
    let mut h = Fnv::new();
    for p in parts {
        h.bytes(&p.0.to_le_bytes());
    }
    h.bytes(&value.to_le_bytes());
    for e in events {
        let e = match *e {
            Event::StartFinished { start, cut, .. } => Event::StartFinished {
                start,
                cut,
                micros: 0,
            },
            ref other => other.clone(),
        };
        h.bytes(e.to_jsonl().as_bytes());
        h.bytes(b"\n");
    }
    h.0
}

fn result_digest(r: &PartitionResult, sink: &VecSink) -> u64 {
    digest(&r.parts, r.cut, &sink.take())
}

/// The instance: a scaled ibm01-like netlist with every tenth vertex fixed,
/// round-robin over the `k` parts.
struct Instance {
    hg: Hypergraph,
    fixed: FixedVertices,
    balance: BalanceConstraint,
    k: usize,
}

/// The part vertex `v` is fixed in, if any.
fn fixed_part(v: usize, k: usize) -> Option<PartId> {
    v.is_multiple_of(10).then(|| PartId(((v / 10) % k) as u32))
}

fn instance(k: usize) -> Instance {
    let hg = ibm01_like_scaled(0.04, 7).hypergraph;
    let mut fixed = FixedVertices::all_free(hg.num_vertices());
    for v in 0..hg.num_vertices() {
        if let Some(p) = fixed_part(v, k) {
            fixed.fix(VertexId(v as u32), p);
        }
    }
    let balance = BalanceConstraint::even(k, hg.total_weights(), Tolerance::Relative(TOLERANCE));
    Instance {
        hg,
        fixed,
        balance,
        k,
    }
}

/// A deliberately unrefined seed: fixed vertices on their part, every
/// other vertex round-robin.
fn round_robin_seed(inst: &Instance) -> Vec<PartId> {
    (0..inst.hg.num_vertices())
        .map(|v| fixed_part(v, inst.k).unwrap_or(PartId((v % inst.k) as u32)))
        .collect()
}

fn engine_case(inst: &Instance, engine: &EngineConfig, threads: usize) -> u64 {
    let sink = VecSink::new();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let ctx = RunCtx::new(&mut rng).with_sink(&sink).with_threads(threads);
    match engine.partition_ctx(&inst.hg, &inst.fixed, &inst.balance, ctx) {
        Ok(r) => result_digest(&r, &sink),
        Err(e) => panic!("{} failed: {e}", engine.name()),
    }
}

fn compute() -> Vec<(String, usize, u64)> {
    let bi = instance(2);
    let quad = instance(4);
    let ml = EngineConfig::Multilevel(MultilevelConfig::default());
    let never = CancelToken::never();
    let mut out = Vec::new();
    for threads in [1usize, 2] {
        let mut push = |name: String, d: u64| out.push((name, threads, d));

        for info in ENGINES {
            let engine = EngineConfig::by_name(info.name).unwrap();
            push(
                format!("{}/k2", info.name),
                engine_case(&bi, &engine, threads),
            );
        }
        for name in ["rb", "kway"] {
            let engine = EngineConfig::by_name(name).unwrap();
            push(format!("{name}/k4"), engine_case(&quad, &engine, threads));
        }
        for name in ["rb", "kway"] {
            let engine = EngineConfig::by_name(name)
                .unwrap()
                .with_objective(Objective::KMinus1);
            push(
                format!("{name}/k4/km1"),
                engine_case(&quad, &engine, threads),
            );
        }

        let quality = Multistart::new(4).vcycles(2).ensemble(true);
        let sink = VecSink::new();
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let o = quality
            .run(
                &bi.hg,
                &bi.fixed,
                &bi.balance,
                &ml,
                RunCtx::new(&mut rng).with_sink(&sink).with_threads(threads),
            )
            .unwrap();
        push("multistart/run".into(), result_digest(&o.best, &sink));

        let sink = VecSink::new();
        let o = quality
            .run_parallel(
                &bi.hg,
                &bi.fixed,
                &bi.balance,
                threads,
                SEED,
                &ml,
                &sink,
                &NullSink,
                &never,
            )
            .unwrap();
        push(
            "multistart/run_parallel".into(),
            result_digest(&o.best, &sink),
        );

        let sink = VecSink::new();
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let o = Multistart::new(1)
            .vcycles(1)
            .run(
                &bi.hg,
                &bi.fixed,
                &bi.balance,
                &ml,
                RunCtx::new(&mut rng).with_sink(&sink).with_threads(threads),
            )
            .unwrap();
        push("multistart/ml_vcycle".into(), result_digest(&o.best, &sink));

        for (inst, objective, label) in [
            (&bi, Objective::Cut, "k2"),
            (&quad, Objective::KMinus1, "k4/km1"),
        ] {
            let sink = VecSink::new();
            let mut rng = ChaCha8Rng::seed_from_u64(SEED);
            let o = refine_from_partition_ctx(
                &inst.hg,
                &inst.fixed,
                &inst.balance,
                &round_robin_seed(inst),
                objective,
                4,
                RunCtx::new(&mut rng).with_sink(&sink).with_threads(threads),
            )
            .unwrap();
            push(
                format!("warmstart/{label}"),
                result_digest(&o.result, &sink),
            );
        }

        let sink = VecSink::new();
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let initial = EngineConfig::by_name("rb")
            .unwrap()
            .partition_ctx(&quad.hg, &quad.fixed, &quad.balance, RunCtx::new(&mut rng))
            .unwrap();
        let refiner = KwayRefiner {
            objective: Objective::KMinus1,
            max_passes: 4,
        };
        let r = refiner
            .refine_ctx(
                &quad.hg,
                &quad.fixed,
                &quad.balance,
                initial.parts,
                RunCtx::new(&mut rng).with_sink(&sink).with_threads(threads),
            )
            .unwrap();
        push("kway_refiner/k4/km1".into(), result_digest(&r, &sink));
    }
    out
}

#[test]
fn fixed_seed_outputs_match_the_recorded_digests() {
    let actual = compute();
    let expected: Vec<(String, usize, u64)> = [1, 2]
        .into_iter()
        .flat_map(|t| {
            GOLDEN
                .iter()
                .map(move |&(name, d)| (name.to_string(), t, d))
        })
        .collect();
    if actual != expected {
        let mut changed = String::new();
        let mut table = String::new();
        for (name, t, d) in &actual {
            if !expected.contains(&(name.clone(), *t, *d)) {
                changed.push_str(&format!("  {name} at {t} threads: {d:#018x}\n"));
            }
            if *t == 1 {
                table.push_str(&format!("    ({name:?}, {d:#018x}),\n"));
            }
        }
        panic!("golden digests differ:\n{changed}recomputed table at one thread:\n{table}");
    }
}
