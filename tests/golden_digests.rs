//! Golden digests: fixed-seed outputs pinned across commits.
//!
//! Every public way to run an engine is driven on one small netlist with
//! about 10% of its vertices fixed, and its output is folded into three
//! 64-bit FNV-1a digests. `Multistart::run_parallel`, the one entry point a
//! thread count reaches, runs with its starts on one and on two workers,
//! and both runs must produce the recorded digest. [`GOLDEN`] covers
//! the partition vector, the reported value, and every trace event's JSONL
//! line (with the wall-clock `StartFinished.micros` zeroed). [`ANSWERS`]
//! covers the same without the `move` events, and with each `pass_end`
//! reduced to its pass, best prefix and cuts: what a pass keeps, not how
//! many moves it tried. [`PARTS`] covers the partition vector and the
//! reported value alone: the answer, whatever the trace says about how it
//! was reached.
//!
//! A refactor that claims to be output-preserving must leave every digest
//! unchanged. One that only ends FM passes earlier may re-record `GOLDEN`
//! but must leave `ANSWERS` and `PARTS` alone. One that only drops passes
//! that provably change nothing (a k-way round pass started at the
//! previous pass's fixpoint) may re-record `GOLDEN` and `ANSWERS`, never
//! `PARTS`. A change that alters partitions on purpose re-records all
//! three tables and says why.
//!
//! On a mismatch the test prints the recomputed tables, ready to paste
//! over [`GOLDEN`], [`ANSWERS`] and [`PARTS`].
//!
//! [`INSTANCES`] pins the callers of the block-instance builder
//! (`induced_subgraph`) on a small netgen circuit: the placer's positions
//! (f64 bits) and per-bisection `(movable, terminal)` counts with terminal
//! propagation on and off, Table IV's standard instances (pins per net,
//! net and vertex weights, fixities, `to_parent`) and the Rent
//! extraction's samples.
//!
//! [`CIRCUITS`] pins the netlist generator: for the IBM-like presets, the
//! million-cell scale presets and edge configurations run through both
//! `Generator::generate` and `scale::build_circuit`, a digest of the
//! circuit's name, vertex weights, nets (weight and pins in order),
//! placement (f64 bits), pad offset and die.

use fixed_vertices_repro::vlsi_experiments::rent_extraction::rent_samples;
use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Hypergraph, Objective, PartId, Tolerance, VertexId,
};
use fixed_vertices_repro::vlsi_netgen::blocks::standard_instances;
use fixed_vertices_repro::vlsi_netgen::instances::{
    ibm01_like, ibm01_like_scaled, ibm02_like, ibm02_like_scaled, ibm03_like, ibm03_like_scaled,
    ibm04_like, ibm04_like_scaled, ibm05_like, ibm05_like_scaled, million_cells_scaled,
    ten_million_cells_scaled,
};
use fixed_vertices_repro::vlsi_netgen::scale::build_circuit;
use fixed_vertices_repro::vlsi_netgen::synthetic::{Generator, GeneratorConfig};
use fixed_vertices_repro::vlsi_netgen::{Circuit, Point};
use fixed_vertices_repro::vlsi_partition::trace::{Event, NullSink, VecSink};
use fixed_vertices_repro::vlsi_partition::{
    refine_from_partition_ctx, CancelToken, EngineConfig, KwayRefiner, MultilevelConfig,
    Multistart, PartitionResult, Partitioner, Refiner, RunCtx, ENGINES,
};
use fixed_vertices_repro::vlsi_placer::{PlacerConfig, TopDownPlacer};
use vlsi_rng::{ChaCha8Rng, SeedableRng};

/// Recorded digests, one per case. No answer depends on the worker count,
/// so `multistart/run_parallel` must produce its digest at both.
const GOLDEN: &[(&str, u64)] = &[
    ("fm/k2", 0x57c877fa53fc5534),
    ("ml/k2", 0xbdc85dbb0b4ce7ce),
    ("kl/k2", 0xf888348ae42b93fb),
    ("sa/k2", 0xd723cef41b6d0d05),
    ("rb/k2", 0x05ac98315f56bd92),
    ("kway/k2", 0xa27a918453c1e744),
    ("rb/k4", 0x694d6324cc97229c),
    ("kway/k4", 0xfa172035acb30e42),
    ("rb/k4/km1", 0x649f9f47d9086a68),
    ("kway/k4/km1", 0xdfe309559b888533),
    ("multistart/run", 0x448788efae3b5a7d),
    ("multistart/run_parallel", 0x1a811d204195ffa7),
    ("multistart/ml_vcycle", 0x50ead22bb64b720c),
    ("warmstart/k2", 0x82fb2fca89324f31),
    ("warmstart/k4/km1", 0x701f667017977035),
    ("kway_refiner/k4/km1", 0x5e5d6ce04c9905cc),
];

/// Recorded answer digests, one per case, in the order of [`GOLDEN`].
const ANSWERS: &[(&str, u64)] = &[
    ("fm/k2", 0x772e5da9baf57a05),
    ("ml/k2", 0xb6a2be9b843e1aff),
    ("kl/k2", 0xde41ef9d0a6162e4),
    ("sa/k2", 0xd723cef41b6d0d05),
    ("rb/k2", 0x510ba527309af923),
    ("kway/k2", 0x5eae9cec4370dcb3),
    ("rb/k4", 0xe08493b5cfdc5950),
    ("kway/k4", 0xb630c38b6b27beb7),
    ("rb/k4/km1", 0x37b005ca0f87df60),
    ("kway/k4/km1", 0x5e53cde160509550),
    ("multistart/run", 0x5052f312594dc45c),
    ("multistart/run_parallel", 0xfe26bf0cd96428eb),
    ("multistart/ml_vcycle", 0x547d96494b71a21e),
    ("warmstart/k2", 0x82fb2fca89324f31),
    ("warmstart/k4/km1", 0x701f667017977035),
    ("kway_refiner/k4/km1", 0x5e5d6ce04c9905cc),
];

/// Recorded partition-and-value digests, one per case, in the order of
/// [`GOLDEN`].
const PARTS: &[(&str, u64)] = &[
    ("fm/k2", 0x8366850565758334),
    ("ml/k2", 0x6ff144346ae0a399),
    ("kl/k2", 0x77fd370941d28451),
    ("sa/k2", 0xe47bf9e47a191ae2),
    ("rb/k2", 0xa6433feb33e6b82f),
    ("kway/k2", 0xff00410f5b9b899f),
    ("rb/k4", 0xec8ad524ef847933),
    ("kway/k4", 0x19550d2e47ebf659),
    ("rb/k4/km1", 0xae954712d9a5e4f1),
    ("kway/k4/km1", 0xd34e0f78da1e80b8),
    ("multistart/run", 0x0d80505ebba4c09e),
    ("multistart/run_parallel", 0x32452cefac05c44f),
    ("multistart/ml_vcycle", 0xb0246cb462e932b8),
    ("warmstart/k2", 0x5f34fa6032ff06a8),
    ("warmstart/k4/km1", 0x2ada79663f33a591),
    ("kway_refiner/k4/km1", 0xae954712d9a5e4f1),
];

/// Recorded digests of the block-instance builder's callers, one per case.
const INSTANCES: &[(&str, u64)] = &[
    ("placer/propagate", 0x4a6d6618f8f57857),
    ("placer/no_propagate", 0x4ce7efb2e6b6a1ee),
    ("table4/standard_instances", 0x01f4d60911355fda),
    ("rent/samples", 0x0599afb79323fe79),
];

/// Recorded digests of generated circuits, one per case.
const CIRCUITS: &[(&str, u64)] = &[
    ("ibm01/1999", 0x1662d5f04c070a78),
    ("ibm01/s0.05/7", 0x437c03a24a59783b),
    ("ibm01/s0.2/3", 0x6c88b9a23375f2ab),
    ("ibm02/1999", 0x3d82ae98187a6ac2),
    ("ibm02/s0.05/7", 0xe97766273d310913),
    ("ibm02/s0.2/3", 0x08833430d8f74800),
    ("ibm03/1999", 0xaa6ce36cb6f8948d),
    ("ibm03/s0.05/7", 0x8e01bee700752400),
    ("ibm03/s0.2/3", 0x9f26cfcaf01b6b42),
    ("ibm04/1999", 0x39ed36433c757db9),
    ("ibm04/s0.05/7", 0x12277dc7ef38ebd9),
    ("ibm04/s0.2/3", 0x5291677144f9d322),
    ("ibm05/1999", 0xe5957013f9debd7d),
    ("ibm05/s0.05/7", 0x48d8db60d2024a43),
    ("ibm05/s0.2/3", 0xb253ea2e67c44c35),
    ("ibm01/1", 0xe460873bd9b3d9c4),
    ("rent-1m/s0.01/1", 0xddca00a3b42b56b8),
    ("rent-1m/s0.01/7", 0x51095ae377a997ba),
    ("rent-1m/s0.05/1999", 0xf480abaa53af3b76),
    ("rent-10m/s0.001/1", 0x3725521ee0f84067),
    ("generate/no_pads", 0x7c268e7a4269fead),
    ("build_circuit/no_pads", 0xc0cc407281af2e73),
    ("generate/pads_exceed_endpoints", 0x952bcf36d0e52b0d),
    ("build_circuit/pads_exceed_endpoints", 0xa0d43944002bb293),
    ("generate/one_cell", 0x6c94a3d26caa9d8f),
    ("build_circuit/one_cell", 0x9066e57562170c8d),
    ("generate/leaf_size_1", 0xbb582a662f827f33),
    ("build_circuit/leaf_size_1", 0x60e6295a9f9b0643),
    ("generate/single_leaf", 0xcbed805da76d73be),
    ("build_circuit/single_leaf", 0x61aaedb980facd6a),
    ("generate/all_open", 0x8ae8422dfa412fd5),
    ("build_circuit/all_open", 0x63d82f1cc2d2deb1),
    ("generate/all_closed", 0x0232468a72aed089),
    ("build_circuit/all_closed", 0x1a30fcb9a12f402f),
    ("generate/steep", 0x2c8169708f11c925),
    ("build_circuit/steep", 0x275b19d3f16a0643),
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

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Digest of one run: parts, value, then the deterministic event stream.
/// With `answers_only`, `move` events are left out and each `pass_end`
/// keeps only its pass, best prefix and cuts.
fn digest(parts: &[PartId], value: u64, events: &[Event], answers_only: bool) -> u64 {
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
            Event::MoveCommitted { .. } if answers_only => continue,
            Event::PassEnd {
                pass,
                best_prefix,
                cut_before,
                cut_after,
                ..
            } if answers_only => Event::PassEnd {
                pass,
                moves: 0,
                best_prefix,
                cut_before,
                cut_after,
                bucket_ops: 0,
            },
            ref other => other.clone(),
        };
        h.bytes(e.to_jsonl().as_bytes());
        h.bytes(b"\n");
    }
    h.0
}

/// The full, the answer and the partition digest of one run.
fn result_digest(r: &PartitionResult, sink: &VecSink) -> Digests {
    let events = sink.take();
    (
        digest(&r.parts, r.cut, &events, false),
        digest(&r.parts, r.cut, &events, true),
        digest(&r.parts, r.cut, &[], false),
    )
}

/// One case's [`GOLDEN`], [`ANSWERS`] and [`PARTS`] digests.
type Digests = (u64, u64, u64);

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

fn engine_case(inst: &Instance, engine: &EngineConfig) -> Digests {
    let sink = VecSink::new();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let ctx = RunCtx::new(&mut rng).with_sink(&sink);
    match engine.partition_ctx(&inst.hg, &inst.fixed, &inst.balance, ctx) {
        Ok(r) => result_digest(&r, &sink),
        Err(e) => panic!("{} failed: {e}", engine.name()),
    }
}

/// The worker counts a case runs at: only `run_parallel` takes one.
fn workers(name: &str) -> &'static [usize] {
    if name == "multistart/run_parallel" {
        &[1, 2]
    } else {
        &[1]
    }
}

/// Every case's name, worker count and digests.
fn compute() -> Vec<(String, usize, Digests)> {
    let bi = instance(2);
    let quad = instance(4);
    let ml = EngineConfig::Multilevel(MultilevelConfig::default());
    let never = CancelToken::never();
    let mut out = Vec::new();
    let mut push = |name: String, d: Digests| out.push((name, 1, d));

    for info in ENGINES {
        let engine = EngineConfig::by_name(info.name).unwrap();
        push(format!("{}/k2", info.name), engine_case(&bi, &engine));
    }
    for name in ["rb", "kway"] {
        let engine = EngineConfig::by_name(name).unwrap();
        push(format!("{name}/k4"), engine_case(&quad, &engine));
    }
    for name in ["rb", "kway"] {
        let engine = EngineConfig::by_name(name)
            .unwrap()
            .with_objective(Objective::KMinus1);
        push(format!("{name}/k4/km1"), engine_case(&quad, &engine));
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
            RunCtx::new(&mut rng).with_sink(&sink),
        )
        .unwrap();
    push("multistart/run".into(), result_digest(&o.best, &sink));

    for &threads in workers("multistart/run_parallel") {
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
        out.push((
            "multistart/run_parallel".into(),
            threads,
            result_digest(&o.best, &sink),
        ));
    }
    let mut push = |name: String, d: Digests| out.push((name, 1, d));

    let sink = VecSink::new();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let o = Multistart::new(1)
        .vcycles(1)
        .run(
            &bi.hg,
            &bi.fixed,
            &bi.balance,
            &ml,
            RunCtx::new(&mut rng).with_sink(&sink),
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
            RunCtx::new(&mut rng).with_sink(&sink),
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
            RunCtx::new(&mut rng).with_sink(&sink),
        )
        .unwrap();
    push("kway_refiner/k4/km1".into(), result_digest(&r, &sink));
    out
}

#[test]
fn fixed_seed_outputs_match_the_recorded_digests() {
    let actual = compute();
    let expected: Vec<(String, usize, Digests)> = GOLDEN
        .iter()
        .zip(ANSWERS)
        .zip(PARTS)
        .flat_map(|((&(name, full), &(_, answer)), &(_, parts))| {
            workers(name)
                .iter()
                .map(move |&t| (name.to_string(), t, (full, answer, parts)))
        })
        .collect();
    if actual != expected {
        let mut changed = String::new();
        let mut tables = [String::new(), String::new(), String::new()];
        for (name, t, d) in &actual {
            let got = [d.0, d.1, d.2];
            let want = expected
                .iter()
                .find(|(n, et, _)| n == name && et == t)
                .map(|(_, _, w)| [w.0, w.1, w.2]);
            for (i, table) in ["GOLDEN", "ANSWERS", "PARTS"].iter().enumerate() {
                if want.is_some_and(|w| w[i] != got[i]) {
                    changed.push_str(&format!(
                        "  {name} at {t} workers: {table} {:#018x}\n",
                        got[i]
                    ));
                }
                if *t == 1 {
                    tables[i].push_str(&format!("    ({name:?}, {:#018x}),\n", got[i]));
                }
            }
        }
        let [golden, answers, parts] = tables;
        panic!(
            "golden digests differ:\n{changed}recomputed tables at one worker:\n\
             GOLDEN:\n{golden}ANSWERS:\n{answers}PARTS:\n{parts}"
        );
    }
}

/// Places `circuit` with terminal propagation on or off and returns the
/// positions and the per-bisection `(movable, terminal)` counts.
fn place(circuit: &Circuit, propagate: bool) -> (Vec<Point>, Vec<(usize, usize)>) {
    let placer = TopDownPlacer::new(PlacerConfig {
        terminal_propagation: propagate,
        ..PlacerConfig::default()
    });
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let placement = placer.place_circuit(circuit, &mut rng).unwrap();
    (placement.positions, placement.bisections)
}

/// Every block-instance case's name and digest.
fn instance_cases() -> Vec<(String, u64)> {
    let circuit = ibm01_like_scaled(0.04, 7);
    let mut out = Vec::new();
    for (name, propagate) in [("placer/propagate", true), ("placer/no_propagate", false)] {
        let (positions, bisections) = place(&circuit, propagate);
        let mut h = Fnv::new();
        for p in &positions {
            h.u64(p.x.to_bits());
            h.u64(p.y.to_bits());
        }
        for &(movable, terminal) in &bisections {
            h.u64(movable as u64);
            h.u64(terminal as u64);
        }
        out.push((name.to_string(), h.0));
    }

    let mut h = Fnv::new();
    for inst in standard_instances(&circuit, None) {
        let hg = &inst.hypergraph;
        h.bytes(inst.name.as_bytes());
        h.u64(hg.num_vertices() as u64);
        for v in hg.vertices() {
            for &w in hg.vertex_weights(v) {
                h.u64(w);
            }
            h.bytes(format!("{};", inst.fixed.fixity(v)).as_bytes());
            h.u64(u64::from(inst.to_parent[v.index()].0));
        }
        h.u64(hg.num_nets() as u64);
        for n in hg.nets() {
            h.u64(hg.net_weight(n));
            h.u64(hg.net_size(n) as u64);
            for p in hg.net_pins(n) {
                h.u64(u64::from(p.0));
            }
        }
    }
    out.push(("table4/standard_instances".into(), h.0));

    let mut h = Fnv::new();
    for s in rent_samples(&circuit.hypergraph, 32, &MultilevelConfig::default(), SEED).unwrap() {
        h.u64(s.cells as u64);
        h.u64(s.external as u64);
    }
    out.push(("rent/samples".into(), h.0));
    out
}

#[test]
fn block_instance_callers_match_the_recorded_digests() {
    let actual = instance_cases();
    let expected: Vec<(String, u64)> = INSTANCES
        .iter()
        .map(|&(name, d)| (name.to_string(), d))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
            .collect();
        panic!("block-instance digests differ; recomputed INSTANCES:\n{table}");
    }
}

/// Digest of a whole circuit: name, vertex weights, nets (weight and pins
/// in order), placement (f64 bits), pad offset and die.
fn circuit_digest(c: &Circuit) -> u64 {
    let hg = &c.hypergraph;
    let mut h = Fnv::new();
    h.bytes(c.name.as_bytes());
    h.u64(hg.num_vertices() as u64);
    for v in hg.vertices() {
        for &w in hg.vertex_weights(v) {
            h.u64(w);
        }
    }
    h.u64(hg.num_nets() as u64);
    for n in hg.nets() {
        h.u64(hg.net_weight(n));
        h.u64(hg.net_size(n) as u64);
        for p in hg.net_pins(n) {
            h.u64(u64::from(p.0));
        }
    }
    for p in &c.placement {
        h.u64(p.x.to_bits());
        h.u64(p.y.to_bits());
    }
    h.u64(c.pad_offset as u64);
    for x in [c.die.x0, c.die.y0, c.die.x1, c.die.y1] {
        h.u64(x.to_bits());
    }
    h.0
}

/// Edge configurations of the generator, each run through both entry
/// points: no pads, far more pads than root endpoints, one cell, leaf size
/// one, a single leaf, every net kept open and extended, none kept open or
/// extended, and a steep exponent at two pins per cell.
fn edge_configs() -> Vec<(&'static str, GeneratorConfig)> {
    let cfg = |name: &str, num_cells: usize| GeneratorConfig {
        name: name.to_string(),
        num_cells,
        ..GeneratorConfig::default()
    };
    vec![
        (
            "no_pads",
            GeneratorConfig {
                num_pads: 0,
                ..cfg("no_pads", 500)
            },
        ),
        (
            "pads_exceed_endpoints",
            GeneratorConfig {
                num_pads: 2000,
                ..cfg("pads_exceed_endpoints", 40)
            },
        ),
        ("one_cell", cfg("one_cell", 1)),
        (
            "leaf_size_1",
            GeneratorConfig {
                leaf_size: 1,
                ..cfg("leaf_size_1", 300)
            },
        ),
        (
            "single_leaf",
            GeneratorConfig {
                leaf_size: 64,
                ..cfg("single_leaf", 50)
            },
        ),
        (
            "all_open",
            GeneratorConfig {
                keep_open_probability: 1.0,
                extend_probability: 1.0,
                ..cfg("all_open", 400)
            },
        ),
        (
            "all_closed",
            GeneratorConfig {
                keep_open_probability: 0.0,
                extend_probability: 0.0,
                ..cfg("all_closed", 400)
            },
        ),
        (
            "steep",
            GeneratorConfig {
                rent_exponent: 0.9,
                pins_per_cell: 2.0,
                num_pads: 5,
                ..cfg("steep", 777)
            },
        ),
    ]
}

/// Every circuit case's name and digest.
fn circuit_cases() -> Vec<(String, u64)> {
    type Full = fn(u64) -> Circuit;
    type Scaled = fn(f64, u64) -> Circuit;
    let ibm: [(&str, Full, Scaled); 5] = [
        ("ibm01", ibm01_like, ibm01_like_scaled),
        ("ibm02", ibm02_like, ibm02_like_scaled),
        ("ibm03", ibm03_like, ibm03_like_scaled),
        ("ibm04", ibm04_like, ibm04_like_scaled),
        ("ibm05", ibm05_like, ibm05_like_scaled),
    ];
    let mut out = Vec::new();
    let mut push = |name: String, c: Circuit| out.push((name, circuit_digest(&c)));
    for (name, full, scaled) in ibm {
        push(format!("{name}/1999"), full(SEED));
        push(format!("{name}/s0.05/7"), scaled(0.05, 7));
        push(format!("{name}/s0.2/3"), scaled(0.2, 3));
    }
    push("ibm01/1".into(), ibm01_like(1));
    for (scale, seed) in [(0.01, 1), (0.01, 7), (0.05, 1999)] {
        push(
            format!("rent-1m/s{scale}/{seed}"),
            million_cells_scaled(scale, seed),
        );
    }
    push(
        "rent-10m/s0.001/1".into(),
        ten_million_cells_scaled(0.001, 1),
    );
    for (name, cfg) in edge_configs() {
        push(
            format!("generate/{name}"),
            Generator::new(cfg.clone()).generate(5),
        );
        push(format!("build_circuit/{name}"), build_circuit(&cfg, 5));
    }
    out
}

#[test]
fn generated_circuits_match_the_recorded_digests() {
    let actual = circuit_cases();
    let expected: Vec<(String, u64)> = CIRCUITS
        .iter()
        .map(|&(name, d)| (name.to_string(), d))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
            .collect();
        panic!("circuit digests differ; recomputed CIRCUITS:\n{table}");
    }
}
