//! Identity test pinning `cache_key` to the canonical encoding its hash,
//! and so every solution id, comes from.
//!
//! [`reference_key`] is the earlier key, verbatim apart from its name and
//! return type: every field as 8 little-endian bytes in a fixed order, the
//! engine name length-prefixed, a free vertex `u64::MAX`, a fixed one `0`
//! and its part, a multi-part one `1` and its part mask. `cache_key` now
//! writes a compact encoding of the same fields and hashes the reference
//! stream without building it. Over the testkit instance corpus, widened
//! with edge values (vertex weights 0, 2^56 and `u64::MAX`, net weights 0,
//! 2^56 and, alone, `i64::MAX`, the most a build accepts in total; one to
//! three resources, explicit capacities, multi-part fixities, one-pin
//! nets), two properties must hold:
//!
//! * the key's hash is FNV-1a 64 over the reference encoding, so every
//!   solution id is the one the earlier key gave;
//! * two keys' bytes are equal exactly when their reference encodings are,
//!   over near-identical variants of each case: a weight moved to the next
//!   vertex, a pin moved to the front of the next net, a net weight moved
//!   to the next net, `Free` against `FixedAny` over every part and against
//!   `Fixed` in every part, `Fixed(p)` against `FixedAny({p})`, the first
//!   two fixities re-spelled together, each configuration field nudged, a
//!   resource or a fixity added or dropped, and capacities dropped, added
//!   or swapped between parts.
//!
//! Scale the corpus with `TESTKIT_CASES` and re-base it with
//! `TESTKIT_SEED`.

use vlsi_hypergraph::{
    FixedVertices, Fixity, Hypergraph, HypergraphBuilder, Objective, PartCapacities, PartId,
    PartSet, VertexId,
};
use vlsi_rng::{fnv1a_64, Rng, RngCore, SeedableRng};
use vlsi_service::cache_key;
use vlsi_testkit::gen::{instances, InstanceConfig, RawInstance};
use vlsi_testkit::{prop_test, TestRng};

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The earlier key encoding (see the module docs).
#[allow(clippy::too_many_arguments)]
fn reference_key(
    engine: &str,
    k: usize,
    tolerance: f64,
    starts: usize,
    seed: u64,
    vcycles: usize,
    ensemble: bool,
    objective: Objective,
    part_capacities: Option<&PartCapacities>,
    hg: &Hypergraph,
    fixed: &FixedVertices,
) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(64 + 8 * (hg.num_vertices() + hg.num_pins()));
    push_u64(&mut bytes, engine.len() as u64);
    bytes.extend_from_slice(engine.as_bytes());
    push_u64(&mut bytes, k as u64);
    push_u64(&mut bytes, tolerance.to_bits());
    push_u64(&mut bytes, starts as u64);
    push_u64(&mut bytes, seed);
    push_u64(&mut bytes, vcycles as u64);
    push_u64(&mut bytes, ensemble as u64);
    push_u64(
        &mut bytes,
        match objective {
            Objective::Cut => 0,
            Objective::KMinus1 => 1,
            Objective::Soed => 2,
        },
    );
    match part_capacities {
        None => push_u64(&mut bytes, 0),
        Some(caps) => {
            push_u64(&mut bytes, 1);
            push_u64(&mut bytes, caps.num_parts() as u64);
            push_u64(&mut bytes, caps.num_resources() as u64);
            for &c in caps.as_flat() {
                push_u64(&mut bytes, c);
            }
        }
    }

    push_u64(&mut bytes, hg.num_vertices() as u64);
    push_u64(&mut bytes, hg.num_resources() as u64);
    for v in hg.vertices() {
        for &w in hg.vertex_weights(v) {
            push_u64(&mut bytes, w);
        }
    }
    push_u64(&mut bytes, hg.num_nets() as u64);
    for n in hg.nets() {
        push_u64(&mut bytes, hg.net_weight(n));
        push_u64(&mut bytes, hg.net_size(n) as u64);
        for &p in hg.net_pins(n) {
            push_u64(&mut bytes, p.index() as u64);
        }
    }

    push_u64(&mut bytes, fixed.len() as u64);
    for fixity in fixed.as_slice() {
        match fixity {
            Fixity::Free => push_u64(&mut bytes, u64::MAX),
            Fixity::Fixed(p) => {
                push_u64(&mut bytes, 0);
                push_u64(&mut bytes, p.index() as u64);
            }
            Fixity::FixedAny(set) => {
                push_u64(&mut bytes, 1);
                let mut mask = 0u64;
                for p in set.iter() {
                    mask |= 1 << p.index();
                }
                push_u64(&mut bytes, mask);
            }
        }
    }
    bytes
}

/// Everything `cache_key` reads, as plain data that variants edit.
#[derive(Debug, Clone)]
struct Case {
    engine: String,
    k: usize,
    tolerance: f64,
    starts: usize,
    seed: u64,
    vcycles: usize,
    ensemble: bool,
    objective: Objective,
    caps: Option<PartCapacities>,
    /// One weight row per vertex, every row as long.
    weights: Vec<Vec<u64>>,
    /// `(weight, pins)` per net.
    nets: Vec<(u64, Vec<usize>)>,
    fixities: Vec<Fixity>,
}

/// A case's key hash and bytes, and its reference encoding.
struct Encoded {
    hash: u64,
    solution_id: String,
    bytes: Vec<u8>,
    reference: Vec<u8>,
}

impl Case {
    fn encode(&self) -> Encoded {
        let mut b = HypergraphBuilder::with_resources(self.weights[0].len());
        for row in &self.weights {
            b.add_vertex_multi(row).expect("rows share one arity");
        }
        for (w, pins) in &self.nets {
            b.add_net(*w, pins.iter().map(|&p| VertexId::from_index(p)))
                .expect("distinct in-range pins");
        }
        let hg = b.build().expect("per-resource totals fit a u64");
        let fixed = FixedVertices::from_fixities(self.fixities.clone());
        let key = cache_key(
            &self.engine,
            self.k,
            self.tolerance,
            self.starts,
            self.seed,
            false,
            self.vcycles,
            self.ensemble,
            self.objective,
            self.caps.as_ref(),
            &hg,
            &fixed,
        );
        let reference = reference_key(
            &self.engine,
            self.k,
            self.tolerance,
            self.starts,
            self.seed,
            self.vcycles,
            self.ensemble,
            self.objective,
            self.caps.as_ref(),
            &hg,
            &fixed,
        );
        Encoded {
            hash: key.hash(),
            solution_id: key.solution_id(),
            bytes: key.as_bytes().to_vec(),
            reference,
        }
    }

    fn with(&self, edit: impl FnOnce(&mut Case)) -> Case {
        let mut case = self.clone();
        edit(&mut case);
        case
    }
}

/// Weights that sit on byte and varint boundaries.
const EDGE_VALUES: [u64; 14] = [
    0,
    1,
    0x7f,
    0x80,
    0xff,
    0x100,
    0x3fff,
    0x4000,
    (1 << 56) - 1,
    1 << 56,
    1 << 63,
    u64::MAX - 1,
    u64::MAX,
    0x0123_4567_89ab_cdef,
];

const ENGINES: [&str; 7] = [
    "ml",
    "fm",
    "kway",
    "rb",
    "",
    "m",
    "warm:s00000000000000ff:ml",
];

/// A corpus instance widened with edge values, drawn from `salt`.
fn decorate(raw: &RawInstance, salt: u64) -> Case {
    let mut rng = TestRng::seed_from_u64(raw.seed ^ salt);
    let n = raw.weights.len();
    let resources = rng.gen_range(1..=3);
    let mut weights: Vec<Vec<u64>> = raw
        .weights
        .iter()
        .map(|&w| {
            let mut row = vec![w];
            row.extend((1..resources).map(|_| rng.gen_range(0u64..=5)));
            row
        })
        .collect();
    // Edge weights in one resource: some zeros, some 2^56, or a lone
    // u64::MAX with every other weight of that resource zero (so the
    // resource total still fits).
    let r = rng.gen_range(0..resources);
    match rng.gen_range(0..4) {
        0 => {}
        1 => weights
            .iter_mut()
            .filter(|_| rng.gen_bool(0.3))
            .for_each(|row| row[r] = 0),
        2 => weights
            .iter_mut()
            .filter(|_| rng.gen_bool(0.3))
            .for_each(|row| row[r] = 1 << 56),
        _ => {
            weights.iter_mut().for_each(|row| row[r] = 0);
            weights[rng.gen_range(0..n)][r] = u64::MAX;
        }
    }
    // A built hypergraph's net weights sum to at most i64::MAX, so nets
    // draw only the edge values that leave room for the others.
    let net_edges: Vec<u64> = EDGE_VALUES.into_iter().filter(|&v| v <= 1 << 57).collect();
    let nets = raw
        .nets
        .iter()
        .map(|pins| {
            let w = match rng.gen_range(0..6) {
                0 => net_edges[rng.gen_range(0..net_edges.len())],
                _ => rng.gen_range(1..=3),
            };
            (w, pins.clone())
        })
        .collect();
    let k = rng.gen_range(2..=5);
    let fixities = raw
        .fixities
        .iter()
        .map(|f| match f {
            Some(p) if rng.gen_bool(0.3) => {
                let mut set = PartSet::single(PartId::from_index(*p as usize));
                set.insert(PartId::from_index(rng.gen_range(0..k)));
                Fixity::FixedAny(set)
            }
            Some(p) => Fixity::Fixed(PartId::from_index(*p as usize)),
            None if rng.gen_bool(0.1) => Fixity::FixedAny(PartSet::all(k)),
            None => Fixity::Free,
        })
        .collect();
    let caps = rng.gen_bool(0.5).then(|| {
        let flat = (0..k * resources)
            .map(|_| match rng.gen_range(0..4) {
                0 => EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())],
                _ => rng.gen_range(0..200),
            })
            .collect();
        PartCapacities::explicit(k, resources, flat).expect("k x resources entries")
    });
    Case {
        engine: ENGINES[rng.gen_range(0..ENGINES.len())].to_string(),
        k,
        tolerance: match rng.gen_range(0..5) {
            0 => 0.0,
            1 => 0.05,
            2 => 0.1,
            3 => 1.0,
            _ => f64::from_bits(rng.next_u64()),
        },
        starts: rng.gen_range(1..=8),
        seed: match rng.gen_range(0..4) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.next_u64(),
        },
        vcycles: rng.gen_range(0..=3),
        ensemble: rng.gen_bool(0.5),
        objective: [Objective::Cut, Objective::KMinus1, Objective::Soed][rng.gen_range(0usize..3)],
        caps,
        weights,
        nets,
        fixities,
    }
}

/// `base` twice, then near-identical variants of it (see the module docs).
fn variants(base: &Case) -> Vec<Case> {
    let mut out = vec![base.clone(), base.clone()];
    let n = base.weights.len();
    let resources = base.weights[0].len();

    out.push(base.with(|c| c.engine.push('l')));
    out.push(base.with(|c| c.engine.insert(0, 'w')));
    out.push(base.with(|c| c.k += 1));
    out.push(base.with(|c| c.tolerance = f64::from_bits(c.tolerance.to_bits() ^ 1)));
    out.push(base.with(|c| c.starts += 1));
    out.push(base.with(|c| c.seed ^= 1));
    out.push(base.with(|c| c.seed ^= 1 << 63));
    out.push(base.with(|c| c.vcycles += 1));
    out.push(base.with(|c| c.ensemble = !c.ensemble));
    out.push(base.with(|c| {
        c.objective = match c.objective {
            Objective::Cut => Objective::KMinus1,
            Objective::KMinus1 => Objective::Soed,
            Objective::Soed => Objective::Cut,
        }
    }));
    out.push(base.with(|c| {
        c.caps = match c.caps {
            Some(_) => None,
            None => Some(PartCapacities::uniform(c.k, &vec![0; resources])),
        }
    }));
    if let Some(caps) = &base.caps {
        let mut flat = caps.as_flat().to_vec();
        let (first, rest) = flat.split_at_mut(resources);
        first.swap_with_slice(&mut rest[..resources]);
        let swapped = PartCapacities::explicit(caps.num_parts(), resources, flat).unwrap();
        out.push(base.with(|c| c.caps = Some(swapped)));
    }

    // A weight moved to the next vertex, in every resource.
    for r in 0..resources {
        for i in 0..n - 1 {
            let (w, next) = (base.weights[i][r], base.weights[i + 1][r]);
            if w > 0 && next < u64::MAX {
                out.push(base.with(|c| {
                    c.weights[i][r] -= 1;
                    c.weights[i + 1][r] += 1;
                }));
            }
        }
    }
    // One more resource, all zero.
    out.push(base.with(|c| c.weights.iter_mut().for_each(|row| row.push(0))));

    for j in 0..base.nets.len().saturating_sub(1) {
        // The last pin of net j moved to the front of net j + 1: the pin
        // stream is the same, only the net sizes tell them apart.
        let (pins, next) = (&base.nets[j].1, &base.nets[j + 1].1);
        let last = *pins.last().expect("nets are non-empty");
        if pins.len() > 1 && !next.contains(&last) {
            out.push(base.with(|c| {
                c.nets[j].1.pop();
                c.nets[j + 1].1.insert(0, last);
            }));
        }
        // A net weight moved to the next net.
        if base.nets[j].0 > 0 && base.nets[j + 1].0 < u64::MAX {
            out.push(base.with(|c| {
                c.nets[j].0 -= 1;
                c.nets[j + 1].0 += 1;
            }));
        }
    }
    out.push(base.with(|c| {
        c.nets.pop();
    }));

    // Every other fixity of the first free and the first fixed vertex.
    let mut alternatives = vec![Fixity::Free, Fixity::FixedAny(PartSet::all(base.k))];
    for p in (0..base.k).map(PartId::from_index) {
        alternatives.push(Fixity::Fixed(p));
        alternatives.push(Fixity::FixedAny(PartSet::single(p)));
    }
    let free = base.fixities.iter().position(|f| *f == Fixity::Free);
    let fixed = base.fixities.iter().position(|f| *f != Fixity::Free);
    for v in [free, fixed].into_iter().flatten() {
        for &alt in &alternatives {
            out.push(base.with(|c| c.fixities[v] = alt));
        }
    }
    // The first two fixities re-spelled together: one fixity's tag and
    // payload must not read as the tags of two neighbouring fixities.
    let few = [
        Fixity::Free,
        Fixity::Fixed(PartId(0)),
        Fixity::Fixed(PartId(1)),
        Fixity::FixedAny(PartSet::single(PartId(0))),
        Fixity::FixedAny(PartSet::single(PartId(1))),
        Fixity::FixedAny(PartSet::all(base.k)),
    ];
    for first in few {
        for second in few {
            out.push(base.with(|c| c.fixities[..2].copy_from_slice(&[first, second])));
        }
    }
    out.push(base.with(|c| {
        c.fixities.pop();
    }));
    out.push(base.with(|c| c.fixities.push(Fixity::Free)));
    out
}

fn assert_hash_matches(case: &Case, enc: &Encoded) {
    let expected = fnv1a_64(&enc.reference);
    assert_eq!(
        enc.hash, expected,
        "hash differs from FNV-1a of the reference encoding for {case:?}"
    );
    assert_eq!(enc.solution_id, format!("s{expected:016x}"));
}

/// Every pair of `cases` has equal key bytes exactly when its reference
/// encodings are equal, and every key hashes like its reference.
fn assert_identity(cases: &[Case]) {
    let encoded: Vec<Encoded> = cases.iter().map(Case::encode).collect();
    for (case, enc) in cases.iter().zip(&encoded) {
        assert_hash_matches(case, enc);
    }
    for (i, a) in encoded.iter().enumerate() {
        for (j, b) in encoded.iter().enumerate().skip(i + 1) {
            assert_eq!(
                a.bytes == b.bytes,
                a.reference == b.reference,
                "variants {i} and {j}: key bytes and reference encodings disagree\n\
                 {:?}\n{:?}",
                cases[i],
                cases[j]
            );
        }
    }
}

prop_test! {
    #[cases(512)]
    fn key_hash_is_fnv1a_of_the_reference_encoding(
        (raw, salt) in |rng: &mut TestRng| (instances(InstanceConfig::default())(rng), rng.next_u64())
    ) {
        let case = decorate(&raw, salt);
        assert_hash_matches(&case, &case.encode());
    }

    #[cases(128)]
    fn key_bytes_are_equal_exactly_when_reference_encodings_are(
        (raw, salt) in |rng: &mut TestRng| (instances(InstanceConfig::default())(rng), rng.next_u64())
    ) {
        assert_identity(&variants(&decorate(&raw, salt)));
    }
}

/// Every boundary value in every integer field, one field at a time, and
/// a 64-part multi-part fixity whose mask is `u64::MAX`.
#[test]
fn edge_values_hash_like_the_reference() {
    let base = Case {
        engine: "ml".to_string(),
        k: 2,
        tolerance: 0.1,
        starts: 1,
        seed: 0,
        vcycles: 0,
        ensemble: false,
        objective: Objective::Cut,
        caps: None,
        weights: vec![vec![1], vec![1]],
        nets: vec![(1, vec![0, 1]), (1, vec![1])],
        fixities: vec![Fixity::Free, Fixity::Fixed(PartId::from_index(1))],
    };
    let mut cases = vec![base.clone()];
    for v in EDGE_VALUES {
        cases.push(base.with(|c| c.weights = vec![vec![v], vec![0]]));
        cases.push(base.with(|c| c.weights = vec![vec![0], vec![v]]));
        // Net weights sum to at most i64::MAX in a built hypergraph.
        if v < i64::MAX as u64 {
            cases.push(base.with(|c| c.nets[0].0 = v));
            cases.push(base.with(|c| c.nets[1].0 = v));
        }
        cases.push(base.with(|c| c.seed = v));
        cases.push(base.with(|c| c.tolerance = f64::from_bits(v)));
        cases.push(base.with(|c| c.caps = Some(PartCapacities::uniform(2, &[v]))));
    }
    // The heaviest net a build accepts.
    cases.push(base.with(|c| c.nets = vec![(i64::MAX as u64, vec![0, 1]), (0, vec![1])]));
    cases.push(base.with(|c| {
        c.k = PartSet::MAX_PARTS;
        c.fixities[1] = Fixity::FixedAny(PartSet::all(PartSet::MAX_PARTS));
    }));
    cases.push(base.with(|c| c.fixities[1] = Fixity::Fixed(PartId::from_index(63))));
    assert_identity(&cases);
}
