//! Model-based property tests for the partitioning core's data structures:
//! the gain-bucket array against a naive reference model, and coarsening
//! invariants on random hypergraphs.

use std::collections::HashMap;

use vlsi_rng::{ChaCha8Rng, Rng, SeedableRng};
use vlsi_testkit::gen::{instances, InstanceConfig, RawInstance};
use vlsi_testkit::{prop_test, Shrink, TestRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    CutState, FixedVertices, Fixity, HypergraphBuilder, PartId, VertexId,
};
use fixed_vertices_repro::vlsi_partition::multilevel::{coarsen_once, CoarsenParams};
use fixed_vertices_repro::vlsi_partition::GainBuckets;

/// Operations for the gain-bucket model test.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Insert(u32, i64),
    Remove(u32),
    Update(u32, i64),
    Adjust(u32, i64),
    Select,
}

impl Shrink for Op {
    fn shrink(&self) -> Vec<Self> {
        // Simplify any operation to a plain Select; the Vec<Op> shrinker
        // handles dropping operations altogether.
        if *self == Op::Select {
            Vec::new()
        } else {
            vec![Op::Select]
        }
    }
}

fn op_gen(num_vertices: u32, bound: i64) -> impl Fn(&mut TestRng) -> Op {
    move |rng| match rng.gen_range(0..5u8) {
        0 => Op::Insert(
            rng.gen_range(0..num_vertices),
            rng.gen_range(-bound..=bound),
        ),
        1 => Op::Remove(rng.gen_range(0..num_vertices)),
        2 => Op::Update(
            rng.gen_range(0..num_vertices),
            rng.gen_range(-bound..=bound),
        ),
        3 => Op::Adjust(rng.gen_range(0..num_vertices), rng.gen_range(-3i64..=3)),
        _ => Op::Select,
    }
}

fn ops_gen(num_vertices: u32, bound: i64) -> impl Fn(&mut TestRng) -> Vec<Op> {
    move |rng| {
        let n = rng.gen_range(1..120usize);
        let g = op_gen(num_vertices, bound);
        (0..n).map(|_| g(rng)).collect()
    }
}

prop_test! {
    #[cases(128)]
    fn gain_buckets_match_reference_model(ops in ops_gen(12, 6)) {
        // Model: map vertex -> (key, insertion_stamp); select = max key,
        // ties by most recent stamp. Keys clamped to the structure bound.
        const BOUND: i64 = 16;
        let mut gb = GainBuckets::new(12, BOUND);
        let mut model: HashMap<u32, (i64, u64)> = HashMap::new();
        let mut stamp = 0u64;
        for op in ops {
            match op {
                Op::Insert(v, k) => {
                    model.entry(v).or_insert_with(|| {
                        gb.insert(VertexId(v), k);
                        stamp += 1;
                        (k, stamp)
                    });
                }
                Op::Remove(v) => {
                    gb.remove(VertexId(v));
                    gb.decay_max();
                    model.remove(&v);
                }
                Op::Update(v, k) => {
                    gb.update(VertexId(v), k);
                    if let Some(entry) = model.get_mut(&v) {
                        if entry.0 != k {
                            stamp += 1;
                            *entry = (k, stamp);
                        }
                    }
                }
                Op::Adjust(v, d) => {
                    let new_key = model.get(&v).map(|&(k, _)| k + d);
                    if let Some(nk) = new_key {
                        if nk.abs() <= BOUND {
                            gb.adjust(VertexId(v), d);
                            if d != 0 {
                                stamp += 1;
                                model.insert(v, (nk, stamp));
                            }
                        }
                    }
                }
                Op::Select => {
                    let got = gb.select(|_| true);
                    let want = model
                        .iter()
                        .max_by_key(|(_, &(k, s))| (k, s))
                        .map(|(&v, &(k, _))| (VertexId(v), k));
                    assert_eq!(got, want);
                }
            }
            assert_eq!(gb.len(), model.len());
            for (&v, &(k, _)) in &model {
                assert!(gb.contains(VertexId(v)));
                assert_eq!(gb.key(VertexId(v)), k);
            }
        }
    }

    #[cases(64)]
    fn coarsening_preserves_weight_and_cut_structure(
        inst in instances(InstanceConfig {
            vertices: 6..30,
            max_weight: 4,
            max_net_size: 3,
            fix_prob: 0.25,
            ..InstanceConfig::default()
        })
    ) {
        let RawInstance { weights, nets, fixities, seed } = inst;
        let mut b = HypergraphBuilder::new();
        for &w in &weights {
            b.add_vertex(w);
        }
        for net in &nets {
            b.add_net(1, net.iter().map(|&i| VertexId::from_index(i)))
                .expect("valid net");
        }
        let hg = b.build().expect("valid graph");
        let fixed = FixedVertices::from_fixities(
            fixities
                .iter()
                .map(|f| match f {
                    None => Fixity::Free,
                    Some(p) => Fixity::Fixed(PartId(*p as u32)),
                })
                .collect(),
        );
        let params = CoarsenParams {
            max_cluster_weight: u64::MAX,
            max_cluster_weights: Vec::new(),
            max_net_size_for_matching: 64,
            max_fixed_part_weight: Vec::new(),
            allow_free_fixed_merge: false,
            threads: 1,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let Some(level) = coarsen_once(&hg, &fixed, &params, 1.01, None, &mut rng) else {
            // A stall is legal; nothing to check.
            return;
        };

        // Invariant 1: total weight preserved.
        assert_eq!(level.hg.total_weight(), hg.total_weight());

        // Invariant 2: fixities merged soundly — every fine vertex's fixity
        // allows whatever its coarse cluster's fixity allows.
        for v in hg.vertices() {
            let cf = level.fixed.fixity(level.map[v.index()]);
            match (fixed.fixity(v), cf) {
                (Fixity::Fixed(p), Fixity::Fixed(q)) => assert_eq!(p, q),
                (Fixity::Fixed(_), other) => {
                    panic!("fixed vertex lost its pin: {other:?}")
                }
                _ => {}
            }
        }

        // Invariant 3: any coarse assignment projects to a fine assignment
        // with the same cut.
        let coarse_parts: Vec<PartId> = level
            .hg
            .vertices()
            .map(|v| match level.fixed.fixity(v) {
                Fixity::Fixed(p) => PartId(p.0 % 2),
                _ => PartId(v.0 % 2),
            })
            .collect();
        let cut = CutState::new(&level.hg, 2, &coarse_parts).cut();
        let fine_parts = level.project(&coarse_parts);
        assert_eq!(cut, CutState::new(&hg, 2, &fine_parts).cut());
    }
}
