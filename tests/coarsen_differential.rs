//! Differential tests pinning the coarsening kernels to the ones they
//! replaced.
//!
//! The `reference` module is a port of the earlier kernels: heavy-edge
//! matching that scores candidates in a `HashMap<u32, f64>` and takes the
//! argmax over `(score, id)`, and a contraction that dedups coarse nets by
//! sorting their spans on whole pin slices. The properties drive both
//! implementations over random instances and require equal [`Level`]s —
//! cluster map, coarse nets in order with their weights, vertex weight
//! vectors and fixities — at 1, 2 and 4 threads.
//!
//! The corpus covers what makes matching subtle: zero-weight nets (`.hgr`
//! fmt 1 accepts weight 0, and a candidate seen only through them scores
//! exactly 0.0, which must still count as a candidate), nets above
//! `max_net_size_for_matching`, `FixedAny` vertices, multi-resource caps,
//! fixed-part budgets and the `same_part` restriction the V-cycles use.
//! Chains of levels exercise coarse nets that already carry merged
//! weights, and larger instances push the contraction's normalize pass
//! onto more than one thread.

use vlsi_rng::{ChaCha8Rng, Rng, SeedableRng};
use vlsi_testkit::gen::{instances, InstanceConfig, RawInstance};
use vlsi_testkit::{prop_test, TestRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    FixedVertices, Fixity, Hypergraph, HypergraphBuilder, PartId, PartSet, VertexId,
};
use fixed_vertices_repro::vlsi_partition::multilevel::{
    coarsen_once, contract_clusters, CoarsenParams, Level,
};

/// Ports of the earlier matching and contraction kernels, single-threaded.
mod reference {
    use std::collections::HashMap;

    use vlsi_rng::seq::SliceRandom;
    use vlsi_rng::Rng;

    use super::*;
    use fixed_vertices_repro::vlsi_hypergraph::NetId;
    use fixed_vertices_repro::vlsi_partition::multilevel::merge_fixity;

    fn within_resource_caps(acc: &[u64], add: &[u64], caps: &[u64]) -> bool {
        caps.iter()
            .zip(acc.iter().zip(add))
            .all(|(&c, (&a, &b))| a.saturating_add(b) <= c)
    }

    fn fixed_delta(f: Fixity, p: PartId, w: u64) -> u64 {
        if f == Fixity::Fixed(p) {
            0
        } else {
            w
        }
    }

    pub fn coarsen_once<R: Rng + ?Sized>(
        hg: &Hypergraph,
        fixed: &FixedVertices,
        params: &CoarsenParams,
        min_shrink: f64,
        same_part: Option<&[PartId]>,
        rng: &mut R,
    ) -> Option<Level> {
        let n = hg.num_vertices();
        let mut order: Vec<VertexId> = hg.vertices().collect();
        order.shuffle(rng);

        const UNMATCHED: u32 = u32::MAX;
        let mut partner = vec![UNMATCHED; n];
        let mut num_clusters = 0usize;
        let mut cluster_of = vec![UNMATCHED; n];

        let budget = &params.max_fixed_part_weight;
        let mut fixed_weight: Vec<u64> = vec![0; budget.len()];
        if !budget.is_empty() {
            for v in hg.vertices() {
                if let Fixity::Fixed(p) = fixed.fixity(v) {
                    if p.index() < fixed_weight.len() {
                        fixed_weight[p.index()] += hg.vertex_weight(v);
                    }
                }
            }
        }

        if !params.allow_free_fixed_merge {
            let mut bin_cluster: HashMap<u32, (u32, u64, Vec<u64>)> = HashMap::new();
            for &v in &order {
                let Fixity::Fixed(p) = fixed.fixity(v) else {
                    continue;
                };
                let w = hg.vertex_weight(v);
                match bin_cluster.get_mut(&p.0) {
                    Some((cluster, bw, bws))
                        if *bw + w <= params.max_cluster_weight
                            && within_resource_caps(
                                bws,
                                hg.vertex_weights(v),
                                &params.max_cluster_weights,
                            ) =>
                    {
                        cluster_of[v.index()] = *cluster;
                        partner[v.index()] = v.0;
                        *bw += w;
                        for (a, &b) in bws.iter_mut().zip(hg.vertex_weights(v)) {
                            *a += b;
                        }
                    }
                    _ => {
                        let cluster = num_clusters as u32;
                        num_clusters += 1;
                        cluster_of[v.index()] = cluster;
                        partner[v.index()] = v.0;
                        bin_cluster.insert(p.0, (cluster, w, hg.vertex_weights(v).to_vec()));
                    }
                }
            }
        }

        let mut scores: HashMap<u32, f64> = HashMap::new();
        for &v in &order {
            if partner[v.index()] != UNMATCHED {
                continue;
            }
            scores.clear();
            for &net in hg.vertex_nets(v) {
                let size = hg.net_size(net);
                if size < 2 || size > params.max_net_size_for_matching {
                    continue;
                }
                let s = hg.net_weight(net) as f64 / (size as f64 - 1.0);
                for &u in hg.net_pins(net) {
                    if u != v && partner[u.index()] == UNMATCHED {
                        *scores.entry(u.0).or_insert(0.0) += s;
                    }
                }
            }
            let vw = hg.vertex_weight(v);
            let vfix = fixed.fixity(v);
            let mut best: Option<(f64, VertexId)> = None;
            for (&u_raw, &score) in &scores {
                let u = VertexId(u_raw);
                if vw + hg.vertex_weight(u) > params.max_cluster_weight {
                    continue;
                }
                if !within_resource_caps(
                    hg.vertex_weights(v),
                    hg.vertex_weights(u),
                    &params.max_cluster_weights,
                ) {
                    continue;
                }
                let ufix = fixed.fixity(u);
                if !params.allow_free_fixed_merge && vfix.is_fixed() != ufix.is_fixed() {
                    continue;
                }
                let Some(merged) = merge_fixity(vfix, ufix) else {
                    continue;
                };
                if let Fixity::Fixed(p) = merged {
                    if p.index() < fixed_weight.len() {
                        let added = fixed_delta(vfix, p, vw)
                            + fixed_delta(fixed.fixity(u), p, hg.vertex_weight(u));
                        if fixed_weight[p.index()] + added > budget[p.index()] {
                            continue;
                        }
                    }
                }
                if let Some(parts) = same_part {
                    if parts[v.index()] != parts[u.index()] {
                        continue;
                    }
                }
                match best {
                    Some((bs, bu)) if (bs, bu.0) >= (score, u.0) => {}
                    _ => best = Some((score, u)),
                }
            }
            if let Some((_, u)) = best {
                if let Some(Fixity::Fixed(p)) = merge_fixity(vfix, fixed.fixity(u)) {
                    if p.index() < fixed_weight.len() {
                        fixed_weight[p.index()] += fixed_delta(vfix, p, vw)
                            + fixed_delta(fixed.fixity(u), p, hg.vertex_weight(u));
                    }
                }
                partner[v.index()] = u.0;
                partner[u.index()] = v.0;
                cluster_of[v.index()] = num_clusters as u32;
                cluster_of[u.index()] = num_clusters as u32;
                num_clusters += 1;
            } else {
                partner[v.index()] = v.0;
                cluster_of[v.index()] = num_clusters as u32;
                num_clusters += 1;
            }
        }

        if (num_clusters as f64) > min_shrink * n as f64 {
            return None;
        }
        Some(contract_clusters(hg, fixed, cluster_of, num_clusters))
    }

    pub fn contract_clusters(
        hg: &Hypergraph,
        fixed: &FixedVertices,
        cluster_of: Vec<u32>,
        num_clusters: usize,
    ) -> Level {
        let nr = hg.num_resources();
        let mut weights = vec![0u64; num_clusters * nr];
        let mut fixities = vec![Fixity::Free; num_clusters];
        for v in hg.vertices() {
            let c = cluster_of[v.index()] as usize;
            for (r, &w) in hg.vertex_weights(v).iter().enumerate() {
                weights[c * nr + r] += w;
            }
            fixities[c] = merge_fixity(fixities[c], fixed.fixity(v))
                .expect("matching produced incompatible fixities");
        }

        let mut builder = HypergraphBuilder::with_resources(nr);
        for c in 0..num_clusters {
            builder
                .add_vertex_multi(&weights[c * nr..(c + 1) * nr])
                .expect("arity matches");
        }

        let mut pin_arena: Vec<u32> = Vec::new();
        let mut spans: Vec<(u32, u32, u64)> = Vec::new();
        for ni in 0..hg.num_nets() {
            let net = NetId(ni as u32);
            let start = pin_arena.len();
            pin_arena.extend(hg.net_pins(net).iter().map(|&p| cluster_of[p.index()]));
            pin_arena[start..].sort_unstable();
            let mut w = start + 1;
            for r in start + 1..pin_arena.len() {
                if pin_arena[r] != pin_arena[w - 1] {
                    pin_arena[w] = pin_arena[r];
                    w += 1;
                }
            }
            pin_arena.truncate(w);
            if w - start < 2 {
                pin_arena.truncate(start);
                continue;
            }
            spans.push((start as u32, (w - start) as u32, hg.net_weight(net)));
        }

        let pin_slice = |s: &(u32, u32, u64)| &pin_arena[s.0 as usize..(s.0 + s.1) as usize];
        spans.sort_unstable_by(|a, b| pin_slice(a).cmp(pin_slice(b)));
        let mut i = 0;
        while i < spans.len() {
            let key = pin_slice(&spans[i]);
            let mut weight = spans[i].2;
            let mut j = i + 1;
            while j < spans.len() && pin_slice(&spans[j]) == key {
                weight += spans[j].2;
                j += 1;
            }
            builder
                .add_net(weight, key.iter().copied().map(VertexId))
                .expect("valid coarse net");
            i = j;
        }

        Level {
            hg: builder.build().expect("valid coarse hypergraph"),
            fixed: FixedVertices::from_fixities(fixities),
            map: cluster_of.into_iter().map(VertexId).collect(),
        }
    }
}

/// Number of partitions fixities, budgets and `same_part` range over.
const K: u32 = 3;

/// Everything besides the instance that one differential case varies,
/// derived from a knob seed so that shrinking the seed toward 0 also
/// simplifies the case.
struct Knobs {
    params: CoarsenParams,
    min_shrink: f64,
    same_part: Option<Vec<PartId>>,
}

fn knobs(inst: &RawInstance, hg: &Hypergraph, fx: &FixedVertices, knob: u64) -> Knobs {
    let mut rng = ChaCha8Rng::seed_from_u64(knob);
    let plain = knob == 0;
    let total = hg.total_weight().max(1);
    let max_cluster_weight = if plain || rng.gen_bool(0.5) {
        u64::MAX
    } else {
        rng.gen_range(2..=total / 2 + 2)
    };
    // Caps over a prefix of the resources: dimensions past the vector
    // are unconstrained.
    let max_cluster_weights = if plain || rng.gen_bool(0.6) {
        Vec::new()
    } else {
        let dims = rng.gen_range(1..=hg.num_resources());
        (0..dims)
            .map(|r| {
                let sum: u64 = hg.vertices().map(|v| hg.vertex_weights(v)[r]).sum();
                rng.gen_range(1..=sum / 2 + 2)
            })
            .collect()
    };
    let max_fixed_part_weight = if plain || rng.gen_bool(0.5) {
        Vec::new()
    } else {
        // A little above what is fixed already, so merges land on both
        // sides of the limit; sometimes fewer entries than parts, which
        // leaves the later parts unlimited.
        let parts = rng.gen_range(1..=K as usize);
        (0..parts)
            .map(|p| {
                let fixed_now: u64 = hg
                    .vertices()
                    .filter(|&v| fx.fixity(v) == Fixity::Fixed(PartId(p as u32)))
                    .map(|v| hg.vertex_weight(v))
                    .sum();
                fixed_now + rng.gen_range(0..=8u64)
            })
            .collect()
    };
    let same_part = (!plain && rng.gen_bool(0.35)).then(|| {
        (0..inst.weights.len())
            .map(|_| PartId(rng.gen_range(0..K)))
            .collect()
    });
    Knobs {
        params: CoarsenParams {
            max_cluster_weight,
            max_cluster_weights,
            max_net_size_for_matching: if plain { 64 } else { rng.gen_range(2..=6) },
            max_fixed_part_weight,
            allow_free_fixed_merge: !plain && rng.gen_bool(0.25),
            threads: 1,
        },
        min_shrink: if rng.gen_bool(0.2) { 0.9 } else { 1.0 },
        same_part,
    }
}

/// Builds the instance with the knob seed's resource count, net weights
/// (about one net in five weighs 0) and fixities (every third fixed
/// vertex becomes `FixedAny` over two parts).
fn build(inst: &RawInstance, knob: u64) -> (Hypergraph, FixedVertices) {
    let mut rng = ChaCha8Rng::seed_from_u64(knob ^ 0x5eed);
    let resources = if knob == 0 { 1 } else { rng.gen_range(1..=3) };
    let mut b = HypergraphBuilder::with_resources(resources);
    let vs: Vec<VertexId> = inst
        .weights
        .iter()
        .map(|&w| {
            let mut ws = vec![w];
            ws.extend((1..resources).map(|_| rng.gen_range(0..=4u64)));
            b.add_vertex_multi(&ws).expect("arity matches")
        })
        .collect();
    for net in &inst.nets {
        let weight = if knob != 0 && rng.gen_bool(0.2) {
            0
        } else {
            rng.gen_range(1..=4)
        };
        // Shrinking may empty a net or repeat a pin; keep such nets valid.
        if !net.is_empty() {
            b.add_net_dedup(weight, net.iter().map(|&i| vs[i]))
                .expect("generated nets are valid");
        }
    }
    let mut fx = FixedVertices::all_free(inst.weights.len());
    for (i, f) in inst.fixities.iter().enumerate() {
        let Some(p) = f else { continue };
        let p = u32::from(*p) % K;
        if i % 3 == 0 {
            let mut set = PartSet::new();
            set.insert(PartId(p));
            set.insert(PartId((p + 1) % K));
            fx.fix_any(VertexId::from_index(i), set);
        } else {
            fx.fix(VertexId::from_index(i), PartId(p));
        }
    }
    (b.build().expect("generated instance builds"), fx)
}

fn nets_of(level: &Level) -> Vec<(Vec<VertexId>, u64)> {
    level
        .hg
        .nets()
        .map(|n| (level.hg.net_pins(n).to_vec(), level.hg.net_weight(n)))
        .collect()
}

fn weights_of(level: &Level) -> Vec<Vec<u64>> {
    level
        .hg
        .vertices()
        .map(|v| level.hg.vertex_weights(v).to_vec())
        .collect()
}

fn assert_same_level(got: &Level, want: &Level, what: &str) {
    assert_eq!(got.map, want.map, "{what}: cluster map");
    assert_eq!(nets_of(got), nets_of(want), "{what}: coarse nets");
    assert_eq!(weights_of(got), weights_of(want), "{what}: vertex weights");
    assert_eq!(got.fixed, want.fixed, "{what}: fixities");
    assert_eq!(got.hg, want.hg, "{what}: coarse hypergraph");
}

/// Coarsens `hg` level by level with `step` until it stalls or
/// `max_levels` levels exist. `same_part` applies to the first level only,
/// as it indexes the finest vertices.
fn chain(
    hg: &Hypergraph,
    fx: &FixedVertices,
    k: &Knobs,
    seed: u64,
    max_levels: usize,
    step: impl Fn(&Hypergraph, &FixedVertices, Option<&[PartId]>, &mut ChaCha8Rng) -> Option<Level>,
) -> Vec<Level> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut levels: Vec<Level> = Vec::new();
    for depth in 0..max_levels {
        let (h, f) = levels.last().map_or((hg, fx), |l| (&l.hg, &l.fixed));
        let same_part = if depth == 0 {
            k.same_part.as_deref()
        } else {
            None
        };
        match step(h, f, same_part, &mut rng) {
            Some(level) => levels.push(level),
            None => break,
        }
    }
    levels
}

/// Requires the kernels under test, at 1, 2 and 4 threads, to build the
/// same chain of levels as the reference, stalling at the same depth.
fn check_chain(hg: &Hypergraph, fx: &FixedVertices, k: &Knobs, seed: u64, max_levels: usize) {
    let want = chain(hg, fx, k, seed, max_levels, |h, f, same_part, rng| {
        reference::coarsen_once(h, f, &k.params, k.min_shrink, same_part, rng)
    });
    for threads in [1, 2, 4] {
        let params = CoarsenParams {
            threads,
            ..k.params.clone()
        };
        let got = chain(hg, fx, k, seed, max_levels, |h, f, same_part, rng| {
            coarsen_once(h, f, &params, k.min_shrink, same_part, rng)
        });
        assert_eq!(got.len(), want.len(), "{threads} threads: chain length");
        for (depth, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_same_level(got, want, &format!("{threads} threads, level {depth}"));
        }
    }
}

fn small_cases() -> impl Fn(&mut TestRng) -> (RawInstance, u64) {
    let gen = instances(InstanceConfig {
        vertices: 2..48,
        max_weight: 6,
        nets_per_vertex: 2.5,
        max_net_size: 8,
        fix_prob: 0.3,
        fix_parts: K as u8,
    });
    move |rng| {
        let inst = gen(rng);
        let knob = rng.gen_range(0..u64::MAX);
        (inst, knob)
    }
}

/// Instances with enough nets (over 2 × 1024) for the contraction's
/// normalize pass to shard across threads.
fn large_cases() -> impl Fn(&mut TestRng) -> (RawInstance, u64) {
    let gen = instances(InstanceConfig {
        vertices: 1500..2500,
        max_weight: 6,
        nets_per_vertex: 3.0,
        max_net_size: 6,
        fix_prob: 0.2,
        fix_parts: K as u8,
    });
    move |rng| {
        let mut inst = gen(rng);
        // `instances` draws the net count uniformly; keep enough nets.
        let n = inst.weights.len();
        while inst.nets.len() < 2 * n {
            let a = rng.gen_range(0..n);
            let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
            inst.nets.push(vec![a.min(b), a.max(b)]);
        }
        let knob = rng.gen_range(0..u64::MAX);
        (inst, knob)
    }
}

prop_test! {
    #[cases(160)]
    fn coarsen_chain_matches_reference_kernels(case in small_cases()) {
        let (inst, knob) = case;
        let (hg, fx) = build(&inst, knob);
        let k = knobs(&inst, &hg, &fx, knob);
        check_chain(&hg, &fx, &k, inst.seed, 4);
    }

    #[cases(6)]
    fn sharded_contraction_matches_reference_kernels(case in large_cases()) {
        let (inst, knob) = case;
        let (hg, fx) = build(&inst, knob);
        let k = knobs(&inst, &hg, &fx, knob);
        check_chain(&hg, &fx, &k, inst.seed, 3);
    }

    #[cases(96)]
    fn contract_clusters_matches_reference_on_arbitrary_clusterings(case in small_cases()) {
        let (inst, knob) = case;
        let (hg, fx) = build(&inst, knob);
        // Clusters of any size, as ensemble recombination forms them: free
        // vertices get a random label, each fixed vertex one of its own
        // (fixities inside a cluster must be compatible).
        let mut rng = ChaCha8Rng::seed_from_u64(knob);
        let labels = rng.gen_range(1..=inst.weights.len());
        let mut dense = vec![u32::MAX; labels + inst.weights.len()];
        let mut num_clusters = 0u32;
        let cluster_of: Vec<u32> = hg
            .vertices()
            .map(|v| {
                let label = match fx.fixity(v) {
                    Fixity::Free => rng.gen_range(0..labels),
                    _ => labels + v.index(),
                };
                if dense[label] == u32::MAX {
                    dense[label] = num_clusters;
                    num_clusters += 1;
                }
                dense[label]
            })
            .collect();
        let want = reference::contract_clusters(&hg, &fx, cluster_of.clone(), num_clusters as usize);
        for threads in [1, 2, 4] {
            let got = contract_clusters(&hg, &fx, cluster_of.clone(), num_clusters as usize, threads);
            assert_same_level(&got, &want, &format!("{threads} threads"));
        }
    }
}
