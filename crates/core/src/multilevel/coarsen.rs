//! Heavy-edge-matching coarsening with fixity-aware cluster merging.

use std::collections::HashMap;

use vlsi_rng::seq::SliceRandom;
use vlsi_rng::Rng;

use vlsi_hypergraph::{
    FixedVertices, Fixity, Hypergraph, HypergraphBuilder, NetId, PartId, VertexId,
};

/// Minimum nets per worker before contraction forks threads.
const NET_GRAIN: usize = 1024;

/// One coarsening level: the coarse hypergraph, its fixities, and the map
/// from fine vertex to coarse vertex.
#[derive(Debug, Clone)]
pub struct Level {
    /// The coarse hypergraph.
    pub hg: Hypergraph,
    /// Fixities of the coarse vertices (merged from the fine fixities).
    pub fixed: FixedVertices,
    /// `map[fine_vertex] = coarse_vertex`.
    pub map: Vec<VertexId>,
}

impl Level {
    /// Projects a coarse partition assignment back to the fine vertex set.
    pub fn project(&self, coarse_parts: &[PartId]) -> Vec<PartId> {
        self.map.iter().map(|m| coarse_parts[m.index()]).collect()
    }
}

/// Tuning knobs for one coarsening step.
#[derive(Debug, Clone)]
pub struct CoarsenParams {
    /// Maximum primary weight of a cluster.
    pub max_cluster_weight: u64,
    /// Per-resource caps on cluster weight vectors — the heavy-vertex
    /// guard for multi-dimensional weights ("Vertex Weights Revisited":
    /// a cluster that concentrates one scarce resource can make the
    /// coarse instance unbalanceable even when its primary weight is
    /// fine). Checked component-wise in addition to
    /// `max_cluster_weight`; dimensions beyond the vector's length are
    /// unconstrained. Empty = scalar guard only (the single-resource
    /// behavior, kept bit-for-bit).
    pub max_cluster_weights: Vec<u64>,
    /// Nets larger than this are ignored when scoring matches (they carry
    /// almost no signal and make matching quadratic).
    pub max_net_size_for_matching: usize,
    /// Per-partition cap on the total primary weight of vertices whose
    /// cluster ends up `Fixed` in that partition. Without this cap, free
    /// vertices merging into fixed clusters could make a partition's fixed
    /// weight alone exceed its balance capacity, rendering the coarse
    /// instance infeasible. Empty = unlimited.
    pub max_fixed_part_weight: Vec<u64>,
    /// When `false` (the default used by the multilevel engine), a free
    /// vertex never merges with a fixed one: gluing free cells onto
    /// terminals at coarse levels pre-decides their side before refinement
    /// can judge, which measurably degrades cut quality in the
    /// fixed-terminals regime. Fixed–fixed merges within one partition are
    /// always allowed (the terminal-clustering equivalence).
    pub allow_free_fixed_merge: bool,
    /// Worker-thread budget for net contraction, the only fork inside one
    /// run. Purely a speed knob: each worker normalizes a contiguous range
    /// of nets and the shards concatenate in net order, so the coarse
    /// level is byte-identical for every value. `0` and `1` both mean
    /// single-threaded.
    pub threads: usize,
}

/// Merges two fixities; `None` when the vertices may not share a cluster.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{Fixity, PartId, PartSet};
/// use vlsi_partition::multilevel::merge_fixity;
///
/// assert_eq!(
///     merge_fixity(Fixity::Free, Fixity::Fixed(PartId(1))),
///     Some(Fixity::Fixed(PartId(1)))
/// );
/// assert_eq!(
///     merge_fixity(Fixity::Fixed(PartId(0)), Fixity::Fixed(PartId(1))),
///     None
/// );
/// let s01 = PartSet::all(2);
/// assert_eq!(
///     merge_fixity(Fixity::FixedAny(s01), Fixity::Fixed(PartId(1))),
///     Some(Fixity::Fixed(PartId(1)))
/// );
/// ```
pub fn merge_fixity(a: Fixity, b: Fixity) -> Option<Fixity> {
    use Fixity::*;
    match (a, b) {
        (Free, x) | (x, Free) => Some(x),
        (Fixed(p), Fixed(q)) => (p == q).then_some(Fixed(p)),
        (Fixed(p), FixedAny(s)) | (FixedAny(s), Fixed(p)) => s.contains(p).then_some(Fixed(p)),
        (FixedAny(s), FixedAny(t)) => {
            let i = s.intersection(t);
            match i.len() {
                0 => None,
                1 => Some(Fixed(i.iter().next().expect("len 1"))),
                _ => Some(FixedAny(i)),
            }
        }
    }
}

/// Performs one heavy-edge-matching coarsening step.
///
/// Vertices are visited in random order; each unmatched vertex is paired
/// with the unmatched neighbour maximising the standard hypergraph
/// heavy-edge score `Σ w(n) / (|n| − 1)` over shared nets, subject to the
/// cluster-weight cap and fixity compatibility. When `same_part` is given
/// (V-cycling), only vertices currently in the same partition may merge.
///
/// Returns `None` if matching failed to shrink the graph below
/// `min_shrink × |V|` (a stall).
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

    // Running total of weight fixed into each partition (seeded by the
    // vertices that are already Fixed).
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

    // Pre-pass: vertices fixed in the same partition are interchangeable to
    // every downstream engine (they can never move), so group them into
    // clusters up to the weight cap — the paper's terminal-clustering
    // equivalence, applied per level. This keeps coarsening shrinking even
    // when half the graph is terminals. (Skipped in the free-fixed-merge
    // ablation mode, where fixed vertices stay available for matching.)
    if !params.allow_free_fixed_merge {
        // part -> (cluster, primary weight, per-resource weights)
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

    // Greedy heavy-edge matching in the shuffled visit order. Scores live
    // in a dense array indexed by vertex, with the vertices touched for
    // the current `v` listed in `candidates`; each candidate's score is
    // summed in `v`'s net order, so the f64 sums never depend on how they
    // are stored. Membership is tracked in `is_candidate` rather than by a
    // sentinel score, because a zero-weight net scores a candidate exactly
    // 0.0. The argmax is over `(score, id)`, a total order on candidates,
    // so the choice does not depend on the order they are visited in.
    let mut score = vec![0.0f64; n];
    let mut is_candidate = vec![false; n];
    let mut candidates: Vec<VertexId> = Vec::new();
    for &v in &order {
        if partner[v.index()] != UNMATCHED {
            continue;
        }
        for &net in hg.vertex_nets(v) {
            let size = hg.net_size(net);
            if size < 2 || size > params.max_net_size_for_matching {
                continue;
            }
            let s = hg.net_weight(net) as f64 / (size as f64 - 1.0);
            for &u in hg.net_pins(net) {
                let ui = u.index();
                if u != v && partner[ui] == UNMATCHED {
                    if !is_candidate[ui] {
                        is_candidate[ui] = true;
                        score[ui] = 0.0;
                        candidates.push(u);
                    }
                    score[ui] += s;
                }
            }
        }
        let vw = hg.vertex_weight(v);
        let vfix = fixed.fixity(v);
        let mut best: Option<(f64, VertexId)> = None;
        for &u in &candidates {
            is_candidate[u.index()] = false;
            let score = score[u.index()];
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
                    let added =
                        fixed_delta(vfix, p, vw) + fixed_delta(ufix, p, hg.vertex_weight(u));
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
        candidates.clear();
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
            partner[v.index()] = v.0; // matched with itself
            cluster_of[v.index()] = num_clusters as u32;
            num_clusters += 1;
        }
    }

    if (num_clusters as f64) > min_shrink * n as f64 {
        return None;
    }

    Some(contract_clusters(
        hg,
        fixed,
        cluster_of,
        num_clusters,
        params.threads,
    ))
}

/// Contracts an explicit clustering into a coarse [`Level`].
///
/// This is the coarse-graph-construction tail shared by heavy-edge
/// matching ([`coarsen_once`]) and the ensemble-recombination layer
/// (which force-coarsens agreement clusters): cluster weight vectors are
/// summed, fixities merged (panics if a cluster holds incompatible
/// fixities — callers must pre-check with [`merge_fixity`]), and nets are
/// mapped, deduplicated and merged by the sort-based span scheme, so the
/// coarse net list is deterministic and thread-count invariant.
///
/// `cluster_of[v]` must be a dense id in `0..num_clusters`.
pub fn contract_clusters(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    cluster_of: Vec<u32>,
    num_clusters: usize,
    threads: usize,
) -> Level {
    // Build the coarse hypergraph.
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

    // Map, dedup and merge nets: identical coarse pin sets sum weights.
    //
    // Every net's mapped pins are normalized (sorted, internally deduped)
    // in place at the tail of one shared pin arena, with an
    // `(offset, len, weight)` span per surviving net — no per-net key
    // allocation, no hashing. With a thread budget the normalize pass is
    // sharded and the shard arenas concatenate in net order, so the spans
    // are the same at every thread count. Sorting the spans by pin slice
    // brings identical coarse nets together; u64 weight addition is
    // order-independent, so the coarse net list (lexicographic by pin
    // slice) does not depend on how equal slices were ordered.
    let net_workers = effective_threads(threads, hg.num_nets(), NET_GRAIN);
    let normalize = |range: std::ops::Range<usize>,
                     pin_arena: &mut Vec<u32>,
                     spans: &mut Vec<(u32, u32, u64)>| {
        for ni in range {
            let net = NetId(ni as u32);
            let start = pin_arena.len();
            pin_arena.extend(hg.net_pins(net).iter().map(|&p| cluster_of[p.index()]));
            pin_arena[start..].sort_unstable();
            // In-place dedup of the tail written for this net.
            let mut w = start + 1;
            for r in start + 1..pin_arena.len() {
                if pin_arena[r] != pin_arena[w - 1] {
                    pin_arena[w] = pin_arena[r];
                    w += 1;
                }
            }
            pin_arena.truncate(w);
            if w - start < 2 {
                pin_arena.truncate(start); // internal to one cluster: can never be cut
                continue;
            }
            spans.push((start as u32, (w - start) as u32, hg.net_weight(net)));
        }
    };
    let mut pin_arena: Vec<u32>;
    let mut spans: Vec<(u32, u32, u64)>;
    if net_workers > 1 {
        let shards = par_map_chunks(hg.num_nets(), net_workers, |range| {
            let mut local_pins: Vec<u32> = Vec::new();
            let mut local_spans: Vec<(u32, u32, u64)> = Vec::new();
            normalize(range, &mut local_pins, &mut local_spans);
            (local_pins, local_spans)
        });
        pin_arena = Vec::with_capacity(shards.iter().map(|(p, _)| p.len()).sum());
        spans = Vec::with_capacity(shards.iter().map(|(_, s)| s.len()).sum());
        for (local_pins, local_spans) in shards {
            let base = pin_arena.len() as u32;
            pin_arena.extend_from_slice(&local_pins);
            spans.extend(
                local_spans
                    .into_iter()
                    .map(|(off, len, w)| (base + off, len, w)),
            );
        }
    } else {
        pin_arena = Vec::with_capacity(hg.num_pins());
        spans = Vec::with_capacity(hg.num_nets());
        normalize(0..hg.num_nets(), &mut pin_arena, &mut spans);
    }

    let spans = dedup_spans(&pin_arena, spans, num_clusters);
    let pins = spans.iter().map(|s| s.1 as usize).sum();
    let pin_slice = |s: &Span| &pin_arena[s.0 as usize..(s.0 + s.1) as usize];
    let mut builder =
        HypergraphBuilder::with_capacity_and_resources(num_clusters, spans.len(), pins, nr);
    for c in 0..num_clusters {
        builder
            .add_vertex_multi(&weights[c * nr..(c + 1) * nr])
            .expect("arity matches");
    }
    for span in &spans {
        builder
            .add_net(span.2, pin_slice(span).iter().copied().map(VertexId))
            .expect("valid coarse net");
    }

    Level {
        hg: builder.build().expect("valid coarse hypergraph"),
        fixed: FixedVertices::from_fixities(fixities),
        map: cluster_of.into_iter().map(VertexId).collect(),
    }
}

/// Decides how many worker threads a phase should actually use.
///
/// Returns 1 (run inline) unless more than one thread was requested *and*
/// there are at least `grain` items per prospective worker; otherwise caps
/// the requested count so each worker keeps a full grain of work.
fn effective_threads(requested: usize, items: usize, grain: usize) -> usize {
    if requested <= 1 {
        return 1;
    }
    requested.min(items / grain.max(1)).max(1)
}

/// Runs `f` over `0..len` split into at most `threads` contiguous chunks
/// and returns the per-chunk results **in chunk order**.
///
/// With `threads <= 1` (or `len <= 1`) this is exactly `vec![f(0..len)]`
/// on the current thread. A worker panic is propagated to the caller.
fn par_map_chunks<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    let workers = threads.min(len).max(1);
    if workers <= 1 {
        return vec![f(0..len)];
    }
    let chunk = len.div_ceil(workers);
    let ranges: Vec<std::ops::Range<usize>> = (0..workers)
        .map(|i| (i * chunk).min(len)..((i + 1) * chunk).min(len))
        .filter(|r| !r.is_empty())
        .collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| scope.spawn(move || f(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// A normalized coarse net: `(offset, len, weight)` into a pin arena whose
/// slice is sorted, duplicate-free and at least two pins long.
type Span = (u32, u32, u64);

/// Sorts `spans` lexicographically by their pin slices in `pin_arena`
/// (pins are `< num_clusters`) and merges each run of equal slices into
/// one span carrying the summed weight.
///
/// A counting sort buckets the spans by first pin, and each bucket is
/// then ordered by second pin with the rest of the slice as tie-break.
/// Buckets hold about one span per coarse vertex and the second pin is
/// copied next to each span, so most comparisons never touch the arena;
/// this is much cheaper than one comparison sort over whole slices.
fn dedup_spans(pin_arena: &[u32], spans: Vec<Span>, num_clusters: usize) -> Vec<Span> {
    let first_pin = |s: &Span| pin_arena[s.0 as usize] as usize;
    // `end[c]` first counts bucket `c`'s spans, then becomes the write
    // cursor, which leaves it at the bucket's end once every span is placed.
    let mut end = vec![0usize; num_clusters];
    for s in &spans {
        end[first_pin(s)] += 1;
    }
    let mut acc = 0;
    for slot in &mut end {
        acc += *slot;
        *slot = acc - *slot;
    }
    // `(second pin, span)`, bucketed by first pin.
    let mut sorted: Vec<(u32, Span)> = vec![(0, (0, 0, 0)); spans.len()];
    for s in spans {
        let cursor = &mut end[first_pin(&s)];
        sorted[*cursor] = (pin_arena[s.0 as usize + 1], s);
        *cursor += 1;
    }
    let rest = |s: &Span| &pin_arena[s.0 as usize + 2..(s.0 + s.1) as usize];
    let mut merged: Vec<Span> = Vec::with_capacity(sorted.len());
    let mut start = 0;
    for &stop in &end {
        let bucket = &mut sorted[start..stop];
        start = stop;
        if bucket.len() > 1 {
            bucket.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| rest(&a.1).cmp(rest(&b.1))));
        }
        for (i, &(pin1, span)) in bucket.iter().enumerate() {
            let repeats = i > 0 && {
                let (prev_pin1, prev) = bucket[i - 1];
                prev_pin1 == pin1 && rest(&prev) == rest(&span)
            };
            match merged.last_mut() {
                Some(run) if repeats => run.2 += span.2,
                _ => merged.push(span),
            }
        }
    }
    merged
}

/// Component-wise heavy-vertex guard: `true` when `acc + add` stays within
/// the per-resource caps. Dimensions past `caps.len()` are unconstrained;
/// an empty `caps` accepts everything (the scalar-only legacy regime).
pub(crate) fn within_resource_caps(acc: &[u64], add: &[u64], caps: &[u64]) -> bool {
    caps.iter()
        .zip(acc.iter().zip(add))
        .all(|(&c, (&a, &b))| a.saturating_add(b) <= c)
}

/// Weight newly counted toward partition `p`'s fixed pool when a vertex
/// with fixity `f` and weight `w` joins a `Fixed(p)` cluster.
fn fixed_delta(f: Fixity, p: PartId, w: u64) -> u64 {
    if f == Fixity::Fixed(p) {
        0 // already counted in the seed total
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::PartSet;
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

    fn params() -> CoarsenParams {
        CoarsenParams {
            max_cluster_weight: u64::MAX,
            max_cluster_weights: Vec::new(),
            max_net_size_for_matching: 64,
            max_fixed_part_weight: Vec::new(),
            allow_free_fixed_merge: false,
            threads: 1,
        }
    }

    #[test]
    fn effective_threads_caps_by_grain() {
        assert_eq!(effective_threads(1, 1_000_000, 1), 1);
        assert_eq!(effective_threads(4, 0, 64), 1);
        assert_eq!(effective_threads(4, 64, 64), 1);
        assert_eq!(effective_threads(4, 128, 64), 2);
        assert_eq!(effective_threads(4, 10_000, 64), 4);
        assert_eq!(effective_threads(3, 100, 0), 3); // zero grain never divides by zero
    }

    #[test]
    fn par_map_chunks_is_ordered_and_thread_count_invariant() {
        let expected: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1, 2, 3, 4, 8] {
            let chunks = par_map_chunks(257, threads, |r| r.map(|i| i * i).collect::<Vec<_>>());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, expected, "{threads} threads");
        }
    }

    #[test]
    fn par_map_chunks_handles_empty_and_tiny_inputs() {
        let empty = par_map_chunks(0, 4, |r| r.len());
        assert_eq!(empty, vec![0]);
        let one = par_map_chunks(1, 4, |r| r.len());
        assert_eq!(one, vec![1]);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        par_map_chunks(100, 4, |r| {
            if r.contains(&99) {
                panic!("worker boom");
            }
            0usize
        });
    }

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn halves_a_chain() {
        let hg = chain(16);
        let fx = FixedVertices::all_free(16);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let level = coarsen_once(&hg, &fx, &params(), 0.95, None, &mut rng).unwrap();
        assert!(level.hg.num_vertices() <= 12);
        assert_eq!(level.hg.total_weight(), 16);
        assert_eq!(level.map.len(), 16);
    }

    #[test]
    fn fully_fixed_graph_collapses_to_terminal_clusters() {
        let hg = chain(8);
        let mut fx = FixedVertices::all_free(8);
        for i in 0..8 {
            fx.fix(VertexId(i), PartId(i % 2));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // No adjacent pair shares a part, but same-part fixed vertices are
        // interchangeable, so the pre-pass groups them: two clusters.
        let level = coarsen_once(&hg, &fx, &params(), 0.95, None, &mut rng).unwrap();
        assert_eq!(level.hg.num_vertices(), 2);
        for v in level.hg.vertices() {
            assert!(level.fixed.fixity(v).is_fixed());
        }
        // The cross nets between the two clusters merge into one weighted net.
        assert_eq!(level.hg.num_nets(), 1);
        assert_eq!(level.hg.net_weight(vlsi_hypergraph::NetId(0)), 7);
    }

    #[test]
    fn incompatible_fixities_never_merge_in_ablation_mode() {
        let hg = chain(8);
        let mut fx = FixedVertices::all_free(8);
        for i in 0..8 {
            fx.fix(VertexId(i), PartId(i % 2));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // With the pre-pass disabled, adjacent vertices alternate parts and
        // no pair can merge => stall.
        let p = CoarsenParams {
            allow_free_fixed_merge: true,
            ..params()
        };
        let level = coarsen_once(&hg, &fx, &p, 0.95, None, &mut rng);
        assert!(level.is_none());
    }

    #[test]
    fn fixity_carried_into_cluster() {
        let hg = chain(4);
        let mut fx = FixedVertices::all_free(4);
        fx.fix(VertexId(0), PartId(1));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let level = coarsen_once(&hg, &fx, &params(), 1.0, None, &mut rng).unwrap();
        let c = level.map[0];
        assert_eq!(level.fixed.fixity(c), Fixity::Fixed(PartId(1)));
    }

    #[test]
    fn cluster_weight_cap_respected() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(3)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        let hg = b.build().unwrap();
        let fx = FixedVertices::all_free(4);
        let p = CoarsenParams {
            max_cluster_weight: 5, // no pair fits (3 + 3 = 6)
            ..params()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert!(coarsen_once(&hg, &fx, &p, 0.95, None, &mut rng).is_none());
    }

    #[test]
    fn same_part_restriction() {
        let hg = chain(8);
        let fx = FixedVertices::all_free(8);
        let parts: Vec<PartId> = (0..8).map(|i| PartId(i % 2)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Alternating parts on a chain: no adjacent pair shares a part.
        assert!(coarsen_once(&hg, &fx, &params(), 0.95, Some(&parts), &mut rng).is_none());
    }

    #[test]
    fn parallel_nets_merge_weights() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
        // Two clusters will form along these heavy pairs...
        b.add_net(10, [v[0], v[1]]).unwrap();
        b.add_net(10, [v[2], v[3]]).unwrap();
        // ...and these two parallel nets between the pairs must merge.
        b.add_net(1, [v[0], v[2]]).unwrap();
        b.add_net(2, [v[1], v[3]]).unwrap();
        let hg = b.build().unwrap();
        let fx = FixedVertices::all_free(4);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let level = coarsen_once(&hg, &fx, &params(), 1.0, None, &mut rng).unwrap();
        if level.hg.num_vertices() == 2 {
            assert_eq!(level.hg.num_nets(), 1);
            assert_eq!(level.hg.net_weight(vlsi_hypergraph::NetId(0)), 3);
        }
    }

    #[test]
    fn merge_fixity_table() {
        use Fixity::*;
        let s01 = PartSet::all(2);
        let s12: PartSet = [PartId(1), PartId(2)].into_iter().collect();
        assert_eq!(merge_fixity(Free, Free), Some(Free));
        assert_eq!(
            merge_fixity(FixedAny(s01), FixedAny(s12)),
            Some(Fixed(PartId(1)))
        );
        let s0 = PartSet::single(PartId(0));
        let s2 = PartSet::single(PartId(2));
        assert_eq!(merge_fixity(FixedAny(s0), FixedAny(s2)), None);
        assert_eq!(
            merge_fixity(Fixed(PartId(2)), FixedAny(s12)),
            Some(Fixed(PartId(2)))
        );
        assert_eq!(merge_fixity(Fixed(PartId(0)), FixedAny(s12)), None);
    }

    #[test]
    fn parallel_coarsening_matches_sequential_exactly() {
        // Big enough to clear NET_GRAIN so the contraction actually forks:
        // a 3000-vertex chain with weights and a sprinkling of fixed
        // vertices, plus some wider nets for the contraction dedup.
        let n = 3000;
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|i| b.add_vertex(1 + (i as u64 % 3))).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        for i in (0..n - 4).step_by(7) {
            b.add_net(2, [v[i], v[i + 2], v[i + 4]]).unwrap();
        }
        let hg = b.build().unwrap();
        let mut fx = FixedVertices::all_free(n);
        for i in (0..n).step_by(13) {
            fx.fix(VertexId(i as u32), PartId((i % 2) as u32));
        }
        let budgeted = CoarsenParams {
            max_cluster_weight: 9,
            max_fixed_part_weight: vec![4000, 4000],
            ..params()
        };
        let baseline = {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            coarsen_once(&hg, &fx, &budgeted, 0.95, None, &mut rng).unwrap()
        };
        for threads in [2, 4, 8] {
            let p = CoarsenParams {
                threads,
                ..budgeted.clone()
            };
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            let level = coarsen_once(&hg, &fx, &p, 0.95, None, &mut rng).unwrap();
            assert_eq!(level.map, baseline.map, "{threads} threads: cluster map");
            assert_eq!(
                level.hg.num_nets(),
                baseline.hg.num_nets(),
                "{threads} threads: net count"
            );
            let nets: Vec<(Vec<VertexId>, u64)> = level
                .hg
                .nets()
                .map(|nt| (level.hg.net_pins(nt).to_vec(), level.hg.net_weight(nt)))
                .collect();
            let base_nets: Vec<(Vec<VertexId>, u64)> = baseline
                .hg
                .nets()
                .map(|nt| {
                    (
                        baseline.hg.net_pins(nt).to_vec(),
                        baseline.hg.net_weight(nt),
                    )
                })
                .collect();
            assert_eq!(nets, base_nets, "{threads} threads: coarse nets");
        }
    }

    #[test]
    fn projection_roundtrip() {
        let hg = chain(10);
        let fx = FixedVertices::all_free(10);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let level = coarsen_once(&hg, &fx, &params(), 0.95, None, &mut rng).unwrap();
        let coarse_parts: Vec<PartId> = level.hg.vertices().map(|v| PartId(v.0 % 2)).collect();
        let fine = level.project(&coarse_parts);
        for v in hg.vertices() {
            assert_eq!(fine[v.index()], coarse_parts[level.map[v.index()].index()]);
        }
    }
}
