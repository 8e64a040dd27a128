//! Heavy-edge-matching coarsening with fixity-aware cluster merging, and
//! the terminal-clustering transform built on its fixed pre-pass.

use vlsi_rng::seq::SliceRandom;
use vlsi_rng::Rng;

use vlsi_hypergraph::{
    FixedVertices, Fixity, Hypergraph, HypergraphBuilder, PartId, PartSet, VertexId,
};

/// One coarsening level: the coarse hypergraph, its fixities, and the map
/// from fine vertex to coarse vertex.
///
/// A level is a deterministic function of the fine instance and the
/// clustering: coarse vertex `c` is cluster `c`, carrying the summed
/// weight vectors and merged fixities of its members. Every fine net that
/// spans two or more clusters maps to its ascending, duplicate-free list
/// of clusters; the coarse nets are those lists in lexicographic order,
/// one per distinct list, each weighing the sum of the fine nets that map
/// to it. A fine net inside one cluster has no coarse net.
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
    /// cluster ends up `Fixed` in that partition: two `FixedAny` vertices
    /// whose sets meet in one partition merge into a `Fixed` cluster only
    /// while that partition's fixed weight stays within its cap, so its
    /// fixed weight alone cannot exceed its balance capacity. Empty =
    /// unlimited.
    pub max_fixed_part_weight: Vec<u64>,
    /// Ignored: a free vertex never merges with a fixed one (gluing free
    /// cells onto terminals pre-decides their side before refinement can
    /// judge, which degrades cut quality in the fixed-terminals regime),
    /// and the fixed pre-pass always runs. The field stays so that code
    /// building `CoarsenParams` literals (the `perfbench` package among
    /// them) keeps compiling.
    pub allow_free_fixed_merge: bool,
    /// Ignored: coarsening runs on the calling thread. The field stays so
    /// that code building `CoarsenParams` literals (the `perfbench`
    /// package among them) keeps compiling.
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
/// heavy-edge score `Σ w(n) / (|n| − 1)` over shared nets (ties go to the
/// higher vertex id), subject to the cluster-weight cap and fixity
/// compatibility; a free vertex never merges with a fixed one. When
/// `same_part` is given (V-cycling), only vertices currently in the same
/// partition may merge. Before matching, the fixed pre-pass (the one
/// behind [`cluster_terminals`]) groups the vertices fixed in the same
/// partition up to the weight caps, in the shuffled order, so those
/// terminal clusters take the lowest coarse ids. The clustering is then
/// contracted by [`contract_clusters`].
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

    // A vertex is matched once it has a cluster.
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

    // Pre-pass: the terminal clusters, up to the weight caps. This keeps
    // coarsening shrinking even when half the graph is terminals.
    let mut num_clusters = cluster_fixed(
        hg,
        fixed,
        order.iter().copied(),
        params.max_cluster_weight,
        &params.max_cluster_weights,
        &mut cluster_of,
    );

    // Greedy heavy-edge matching in the shuffled visit order. Scores live
    // in a dense array indexed by vertex, with the vertices touched for
    // the current `v` listed in `candidates`; each candidate's score is
    // summed in `v`'s net order, so the f64 sums never depend on how they
    // are stored. A score is a sum of non-negative terms (a zero-weight
    // net scores a candidate exactly 0.0), so a negative entry marks a
    // vertex not yet touched. The argmax is over `(score, id)`, a total
    // order on candidates, so the choice does not depend on the order they
    // are visited in, and a candidate that cannot beat the best so far
    // skips the merge checks.
    const UNTOUCHED: f64 = -1.0;
    let mut score = vec![UNTOUCHED; n];
    let mut candidates: Vec<VertexId> = Vec::new();
    for &v in &order {
        if cluster_of[v.index()] != UNMATCHED {
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
                if u != v && cluster_of[ui] == UNMATCHED {
                    if score[ui] < 0.0 {
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
            let u_score = std::mem::replace(&mut score[u.index()], UNTOUCHED);
            if best.is_some_and(|(bs, bu)| (bs, bu.0) >= (u_score, u.0)) {
                continue;
            }
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
            if vfix.is_fixed() != ufix.is_fixed() {
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
            best = Some((u_score, u));
        }
        candidates.clear();
        let cluster = num_clusters as u32;
        num_clusters += 1;
        cluster_of[v.index()] = cluster;
        if let Some((_, u)) = best {
            let ufix = fixed.fixity(u);
            if let Some(Fixity::Fixed(p)) = merge_fixity(vfix, ufix) {
                if p.index() < fixed_weight.len() {
                    fixed_weight[p.index()] +=
                        fixed_delta(vfix, p, vw) + fixed_delta(ufix, p, hg.vertex_weight(u));
                }
            }
            cluster_of[u.index()] = cluster;
        }
    }

    if (num_clusters as f64) > min_shrink * n as f64 {
        return None;
    }

    Some(contract_clusters(hg, fixed, cluster_of, num_clusters))
}

/// The cluster-map entry of a vertex that has no cluster yet.
const UNMATCHED: u32 = u32::MAX;

/// The fixed pre-pass: groups the vertices fixed in one partition into
/// clusters, visiting them in `order`. A `Fixed(p)` vertex joins `p`'s
/// open cluster while its primary weight stays within `max_weight` and its
/// weight vector within `max_weights` (see [`within_resource_caps`]), and
/// otherwise opens the next cluster. Vertices fixed in one partition are
/// interchangeable to every engine, since none can move: this is the
/// paper's terminal-clustering equivalence.
///
/// Clusters take ids from 0 in the order they open, written to
/// `cluster_of`, which must enter all `UNMATCHED`. Free and `FixedAny`
/// vertices stay `UNMATCHED`, and so do vertices fixed in a partition
/// from 64 up, which no balance can hold. Returns the number of clusters.
fn cluster_fixed(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    order: impl IntoIterator<Item = VertexId>,
    max_weight: u64,
    max_weights: &[u64],
    cluster_of: &mut [u32],
) -> usize {
    // Each part's open cluster: (id, primary weight, weight vector).
    let mut open: Vec<Option<(u32, u64, Vec<u64>)>> = vec![None; PartSet::MAX_PARTS];
    let mut num_clusters = 0;
    for v in order {
        let Fixity::Fixed(p) = fixed.fixity(v) else {
            continue;
        };
        let Some(bin) = open.get_mut(p.index()) else {
            continue;
        };
        let (w, ws) = (hg.vertex_weight(v), hg.vertex_weights(v));
        match bin {
            Some((cluster, bw, bws))
                if *bw + w <= max_weight && within_resource_caps(bws, ws, max_weights) =>
            {
                cluster_of[v.index()] = *cluster;
                *bw += w;
                for (a, &b) in bws.iter_mut().zip(ws) {
                    *a += b;
                }
            }
            _ => {
                cluster_of[v.index()] = num_clusters as u32;
                *bin = Some((num_clusters as u32, w, ws.to_vec()));
                num_clusters += 1;
            }
        }
    }
    num_clusters
}

/// The terminal-clustering transform from the paper's conclusions: "a
/// bipartitioning instance with an arbitrary number/percent of fixed
/// terminals can be represented by an equivalent instance with only two
/// terminals, by clustering all terminals fixed in a given partition into
/// one single terminal."
///
/// The fixed pre-pass of [`coarsen_once`], run in vertex order with no
/// weight cap, gives one terminal per partition that has a `Fixed`
/// vertex; the terminals take the lowest ids, in order of first
/// appearance. Every other vertex, free or `FixedAny`, becomes its own
/// cluster, in vertex order, and keeps its fixity. [`contract_clusters`]
/// then builds the instance, so it drops the nets no assignment can cut
/// (one-pin nets, and nets inside one terminal) and merges parallel nets.
/// The cut and km1 of every assignment of the clustered instance equal
/// those of its [`Level::project`]ion: each terminal sits exactly where
/// its members sat.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{FixedVertices, Fixity, HypergraphBuilder, PartId, VertexId};
/// use vlsi_partition::multilevel::cluster_terminals;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..5).map(|_| b.add_vertex(1)).collect();
/// b.add_net(1, [v[0], v[1], v[4]])?;
/// b.add_net(1, [v[2], v[3]])?;
/// let hg = b.build()?;
/// let mut fx = FixedVertices::all_free(5);
/// fx.fix(v[0], PartId(0));
/// fx.fix(v[1], PartId(0));
/// fx.fix(v[2], PartId(1));
///
/// let clustered = cluster_terminals(&hg, &fx);
/// // Two terminals first, then the two free vertices.
/// assert_eq!(clustered.hg.num_vertices(), 4);
/// assert_eq!(clustered.fixed.fixity(VertexId(0)), Fixity::Fixed(PartId(0)));
/// assert_eq!(clustered.map[4], VertexId(3));
/// # Ok(())
/// # }
/// ```
pub fn cluster_terminals(hg: &Hypergraph, fixed: &FixedVertices) -> Level {
    let mut cluster_of = vec![UNMATCHED; hg.num_vertices()];
    let mut num_clusters = cluster_fixed(hg, fixed, hg.vertices(), u64::MAX, &[], &mut cluster_of);
    for c in cluster_of.iter_mut().filter(|c| **c == UNMATCHED) {
        *c = num_clusters as u32;
        num_clusters += 1;
    }
    contract_clusters(hg, fixed, cluster_of, num_clusters)
}

/// Contracts an explicit clustering into a coarse [`Level`].
///
/// This is the coarse-graph-construction tail shared by heavy-edge
/// matching ([`coarsen_once`]) and the ensemble-recombination layer
/// (which force-coarsens agreement clusters): cluster weight vectors are
/// summed, fixities merged (panics if a cluster holds incompatible
/// fixities — callers must pre-check with [`merge_fixity`]), and nets are
/// mapped to clusters, deduplicated and merged, so the coarse net list is
/// deterministic (see [`Level`]).
///
/// Each fine net spanning two or more clusters becomes one item holding
/// its first two coarse pins; only a net of three or more pins writes its
/// sorted pins to a shared arena. Two stable counting sorts over the
/// clusters, by second pin and then by first, order the items, and only a
/// run of items with equal first two pins that holds a longer net is
/// sorted by the pins after them. Runs of equal pin lists merge in place
/// by summing weights; u64 addition is order-independent, so the order of
/// equal lists cannot reach the output.
///
/// `cluster_of[v]` must be a dense id in `0..num_clusters`.
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

    // Map every net to its ascending, duplicate-free coarse pins, counting
    // the items per first and per second pin as they are made. A net
    // inside one cluster can never be cut and is dropped.
    let cluster = |p: VertexId| VertexId(cluster_of[p.index()]);
    let mut arena: Vec<VertexId> = Vec::new();
    let mut items: Vec<Item> = Vec::with_capacity(hg.num_nets());
    let mut by_first = vec![0u32; num_clusters];
    let mut by_second = vec![0u32; num_clusters];
    for net in hg.nets() {
        let weight = hg.net_weight(net);
        let item = match *hg.net_pins(net) {
            [a, b] => {
                let (a, b) = (cluster(a), cluster(b));
                if a == b {
                    continue;
                }
                Item::pair([a.min(b), a.max(b)], weight)
            }
            ref pins => {
                // Sort and dedup the mapped pins in place at the arena's tail.
                let start = arena.len();
                arena.extend(pins.iter().map(|&p| cluster(p)));
                let tail = &mut arena[start..];
                tail.sort_unstable();
                let mut len = 1;
                for r in 1..tail.len() {
                    if tail[r] != tail[len - 1] {
                        tail[len] = tail[r];
                        len += 1;
                    }
                }
                arena.truncate(start + len);
                match arena[start..] {
                    [a, b] => {
                        arena.truncate(start);
                        Item::pair([a, b], weight)
                    }
                    [a, b, ..] => Item {
                        head: [a, b],
                        start: start as u32,
                        len: len as u32,
                        weight,
                    },
                    _ => {
                        arena.truncate(start);
                        continue;
                    }
                }
            }
        };
        by_first[item.head[0].index()] += 1;
        by_second[item.head[1].index()] += 1;
        items.push(item);
    }

    // Order the items by (first pin, second pin) and back into `items`.
    let mut scatter = vec![Item::pair([VertexId(0); 2], 0); items.len()];
    scatter_by(&items, &mut scatter, &mut by_second, |item| item.head[1]);
    scatter_by(&scatter, &mut items, &mut by_first, |item| item.head[0]);
    drop(scatter);

    // Finish the lexicographic order inside each run of equal first two
    // pins, and merge each set of equal pin lists into its first item.
    // One pass: items are compacted in place as the runs go by.
    let mut kept = 0;
    let mut start = 0;
    while start < items.len() {
        let head = items[start].head;
        let mut end = start + 1;
        while end < items.len() && items[end].head == head {
            end += 1;
        }
        let run = &mut items[start..end];
        if run.len() > 1 && run.iter().any(|item| item.len > 2) {
            run.sort_unstable_by(|a, b| a.rest(&arena).cmp(b.rest(&arena)));
        }
        for i in start..end {
            let item = items[i];
            if i > start && items[kept - 1].rest(&arena) == item.rest(&arena) {
                items[kept - 1].weight += item.weight;
            } else {
                items[kept] = item;
                kept += 1;
            }
        }
        start = end;
    }
    items.truncate(kept);

    let pins = items.iter().map(|item| item.len as usize).sum();
    let mut builder =
        HypergraphBuilder::with_capacity_and_resources(num_clusters, items.len(), pins, nr);
    for c in 0..num_clusters {
        builder
            .add_vertex_multi(&weights[c * nr..(c + 1) * nr])
            .expect("arity matches");
    }
    for item in &items {
        builder
            .add_sorted_net(item.weight, item.pins(&arena))
            .expect("valid coarse net");
    }
    // Free the items and the arena before the CSR transpose allocates.
    drop((items, arena));

    Level {
        hg: builder.build().expect("valid coarse hypergraph"),
        fixed: FixedVertices::from_fixities(fixities),
        map: cluster_of.into_iter().map(VertexId).collect(),
    }
}

/// A coarse net being built: its first two pins, its weight, and for a
/// net of three or more pins the span of all its pins in the arena.
#[derive(Clone, Copy)]
struct Item {
    head: [VertexId; 2],
    /// Arena offset of the pins; unused when `len == 2`.
    start: u32,
    len: u32,
    weight: u64,
}

impl Item {
    fn pair(head: [VertexId; 2], weight: u64) -> Self {
        Item {
            head,
            start: 0,
            len: 2,
            weight,
        }
    }

    /// All pins, ascending.
    fn pins<'a>(&'a self, arena: &'a [VertexId]) -> &'a [VertexId] {
        if self.len == 2 {
            &self.head
        } else {
            &arena[self.start as usize..][..self.len as usize]
        }
    }

    /// The pins after the first two.
    fn rest<'a>(&'a self, arena: &'a [VertexId]) -> &'a [VertexId] {
        &self.pins(arena)[2..]
    }
}

/// One pass of a stable counting sort: moves each item of `from` to slot
/// `next[key]` of `to` and advances that slot. `next` enters holding each
/// key's item count and is turned into the first slot of each key here.
fn scatter_by(from: &[Item], to: &mut [Item], next: &mut [u32], key: impl Fn(&Item) -> VertexId) {
    let mut acc = 0;
    for slot in next.iter_mut() {
        let count = *slot;
        *slot = acc;
        acc += count;
    }
    for item in from {
        let slot = &mut next[key(item).index()];
        to[*slot as usize] = *item;
        *slot += 1;
    }
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
    use vlsi_hypergraph::CutState;
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

    /// Three free vertices and three terminals: vertices 0 and 2 fixed in
    /// part 0, vertex 1 in part 1.
    fn terminal_instance() -> (Hypergraph, FixedVertices) {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..6).map(|i| b.add_vertex(i as u64 + 1)).collect();
        b.add_net(1, [v[0], v[2], v[4]]).unwrap();
        b.add_net(2, [v[1], v[3]]).unwrap();
        b.add_net(1, [v[4], v[5]]).unwrap();
        let hg = b.build().unwrap();
        let mut fx = FixedVertices::all_free(6);
        fx.fix(VertexId(0), PartId(0));
        fx.fix(VertexId(2), PartId(0));
        fx.fix(VertexId(1), PartId(1));
        (hg, fx)
    }

    #[test]
    fn terminals_cluster_per_part() {
        let (hg, fx) = terminal_instance();
        let c = cluster_terminals(&hg, &fx);
        // 2 terminals, in order of first appearance, then 3 free vertices.
        assert_eq!(c.hg.num_vertices(), 5);
        let (t0, t1) = (c.map[0], c.map[1]);
        assert_eq!((t0, t1, c.map[2]), (VertexId(0), VertexId(1), t0));
        assert_eq!(&c.map[3..], &[VertexId(2), VertexId(3), VertexId(4)]);
        assert_eq!(c.hg.vertex_weight(t0), 1 + 3);
        assert_eq!(c.hg.vertex_weight(t1), 2);
        assert_eq!(c.fixed.fixity(t0), Fixity::Fixed(PartId(0)));
        assert_eq!(c.fixed.fixity(t1), Fixity::Fixed(PartId(1)));
    }

    #[test]
    fn terminal_clustering_preserves_total_weight() {
        let (hg, fx) = terminal_instance();
        let c = cluster_terminals(&hg, &fx);
        assert_eq!(c.hg.total_weight(), hg.total_weight());
        assert!(c.hg.num_nets() <= hg.num_nets());
    }

    #[test]
    fn terminal_clustering_preserves_the_cut_of_projected_solutions() {
        let (hg, fx) = terminal_instance();
        let c = cluster_terminals(&hg, &fx);
        // Assign the clustered free vertices arbitrarily, terminals fixed.
        let cparts: Vec<PartId> =
            c.hg.vertices()
                .map(|v| match c.fixed.fixity(v) {
                    Fixity::Fixed(p) => p,
                    _ => PartId(v.0 % 2),
                })
                .collect();
        let clustered_cut = CutState::new(&c.hg, 2, &cparts).cut();
        let orig_cut = CutState::new(&hg, 2, &c.project(&cparts)).cut();
        assert_eq!(clustered_cut, orig_cut);
    }

    #[test]
    fn terminal_clustering_keeps_fixed_any_vertices() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let v1 = b.add_vertex(1);
        b.add_net(1, [v0, v1]).unwrap();
        let hg = b.build().unwrap();
        let mut fx = FixedVertices::all_free(2);
        fx.fix_any(v0, PartSet::all(2));
        let c = cluster_terminals(&hg, &fx);
        assert_eq!(c.hg.num_vertices(), 2);
        assert_eq!(c.fixed.fixity(c.map[0]), Fixity::FixedAny(PartSet::all(2)));
    }

    #[test]
    fn terminal_clustering_without_terminals_keeps_the_shape() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(2);
        let v1 = b.add_vertex(3);
        b.add_net(1, [v0, v1]).unwrap();
        let hg = b.build().unwrap();
        let c = cluster_terminals(&hg, &FixedVertices::all_free(2));
        assert_eq!(c.hg, hg);
        assert_eq!(c.map, vec![v0, v1]);
        assert_eq!(c.fixed.num_fixed(), 0);
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
