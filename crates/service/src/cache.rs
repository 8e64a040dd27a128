//! Content-addressed solution cache with LRU eviction.
//!
//! A solution is addressed by the *content* of the job that produced it:
//! (engine, k, tolerance, starts, seed, quality knobs, objective,
//! capacities, vertex weights, nets, fixities) — everything that
//! determines the deterministic output. Two structurally identical
//! requests therefore share one entry no matter how their JSON was
//! formatted, while any change to the instance or configuration misses.
//! The thread count stays out of the key: no answer depends on it, so one
//! entry serves every budget.
//!
//! The key has two encodings of the same fields in the same order,
//! written in one pass:
//!
//! * the **compact bytes** the cache stores and compares: integers as
//!   LEB128 varints, the engine name length-prefixed, each fixity one tag
//!   byte (followed by its part or part mask when fixed). Every field is
//!   self-delimiting and every sequence carries its length, so distinct
//!   contents never share bytes (moving a weight to the next vertex or a
//!   pin to the next net changes them);
//! * the **canonical stream** the solution id is hashed from: every
//!   integer as 8 little-endian bytes (a free vertex `u64::MAX`, a fixed
//!   one `0` and its part, a multi-part one `1` and its mask), hashed with
//!   FNV-1a 64 but never built. A zero byte's FNV-1a step is a bare
//!   multiply, so each integer folds its low bytes up to the highest
//!   non-zero one and then multiplies by a power of the FNV prime.
//!
//! Lookups compare the full compact bytes, not just the 64-bit hash, so a
//! hash collision degrades to a miss instead of returning a wrong
//! solution. Deadline-expired (best-so-far) results are never inserted —
//! caching them would make a later identical request with a generous
//! deadline return the truncated answer.

use std::collections::HashMap;

use vlsi_hypergraph::{FixedVertices, Fixity, Hypergraph, Objective, PartCapacities, PartId};

/// The compact encoding of a job's solution-determining content, with the
/// hash of its canonical stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    bytes: Vec<u8>,
    hash: u64,
}

impl CacheKey {
    /// The 64-bit FNV-1a hash of the canonical u64-LE stream.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The compact bytes the cache stores and compares.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The **solution id** of this key: a stable, content-derived handle
    /// (`"s"` + 16 hex digits of the hash) returned to clients in job
    /// responses and accepted back in `warm_start.solution_id`. Because it
    /// is derived from the content hash — not from an insertion counter —
    /// the id a client observes is independent of worker count and
    /// completion order.
    pub fn solution_id(&self) -> String {
        format!("s{:016x}", self.hash)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^i` for `i` in `0..=8`: the FNV-1a step of `i` zero bytes.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut i = 1;
    while i < powers.len() {
        powers[i] = powers[i - 1].wrapping_mul(FNV_PRIME);
        i += 1;
    }
    powers
};

/// Writes the compact bytes and hashes the canonical stream in one pass.
struct KeyWriter {
    bytes: Vec<u8>,
    hash: u64,
}

impl KeyWriter {
    /// One integer: a LEB128 varint in the compact bytes, 8 LE bytes in the
    /// canonical stream.
    #[inline]
    fn word(&mut self, v: u64) {
        self.fold(v);
        let mut rest = v;
        while rest >= 0x80 {
            self.bytes.push(rest as u8 | 0x80);
            rest >>= 7;
        }
        self.bytes.push(rest as u8);
    }

    /// A one-byte compact tag standing for the canonical word `canonical`.
    #[inline]
    fn tag(&mut self, tag: u8, canonical: u64) {
        self.fold(canonical);
        self.bytes.push(tag);
    }

    /// Bytes that both encodings carry as they are.
    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.bytes.extend_from_slice(bytes);
    }

    /// Folds `v`'s 8 LE bytes into the hash: the bytes below the highest
    /// non-zero one step by step, then that byte's step and the zero bytes
    /// above it as one multiply (`v = 0` takes one multiply by `FNV_PRIME^8`).
    #[inline]
    fn fold(&mut self, v: u64) {
        let significant = ((71 - v.leading_zeros() as usize) / 8).max(1);
        let mut h = self.hash;
        let mut rest = v;
        for _ in 1..significant {
            h = (h ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        self.hash = (h ^ rest).wrapping_mul(PRIME_POWERS[9 - significant]);
    }
}

/// Builds the content address of a job. `_parallel_refine` is ignored, as
/// no answer depends on the thread count; the parameter stays only
/// because the `perfbench` harness calls this signature. `vcycles` and
/// `ensemble` are the quality-phase knobs: a plain multistart solution
/// must never answer a V-cycle/ensemble request (they produce different —
/// better — partitions), so both are part of the address.
#[allow(clippy::too_many_arguments)]
pub fn cache_key(
    engine: &str,
    k: usize,
    tolerance: f64,
    starts: usize,
    seed: u64,
    _parallel_refine: bool,
    vcycles: usize,
    ensemble: bool,
    objective: Objective,
    part_capacities: Option<&PartCapacities>,
    hg: &Hypergraph,
    fixed: &FixedVertices,
) -> CacheKey {
    // About two bytes per weight, fixity and pin and three per net; the
    // cache shrinks the bytes it keeps to their length.
    let mut w = KeyWriter {
        bytes: Vec::with_capacity(
            64 + engine.len()
                + 2 * (hg.num_vertices() * (hg.num_resources() + 1) + hg.num_pins())
                + 3 * hg.num_nets(),
        ),
        hash: 0xcbf2_9ce4_8422_2325,
    };
    w.word(engine.len() as u64);
    w.raw(engine.as_bytes());
    w.word(k as u64);
    w.word(tolerance.to_bits());
    w.word(starts as u64);
    w.word(seed);
    w.word(vcycles as u64);
    w.word(ensemble as u64);
    w.word(match objective {
        Objective::Cut => 0,
        Objective::KMinus1 => 1,
        Objective::Soed => 2,
    });
    match part_capacities {
        None => w.word(0),
        Some(caps) => {
            w.word(1);
            w.word(caps.num_parts() as u64);
            w.word(caps.num_resources() as u64);
            for &c in caps.as_flat() {
                w.word(c);
            }
        }
    }

    w.word(hg.num_vertices() as u64);
    w.word(hg.num_resources() as u64);
    for v in hg.vertices() {
        for &weight in hg.vertex_weights(v) {
            w.word(weight);
        }
    }
    w.word(hg.num_nets() as u64);
    for n in hg.nets() {
        w.word(hg.net_weight(n));
        w.word(hg.net_size(n) as u64);
        for &p in hg.net_pins(n) {
            w.word(p.index() as u64);
        }
    }

    w.word(fixed.len() as u64);
    for fixity in fixed.as_slice() {
        match fixity {
            Fixity::Free => w.tag(0, u64::MAX),
            Fixity::Fixed(p) => {
                w.tag(1, 0);
                w.word(p.index() as u64);
            }
            Fixity::FixedAny(set) => {
                w.tag(2, 1);
                w.word(set.iter().fold(0u64, |mask, p| mask | 1 << p.index()));
            }
        }
    }

    CacheKey {
        bytes: w.bytes,
        hash: w.hash,
    }
}

/// A refereed solution: the assignment and both reported metrics, so a
/// cache hit answers without counting them again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// One part per vertex.
    pub parts: Vec<PartId>,
    /// The cut of `parts`.
    pub cut: u64,
    /// The (λ − 1) connectivity of `parts`.
    pub km1: u64,
}

/// A cached solution.
#[derive(Debug, Clone)]
struct Entry {
    key_bytes: Vec<u8>,
    solution: Solution,
    last_used: u64,
}

/// Hit/miss/eviction counters for a [`SolutionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a solution.
    pub hits: u64,
    /// Lookups that found nothing (including hash collisions).
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// An LRU-bounded map from content address to solution.
///
/// Not internally synchronised — the server wraps it in a `Mutex`.
#[derive(Debug)]
pub struct SolutionCache {
    map: HashMap<u64, Vec<Entry>>,
    capacity: usize,
    len: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SolutionCache {
    /// A cache holding at most `capacity` solutions (min 1).
    pub fn new(capacity: usize) -> Self {
        SolutionCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            len: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Solution> {
        self.tick += 1;
        let tick = self.tick;
        let found = self.map.get_mut(&key.hash).and_then(|bucket| {
            bucket
                .iter_mut()
                .find(|e| e.key_bytes == key.bytes)
                .map(|e| {
                    e.last_used = tick;
                    e.solution.clone()
                })
        });
        match &found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Looks up a solution's parts by its content-derived id (see
    /// [`CacheKey::solution_id`]), refreshing recency on a hit. Used by
    /// the warm-start path; `None` (an evicted or never-seen id) makes the
    /// server fall back to a cold run with a `warm:"miss"` note.
    ///
    /// In the vanishingly rare case of two resident keys sharing a 64-bit
    /// hash, the first entry in the bucket answers — the warm-start path
    /// only needs *a* plausible seed, and it re-legalizes and re-validates
    /// whatever it gets.
    pub fn get_by_id(&mut self, id: &str) -> Option<Vec<PartId>> {
        let hash = id
            .strip_prefix('s')
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        self.tick += 1;
        let tick = self.tick;
        let found = hash
            .and_then(|h| self.map.get_mut(&h))
            .and_then(|bucket| bucket.first_mut())
            .map(|e| {
                e.last_used = tick;
                e.solution.parts.clone()
            });
        match &found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Inserts (or refreshes) a solution, evicting the least-recently-used
    /// entry when the capacity bound is exceeded.
    pub fn insert(&mut self, key: CacheKey, solution: Solution) {
        self.tick += 1;
        let bucket = self.map.entry(key.hash).or_default();
        if let Some(e) = bucket.iter_mut().find(|e| e.key_bytes == key.bytes) {
            e.solution = solution;
            e.last_used = self.tick;
            return;
        }
        let mut key_bytes = key.bytes;
        key_bytes.shrink_to_fit();
        bucket.push(Entry {
            key_bytes,
            solution,
            last_used: self.tick,
        });
        self.len += 1;
        if self.len > self.capacity {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        // O(entries) scan — the cache is small (hundreds of solutions) and
        // eviction is rare next to a partitioning run, so a recency scan
        // beats maintaining an intrusive list.
        let Some((&victim_hash, oldest_in_bucket)) = self
            .map
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(h, b)| {
                let idx = b
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("bucket non-empty");
                (h, idx)
            })
            .min_by_key(|&(h, i)| self.map[h][i].last_used)
        else {
            return;
        };
        let bucket = self.map.get_mut(&victim_hash).expect("victim exists");
        bucket.swap_remove(oldest_in_bucket);
        if bucket.is_empty() {
            self.map.remove(&victim_hash);
        }
        self.len -= 1;
        self.evictions += 1;
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::HypergraphBuilder;

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        b.build().unwrap()
    }

    /// A four-vertex solution in part `part`, with `cut` standing for
    /// both metrics.
    fn solution(part: usize, cut: u64) -> Solution {
        Solution {
            parts: vec![PartId::from_index(part); 4],
            cut,
            km1: cut,
        }
    }

    fn key_of(hg: &Hypergraph, fixed: &FixedVertices, seed: u64) -> CacheKey {
        cache_key(
            "ml",
            2,
            0.1,
            4,
            seed,
            false,
            0,
            false,
            Objective::Cut,
            None,
            hg,
            fixed,
        )
    }

    #[test]
    fn identical_content_shares_an_address() {
        let hg = chain(6);
        let fx = FixedVertices::all_free(6);
        assert_eq!(key_of(&hg, &fx, 7), key_of(&hg, &fx, 7));
    }

    #[test]
    fn any_config_change_misses() {
        let hg = chain(6);
        let fx = FixedVertices::all_free(6);
        let base = key_of(&hg, &fx, 7);
        assert_ne!(base, key_of(&hg, &fx, 8), "seed is part of the address");
        let variants: &[(&str, &str, f64, usize, bool, Objective)] = &[
            ("engine", "fm", 0.1, 0, false, Objective::Cut),
            ("tolerance", "ml", 0.2, 0, false, Objective::Cut),
            ("vcycles", "ml", 0.1, 2, false, Objective::Cut),
            ("ensemble", "ml", 0.1, 0, true, Objective::Cut),
            ("objective", "ml", 0.1, 0, false, Objective::KMinus1),
        ];
        for &(what, engine, tol, vc, ens, obj) in variants {
            assert_ne!(
                base,
                cache_key(engine, 2, tol, 4, 7, false, vc, ens, obj, None, &hg, &fx),
                "{what} is part of the address"
            );
        }
        assert_eq!(
            base,
            cache_key(
                "ml",
                2,
                0.1,
                4,
                7,
                true,
                0,
                false,
                Objective::Cut,
                None,
                &hg,
                &fx
            ),
            "the ignored flag is not part of the address"
        );
        let caps = PartCapacities::uniform(2, &[10]);
        assert_ne!(
            base,
            cache_key(
                "ml",
                2,
                0.1,
                4,
                7,
                false,
                0,
                false,
                Objective::Cut,
                Some(&caps),
                &hg,
                &fx
            ),
            "capacity vectors are part of the address"
        );
        let mut fixed = FixedVertices::all_free(6);
        fixed.fix(
            vlsi_hypergraph::VertexId::from_index(0),
            PartId::from_index(1),
        );
        assert_ne!(
            base,
            key_of(&hg, &fixed, 7),
            "fixities are part of the address"
        );
        assert_ne!(base, key_of(&chain(7), &FixedVertices::all_free(7), 7));
    }

    #[test]
    fn hit_miss_counters_and_round_trip() {
        let hg = chain(4);
        let fx = FixedVertices::all_free(4);
        let mut cache = SolutionCache::new(8);
        let key = key_of(&hg, &fx, 0);
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), solution(0, 3));
        assert_eq!(cache.get(&key), Some(solution(0, 3)), "hit after insert");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn solution_ids_round_trip_and_miss_after_eviction() {
        let hg = chain(4);
        let fx = FixedVertices::all_free(4);
        let mut cache = SolutionCache::new(1);
        let k0 = key_of(&hg, &fx, 0);
        let id0 = k0.solution_id();
        assert!(id0.starts_with('s') && id0.len() == 17, "{id0}");
        assert_eq!(id0, key_of(&hg, &fx, 0).solution_id(), "content-derived");
        cache.insert(k0.clone(), solution(1, 2));
        assert_eq!(cache.get_by_id(&id0), Some(solution(1, 2).parts));
        // Capacity 1: inserting a second solution evicts the first, and
        // its id now misses instead of erroring.
        cache.insert(key_of(&hg, &fx, 1), solution(0, 3));
        assert!(cache.get_by_id(&id0).is_none(), "evicted id misses");
        assert!(cache.get_by_id("not-an-id").is_none());
        assert!(cache.get_by_id("sffffffffffffffff").is_none());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let hg = chain(4);
        let fx = FixedVertices::all_free(4);
        let mut cache = SolutionCache::new(2);
        let k0 = key_of(&hg, &fx, 0);
        let k1 = key_of(&hg, &fx, 1);
        let k2 = key_of(&hg, &fx, 2);
        cache.insert(k0.clone(), solution(0, 0));
        cache.insert(k1.clone(), solution(0, 1));
        cache.get(&k0); // refresh k0 — k1 becomes coldest
        cache.insert(k2.clone(), solution(0, 2));
        assert!(cache.get(&k0).is_some(), "recently used entry survives");
        assert!(cache.get(&k1).is_none(), "coldest entry was evicted");
        assert!(cache.get(&k2).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }
}
