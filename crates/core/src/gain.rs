//! The classic FM gain-bucket structure and its k-way generalization.
//!
//! An array of doubly-linked lists indexed by gain. Insertion is at the
//! list head, so equal-gain ties are broken by most-recent insertion —
//! exactly the LIFO discipline of LIFO-FM. The CLIP policy reuses the same
//! structure with shifted keys.
//!
//! [`KwayGains`] stacks one [`GainBuckets`] per *target* part: the
//! move-selection core of direct k-way refinement and of its parallel
//! rounds. [`MoveLog`] is its best-prefix rollback companion. The 2-way
//! FM engine ([`crate::BipartFm`]) keeps the same bucket discipline in a
//! pass state of its own (one packed node per vertex, one head array per
//! target side), so a gain bump touches one cache line instead of a
//! vertex's slots in several per-vertex arrays.

use vlsi_hypergraph::{PartId, VertexId};

const NONE: u32 = u32::MAX;

/// A bucket array mapping gain keys to LIFO lists of vertices.
///
/// Keys may range over `[-key_bound, key_bound]`. All operations are O(1)
/// except [`GainBuckets::select`], which scans downward from the current
/// maximum (amortized O(1) across a pass in the classic FM analysis).
///
/// # Example
/// ```
/// use vlsi_hypergraph::VertexId;
/// use vlsi_partition::GainBuckets;
///
/// let mut gb = GainBuckets::new(4, 10);
/// gb.insert(VertexId(0), 3);
/// gb.insert(VertexId(1), 5);
/// gb.insert(VertexId(2), 5); // same gain, inserted later => selected first
/// let (v, key) = gb.select(|_| true).unwrap();
/// assert_eq!((v, key), (VertexId(2), 5));
/// gb.remove(VertexId(2));
/// assert_eq!(gb.select(|_| true).unwrap().0, VertexId(1));
/// ```
#[derive(Debug, Clone)]
pub struct GainBuckets {
    key_bound: i64,
    heads: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    key_of: Vec<i64>,
    present: Vec<bool>,
    max_key: i64,
    len: usize,
}

impl GainBuckets {
    /// Creates buckets for `num_vertices` vertices with keys in
    /// `[-key_bound, key_bound]`.
    pub fn new(num_vertices: usize, key_bound: i64) -> Self {
        let span = (2 * key_bound + 1) as usize;
        GainBuckets {
            key_bound,
            heads: vec![NONE; span],
            next: vec![NONE; num_vertices],
            prev: vec![NONE; num_vertices],
            key_of: vec![0; num_vertices],
            present: vec![false; num_vertices],
            max_key: -key_bound,
            len: 0,
        }
    }

    #[inline]
    fn bucket_index(&self, key: i64) -> usize {
        debug_assert!(
            key.abs() <= self.key_bound,
            "key {key} outside ±{}",
            self.key_bound
        );
        (key + self.key_bound) as usize
    }

    /// Number of vertices currently in the buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no vertices are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `vertex` is currently in the buckets.
    #[inline]
    pub fn contains(&self, vertex: VertexId) -> bool {
        self.present[vertex.index()]
    }

    /// Current key of `vertex` (meaningful only while present).
    #[inline]
    pub fn key(&self, vertex: VertexId) -> i64 {
        self.key_of[vertex.index()]
    }

    /// Inserts `vertex` with the given key at the head of its bucket.
    ///
    /// # Panics
    /// Panics (debug) if the vertex is already present or the key is out of
    /// bounds.
    pub fn insert(&mut self, vertex: VertexId, key: i64) {
        debug_assert!(!self.present[vertex.index()], "vertex already present");
        let b = self.bucket_index(key);
        let old_head = self.heads[b];
        self.next[vertex.index()] = old_head;
        self.prev[vertex.index()] = NONE;
        if old_head != NONE {
            self.prev[old_head as usize] = vertex.0;
        }
        self.heads[b] = vertex.0;
        self.key_of[vertex.index()] = key;
        self.present[vertex.index()] = true;
        self.len += 1;
        if key > self.max_key {
            self.max_key = key;
        }
    }

    /// Removes `vertex` from the buckets. A no-op if absent.
    pub fn remove(&mut self, vertex: VertexId) {
        if !self.present[vertex.index()] {
            return;
        }
        let (p, n) = (self.prev[vertex.index()], self.next[vertex.index()]);
        if p != NONE {
            self.next[p as usize] = n;
        } else {
            let b = self.bucket_index(self.key_of[vertex.index()]);
            self.heads[b] = n;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
        self.present[vertex.index()] = false;
        self.len -= 1;
    }

    /// Changes `vertex`'s key, re-inserting it at the head of the new bucket
    /// (the classic FM update discipline). A no-op if the vertex is absent.
    pub fn update(&mut self, vertex: VertexId, new_key: i64) {
        if !self.present[vertex.index()] {
            return;
        }
        if self.key_of[vertex.index()] == new_key {
            return;
        }
        self.remove(vertex);
        self.insert(vertex, new_key);
    }

    /// Adds `delta` to `vertex`'s key. A no-op if the vertex is absent.
    pub fn adjust(&mut self, vertex: VertexId, delta: i64) {
        if !self.present[vertex.index()] || delta == 0 {
            return;
        }
        let k = self.key_of[vertex.index()];
        self.update(vertex, k + delta);
    }

    /// Finds the highest-key vertex satisfying `feasible`, scanning buckets
    /// from the current maximum downward and each bucket in LIFO order.
    ///
    /// Returns `None` if no present vertex is feasible.
    pub fn select<F: FnMut(VertexId) -> bool>(&self, mut feasible: F) -> Option<(VertexId, i64)> {
        if self.len == 0 {
            return None;
        }
        let mut key = self.max_key;
        while key >= -self.key_bound {
            let mut cur = self.heads[self.bucket_index(key)];
            while cur != NONE {
                let v = VertexId(cur);
                if feasible(v) {
                    return Some((v, key));
                }
                cur = self.next[cur as usize];
            }
            key -= 1;
        }
        None
    }

    /// Tightens the internal maximum-key hint (called by the FM engine after
    /// removals to keep future selects fast).
    pub fn decay_max(&mut self) {
        while self.max_key > -self.key_bound && self.heads[self.bucket_index(self.max_key)] == NONE
        {
            self.max_key -= 1;
        }
    }

    /// Removes all vertices (O(capacity)).
    pub fn clear(&mut self) {
        self.heads.fill(NONE);
        self.present.fill(false);
        self.max_key = -self.key_bound;
        self.len = 0;
    }
}

/// A k-way gain container: one [`GainBuckets`] per *target* part.
///
/// Each (vertex, target-part) pair is an independent entry keyed by the
/// gain of moving the vertex *to* that part. In the 2-way case this
/// degenerates to classic FM — a vertex on side `s` has exactly one
/// useful entry, in the bucket for `s.other_side()`.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{PartId, VertexId};
/// use vlsi_partition::KwayGains;
///
/// let mut kg = KwayGains::new(3, 4, 10);
/// kg.insert(VertexId(0), PartId(1), 3);
/// kg.insert(VertexId(0), PartId(2), 5);
/// kg.insert(VertexId(1), PartId(1), 5); // same key, later insert, lower part wins ties
/// let (v, to, key) = kg.select_best(|_, _| true).unwrap();
/// assert_eq!((v, to, key), (VertexId(1), PartId(1), 5));
/// kg.remove_all(VertexId(1));
/// assert_eq!(kg.select_best(|_, _| true).unwrap().1, PartId(2));
/// ```
#[derive(Debug, Clone)]
pub struct KwayGains {
    targets: Vec<GainBuckets>,
    key_bound: i64,
}

impl KwayGains {
    /// Creates buckets for `num_parts` target parts over `num_vertices`
    /// vertices with keys in `[-key_bound, key_bound]`.
    pub fn new(num_parts: usize, num_vertices: usize, key_bound: i64) -> Self {
        KwayGains {
            targets: (0..num_parts)
                .map(|_| GainBuckets::new(num_vertices, key_bound))
                .collect(),
            key_bound,
        }
    }

    /// Number of target parts.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.targets.len()
    }

    /// Total number of (vertex, target) entries across all parts.
    pub fn len(&self) -> usize {
        self.targets.iter().map(GainBuckets::len).sum()
    }

    /// Returns `true` if no entries are present.
    pub fn is_empty(&self) -> bool {
        self.targets.iter().all(GainBuckets::is_empty)
    }

    /// Returns `true` if `(vertex, to)` is currently present.
    #[inline]
    pub fn contains(&self, vertex: VertexId, to: PartId) -> bool {
        self.targets[to.index()].contains(vertex)
    }

    /// Current key of `(vertex, to)` (meaningful only while present).
    #[inline]
    pub fn key(&self, vertex: VertexId, to: PartId) -> i64 {
        self.targets[to.index()].key(vertex)
    }

    /// Inserts `(vertex, to)` with the given key at the head of its bucket.
    #[inline]
    pub fn insert(&mut self, vertex: VertexId, to: PartId, key: i64) {
        self.targets[to.index()].insert(vertex, key);
    }

    /// Removes `(vertex, to)`. A no-op if absent.
    #[inline]
    pub fn remove(&mut self, vertex: VertexId, to: PartId) {
        self.targets[to.index()].remove(vertex);
    }

    /// Removes `vertex` from every target bucket (when it is locked).
    pub fn remove_all(&mut self, vertex: VertexId) {
        for b in &mut self.targets {
            b.remove(vertex);
        }
    }

    /// Re-keys `(vertex, to)`, re-inserting at the new bucket head. A
    /// no-op if absent.
    #[inline]
    pub fn update(&mut self, vertex: VertexId, to: PartId, new_key: i64) {
        self.targets[to.index()].update(vertex, new_key);
    }

    /// Adds `delta` to `(vertex, to)`'s key. A no-op if absent.
    #[inline]
    pub fn adjust(&mut self, vertex: VertexId, to: PartId, delta: i64) {
        self.targets[to.index()].adjust(vertex, delta);
    }

    /// Selects the best feasible entry for one specific target part, for
    /// callers that apply their own cross-target tie-break.
    #[inline]
    pub fn select_from<F: FnMut(VertexId) -> bool>(
        &self,
        to: PartId,
        feasible: F,
    ) -> Option<(VertexId, i64)> {
        self.targets[to.index()].select(feasible)
    }

    /// Finds the highest-key feasible `(vertex, target)` entry across all
    /// parts, scanning keys downward from the global maximum; at equal
    /// keys, lower target-part indices win, and within a bucket the LIFO
    /// discipline applies.
    pub fn select_best<F: FnMut(VertexId, PartId) -> bool>(
        &self,
        mut feasible: F,
    ) -> Option<(VertexId, PartId, i64)> {
        let mut key = self
            .targets
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| b.max_key)
            .max()?;
        while key >= -self.key_bound {
            for (t, b) in self.targets.iter().enumerate() {
                if b.is_empty() || b.max_key < key {
                    continue;
                }
                let to = PartId::from_index(t);
                let mut cur = b.heads[b.bucket_index(key)];
                while cur != NONE {
                    let v = VertexId(cur);
                    if feasible(v, to) {
                        return Some((v, to, key));
                    }
                    cur = b.next[cur as usize];
                }
            }
            key -= 1;
        }
        None
    }

    /// Tightens the maximum-key hint of one target's buckets.
    #[inline]
    pub fn decay_max_for(&mut self, to: PartId) {
        self.targets[to.index()].decay_max();
    }

    /// Tightens the maximum-key hints of all targets.
    pub fn decay_max(&mut self) {
        for b in &mut self.targets {
            b.decay_max();
        }
    }

    /// Removes all entries (O(parts × capacity)).
    pub fn clear(&mut self) {
        for b in &mut self.targets {
            b.clear();
        }
    }

    /// Number of vertices the container was sized for.
    pub fn num_vertices(&self) -> usize {
        self.targets.first().map_or(0, |b| b.present.len())
    }

    /// The best present entry for `vertex` among the targets `feasible`
    /// admits: highest key first and, on equal keys, the lower target part
    /// index — the same cross-target tie-break as
    /// [`select_best`](KwayGains::select_best).
    pub fn best_entry<F: FnMut(PartId) -> bool>(
        &self,
        vertex: VertexId,
        mut feasible: F,
    ) -> Option<(PartId, i64)> {
        let mut best: Option<(PartId, i64)> = None;
        for (t, b) in self.targets.iter().enumerate() {
            if !b.contains(vertex) {
                continue;
            }
            let to = PartId::from_index(t);
            if !feasible(to) {
                continue;
            }
            let key = b.key(vertex);
            // Strictly-greater keeps the lowest part index at equal keys
            // (targets are scanned in ascending index order).
            if best.is_none_or(|(_, k)| key > k) {
                best = Some((to, key));
            }
        }
        best
    }
}

/// The shared best-prefix rollback log of pass-based refinement.
///
/// Every applied move is recorded with the part it came *from*; when the
/// pass ends, [`MoveLog::rollback_to_best`] undoes the suffix beyond the
/// best prefix in reverse order. Engines mark the best prefix whenever
/// their objective improves.
#[derive(Debug, Clone, Default)]
pub struct MoveLog {
    entries: Vec<(VertexId, PartId)>,
    best_len: usize,
}

impl MoveLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        MoveLog::default()
    }

    /// Creates an empty log with room for `capacity` moves.
    pub fn with_capacity(capacity: usize) -> Self {
        MoveLog {
            entries: Vec::with_capacity(capacity),
            best_len: 0,
        }
    }

    /// Records a move of `vertex` that left part `from`.
    #[inline]
    pub fn record(&mut self, vertex: VertexId, from: PartId) {
        self.entries.push((vertex, from));
    }

    /// Marks the current length as the best prefix.
    #[inline]
    pub fn mark_best(&mut self) {
        self.best_len = self.entries.len();
    }

    /// Moves recorded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no moves were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Length of the marked best prefix.
    #[inline]
    pub fn best_len(&self) -> usize {
        self.best_len
    }

    /// Undoes every move beyond the best prefix, newest first, calling
    /// `undo(vertex, from)` so the engine can restore the vertex to `from`
    /// and update any side state. The log keeps the surviving prefix.
    pub fn rollback_to_best<F: FnMut(VertexId, PartId)>(&mut self, mut undo: F) {
        while self.entries.len() > self.best_len {
            let (v, from) = self.entries.pop().expect("len > best_len >= 0");
            undo(v, from);
        }
    }

    /// Forgets all moves and resets the best mark.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.best_len = 0;
    }

    /// The recorded moves, oldest first.
    pub fn entries(&self) -> &[(VertexId, PartId)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_within_bucket() {
        let mut gb = GainBuckets::new(3, 5);
        gb.insert(VertexId(0), 2);
        gb.insert(VertexId(1), 2);
        assert_eq!(gb.select(|_| true), Some((VertexId(1), 2)));
    }

    #[test]
    fn select_skips_infeasible() {
        let mut gb = GainBuckets::new(3, 5);
        gb.insert(VertexId(0), 5);
        gb.insert(VertexId(1), 3);
        let got = gb.select(|v| v != VertexId(0));
        assert_eq!(got, Some((VertexId(1), 3)));
    }

    #[test]
    fn select_none_when_all_infeasible() {
        let mut gb = GainBuckets::new(2, 5);
        gb.insert(VertexId(0), 1);
        assert_eq!(gb.select(|_| false), None);
    }

    #[test]
    fn remove_middle_of_list() {
        let mut gb = GainBuckets::new(3, 2);
        gb.insert(VertexId(0), 0);
        gb.insert(VertexId(1), 0);
        gb.insert(VertexId(2), 0);
        gb.remove(VertexId(1)); // list is 2 -> [1] -> 0
        assert_eq!(gb.len(), 2);
        assert_eq!(gb.select(|_| true), Some((VertexId(2), 0)));
        gb.remove(VertexId(2));
        assert_eq!(gb.select(|_| true), Some((VertexId(0), 0)));
    }

    #[test]
    fn update_moves_to_new_bucket_head() {
        let mut gb = GainBuckets::new(3, 5);
        gb.insert(VertexId(0), 1);
        gb.insert(VertexId(1), 4);
        gb.update(VertexId(0), 4);
        // v0 re-inserted at head of bucket 4
        assert_eq!(gb.select(|_| true), Some((VertexId(0), 4)));
    }

    #[test]
    fn adjust_applies_delta() {
        let mut gb = GainBuckets::new(2, 10);
        gb.insert(VertexId(0), -2);
        gb.adjust(VertexId(0), 5);
        assert_eq!(gb.key(VertexId(0)), 3);
        gb.adjust(VertexId(1), 5); // absent: no-op
        assert_eq!(gb.len(), 1);
    }

    #[test]
    fn negative_keys_work() {
        let mut gb = GainBuckets::new(2, 4);
        gb.insert(VertexId(0), -4);
        gb.insert(VertexId(1), -1);
        assert_eq!(gb.select(|_| true), Some((VertexId(1), -1)));
    }

    #[test]
    fn decay_and_reinsert() {
        let mut gb = GainBuckets::new(2, 4);
        gb.insert(VertexId(0), 4);
        gb.remove(VertexId(0));
        gb.decay_max();
        gb.insert(VertexId(1), -3);
        assert_eq!(gb.select(|_| true), Some((VertexId(1), -3)));
    }

    #[test]
    fn clear_empties() {
        let mut gb = GainBuckets::new(2, 4);
        gb.insert(VertexId(0), 1);
        gb.clear();
        assert!(gb.is_empty());
        assert!(!gb.contains(VertexId(0)));
        assert_eq!(gb.select(|_| true), None);
    }

    #[test]
    fn double_remove_is_noop() {
        let mut gb = GainBuckets::new(2, 4);
        gb.insert(VertexId(0), 1);
        gb.remove(VertexId(0));
        gb.remove(VertexId(0));
        assert!(gb.is_empty());
    }

    #[test]
    fn kway_select_best_scans_parts_in_order() {
        let mut kg = KwayGains::new(4, 3, 6);
        kg.insert(VertexId(0), PartId(3), 4);
        kg.insert(VertexId(1), PartId(1), 4);
        kg.insert(VertexId(2), PartId(2), 6);
        // Highest key wins outright.
        assert_eq!(
            kg.select_best(|_, _| true),
            Some((VertexId(2), PartId(2), 6))
        );
        kg.remove(VertexId(2), PartId(2));
        // Equal keys: lower target index wins.
        assert_eq!(
            kg.select_best(|_, _| true),
            Some((VertexId(1), PartId(1), 4))
        );
    }

    #[test]
    fn kway_select_best_respects_feasibility_and_lifo() {
        let mut kg = KwayGains::new(2, 4, 5);
        kg.insert(VertexId(0), PartId(0), 2);
        kg.insert(VertexId(1), PartId(0), 2); // later insert, same bucket
        assert_eq!(
            kg.select_best(|_, _| true),
            Some((VertexId(1), PartId(0), 2))
        );
        assert_eq!(
            kg.select_best(|v, _| v != VertexId(1)),
            Some((VertexId(0), PartId(0), 2))
        );
        assert_eq!(kg.select_best(|_, _| false), None);
    }

    #[test]
    fn kway_remove_all_and_counts() {
        let mut kg = KwayGains::new(3, 2, 4);
        kg.insert(VertexId(0), PartId(1), 1);
        kg.insert(VertexId(0), PartId(2), -1);
        assert_eq!(kg.len(), 2);
        assert!(kg.contains(VertexId(0), PartId(1)));
        kg.remove_all(VertexId(0));
        assert!(kg.is_empty());
        assert_eq!(kg.select_best(|_, _| true), None);
    }

    #[test]
    fn kway_adjust_and_decay() {
        let mut kg = KwayGains::new(2, 2, 8);
        kg.insert(VertexId(0), PartId(1), 6);
        kg.insert(VertexId(1), PartId(0), 0);
        kg.adjust(VertexId(0), PartId(1), -8);
        kg.decay_max();
        assert_eq!(kg.key(VertexId(0), PartId(1)), -2);
        assert_eq!(
            kg.select_best(|_, _| true),
            Some((VertexId(1), PartId(0), 0))
        );
        kg.clear();
        assert!(kg.is_empty());
    }

    #[test]
    fn best_entry_breaks_ties_like_select_best() {
        let mut kg = KwayGains::new(4, 2, 6);
        kg.insert(VertexId(0), PartId(3), 4);
        kg.insert(VertexId(0), PartId(1), 4); // equal key, lower index wins
        kg.insert(VertexId(0), PartId(2), 6);
        assert_eq!(kg.best_entry(VertexId(0), |_| true), Some((PartId(2), 6)));
        assert_eq!(
            kg.best_entry(VertexId(0), |to| to != PartId(2)),
            Some((PartId(1), 4))
        );
        assert_eq!(kg.best_entry(VertexId(0), |_| false), None);
        assert_eq!(kg.best_entry(VertexId(1), |_| true), None);
    }

    #[test]
    fn move_log_rollback_restores_suffix() {
        let mut log = MoveLog::new();
        log.record(VertexId(0), PartId(0));
        log.mark_best();
        log.record(VertexId(1), PartId(1));
        log.record(VertexId(2), PartId(0));
        assert_eq!((log.len(), log.best_len()), (3, 1));
        let mut undone = Vec::new();
        log.rollback_to_best(|v, from| undone.push((v, from)));
        // Newest first.
        assert_eq!(
            undone,
            vec![(VertexId(2), PartId(0)), (VertexId(1), PartId(1))]
        );
        assert_eq!(log.entries(), &[(VertexId(0), PartId(0))]);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.best_len(), 0);
    }
}
