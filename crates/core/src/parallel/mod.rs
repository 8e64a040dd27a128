//! Deterministic scoped parallelism for the multilevel hot paths.
//!
//! The repo's hermetic-build policy rules out rayon, so this module is the
//! crate's entire threading layer: a handful of fork–join helpers built on
//! [`std::thread::scope`], the same primitive the parallel multistart
//! driver already uses. Workers are plain scoped threads — no pool object
//! outlives a call, no channels, no unsafe.
//!
//! # Determinism contract
//!
//! Every helper here splits its input into **contiguous index chunks** and
//! reassembles results **in chunk order**. That alone does not make a
//! caller deterministic: the per-chunk closure must produce output that is
//! a pure function of the *items* it covers, never of the chunk boundary
//! or of anything another chunk computes. All in-crate callers obey a
//! stronger rule — their parallel phases compute values that are
//! *identical* to what the sequential code would compute for the same item
//! (FM/k-way initial gains, per-net coarse pin sets, round-engine move
//! proposals), and every state-dependent decision
//! is replayed afterwards on one thread in the original order.
//!
//! Two consequences, pinned by `tests/determinism.rs`:
//!
//! * **Setup phases** (coarsening, gain initialization) compute exactly
//!   what the sequential code computes, so for a fixed seed the partition
//!   vector is byte-identical for 1, 2, 4 or 8 threads.
//! * **K-way refinement** ([`refine`]) is a *two-regime* contract: a
//!   budget ≤ 1 runs the legacy sequential pass bit-for-bit, while every
//!   budget ≥ 2 runs the synchronous-round engine and yields one identical
//!   answer regardless of the budget. The round engine itself is
//!   worker-count invariant down to a single worker —
//!   `kway::refine_pass_parallel` pins byte-identity at literal
//!   1/2/4/8 — but it is a different algorithm than the sequential pass,
//!   so the regimes may legitimately return different (equally legal)
//!   solutions.
//!
//! Thread counts are budgets, not demands: `threads <= 1`, or inputs below
//! the caller's grain size, run inline on the current thread with zero
//! overhead.

use std::ops::Range;

pub mod refine;

/// Minimum items (gain entries, vertices) per worker before a gain
/// initialization or proposal scan forks threads. Shared by the 2-way FM
/// engine, the k-way gain setup, and the round engine's proposal stage.
pub(crate) const GAIN_INIT_GRAIN: usize = 1024;

/// Decides how many worker threads a phase should actually use.
///
/// Returns 1 (run inline) unless more than one thread was requested *and*
/// there are at least `grain` items per prospective worker; otherwise caps
/// the requested count so each worker keeps a full grain of work.
///
/// # Example
/// ```
/// use vlsi_partition::parallel::effective_threads;
/// assert_eq!(effective_threads(8, 100, 1024), 1); // too little work
/// assert_eq!(effective_threads(8, 3000, 1024), 2);
/// assert_eq!(effective_threads(4, 1 << 20, 1024), 4);
/// assert_eq!(effective_threads(0, 1 << 20, 1024), 1);
/// ```
#[must_use]
pub fn effective_threads(requested: usize, items: usize, grain: usize) -> usize {
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
///
/// # Example
/// ```
/// use vlsi_partition::parallel::par_map_chunks;
/// let sums = par_map_chunks(100, 4, |r| r.sum::<usize>());
/// assert_eq!(sums.iter().sum::<usize>(), (0..100).sum());
/// ```
pub fn par_map_chunks<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let workers = threads.min(len).max(1);
    if workers <= 1 {
        return vec![f(0..len)];
    }
    let chunk = len.div_ceil(workers);
    let ranges: Vec<Range<usize>> = (0..workers)
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

/// Fills `out` in place: each worker receives a disjoint contiguous slice
/// plus its starting offset into `out`, so `f(offset, slice)` can compute
/// `slice[i]` from global index `offset + i`.
///
/// The first chunk runs on the calling thread (with `threads <= 1` the
/// whole call is just `f(0, out)`); the remaining chunks run on scoped
/// threads. A worker panic is propagated to the caller.
///
/// # Example
/// ```
/// use vlsi_partition::parallel::par_fill;
/// let mut v = vec![0usize; 10];
/// par_fill(&mut v, 3, |off, chunk| {
///     for (i, slot) in chunk.iter_mut().enumerate() {
///         *slot = (off + i) * 2;
///     }
/// });
/// assert_eq!(v[7], 14);
/// ```
pub fn par_fill<T, F>(out: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    if len == 0 {
        return;
    }
    let workers = threads.min(len).max(1);
    if workers <= 1 {
        f(0, out);
        return;
    }
    let chunk = len.div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let (first, mut rest) = out.split_at_mut(chunk.min(len));
        let mut offset = first.len();
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let off = offset;
            scope.spawn(move || f(off, head));
            offset += take;
        }
        f(0, first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn par_fill_covers_every_slot_exactly_once() {
        for threads in [1, 2, 3, 5, 8] {
            let mut v = vec![usize::MAX; 1001];
            par_fill(&mut v, threads, |off, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = off + i;
                }
            });
            assert!(
                v.iter().enumerate().all(|(i, &x)| x == i),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn par_fill_on_empty_slice_is_a_noop() {
        let mut v: Vec<u8> = Vec::new();
        par_fill(&mut v, 4, |_, _| unreachable!("no chunk for empty input"));
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
}
