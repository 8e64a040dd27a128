//! Generator combinators and domain generators for the partitioning
//! workspace: weights, nets, fixed-vertex masks, and whole raw hypergraph
//! instances. A generator is any `Fn(&mut TestRng) -> T`; these helpers
//! just build common ones.

use std::ops::Range;

use vlsi_rng::seq::SliceRandom;
use vlsi_rng::{Rng, RngCore};

use crate::{Shrink, TestRng};

/// Generator for a `Vec<T>` with a length drawn from `len` and elements
/// drawn from `element`.
pub fn vec_of<T>(
    len: Range<usize>,
    element: impl Fn(&mut TestRng) -> T,
) -> impl Fn(&mut TestRng) -> Vec<T> {
    move |rng| {
        let n = rng.gen_range(len.clone());
        (0..n).map(|_| element(rng)).collect()
    }
}

/// Generator yielding `Some(element)` with probability `p`, else `None`.
pub fn option_weighted<T>(
    p: f64,
    element: impl Fn(&mut TestRng) -> T,
) -> impl Fn(&mut TestRng) -> Option<T> {
    move |rng| {
        if rng.gen_bool(p) {
            Some(element(rng))
        } else {
            None
        }
    }
}

/// Generator for a sorted set of distinct indices out of `0..universe`,
/// with set size drawn from `size` (clamped to the universe). The
/// replacement for `proptest::collection::btree_set(0..universe, size)`.
pub fn distinct_sorted(universe: usize, size: Range<usize>) -> impl Fn(&mut TestRng) -> Vec<usize> {
    move |rng| {
        let lo = size.start.min(universe);
        let hi = size.end.min(universe + 1).max(lo + 1);
        let want = rng.gen_range(lo..hi);
        let mut pool: Vec<usize> = (0..universe).collect();
        pool.shuffle(rng);
        pool.truncate(want);
        pool.sort_unstable();
        pool
    }
}

/// Generator for printable-ASCII-plus-newline text of length `0..max_len`
/// — the replacement for the `"[ -~\n]{0,N}"` regex strategies used by
/// the parser-robustness suite.
pub fn ascii_text(max_len: usize) -> impl Fn(&mut TestRng) -> String {
    move |rng| {
        let n = rng.gen_range(0..max_len.max(1) + 1);
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.08) {
                    '\n'
                } else {
                    rng.gen_range(0x20u8..0x7f) as char
                }
            })
            .collect()
    }
}

/// A raw random hypergraph instance: plain data that tests feed to
/// `HypergraphBuilder` / `FixedVertices::from_fixities`. Keeping it as
/// primitive vectors lets this crate stay dependency-free and lets
/// [`Shrink`] reduce failing instances structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawInstance {
    /// Vertex weights; the vertex count is `weights.len()`.
    pub weights: Vec<u64>,
    /// Nets as sorted distinct vertex indices.
    pub nets: Vec<Vec<usize>>,
    /// Per-vertex fixity: `None` = free, `Some(p)` = fixed in partition `p`.
    pub fixities: Vec<Option<u8>>,
    /// A seed for whatever randomized algorithm the property runs.
    pub seed: u64,
}

/// Knobs for [`instances`]. The defaults match the paper-scale property
/// suites: tiny instances with weighted vertices, 2–4-pin nets, and a
/// moderately dense fixity mask over 2 partitions.
#[derive(Debug, Clone)]
pub struct InstanceConfig {
    /// Vertex count range.
    pub vertices: Range<usize>,
    /// Vertex weights drawn uniformly from `1..=max_weight`.
    pub max_weight: u64,
    /// Net count range expressed as multiples of the vertex count:
    /// the count is drawn from `1..max(2, (nets_per_vertex * n))`.
    pub nets_per_vertex: f64,
    /// Net sizes drawn from `1..=max_net_size` (clamped to `n`): one-pin
    /// nets occur, as in real netlists and `.hgr` input.
    pub max_net_size: usize,
    /// Probability that a vertex is fixed.
    pub fix_prob: f64,
    /// Fixed vertices land in partitions `0..fix_parts`.
    pub fix_parts: u8,
}

impl Default for InstanceConfig {
    fn default() -> Self {
        InstanceConfig {
            vertices: 4..24,
            max_weight: 5,
            nets_per_vertex: 3.0,
            max_net_size: 4,
            fix_prob: 0.3,
            fix_parts: 2,
        }
    }
}

/// Generator for [`RawInstance`]s described by `cfg`.
pub fn instances(cfg: InstanceConfig) -> impl Fn(&mut TestRng) -> RawInstance {
    move |rng| {
        let n = rng.gen_range(cfg.vertices.clone()).max(2);
        let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=cfg.max_weight)).collect();
        let max_nets = ((cfg.nets_per_vertex * n as f64) as usize).max(2);
        let num_nets = rng.gen_range(1..max_nets);
        let net_gen = distinct_sorted(n, 1..cfg.max_net_size.min(n) + 1);
        let nets: Vec<Vec<usize>> = (0..num_nets).map(|_| net_gen(rng)).collect();
        let fixities: Vec<Option<u8>> = (0..n)
            .map(|_| {
                if rng.gen_bool(cfg.fix_prob) {
                    Some(rng.gen_range(0..cfg.fix_parts))
                } else {
                    None
                }
            })
            .collect();
        RawInstance {
            weights,
            nets,
            fixities,
            seed: rng.next_u64(),
        }
    }
}

impl Shrink for RawInstance {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Fewer / simpler nets first: nets carry most of the complexity
        // and their indices stay valid when the vertex set is untouched.
        for nets in self.nets.shrink() {
            out.push(RawInstance {
                nets,
                ..self.clone()
            });
        }
        // Free all fixed vertices, then free them one at a time.
        if self.fixities.iter().any(Option::is_some) {
            out.push(RawInstance {
                fixities: vec![None; self.fixities.len()],
                ..self.clone()
            });
            for (i, f) in self.fixities.iter().enumerate() {
                if f.is_some() {
                    let mut fixities = self.fixities.clone();
                    fixities[i] = None;
                    out.push(RawInstance {
                        fixities,
                        ..self.clone()
                    });
                }
            }
        }
        // Unit weights.
        if self.weights.iter().any(|&w| w != 1) {
            out.push(RawInstance {
                weights: vec![1; self.weights.len()],
                ..self.clone()
            });
        }
        // A boring seed.
        if self.seed != 0 {
            out.push(RawInstance {
                seed: 0,
                ..self.clone()
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_rng::SeedableRng;

    fn rng() -> TestRng {
        TestRng::seed_from_u64(1)
    }

    #[test]
    fn vec_of_respects_length_range() {
        let g = vec_of(3..7, |r: &mut TestRng| r.gen_range(0u8..5));
        let mut r = rng();
        for _ in 0..100 {
            let v = g(&mut r);
            assert!((3..7).contains(&v.len()));
        }
    }

    #[test]
    fn distinct_sorted_yields_valid_sets() {
        let g = distinct_sorted(10, 2..5);
        let mut r = rng();
        for _ in 0..200 {
            let s = g(&mut r);
            assert!((2..5).contains(&s.len()));
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
            assert!(s.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn distinct_sorted_clamps_to_small_universe() {
        let g = distinct_sorted(2, 2..5);
        let mut r = rng();
        let s = g(&mut r);
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn ascii_text_is_printable() {
        let g = ascii_text(50);
        let mut r = rng();
        for _ in 0..100 {
            let s = g(&mut r);
            assert!(s.len() <= 50);
            assert!(s.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn instances_are_structurally_valid() {
        let g = instances(InstanceConfig::default());
        let mut r = rng();
        let mut one_pin = 0;
        for _ in 0..200 {
            let inst = g(&mut r);
            let n = inst.weights.len();
            assert!((2..24).contains(&n));
            assert_eq!(inst.fixities.len(), n);
            for net in &inst.nets {
                assert!((1..=4).contains(&net.len()));
                assert!(net.iter().all(|&v| v < n));
                assert!(net.windows(2).all(|w| w[0] < w[1]));
                one_pin += usize::from(net.len() == 1);
            }
        }
        assert!(one_pin > 0, "no one-pin net in 200 instances");
    }

    #[test]
    fn instance_shrink_preserves_vertex_count() {
        let g = instances(InstanceConfig::default());
        let mut r = rng();
        let inst = g(&mut r);
        for cand in inst.shrink() {
            assert_eq!(cand.weights.len(), inst.weights.len());
            assert_eq!(cand.fixities.len(), inst.fixities.len());
            for net in &cand.nets {
                assert!(net.iter().all(|&v| v < cand.weights.len()));
            }
        }
    }

    #[test]
    fn option_weighted_hits_both_arms() {
        let g = option_weighted(0.5, |r: &mut TestRng| r.gen_range(0u8..3));
        let mut r = rng();
        let (mut some, mut none) = (0, 0);
        for _ in 0..200 {
            match g(&mut r) {
                Some(_) => some += 1,
                None => none += 1,
            }
        }
        assert!(some > 50 && none > 50);
    }
}
