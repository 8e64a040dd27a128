//! Configuration types for the FM and multilevel engines.

use std::fmt;

/// When an FM pass ends before every movable vertex has moved.
///
/// Section III of the paper: "we may limit the number of moves per pass
/// *after the first pass* in order to reduce overhead when the best solution
/// found is near the beginning of the pass." Table III evaluates hard
/// cutoffs of 50%, 25%, 10% and 5% of the movable vertices
/// ([`Fraction`](PassCutoff::Fraction)); they trade quality on free
/// instances for time. [`Exact`](PassCutoff::Exact) ends a pass only when
/// no later prefix could be kept, so it changes no answer; the stages of
/// [`MultilevelConfig::default`] use it.
///
/// # Example
/// ```
/// use vlsi_partition::PassCutoff;
/// assert_eq!(PassCutoff::Unlimited.limit(1000), 1000);
/// assert_eq!(PassCutoff::Exact.limit(1000), 1000);
/// assert_eq!(PassCutoff::Fraction(0.25).limit(1000), 250);
/// // a fractional cutoff always allows at least one move
/// assert_eq!(PassCutoff::Fraction(0.05).limit(3), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PassCutoff {
    /// Classic FM: every movable vertex is moved once per pass.
    #[default]
    Unlimited,
    /// Classic FM passes that end, in every pass including the first, as
    /// soon as the nets with an unmovable pin on both sides (an immovable
    /// vertex, or one already moved in the pass) outweigh the best
    /// prefix's cut. Such nets stay cut until the pass ends, so no later
    /// prefix could be kept: the kept prefix, and so every partition, is
    /// that of [`Unlimited`](PassCutoff::Unlimited). Only the moves tried
    /// after the stop are saved. The stop fires most with many fixed
    /// vertices, where Table II finds later moves wasted.
    Exact,
    /// Stop the pass after this fraction of the movable vertices has moved.
    Fraction(f64),
}

impl PassCutoff {
    /// The move limit implied for a pass over `movable` vertices
    /// (at least 1 unless there is nothing to move).
    pub fn limit(self, movable: usize) -> usize {
        match self {
            PassCutoff::Unlimited | PassCutoff::Exact => movable,
            PassCutoff::Fraction(f) => {
                let l = (movable as f64 * f).floor() as usize;
                l.clamp(usize::from(movable > 0), movable)
            }
        }
    }
}

impl fmt::Display for PassCutoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassCutoff::Unlimited => write!(f, "unlimited"),
            PassCutoff::Exact => write!(f, "exact"),
            PassCutoff::Fraction(x) => write!(f, "{:.0}%", x * 100.0),
        }
    }
}

/// Gain-bucket selection policy.
///
/// * [`SelectionPolicy::Lifo`] — classic LIFO FM: ties within a gain bucket
///   are broken by most-recent insertion.
/// * [`SelectionPolicy::Clip`] — the CLIP variant of Dutt & Deng (ICCAD'96)
///   used by the paper's multilevel engine: at the start of a pass every
///   vertex's *initial* gain is subtracted from its bucket key, so selection
///   is driven by the gain *change* since the pass began and moves cluster
///   around recently moved vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Classic LIFO tie-breaking on raw gains.
    #[default]
    Lifo,
    /// Cluster-oriented iterative improvement (CLIP).
    Clip,
}

impl fmt::Display for SelectionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionPolicy::Lifo => write!(f, "lifo"),
            SelectionPolicy::Clip => write!(f, "clip"),
        }
    }
}

/// Configuration of the flat FM bipartitioner.
///
/// # Example
/// ```
/// use vlsi_partition::{FmConfig, PassCutoff, SelectionPolicy};
/// let cfg = FmConfig {
///     policy: SelectionPolicy::Clip,
///     cutoff: PassCutoff::Fraction(0.25),
///     ..FmConfig::default()
/// };
/// assert_eq!(cfg.max_passes, 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmConfig {
    /// Gain selection policy (LIFO or CLIP).
    pub policy: SelectionPolicy,
    /// When a pass ends early: a hard cutoff on its moves, applied after
    /// the first pass (the paper always exempts the first pass, since it
    /// starts from a random partitioning), or the exact stop, which applies
    /// to every pass and changes no answer.
    pub cutoff: PassCutoff,
    /// Upper bound on the number of passes per run.
    pub max_passes: usize,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            policy: SelectionPolicy::Lifo,
            cutoff: PassCutoff::Unlimited,
            max_passes: 30,
        }
    }
}

/// Configuration of the multilevel partitioner.
///
/// Defaults follow the paper's engine: CLIP FM refinement, heavy-edge
/// matching with a clustering ratio around 0.75 stop threshold. V-cycling,
/// "a net loss in terms of overall cost-runtime profile", is not an engine
/// setting: [`Multistart::vcycles`](crate::Multistart::vcycles) runs it as
/// a quality phase over any engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilevelConfig {
    /// Stop coarsening when this many vertices remain.
    pub coarsest_size: usize,
    /// Abort coarsening when one level shrinks the graph by less than this
    /// factor (guards against matching stalls on star-like graphs).
    pub min_shrink: f64,
    /// Maximum cluster weight as a fraction of total weight (prevents a
    /// single coarse vertex from exceeding the balance maxima).
    pub max_cluster_fraction: f64,
    /// FM settings used at the coarsest level (LIFO, 20 passes, exact
    /// pass stop by default).
    pub coarse_fm: FmConfig,
    /// FM settings used for refinement at every uncoarsening level (CLIP,
    /// 8 passes, exact pass stop by default).
    pub refine_fm: FmConfig,
    /// Optional second refinement stage run after `refine_fm` at every
    /// level (LIFO, 8 passes, exact pass stop by default). FM never
    /// worsens its input, so stacking stages dominates either alone: CLIP
    /// excels on free instances, LIFO on fixed-terminal ones.
    pub refine_fm2: Option<FmConfig>,
    /// Number of random initial solutions tried at the coarsest level.
    pub coarse_starts: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coarsest_size: 120,
            min_shrink: 0.95,
            max_cluster_fraction: 0.05,
            // Every stage ends its passes with the exact stop: the same
            // partitions as classic passes, without the moves no prefix
            // could keep.
            coarse_fm: FmConfig {
                policy: SelectionPolicy::Lifo,
                cutoff: PassCutoff::Exact,
                max_passes: 20,
            },
            // The paper's engine used CLIP refinement and found LIFO "very
            // similar". In this implementation CLIP refines free instances
            // better while LIFO is markedly stronger on fixed-terminal
            // instances, so the default stacks both.
            refine_fm: FmConfig {
                policy: SelectionPolicy::Clip,
                cutoff: PassCutoff::Exact,
                max_passes: 8,
            },
            refine_fm2: Some(FmConfig {
                policy: SelectionPolicy::Lifo,
                cutoff: PassCutoff::Exact,
                max_passes: 8,
            }),
            coarse_starts: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_limits() {
        assert_eq!(PassCutoff::Unlimited.limit(10), 10);
        assert_eq!(PassCutoff::Exact.limit(10), 10);
        assert_eq!(PassCutoff::Fraction(0.5).limit(11), 5);
        assert_eq!(PassCutoff::Fraction(0.05).limit(10), 1);
        assert_eq!(PassCutoff::Fraction(0.0).limit(10), 1);
        assert_eq!(PassCutoff::Fraction(0.05).limit(0), 0);
    }

    #[test]
    fn cutoff_display() {
        assert_eq!(PassCutoff::Fraction(0.25).to_string(), "25%");
        assert_eq!(PassCutoff::Unlimited.to_string(), "unlimited");
        assert_eq!(PassCutoff::Exact.to_string(), "exact");
    }

    #[test]
    fn defaults_match_paper_setup() {
        let ml = MultilevelConfig::default();
        assert_eq!(ml.refine_fm.policy, SelectionPolicy::Clip);
        assert_eq!(FmConfig::default().cutoff, PassCutoff::Unlimited);
        assert_eq!(PassCutoff::default(), PassCutoff::Unlimited);
        for stage in [ml.coarse_fm, ml.refine_fm, ml.refine_fm2.unwrap()] {
            assert_eq!(stage.cutoff, PassCutoff::Exact);
        }
    }

    #[test]
    fn policy_display() {
        assert_eq!(SelectionPolicy::Lifo.to_string(), "lifo");
        assert_eq!(SelectionPolicy::Clip.to_string(), "clip");
    }
}
