//! Configuration types for the FM and multilevel engines.

use std::fmt;

/// How many moves an FM pass may make before it is hard-stopped.
///
/// Section III of the paper: "we may limit the number of moves per pass
/// *after the first pass* in order to reduce overhead when the best solution
/// found is near the beginning of the pass." Table III evaluates cutoffs of
/// 50%, 25%, 10% and 5% of the movable vertices.
///
/// # Example
/// ```
/// use vlsi_partition::PassCutoff;
/// assert_eq!(PassCutoff::Unlimited.limit(1000), 1000);
/// assert_eq!(PassCutoff::Fraction(0.25).limit(1000), 250);
/// assert_eq!(PassCutoff::Moves(42).limit(1000), 42);
/// // a fractional cutoff always allows at least one move
/// assert_eq!(PassCutoff::Fraction(0.05).limit(3), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PassCutoff {
    /// Classic FM: every movable vertex is moved once per pass.
    #[default]
    Unlimited,
    /// Stop the pass after this fraction of the movable vertices has moved.
    Fraction(f64),
    /// Stop the pass after this absolute number of moves.
    Moves(usize),
}

impl PassCutoff {
    /// The move limit implied for a pass over `movable` vertices
    /// (at least 1 unless there is nothing to move).
    pub fn limit(self, movable: usize) -> usize {
        match self {
            PassCutoff::Unlimited => movable,
            PassCutoff::Fraction(f) => {
                let l = (movable as f64 * f).floor() as usize;
                l.clamp(usize::from(movable > 0), movable)
            }
            PassCutoff::Moves(m) => m.min(movable),
        }
    }
}

impl fmt::Display for PassCutoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassCutoff::Unlimited => write!(f, "unlimited"),
            PassCutoff::Fraction(x) => write!(f, "{:.0}%", x * 100.0),
            PassCutoff::Moves(m) => write!(f, "{m} moves"),
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
    /// Hard cutoff on moves per pass, applied after the first pass.
    pub cutoff: PassCutoff,
    /// Upper bound on the number of passes per run.
    pub max_passes: usize,
    /// Also apply the cutoff to the first pass (the paper always exempts
    /// the first pass, since it starts from a random partitioning).
    pub cutoff_first_pass: bool,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            policy: SelectionPolicy::Lifo,
            cutoff: PassCutoff::Unlimited,
            max_passes: 30,
            cutoff_first_pass: false,
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
    /// FM settings used at the coarsest level.
    pub coarse_fm: FmConfig,
    /// FM settings used for refinement at every uncoarsening level.
    pub refine_fm: FmConfig,
    /// Optional second refinement stage run after `refine_fm` at every
    /// level. FM never worsens its input, so stacking stages dominates
    /// either alone: CLIP excels on free instances, LIFO on
    /// fixed-terminal ones.
    pub refine_fm2: Option<FmConfig>,
    /// Number of random initial solutions tried at the coarsest level.
    pub coarse_starts: usize,
    /// Worker-thread budget for coarsening's net contraction, the only
    /// fork inside a run. The result is byte-identical for every value —
    /// the shards compute exactly what the sequential code would and
    /// concatenate in net order — so this is purely a speed knob. `0` and
    /// `1` both mean single-threaded.
    pub threads: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coarsest_size: 120,
            min_shrink: 0.95,
            max_cluster_fraction: 0.05,
            coarse_fm: FmConfig {
                policy: SelectionPolicy::Lifo,
                max_passes: 20,
                ..FmConfig::default()
            },
            // The paper's engine used CLIP refinement and found LIFO "very
            // similar". In this implementation CLIP refines free instances
            // better while LIFO is markedly stronger on fixed-terminal
            // instances, so the default stacks both.
            refine_fm: FmConfig {
                policy: SelectionPolicy::Clip,
                max_passes: 8,
                ..FmConfig::default()
            },
            refine_fm2: Some(FmConfig {
                policy: SelectionPolicy::Lifo,
                max_passes: 8,
                ..FmConfig::default()
            }),
            coarse_starts: 4,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_limits() {
        assert_eq!(PassCutoff::Unlimited.limit(10), 10);
        assert_eq!(PassCutoff::Fraction(0.5).limit(11), 5);
        assert_eq!(PassCutoff::Fraction(0.05).limit(10), 1);
        assert_eq!(PassCutoff::Fraction(0.0).limit(10), 1);
        assert_eq!(PassCutoff::Fraction(0.05).limit(0), 0);
        assert_eq!(PassCutoff::Moves(3).limit(2), 2);
    }

    #[test]
    fn cutoff_display() {
        assert_eq!(PassCutoff::Fraction(0.25).to_string(), "25%");
        assert_eq!(PassCutoff::Unlimited.to_string(), "unlimited");
        assert_eq!(PassCutoff::Moves(9).to_string(), "9 moves");
    }

    #[test]
    fn defaults_match_paper_setup() {
        let ml = MultilevelConfig::default();
        assert_eq!(ml.threads, 1); // parallelism is opt-in
        assert_eq!(ml.refine_fm.policy, SelectionPolicy::Clip);
        assert_eq!(FmConfig::default().cutoff, PassCutoff::Unlimited);
        assert!(!FmConfig::default().cutoff_first_pass);
    }

    #[test]
    fn policy_display() {
        assert_eq!(SelectionPolicy::Lifo.to_string(), "lifo");
        assert_eq!(SelectionPolicy::Clip.to_string(), "clip");
    }
}
