//! Per-pass and per-run statistics of the FM engine.
//!
//! These are the observables behind Table II of the paper ("average number
//! of passes per run and average percentage of nodes moved per pass,
//! excluding the first pass") and behind the analysis that improvements
//! concentrate near the beginning of a pass in the fixed-terminals regime.

/// Statistics of one FM pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// 0-based pass index within the run.
    pub pass: usize,
    /// Number of vertices eligible to move in this run.
    pub movable: usize,
    /// Moves actually made before the pass ended: no feasible move was
    /// left, the cutoff's limit was reached, or, under
    /// [`PassCutoff::Exact`](crate::PassCutoff::Exact), no later prefix
    /// could be kept.
    pub moves_made: usize,
    /// Length of the best prefix that was kept after rollback.
    pub moves_kept: usize,
    /// Cut at the start of the pass.
    pub cut_before: u64,
    /// Cut after restoring the best prefix.
    pub cut_after: u64,
    /// The move limit that was in force (equals `movable` when unlimited).
    pub move_limit: usize,
}

impl PassStats {
    /// Percentage of movable vertices moved in this pass, `0..=100`.
    pub fn pct_moved(&self) -> f64 {
        if self.movable == 0 {
            0.0
        } else {
            100.0 * self.moves_made as f64 / self.movable as f64
        }
    }

    /// Fraction of the made moves that were wasted (rolled back).
    pub fn wasted_fraction(&self) -> f64 {
        if self.moves_made == 0 {
            0.0
        } else {
            (self.moves_made - self.moves_kept) as f64 / self.moves_made as f64
        }
    }

    /// Whether the pass improved the cut.
    pub fn improved(&self) -> bool {
        self.cut_after < self.cut_before
    }
}

/// Statistics of a complete FM run (a sequence of passes).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunStats {
    /// One entry per executed pass, in order.
    pub passes: Vec<PassStats>,
}

impl RunStats {
    /// Number of passes executed.
    pub fn num_passes(&self) -> usize {
        self.passes.len()
    }

    /// Total moves made across all passes.
    pub fn total_moves(&self) -> usize {
        self.passes.iter().map(|p| p.moves_made).sum()
    }

    /// Average percentage of movable vertices moved per pass, *excluding
    /// the first pass* — the paper's Table II metric. Returns `None` when
    /// the run had fewer than two passes.
    pub fn avg_pct_moved_excl_first(&self) -> Option<f64> {
        if self.passes.len() < 2 {
            return None;
        }
        let later = &self.passes[1..];
        Some(later.iter().map(PassStats::pct_moved).sum::<f64>() / later.len() as f64)
    }

    /// Average percentage moved over all passes.
    pub fn avg_pct_moved(&self) -> Option<f64> {
        if self.passes.is_empty() {
            return None;
        }
        Some(self.passes.iter().map(PassStats::pct_moved).sum::<f64>() / self.passes.len() as f64)
    }

    /// Average position of the best prefix within a pass (kept / made),
    /// excluding the first pass — evidence for "improvements occur near the
    /// beginning of the pass".
    pub fn avg_best_prefix_fraction_excl_first(&self) -> Option<f64> {
        if self.passes.len() < 2 {
            return None;
        }
        let later: Vec<&PassStats> = self.passes[1..]
            .iter()
            .filter(|p| p.moves_made > 0)
            .collect();
        if later.is_empty() {
            return None;
        }
        Some(
            later
                .iter()
                .map(|p| p.moves_kept as f64 / p.moves_made as f64)
                .sum::<f64>()
                / later.len() as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(
        pass: usize,
        movable: usize,
        made: usize,
        kept: usize,
        before: u64,
        after: u64,
    ) -> PassStats {
        PassStats {
            pass,
            movable,
            moves_made: made,
            moves_kept: kept,
            cut_before: before,
            cut_after: after,
            move_limit: movable,
        }
    }

    #[test]
    fn pct_moved() {
        assert_eq!(pass(0, 200, 50, 10, 9, 5).pct_moved(), 25.0);
        assert_eq!(pass(0, 0, 0, 0, 0, 0).pct_moved(), 0.0);
    }

    #[test]
    fn wasted_fraction() {
        let p = pass(0, 100, 80, 20, 9, 5);
        assert!((p.wasted_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(pass(0, 10, 0, 0, 4, 4).wasted_fraction(), 0.0);
    }

    #[test]
    fn run_aggregates_exclude_first_pass() {
        let rs = RunStats {
            passes: vec![
                pass(0, 100, 100, 60, 50, 30),
                pass(1, 100, 40, 10, 30, 28),
                pass(2, 100, 20, 0, 28, 28),
            ],
        };
        assert_eq!(rs.num_passes(), 3);
        assert_eq!(rs.total_moves(), 160);
        assert!((rs.avg_pct_moved_excl_first().unwrap() - 30.0).abs() < 1e-12);
        let prefix = rs.avg_best_prefix_fraction_excl_first().unwrap();
        assert!((prefix - (0.25 + 0.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn short_runs_yield_none() {
        let rs = RunStats {
            passes: vec![pass(0, 10, 10, 5, 5, 3)],
        };
        assert_eq!(rs.avg_pct_moved_excl_first(), None);
        assert!(rs.avg_pct_moved().is_some());
        assert_eq!(RunStats::default().avg_pct_moved(), None);
    }
}
