//! Practical tuning guidelines distilled from the paper's findings.
//!
//! Section II: "In all of our experiments, an instance with 20% or more
//! vertices fixed is essentially solvable to very high quality in one or
//! two starts, i.e., further starts are unnecessary."
//! [`recommended_starts`] encodes that guidance so a caller in the
//! top-down-placement context can spend effort where it pays. Section
//! III's finding, that later FM moves are wasted once terminals are
//! sufficient, needs no tuning here: the multilevel engine's passes end
//! with [`PassCutoff::Exact`](crate::PassCutoff::Exact), which saves those
//! moves without changing an answer.

/// Recommended number of multilevel starts as a function of the instance's
/// fixed-vertex fraction (`0.0..=1.0`).
///
/// # Panics
/// Panics if `fixed_fraction` is outside `[0, 1]`.
///
/// # Example
/// ```
/// use vlsi_partition::policy::recommended_starts;
/// assert_eq!(recommended_starts(0.0), 8);   // free hypergraph: multistart pays
/// assert_eq!(recommended_starts(0.10), 4);
/// assert_eq!(recommended_starts(0.25), 2);  // the paper's "one or two starts"
/// assert_eq!(recommended_starts(0.50), 1);
/// ```
pub fn recommended_starts(fixed_fraction: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&fixed_fraction),
        "fixed fraction must be in [0, 1]"
    );
    match fixed_fraction {
        f if f >= 0.40 => 1,
        f if f >= 0.20 => 2,
        f if f >= 0.05 => 4,
        _ => 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_monotonically_fall_with_fixing() {
        let mut prev = usize::MAX;
        for f in [0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.60, 1.0] {
            let s = recommended_starts(f);
            assert!(s <= prev, "starts must not rise with fixing");
            assert!(s >= 1);
            prev = s;
        }
    }

    #[test]
    #[should_panic(expected = "fixed fraction")]
    fn rejects_bad_fraction() {
        let _ = recommended_starts(1.5);
    }
}
