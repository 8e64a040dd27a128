//! Balance constraints with absolute or relative (percentage) semantics,
//! per resource type (Section IV of the paper).

use std::error::Error;
use std::fmt;

use crate::PartId;

/// How far a partition's load may deviate from its even-split target.
///
/// # Example
/// ```
/// use vlsi_hypergraph::Tolerance;
/// let t = Tolerance::Relative(0.02); // the paper's 2% balance tolerance
/// assert_eq!(t.max_load(1000, 2), 510);
/// assert_eq!(Tolerance::Absolute(7).max_load(1000, 2), 507);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Deviation as a fraction of the even-split target, e.g. `0.02` allows
    /// each side of a bisection to hold up to `1.02 * total/2`.
    Relative(f64),
    /// Deviation as an absolute amount of weight.
    Absolute(u64),
}

impl Tolerance {
    /// Maximum allowed load of one of `num_parts` blocks for the given total.
    ///
    /// # Panics
    /// Panics if `num_parts == 0` or a relative tolerance is negative/NaN.
    pub fn max_load(self, total: u64, num_parts: usize) -> u64 {
        assert!(num_parts > 0, "need at least one partition");
        let target = total as f64 / num_parts as f64;
        match self {
            Tolerance::Relative(eps) => {
                assert!(eps >= 0.0, "relative tolerance must be non-negative");
                // Clamped to at least ceil(target): flooring an epsilon
                // smaller than the rounding gap would give k parts whose
                // maxima sum below the total — infeasible even at eps = 0
                // (e.g. total 10, k = 3: floor(3.33) = 3, Σmax = 9 < 10).
                // ceil(target) per part always sums to ≥ total.
                ((target * (1.0 + eps)).floor() as u64).max(target.ceil() as u64)
            }
            Tolerance::Absolute(slack) => (target.ceil() as u64).saturating_add(slack),
        }
    }

    /// Minimum allowed load of one of `num_parts` blocks for the given total.
    ///
    /// # Panics
    /// Panics if `num_parts == 0` or a relative tolerance is negative/NaN.
    pub fn min_load(self, total: u64, num_parts: usize) -> u64 {
        assert!(num_parts > 0, "need at least one partition");
        let target = total as f64 / num_parts as f64;
        match self {
            Tolerance::Relative(eps) => {
                assert!(eps >= 0.0, "relative tolerance must be non-negative");
                // Clamped to at most floor(target), mirroring `max_load`:
                // ceiling a tight epsilon would give k minima summing above
                // the total (total 10, k = 3: ceil(3.33) = 4, Σmin = 12).
                ((target * (1.0 - eps)).ceil().max(0.0) as u64).min(target.floor() as u64)
            }
            Tolerance::Absolute(slack) => (target.floor() as u64).saturating_sub(slack),
        }
    }
}

/// Error returned when a balance constraint is infeasible or malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BalanceError {
    /// The sum of the per-part maxima cannot hold the total weight.
    Infeasible {
        /// Resource type index that cannot be packed.
        resource: usize,
        /// Total weight of that resource.
        total: u64,
        /// Sum of per-part maxima for that resource.
        capacity: u64,
    },
    /// Capacity vectors had inconsistent lengths.
    ShapeMismatch {
        /// Expected `num_parts * num_resources` entries.
        expected: usize,
        /// Observed length.
        found: usize,
    },
}

impl fmt::Display for BalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BalanceError::Infeasible {
                resource,
                total,
                capacity,
            } => write!(
                f,
                "resource {resource}: total weight {total} exceeds aggregate capacity {capacity}"
            ),
            BalanceError::ShapeMismatch { expected, found } => {
                write!(
                    f,
                    "capacity vector has {found} entries, expected {expected}"
                )
            }
        }
    }
}

impl Error for BalanceError {}

/// Per-partition, per-resource load bounds.
///
/// Stored as flat `num_parts × num_resources` min/max matrices. Zero-weight
/// vertices (the paper's zero-area pad terminals) never affect feasibility.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{BalanceConstraint, PartId, Tolerance};
/// // The paper's setup: bipartition, 2% tolerance.
/// let bc = BalanceConstraint::bisection(1000, Tolerance::Relative(0.02));
/// assert_eq!(bc.max(PartId(0), 0), 510);
/// assert_eq!(bc.min(PartId(0), 0), 490);
/// assert!(bc.fits(PartId(1), &[505]));
/// assert!(!bc.fits(PartId(1), &[511]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceConstraint {
    num_parts: usize,
    num_resources: usize,
    min: Vec<u64>,
    max: Vec<u64>,
}

impl BalanceConstraint {
    /// Even split of a single scalar resource into two blocks with the given
    /// tolerance — the configuration used throughout the paper.
    pub fn bisection(total: u64, tolerance: Tolerance) -> Self {
        Self::even(2, &[total], tolerance)
    }

    /// Even split of each resource into `num_parts` blocks with the given
    /// tolerance.
    ///
    /// # Panics
    /// Panics if `num_parts == 0` or `totals` is empty.
    pub fn even(num_parts: usize, totals: &[u64], tolerance: Tolerance) -> Self {
        assert!(num_parts > 0, "need at least one partition");
        assert!(!totals.is_empty(), "need at least one resource");
        let num_resources = totals.len();
        let mut min = Vec::with_capacity(num_parts * num_resources);
        let mut max = Vec::with_capacity(num_parts * num_resources);
        for _ in 0..num_parts {
            for &total in totals {
                min.push(tolerance.min_load(total, num_parts));
                max.push(tolerance.max_load(total, num_parts));
            }
        }
        BalanceConstraint {
            num_parts,
            num_resources,
            min,
            max,
        }
    }

    /// Fully explicit capacities: `min`/`max` are `num_parts × num_resources`
    /// row-major matrices (Section IV: "a corresponding set of k capacities
    /// and tolerances must be specified for each partition").
    ///
    /// # Errors
    /// Returns [`BalanceError::ShapeMismatch`] if the vectors have the wrong
    /// length.
    pub fn explicit(
        num_parts: usize,
        num_resources: usize,
        min: Vec<u64>,
        max: Vec<u64>,
    ) -> Result<Self, BalanceError> {
        let expected = num_parts * num_resources;
        if min.len() != expected {
            return Err(BalanceError::ShapeMismatch {
                expected,
                found: min.len(),
            });
        }
        if max.len() != expected {
            return Err(BalanceError::ShapeMismatch {
                expected,
                found: max.len(),
            });
        }
        Ok(BalanceConstraint {
            num_parts,
            num_resources,
            min,
            max,
        })
    }

    /// Number of partitions.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of resource types.
    #[inline]
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Maximum load of `part` for `resource`.
    ///
    /// # Panics
    /// Panics if `part` or `resource` is out of range.
    #[inline]
    pub fn max(&self, part: PartId, resource: usize) -> u64 {
        self.max[part.index() * self.num_resources + resource]
    }

    /// Minimum load of `part` for `resource`.
    ///
    /// # Panics
    /// Panics if `part` or `resource` is out of range.
    #[inline]
    pub fn min(&self, part: PartId, resource: usize) -> u64 {
        self.min[part.index() * self.num_resources + resource]
    }

    /// Returns `true` if the per-resource `loads` fit within `part`'s maxima.
    ///
    /// # Panics
    /// Panics if `loads.len() != num_resources()`.
    #[inline]
    pub fn fits(&self, part: PartId, loads: &[u64]) -> bool {
        assert_eq!(loads.len(), self.num_resources);
        let base = part.index() * self.num_resources;
        loads
            .iter()
            .enumerate()
            .all(|(r, &l)| l <= self.max[base + r])
    }

    /// Returns `true` if every partition's load lies within `[min, max]` for
    /// every resource. `loads` is the flat `num_parts × num_resources`
    /// matrix.
    ///
    /// # Panics
    /// Panics if `loads` has the wrong length.
    pub fn is_satisfied(&self, loads: &[u64]) -> bool {
        assert_eq!(loads.len(), self.num_parts * self.num_resources);
        loads
            .iter()
            .zip(self.min.iter().zip(self.max.iter()))
            .all(|(&l, (&lo, &hi))| lo <= l && l <= hi)
    }

    /// Checks that the constraint can hold the given per-resource totals.
    ///
    /// # Errors
    /// Returns [`BalanceError::Infeasible`] naming the first resource whose
    /// total exceeds the aggregate capacity.
    pub fn check_feasible(&self, totals: &[u64]) -> Result<(), BalanceError> {
        for (r, &total) in totals.iter().enumerate().take(self.num_resources) {
            let capacity: u64 = (0..self.num_parts)
                .map(|p| self.max[p * self.num_resources + r])
                .sum();
            if capacity < total {
                return Err(BalanceError::Infeasible {
                    resource: r,
                    total,
                    capacity,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_tolerance_bounds() {
        let bc = BalanceConstraint::bisection(1000, Tolerance::Relative(0.02));
        assert_eq!(bc.max(PartId(0), 0), 510);
        assert_eq!(bc.min(PartId(1), 0), 490);
    }

    #[test]
    fn absolute_tolerance_bounds() {
        let bc = BalanceConstraint::bisection(999, Tolerance::Absolute(10));
        assert_eq!(bc.max(PartId(0), 0), 510); // ceil(499.5) + 10
        assert_eq!(bc.min(PartId(0), 0), 489); // floor(499.5) - 10
    }

    #[test]
    fn zero_tolerance_exact_bisection() {
        let bc = BalanceConstraint::bisection(10, Tolerance::Relative(0.0));
        assert_eq!(bc.max(PartId(0), 0), 5);
        assert_eq!(bc.min(PartId(0), 0), 5);
        assert!(bc.is_satisfied(&[5, 5]));
        assert!(!bc.is_satisfied(&[4, 6]));
    }

    #[test]
    fn multi_resource_even_split() {
        let bc = BalanceConstraint::even(4, &[100, 8], Tolerance::Relative(0.0));
        assert_eq!(bc.max(PartId(3), 0), 25);
        assert_eq!(bc.max(PartId(3), 1), 2);
        assert!(bc.fits(PartId(0), &[25, 2]));
        assert!(!bc.fits(PartId(0), &[25, 3]));
    }

    #[test]
    fn explicit_shape_checked() {
        let err = BalanceConstraint::explicit(2, 1, vec![0], vec![10, 10]).unwrap_err();
        assert!(matches!(err, BalanceError::ShapeMismatch { .. }));
        let ok = BalanceConstraint::explicit(2, 1, vec![0, 0], vec![10, 10]).unwrap();
        assert_eq!(ok.num_parts(), 2);
    }

    #[test]
    fn feasibility_check() {
        let bc = BalanceConstraint::explicit(2, 1, vec![0, 0], vec![10, 10]).unwrap();
        assert!(bc.check_feasible(&[20]).is_ok());
        let err = bc.check_feasible(&[21]).unwrap_err();
        assert!(matches!(
            err,
            BalanceError::Infeasible {
                total: 21,
                capacity: 20,
                ..
            }
        ));
    }

    #[test]
    fn even_split_feasible_at_zero_tolerance_small_k() {
        // Regression: floor/ceil rounding at small k and tiny totals used
        // to produce Σmax < total (and Σmin > total) even at eps = 0,
        // rejecting every assignment. The clamp guarantees
        // Σmin ≤ total ≤ Σmax for every (total, k, eps).
        for k in 2..=8usize {
            for total in 1..=64u64 {
                for eps in [0.0, 0.001, 0.01, 0.02, 0.1] {
                    let bc = BalanceConstraint::even(k, &[total], Tolerance::Relative(eps));
                    let sum_max: u64 = (0..k).map(|p| bc.max(PartId(p as u32), 0)).sum();
                    let sum_min: u64 = (0..k).map(|p| bc.min(PartId(p as u32), 0)).sum();
                    assert!(
                        sum_max >= total,
                        "k={k} total={total} eps={eps}: Σmax {sum_max} < total"
                    );
                    assert!(
                        sum_min <= total,
                        "k={k} total={total} eps={eps}: Σmin {sum_min} > total"
                    );
                    assert!(
                        bc.min(PartId(0), 0) <= bc.max(PartId(0), 0),
                        "k={k} total={total} eps={eps}: min > max"
                    );
                    assert!(bc.check_feasible(&[total]).is_ok());
                }
            }
        }
    }

    #[test]
    fn even_split_admits_a_greedy_assignment_at_zero_tolerance() {
        // Constructive check: unit weights distributed round-robin satisfy
        // the zero-tolerance constraint for every k — i.e. the bounds
        // describe a non-empty solution set, not just a feasible sum.
        for k in 2..=8usize {
            for total in k as u64..=40 {
                let bc = BalanceConstraint::even(k, &[total], Tolerance::Relative(0.0));
                let mut loads = vec![0u64; k];
                for i in 0..total {
                    loads[(i % k as u64) as usize] += 1;
                }
                assert!(
                    bc.is_satisfied(&loads),
                    "k={k} total={total}: round-robin {loads:?} rejected \
                     (min {}..max {})",
                    bc.min(PartId(0), 0),
                    bc.max(PartId(0), 0)
                );
            }
        }
    }

    #[test]
    fn clamp_inactive_when_epsilon_has_room() {
        // The clamp only rescues configurations that were infeasible; with
        // enough epsilon room the historical floor/ceil values are kept
        // (pinned so dims=1 outputs cannot drift).
        let bc = BalanceConstraint::even(2, &[1000], Tolerance::Relative(0.02));
        assert_eq!(bc.max(PartId(0), 0), 510);
        assert_eq!(bc.min(PartId(0), 0), 490);
        let bc = BalanceConstraint::even(4, &[100, 8], Tolerance::Relative(0.0));
        assert_eq!(bc.max(PartId(3), 0), 25);
        assert_eq!(bc.max(PartId(3), 1), 2);
    }

    #[test]
    fn tolerance_never_negative_min() {
        assert_eq!(Tolerance::Relative(2.0).min_load(10, 2), 0);
        assert_eq!(Tolerance::Absolute(100).min_load(10, 2), 0);
    }
}
