//! Heterogeneous resource model: multi-dimensional vertex weights and
//! per-partition capacity vectors.
//!
//! The paper's formulation balances one scalar area per vertex against a
//! uniform target. Real placement targets do not: an FPGA device balances
//! several resource types at once (LUTs, FFs, DSPs, BRAM) and a multi-die
//! system gives each die its own capacity vector. This module provides
//! [`PartCapacities`] for that regime: per-partition capacity vectors with
//! a feasibility check, convertible to a [`BalanceConstraint`] for the
//! refinement engines.
//!
//! Capacities parse from and render to a compact text form so the CLI and
//! the service protocol can carry them: resources are comma-separated,
//! partitions semicolon-separated (`"100,8;100,8;200,16"`).

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::balance::{BalanceConstraint, BalanceError};
use crate::PartId;

/// Error parsing a [`PartCapacities`] text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseResourceError(String);

impl fmt::Display for ParseResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad resource vector: {}", self.0)
    }
}

impl Error for ParseResourceError {}

/// Parses one part's row of comma-separated `u64` capacities.
fn parse_row(row: &str) -> Result<Vec<u64>, ParseResourceError> {
    let row = row.trim();
    if row.is_empty() {
        return Err(ParseResourceError("empty vector".into()));
    }
    row.split(',')
        .map(|tok| {
            let tok = tok.trim();
            tok.parse::<u64>()
                .map_err(|_| ParseResourceError(format!("'{tok}' is not a u64")))
        })
        .collect()
}

/// Per-partition capacity vectors: a flat `num_parts × num_resources`
/// matrix of maximum loads.
///
/// Unlike [`BalanceConstraint`] (which also carries per-part minima for the
/// paper's two-sided tolerance), capacities are one-sided: a part may be
/// arbitrarily empty but never over-full — the FPGA/multi-die regime, where
/// a die's resource budget is a hard ceiling. [`PartCapacities::to_balance`]
/// produces the equivalent zero-minimum constraint for the engines.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{PartCapacities, PartId};
/// let caps = PartCapacities::explicit(2, 2, vec![100, 8, 60, 4]).unwrap();
/// assert_eq!(caps.cap(PartId(1), 0), 60);
/// assert!(caps.check_feasible(&[150, 12]).is_ok());
/// assert!(caps.check_feasible(&[150, 13]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartCapacities {
    num_parts: usize,
    num_resources: usize,
    caps: Vec<u64>,
}

impl PartCapacities {
    /// Every part gets the same capacity vector.
    ///
    /// # Panics
    /// Panics if `num_parts == 0` or `per_part` is empty.
    pub fn uniform(num_parts: usize, per_part: &[u64]) -> Self {
        assert!(num_parts > 0, "need at least one partition");
        assert!(!per_part.is_empty(), "need at least one resource");
        let mut caps = Vec::with_capacity(num_parts * per_part.len());
        for _ in 0..num_parts {
            caps.extend_from_slice(per_part);
        }
        PartCapacities {
            num_parts,
            num_resources: per_part.len(),
            caps,
        }
    }

    /// Fully explicit capacities, row-major `num_parts × num_resources`.
    ///
    /// # Errors
    /// Returns [`BalanceError::ShapeMismatch`] if the vector has the wrong
    /// length.
    pub fn explicit(
        num_parts: usize,
        num_resources: usize,
        caps: Vec<u64>,
    ) -> Result<Self, BalanceError> {
        let expected = num_parts * num_resources;
        if caps.len() != expected {
            return Err(BalanceError::ShapeMismatch {
                expected,
                found: caps.len(),
            });
        }
        Ok(PartCapacities {
            num_parts,
            num_resources,
            caps,
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

    /// Capacity of `part` for `resource`.
    ///
    /// # Panics
    /// Panics if `part` or `resource` is out of range.
    #[inline]
    pub fn cap(&self, part: PartId, resource: usize) -> u64 {
        assert!(resource < self.num_resources);
        self.caps[part.index() * self.num_resources + resource]
    }

    /// The flat row-major capacity matrix.
    #[inline]
    pub fn as_flat(&self) -> &[u64] {
        &self.caps
    }

    /// Checks that the aggregate capacity can hold the given per-resource
    /// totals (component-wise).
    ///
    /// # Errors
    /// Returns [`BalanceError::Infeasible`] naming the first resource whose
    /// total exceeds the summed per-part capacity.
    pub fn check_feasible(&self, totals: &[u64]) -> Result<(), BalanceError> {
        for (r, &total) in totals.iter().enumerate().take(self.num_resources) {
            let capacity: u64 = (0..self.num_parts)
                .map(|p| self.caps[p * self.num_resources + r])
                .fold(0u64, |a, c| a.saturating_add(c));
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

    /// Converts to the engines' [`BalanceConstraint`]: the capacities become
    /// the per-part maxima, minima are zero (one-sided regime).
    pub fn to_balance(&self) -> BalanceConstraint {
        BalanceConstraint::explicit(
            self.num_parts,
            self.num_resources,
            vec![0; self.caps.len()],
            self.caps.clone(),
        )
        .expect("shape is consistent by construction")
    }
}

impl fmt::Display for PartCapacities {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in 0..self.num_parts {
            if p > 0 {
                f.write_str(";")?;
            }
            for r in 0..self.num_resources {
                if r > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{}", self.caps[p * self.num_resources + r])?;
            }
        }
        Ok(())
    }
}

impl FromStr for PartCapacities {
    type Err = ParseResourceError;

    /// Parses `"c00,c01;c10,c11;..."` — parts separated by `;`, resources
    /// by `,`. Every part must have the same arity.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseResourceError("empty capacity matrix".into()));
        }
        let mut caps = Vec::new();
        let mut num_resources = 0usize;
        let mut num_parts = 0usize;
        for row in s.split(';') {
            let v = parse_row(row)?;
            if num_parts == 0 {
                num_resources = v.len();
            } else if v.len() != num_resources {
                return Err(ParseResourceError(format!(
                    "part {num_parts} has {} resources, expected {num_resources}",
                    v.len()
                )));
            }
            caps.extend(v);
            num_parts += 1;
        }
        Ok(PartCapacities {
            num_parts,
            num_resources,
            caps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tolerance;

    #[test]
    fn capacities_roundtrip() {
        let c: PartCapacities = "100,8;60,4;60,4".parse().unwrap();
        assert_eq!(c.num_parts(), 3);
        assert_eq!(c.num_resources(), 2);
        assert_eq!(c.cap(PartId(1), 1), 4);
        assert_eq!(c.to_string(), "100,8;60,4;60,4");
        assert_eq!(c.to_string().parse::<PartCapacities>().unwrap(), c);
    }

    #[test]
    fn capacities_reject_junk() {
        for junk in ["", "1,,2", "1,-2", "a", "1,2;"] {
            assert!(junk.parse::<PartCapacities>().is_err(), "{junk:?}");
        }
        let err = "4;1,-2".parse::<PartCapacities>().unwrap_err();
        assert_eq!(err.to_string(), "bad resource vector: '-2' is not a u64");
    }

    #[test]
    fn capacities_ragged_rejected() {
        assert!("1,2;3".parse::<PartCapacities>().is_err());
    }

    #[test]
    fn uniform_replicates_rows() {
        let c = PartCapacities::uniform(3, &[7, 9]);
        assert_eq!(c.as_flat(), &[7, 9, 7, 9, 7, 9]);
    }

    #[test]
    fn explicit_shape_checked() {
        assert!(matches!(
            PartCapacities::explicit(2, 2, vec![1, 2, 3]),
            Err(BalanceError::ShapeMismatch {
                expected: 4,
                found: 3
            })
        ));
    }

    #[test]
    fn feasibility_component_wise() {
        let c: PartCapacities = "10,1;10,1".parse().unwrap();
        assert!(c.check_feasible(&[20, 2]).is_ok());
        let err = c.check_feasible(&[5, 3]).unwrap_err();
        assert!(matches!(
            err,
            BalanceError::Infeasible {
                resource: 1,
                total: 3,
                capacity: 2
            }
        ));
    }

    #[test]
    fn feasibility_saturates_aggregate() {
        let c = PartCapacities::uniform(3, &[u64::MAX]);
        assert!(c.check_feasible(&[u64::MAX]).is_ok());
    }

    #[test]
    fn to_balance_is_one_sided() {
        let c: PartCapacities = "10,2;8,2".parse().unwrap();
        let b = c.to_balance();
        assert_eq!(b.num_parts(), 2);
        assert_eq!(b.num_resources(), 2);
        assert_eq!(b.max(PartId(0), 0), 10);
        assert_eq!(b.min(PartId(0), 0), 0);
        assert_eq!(b.max(PartId(1), 0), 8);
        // One-sided: any under-full assignment satisfies it.
        assert!(b.is_satisfied(&[0, 0, 8, 2]));
    }

    #[test]
    fn to_balance_matches_even_for_generous_caps() {
        // Sanity link to the two-sided constructor: identical maxima.
        let even = BalanceConstraint::even(2, &[100], Tolerance::Relative(0.1));
        let caps = PartCapacities::uniform(2, &[even.max(PartId(0), 0)]);
        assert_eq!(caps.to_balance().max(PartId(0), 0), even.max(PartId(0), 0));
    }
}
