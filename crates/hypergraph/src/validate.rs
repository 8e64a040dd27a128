//! End-to-end validation of partitioning solutions.

use std::fmt;

use crate::cut::recompute_value;
use crate::{
    BalanceConstraint, FixedVertices, Hypergraph, Objective, PartId, Partitioning, VertexId,
};

/// The result of [`validate_partitioning`]: every violated invariant, plus
/// the independently recomputed cut.
///
/// # Example
/// ```
/// use vlsi_hypergraph::{
///     validate_partitioning, BalanceConstraint, FixedVertices, HypergraphBuilder,
///     PartId, Partitioning, Tolerance,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let u = b.add_vertex(1);
/// let v = b.add_vertex(1);
/// b.add_net(1, [u, v])?;
/// let hg = b.build()?;
/// let p = Partitioning::from_parts(&hg, 2, vec![PartId(0), PartId(1)])?;
/// let bc = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
/// let fx = FixedVertices::all_free(2);
/// let report = validate_partitioning(&hg, &p, &bc, &fx);
/// assert!(report.is_valid());
/// assert_eq!(report.recomputed_cut, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// Vertices placed in a partition their fixity forbids.
    pub fixed_violations: Vec<VertexId>,
    /// `(part, resource)` pairs whose load exceeds the maximum.
    pub overfull: Vec<(PartId, usize)>,
    /// `(part, resource)` pairs whose load is below the minimum.
    pub underfull: Vec<(PartId, usize)>,
    /// `true` if the partitioning's incremental cut disagrees with a from-
    /// scratch recomputation (would indicate a bookkeeping bug).
    pub cut_mismatch: bool,
    /// The independently recomputed cut value.
    pub recomputed_cut: u64,
}

impl ValidationReport {
    /// Returns `true` if no invariant is violated.
    pub fn is_valid(&self) -> bool {
        self.fixed_violations.is_empty()
            && self.overfull.is_empty()
            && self.underfull.is_empty()
            && !self.cut_mismatch
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            return write!(f, "valid (cut = {})", self.recomputed_cut);
        }
        write!(
            f,
            "invalid: {} fixed violations, {} overfull, {} underfull, cut_mismatch={}",
            self.fixed_violations.len(),
            self.overfull.len(),
            self.underfull.len(),
            self.cut_mismatch
        )
    }
}

/// Checks a partitioning against balance and fixity constraints and
/// recomputes the cut from scratch.
///
/// This is the independent referee used by the test suites and experiment
/// harness: it shares no incremental bookkeeping with the partitioners.
pub fn validate_partitioning(
    hg: &Hypergraph,
    partitioning: &Partitioning,
    balance: &BalanceConstraint,
    fixed: &FixedVertices,
) -> ValidationReport {
    let mut report = ValidationReport::default();

    for v in hg.vertices() {
        if !fixed.fixity(v).allows(partitioning.part_of(v)) {
            report.fixed_violations.push(v);
        }
    }

    for p in 0..partitioning.num_parts() {
        let part = PartId::from_index(p);
        for r in 0..hg.num_resources().min(balance.num_resources()) {
            let load = partitioning.load(part, r);
            if load > balance.max(part, r) {
                report.overfull.push((part, r));
            }
            if load < balance.min(part, r) {
                report.underfull.push((part, r));
            }
        }
    }

    report.recomputed_cut = recompute_value(
        hg,
        partitioning.num_parts(),
        partitioning.as_slice(),
        Objective::Cut,
    );
    report.cut_mismatch = report.recomputed_cut != partitioning.cut_value(Objective::Cut);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fixity, HypergraphBuilder, Tolerance};

    fn setup() -> (Hypergraph, Partitioning) {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
        b.add_net(1, [v[0], v[1]]).unwrap();
        b.add_net(1, [v[2], v[3]]).unwrap();
        let hg = b.build().unwrap();
        let p = Partitioning::from_parts(&hg, 2, vec![PartId(0), PartId(0), PartId(1), PartId(1)])
            .unwrap();
        (hg, p)
    }

    #[test]
    fn valid_solution_reports_clean() {
        let (hg, p) = setup();
        let bc = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let fx = FixedVertices::all_free(4);
        let rep = validate_partitioning(&hg, &p, &bc, &fx);
        assert!(rep.is_valid());
        assert_eq!(rep.recomputed_cut, 0);
        assert_eq!(rep.to_string(), "valid (cut = 0)");
    }

    #[test]
    fn detects_fixed_violation() {
        let (hg, p) = setup();
        let bc = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let mut fx = FixedVertices::all_free(4);
        fx.set(VertexId(0), Fixity::Fixed(PartId(1)));
        let rep = validate_partitioning(&hg, &p, &bc, &fx);
        assert_eq!(rep.fixed_violations, vec![VertexId(0)]);
        assert!(!rep.is_valid());
        assert!(rep.to_string().starts_with("invalid"));
    }

    #[test]
    fn detects_imbalance() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..2).map(|_| b.add_vertex(5)).collect();
        b.add_net(1, [v[0], v[1]]).unwrap();
        let hg = b.build().unwrap();
        let p = Partitioning::from_parts(&hg, 2, vec![PartId(0), PartId(0)]).unwrap();
        let bc = BalanceConstraint::bisection(10, Tolerance::Relative(0.0));
        let fx = FixedVertices::all_free(2);
        let rep = validate_partitioning(&hg, &p, &bc, &fx);
        assert_eq!(rep.overfull, vec![(PartId(0), 0)]);
        assert_eq!(rep.underfull, vec![(PartId(1), 0)]);
    }
}
