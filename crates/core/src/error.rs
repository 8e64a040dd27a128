//! Error type for the partitioning engines.

use std::error::Error;
use std::fmt;

use vlsi_hypergraph::{BalanceError, PartitionInputError, VertexId};

/// Error produced by the partitioning engines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PartitionError {
    /// No legal initial assignment exists (e.g. a vertex is heavier than
    /// every partition's capacity, or fixed vertices already overflow a
    /// partition).
    InfeasibleInstance {
        /// A vertex that could not be placed, if one was identified.
        vertex: Option<VertexId>,
        /// Human-readable detail.
        detail: String,
    },
    /// The balance constraint itself cannot hold the hypergraph.
    Balance(BalanceError),
    /// A supplied assignment was inconsistent with the hypergraph.
    Input(PartitionInputError),
    /// The engine only supports bipartitioning but was asked for more parts.
    UnsupportedPartCount {
        /// Parts requested.
        requested: usize,
        /// Parts supported by this engine.
        supported: usize,
    },
    /// A movable vertex's nets weigh too much for the engine's gain
    /// buckets: their keys span twice a vertex's total weight of nets of
    /// two or more pins and must fit in `i32`, so no movable vertex's such
    /// nets may weigh more than `limit` in total.
    GainRange {
        /// The movable vertex whose nets of two or more pins weigh the
        /// most.
        vertex: VertexId,
        /// Their total weight.
        weight: u64,
        /// The largest total the gain buckets take.
        limit: u64,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::InfeasibleInstance { vertex, detail } => match vertex {
                Some(v) => write!(f, "infeasible instance at {v}: {detail}"),
                None => write!(f, "infeasible instance: {detail}"),
            },
            PartitionError::Balance(e) => write!(f, "balance constraint: {e}"),
            PartitionError::Input(e) => write!(f, "invalid input: {e}"),
            PartitionError::UnsupportedPartCount {
                requested,
                supported,
            } => write!(
                f,
                "{requested} partitions requested, this engine supports {supported}"
            ),
            PartitionError::GainRange {
                vertex,
                weight,
                limit,
            } => write!(
                f,
                "the nets of two or more pins of {vertex} weigh {weight} in total, \
                 past the gain range's {limit}"
            ),
        }
    }
}

impl Error for PartitionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PartitionError::Balance(e) => Some(e),
            PartitionError::Input(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BalanceError> for PartitionError {
    fn from(e: BalanceError) -> Self {
        PartitionError::Balance(e)
    }
}

impl From<PartitionInputError> for PartitionError {
    fn from(e: PartitionInputError) -> Self {
        PartitionError::Input(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = PartitionError::InfeasibleInstance {
            vertex: Some(VertexId(3)),
            detail: "does not fit".into(),
        };
        assert_eq!(e.to_string(), "infeasible instance at v3: does not fit");
        let e = PartitionError::UnsupportedPartCount {
            requested: 4,
            supported: 2,
        };
        assert!(e.to_string().contains("4 partitions"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<PartitionError>();
    }
}
