//! Error types for hypergraph construction and partition input validation.

use std::error::Error;
use std::fmt;

use crate::{NetId, PartId, VertexId};

/// Error produced while building a [`crate::Hypergraph`] through
/// [`crate::HypergraphBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A net referenced a vertex id that was never added.
    UnknownVertex {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices known to the builder at the time.
        num_vertices: usize,
    },
    /// A net listed the same vertex more than once.
    DuplicatePin {
        /// The net being added (index it would have received).
        net: NetId,
        /// The repeated vertex.
        vertex: VertexId,
    },
    /// A net had fewer than one pin.
    EmptyNet {
        /// The net being added.
        net: NetId,
    },
    /// Vertex weight vectors disagree on the number of resource types.
    ResourceArity {
        /// The vertex whose weight vector had the wrong length.
        vertex: VertexId,
        /// Expected number of resources.
        expected: usize,
        /// Observed number of resources.
        found: usize,
    },
    /// A CSR arena outgrew the `u32` offset range the compact layout uses
    /// (at most `u32::MAX` pins, or 4 GiB of name bytes, per graph).
    ArenaOverflow {
        /// Which arena overflowed: `"pins"` or `"names"`.
        arena: &'static str,
        /// The arena length that was requested.
        requested: u64,
    },
    /// One resource's vertex weights sum past `u64::MAX`, so its total
    /// and the part loads built from it would not fit.
    WeightOverflow {
        /// The resource whose sum overflowed.
        resource: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownVertex {
                vertex,
                num_vertices,
            } => write!(
                f,
                "net references unknown vertex {vertex} (only {num_vertices} vertices exist)"
            ),
            BuildError::DuplicatePin { net, vertex } => {
                write!(f, "net {net} lists vertex {vertex} more than once")
            }
            BuildError::EmptyNet { net } => write!(f, "net {net} has no pins"),
            BuildError::ResourceArity {
                vertex,
                expected,
                found,
            } => write!(
                f,
                "vertex {vertex} supplies {found} resource weights, expected {expected}"
            ),
            BuildError::ArenaOverflow { arena, requested } => write!(
                f,
                "{arena} arena needs {requested} bytes-or-entries, exceeding the u32 offset range"
            ),
            BuildError::WeightOverflow { resource } => {
                write!(f, "vertex weights of resource {resource} sum past u64::MAX")
            }
        }
    }
}

impl Error for BuildError {}

/// Error produced when a partition assignment is inconsistent with its
/// hypergraph (wrong length, out-of-range part, fixed-vertex violation).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionInputError {
    /// The assignment vector length differs from the vertex count.
    LengthMismatch {
        /// Number of vertices in the hypergraph.
        num_vertices: usize,
        /// Length of the provided assignment.
        assignment_len: usize,
    },
    /// A vertex was assigned a partition id at or beyond `num_parts`.
    PartOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// The out-of-range partition id.
        part: PartId,
        /// Number of partitions in the problem.
        num_parts: usize,
    },
    /// A fixed vertex was assigned to a partition its fixity forbids.
    FixedViolation {
        /// The offending vertex.
        vertex: VertexId,
        /// The partition the assignment placed it in.
        part: PartId,
    },
    /// `num_parts` exceeds the supported maximum (64, the width of
    /// [`crate::PartSet`]).
    TooManyParts {
        /// Requested partition count.
        num_parts: usize,
    },
}

impl fmt::Display for PartitionInputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionInputError::LengthMismatch {
                num_vertices,
                assignment_len,
            } => write!(
                f,
                "assignment has {assignment_len} entries for a hypergraph with {num_vertices} vertices"
            ),
            PartitionInputError::PartOutOfRange {
                vertex,
                part,
                num_parts,
            } => write!(
                f,
                "vertex {vertex} assigned to {part} but only {num_parts} partitions exist"
            ),
            PartitionInputError::FixedViolation { vertex, part } => {
                write!(f, "fixed vertex {vertex} may not be placed in {part}")
            }
            PartitionInputError::TooManyParts { num_parts } => {
                write!(f, "{num_parts} partitions requested, at most 64 supported")
            }
        }
    }
}

impl Error for PartitionInputError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = BuildError::EmptyNet { net: NetId(4) };
        assert_eq!(e.to_string(), "net n4 has no pins");

        let e = PartitionInputError::TooManyParts { num_parts: 65 };
        assert!(e.to_string().contains("65"));
        assert!(e
            .to_string()
            .starts_with(|c: char| c.is_lowercase() || c.is_ascii_digit()));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<BuildError>();
        assert_err::<PartitionInputError>();
    }
}
