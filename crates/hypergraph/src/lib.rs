//! Hypergraph data structures for VLSI partitioning with fixed vertices.
//!
//! This crate provides the substrate on which the reproduction of
//! *Hypergraph Partitioning with Fixed Vertices* (Alpert, Caldwell, Kahng,
//! Markov; DAC 1999 / IEEE TCAD 19(2)) is built:
//!
//! * [`Hypergraph`] — an immutable, CSR-packed hypergraph with per-vertex
//!   (possibly multi-resource) weights and per-net weights, built through
//!   [`HypergraphBuilder`].
//! * [`Fixity`] / fixed-vertex assignments — a vertex may be free, fixed in
//!   one partition, or fixed in a *set* of allowed partitions ("or"
//!   semantics, Section IV of the paper).
//! * [`BalanceConstraint`] — absolute or relative (percentage) balance
//!   semantics, per resource type (multi-balanced partitioning).
//! * [`Partitioning`] + [`CutState`] — a partition assignment with
//!   incrementally-maintained per-net pin distributions and cut objectives
//!   ([`Objective::Cut`], [`Objective::KMinus1`], [`Objective::Soed`]).
//! * I/O for the classic ACM/SIGDA `.net`/`.are` format and a
//!   bookshelf-style text format with `.fix` fixed-vertex files.
//!
//! # Example
//!
//! ```
//! use vlsi_hypergraph::{HypergraphBuilder, PartId, Partitioning, Objective};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::new();
//! let v0 = b.add_vertex(1);
//! let v1 = b.add_vertex(1);
//! let v2 = b.add_vertex(2);
//! b.add_net(1, [v0, v1])?;
//! b.add_net(1, [v1, v2])?;
//! let hg = b.build()?;
//!
//! let parts = vec![PartId(0), PartId(0), PartId(1)];
//! let p = Partitioning::from_parts(&hg, 2, parts)?;
//! assert_eq!(p.cut_value(Objective::Cut), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balance;
mod builder;
mod components;
mod cut;
mod error;
mod fixed;
mod graph;
mod ids;
pub mod io;
mod partitioning;
pub mod resource;
pub mod stats;
mod subgraph;
mod validate;

pub use balance::{BalanceConstraint, BalanceError, Tolerance};
pub use builder::HypergraphBuilder;
pub use components::{connected_components, largest_component_size};
pub use cut::{CutState, Objective};
pub use error::{BuildError, PartitionInputError};
pub use fixed::{FixedVertices, Fixity, PartSet};
pub use graph::Hypergraph;
pub use ids::{NetId, PartId, VertexId};
pub use partitioning::{check_assignment, Partitioning};
pub use resource::{ParseResourceError, PartCapacities};
pub use subgraph::{induced_subgraph, Subgraph};
pub use validate::{validate_partitioning, ValidationReport};
