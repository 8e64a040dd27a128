//! Rent's-rule-driven synthetic netlist, placement and fixed-terminal
//! benchmark generation.
//!
//! This crate substitutes for the proprietary ISPD-98 IBM circuits used in
//! *Hypergraph Partitioning with Fixed Vertices* (Alpert et al., DAC 1999):
//!
//! * [`rent`] — the Rent's-rule model (`T = k·C^p`) behind the paper's
//!   Table I, including the block sizes below which the expected fixed
//!   fraction exceeds a threshold, and the least-squares fit of `k` and
//!   `p` to observed blocks.
//! * [`synthetic`] — a gnl-style hierarchical netlist generator with a
//!   controllable Rent exponent, realistic net-size distribution, skewed
//!   cell areas ([`areas`]) and a *native geometric placement* produced by
//!   the same recursion that creates the connectivity.
//! * [`scale`] — that recursion, the one Rent construction behind every
//!   circuit. It keeps a net only while it is open (live state
//!   `O(k·n^p)`) and hands it to a sink when it closes. There are two
//!   sinks: [`synthetic::Generator`] keeps the nets in creation order, and
//!   [`scale::build_circuit`] streams them into the hypergraph builder, so
//!   circuits far beyond the ISPD-98 sizes build in bounded memory.
//! * [`instances`] — presets `ibm01_like()`…`ibm05_like()` matching the
//!   published vertex/net counts of the ISPD-98 suite (built by the
//!   `Generator`), plus Rent-faithful `million_cells()`/`ten_million_cells()`
//!   scale presets (built by `build_circuit`).
//! * [`blocks`] — the paper's Section IV methodology: lay a block and a
//!   cutline over a placement and derive a partitioning instance whose
//!   external cells/pads become zero-area terminals fixed in the closest
//!   partition (Table IV).
//!
//! # Example
//!
//! ```
//! use vlsi_netgen::synthetic::{Generator, GeneratorConfig};
//!
//! let config = GeneratorConfig {
//!     num_cells: 400,
//!     rent_exponent: 0.6,
//!     ..GeneratorConfig::default()
//! };
//! let circuit = Generator::new(config).generate(7);
//! assert_eq!(circuit.num_cells(), 400);
//! assert!(circuit.hypergraph.num_nets() > 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod areas;
pub mod blocks;
pub mod bookshelf;
mod circuit;
mod geometry;
pub mod instances;
pub mod rent;
pub mod scale;
pub mod synthetic;

pub use circuit::Circuit;
pub use geometry::{Cutline, Point, Rect};
