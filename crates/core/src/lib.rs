//! Multilevel FM hypergraph partitioning with fixed vertices.
//!
//! This crate is the primary contribution of the reproduction of
//! *Hypergraph Partitioning with Fixed Vertices* (Alpert, Caldwell, Kahng,
//! Markov; DAC 1999 / IEEE TCAD 19(2), Feb. 2000). It implements:
//!
//! * A flat Fiduccia–Mattheyses bipartitioner ([`fm::BipartFm`]) with
//!   gain-bucket selection, LIFO tie-breaking, the CLIP variant of Dutt &
//!   Deng, full fixed-vertex awareness, balance constraints, per-pass
//!   statistics (Table II of the paper) and hard pass cutoffs (Table III).
//! * A multilevel partitioner ([`multilevel::MultilevelPartitioner`]):
//!   heavy-edge-matching / first-choice coarsening that respects fixities,
//!   FM at the coarsest level, and refinement during uncoarsening.
//! * A multistart driver ([`multistart::Multistart`]) reproducing the
//!   paper's 1/2/4/8-start protocol, with an iterated-multilevel quality
//!   phase ([`quality`]): V-cycles over the best solution (which the paper
//!   found to be a net loss — kept for ablation) and ensemble
//!   recombination over the retained top-N starts.
//! * A k-way FM extension ([`kway`]) for the paper's future-work question
//!   of whether multiway partitioning is as affected by fixed terminals.
//! * The terminal-clustering equivalence transform
//!   ([`terminal_cluster::cluster_terminals`]) from the paper's conclusions.
//! * A unifying trait layer ([`Partitioner`] / [`Refiner`]) over every
//!   engine — flat FM, multilevel, Kernighan–Lin, simulated annealing and
//!   both k-way strategies — with a by-name [`EngineConfig`] registry, so
//!   drivers need no engine-specific glue.
//!
//! Every engine run takes a [`RunCtx`] bundling the RNG, a
//! [`trace::Sink`] receiving structured [`trace`] events (pass brackets,
//! committed moves, coarsening levels, multistart records), a
//! [`CancelToken`], and a thread budget (it reaches multistart starts and
//! coarsening only, and never changes an answer); the defaults built by
//! [`RunCtx::new`] use [`trace::NullSink`], which compiles the
//! instrumentation out entirely. There is one way to call each engine:
//! [`Partitioner::partition_ctx`] from scratch, [`Refiner::refine_ctx`]
//! from an existing assignment, and [`BipartFm::run`] /
//! [`MultilevelPartitioner::run`] where a caller needs the per-pass
//! statistics or the level hierarchy.
//!
//! # Quickstart
//!
//! ```
//! use vlsi_rng::SeedableRng;
//! use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
//! use vlsi_partition::{MultilevelConfig, MultilevelPartitioner, RunCtx};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::new();
//! let v: Vec<_> = (0..8).map(|_| b.add_vertex(1)).collect();
//! for w in v.windows(2) {
//!     b.add_net(1, [w[0], w[1]])?;
//! }
//! let hg = b.build()?;
//! let balance = vlsi_hypergraph::BalanceConstraint::bisection(
//!     hg.total_weight(),
//!     Tolerance::Relative(0.02),
//! );
//! let fixed = FixedVertices::all_free(hg.num_vertices());
//!
//! let ml = MultilevelPartitioner::new(MultilevelConfig::default());
//! let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(1);
//! let result = ml.run(&hg, &fixed, &balance, RunCtx::new(&mut rng))?;
//! assert_eq!(result.cut, 1); // a chain bisects with a single cut net
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annealing;
pub mod cancel;
mod config;
pub mod engine;
mod error;
pub mod fm;
mod gain;
mod initial;
pub mod kl;
pub mod kway;
pub mod multilevel;
pub mod multistart;
pub mod policy;
pub mod quality;
mod result;
pub mod terminal_cluster;
pub mod warmstart;

pub use annealing::AnnealingConfig;
pub use cancel::CancelToken;
pub use config::{FmConfig, MultilevelConfig, PassCutoff, SelectionPolicy};
pub use engine::{
    DirectKway, EngineConfig, EngineInfo, FmStack, KwayConfig, KwayRefiner, Partitioner,
    RecursiveBisection, Refiner, RunCtx, UnknownEngine, ENGINES,
};
pub use error::PartitionError;
pub use fm::{BipartFm, FmResult, PassStats, RunStats};
pub use gain::{GainBuckets, KwayGains, MoveLog};
pub use initial::random_initial;
pub use kl::KlConfig;
pub use multilevel::{MultilevelPartitioner, MultilevelResult};
pub use multistart::{Multistart, MultistartOutcome, StartRecord};
pub use result::PartitionResult;
pub use warmstart::{refine_from_partition_ctx, WarmStartOutcome};

/// The structured-tracing vocabulary ([`trace::Event`], [`trace::Sink`] and
/// its implementations) re-exported so downstream crates need not depend on
/// `vlsi-trace` directly.
pub use vlsi_trace as trace;
