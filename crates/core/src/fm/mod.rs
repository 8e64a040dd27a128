//! Flat Fiduccia–Mattheyses bipartitioning with fixed vertices.
//!
//! The engine implements the classic FM pass discipline: every movable
//! vertex is moved at most once per pass, moves are chosen from gain
//! buckets (LIFO tie-breaking, or the CLIP shifted-gain variant), and at
//! the end of the pass the best prefix of the move sequence is restored.
//! Fixed vertices never enter the buckets; "or"-fixed vertices
//! ([`vlsi_hypergraph::Fixity::FixedAny`]) move only within their allowed
//! set. Pass lengths can be hard-capped ([`crate::PassCutoff`], Table III
//! of the paper) and every pass's statistics are recorded (Table II).
//! Under [`crate::PassCutoff::Exact`] a pass ends once no later prefix
//! could be kept: per net, a two-bit mask records which sides hold a pin
//! that cannot move again in the pass (an immovable vertex, built once
//! per run, or one already moved, set in the move's first net loop), and
//! the pass stops when the nets frozen on both sides, which stay cut,
//! outweigh the best prefix's cut.
//!
//! The engine does not run on the shared [`crate::KwayGains`] container
//! or on a [`vlsi_hypergraph::Partitioning`]. It keeps a 2-way pass state
//! of its own: one packed node per vertex (gain, bucket key, bucket links,
//! target side, in-bucket flag), one bucket-head array per target side,
//! and the assignment, part loads, cut and per-net pin counts on each
//! side. A move shifts its nets' pin counts, updates the cut and bumps
//! the gains that depend on the pre-move counts in one loop over its nets,
//! and bumps the rest in a second. A pass starts from a copy of the cut
//! and the side-0 pin counts; its end restores that copy and replays the
//! kept prefix of moves into it, instead of walking every later move's
//! nets to undo it.

mod engine;
mod stats;

pub use engine::{BipartFm, FmResult};
pub use stats::{PassStats, RunStats};
