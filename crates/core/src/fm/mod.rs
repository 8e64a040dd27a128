//! Flat Fiduccia–Mattheyses bipartitioning with fixed vertices.
//!
//! The engine implements the classic FM pass discipline: every movable
//! vertex is moved at most once per pass, moves are chosen from gain
//! buckets (LIFO tie-breaking, or the CLIP shifted-gain variant), and at
//! the end of the pass the best prefix of the move sequence is restored.
//! Fixed vertices never enter the buckets; "or"-fixed vertices
//! ([`vlsi_hypergraph::Fixity::FixedAny`]) move only within their allowed
//! set. Pass lengths can be hard-capped ([`crate::PassCutoff`], Table III
//! of the paper), and every pass reports itself through `pass_start` and
//! `pass_end` trace events, the source of Table II.
//! Under [`crate::PassCutoff::Exact`] a pass ends once no later prefix
//! could be kept: per net, a two-bit mask records which sides hold a pin
//! that cannot move again in the pass (an immovable vertex, built once
//! per run, or one already moved, set in the move's first net loop), and
//! the pass stops when the nets frozen on both sides, which stay cut,
//! outweigh the best prefix's cut.
//!
//! The engine does not run on the shared [`crate::KwayGains`] container
//! or on a [`vlsi_hypergraph::Partitioning`]. It keeps a 2-way pass state
//! of its own, built straight from the start assignment in one walk over
//! every net's pins: one 16-byte node per vertex (`i32` bucket key, bucket
//! links, target side, movable and in-bucket flags), one bucket-head array
//! per target side, and the assignment, part loads, cut, per-net pin
//! counts on each side (their sum is the net's size) and per-net `mate`,
//! the XOR of its pins. A move shifts its nets' pin counts, updates the cut
//! and bumps the gains that depend on the pre-move counts in one loop over
//! its nets, and bumps the rest in a second. The other pin of a two-pin
//! net, `v ^ mate[n]`, gets both of its updates as one, of ±2w, in the
//! second loop, and no pin-list scan. A pass starts from a copy of the cut
//! and the side-0 pin counts; its end restores that copy and replays the
//! kept prefix of moves into it, instead of walking every later move's
//! nets to undo it.
//!
//! A pass's starting gains come from the cut nets: each movable vertex
//! starts at minus the weight of its nets of two or more pins (computed
//! once per state), and only the pins of cut nets are touched to add
//! their weight back, twice for a net's only pin on its side. A node keeps
//! no gain: it is the key under LIFO, and the key plus that pass-start gain
//! under CLIP. Keys are `i32`, so a movable vertex whose nets of two or
//! more pins weigh more than `i32::MAX / 2` in total makes the state
//! return [`crate::PartitionError::GainRange`] before any bucket exists.
//! The state
//! serves every stage of a run: [`crate::FmStack`]'s CLIP and LIFO stages
//! share one, changing only the selection policy, the exact stop, the key
//! bound and the bucket arrays between them.

mod engine;

pub(crate) use engine::run_stages;
pub use engine::BipartFm;
