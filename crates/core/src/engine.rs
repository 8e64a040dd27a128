//! The unifying `Partitioner` / `Refiner` trait layer and engine registry.
//!
//! Every partitioning engine in this crate — flat FM, the multilevel
//! CLIP-FM engine, Kernighan–Lin, simulated annealing, and the two k-way
//! strategies — is reachable through one interface:
//!
//! * [`Partitioner`]: `hypergraph + fixities + balance + RunCtx` →
//!   [`PartitionResult`]. Implemented by the engine structs themselves
//!   ([`BipartFm`], [`MultilevelPartitioner`]), by the config types of the
//!   function-style engines ([`KlConfig`], [`AnnealingConfig`]), by the
//!   k-way strategy wrappers ([`RecursiveBisection`], [`DirectKway`]), and
//!   by the [`EngineConfig`] registry enum, which dispatches statically to
//!   whichever engine it names.
//! * [`Refiner`]: pass-based improvement of an *existing* assignment.
//!   Implemented by [`BipartFm`] (one full FM run), [`FmStack`] (the
//!   multilevel engine's two-stage CLIP-then-LIFO refinement), and
//!   [`KwayRefiner`] (the k-way FM inner loop).
//!
//! Each trait has exactly one method, taking a [`RunCtx`] parameter object
//! that bundles the run-scoped resources: the RNG, the trace [`Sink`], the
//! [`CancelToken`], and the worker-thread budget. These two methods are the
//! way to call an engine. The only inherent entry points left are the two
//! that return a richer result: [`BipartFm::run`] (per-pass statistics)
//! and [`MultilevelPartitioner::run`] (the level hierarchy); both take the
//! same `RunCtx`.
//!
//! The traits are generic over the RNG and the [`Sink`], so they are not
//! dyn-compatible; by-name construction goes through the [`EngineConfig`]
//! enum instead of trait objects, keeping every call statically dispatched
//! and the [`NullSink`] instrumentation compiled out.
//!
//! # Example
//! ```
//! use vlsi_rng::SeedableRng;
//! use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
//! use vlsi_partition::{EngineConfig, Partitioner, RunCtx};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::new();
//! let v: Vec<_> = (0..16).map(|_| b.add_vertex(1)).collect();
//! for w in v.windows(2) {
//!     b.add_net(1, [w[0], w[1]])?;
//! }
//! let hg = b.build()?;
//! let fixed = FixedVertices::all_free(16);
//! let balance = BalanceConstraint::bisection(16, Tolerance::Relative(0.1));
//! let engine = EngineConfig::by_name("ml")?;
//! let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(1);
//! let r = engine.partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))?;
//! assert_eq!(r.cut, 1);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use vlsi_rng::Rng;
use vlsi_trace::{NullSink, Sink};

use vlsi_hypergraph::{
    BalanceConstraint, CutState, FixedVertices, Hypergraph, Objective, PartId, Tolerance,
};

use crate::annealing::{simulated_annealing, AnnealingConfig};
use crate::cancel::CancelToken;
use crate::config::{FmConfig, MultilevelConfig};
use crate::fm::BipartFm;
use crate::initial::random_initial;
use crate::kl::{kernighan_lin, KlConfig};
use crate::kway;
use crate::multilevel::MultilevelPartitioner;
use crate::{PartitionError, PartitionResult};

/// Backs the default `cancel` borrow of [`RunCtx::new`].
static NEVER_CANCEL: CancelToken = CancelToken::never();

/// The run-scoped resources of one engine invocation: RNG, trace sink,
/// cancellation token, and worker-thread budget.
///
/// Built with [`RunCtx::new`] (defaults: [`NullSink`],
/// [`CancelToken::never`], one thread) and customised with the `with_*`
/// builders. A `RunCtx` is consumed by [`Partitioner::partition_ctx`] /
/// [`Refiner::refine_ctx`]; loops that run several engines off one RNG
/// construct a fresh context per call (`RunCtx::new(&mut *rng)`).
///
/// `threads` is a *budget*, not a demand, and no answer depends on it. It
/// reaches one fork inside a run, coarsening's net contraction, whose
/// shards concatenate in net order; refinement always runs on the calling
/// thread. An engine whose own config also names a thread count (e.g.
/// [`MultilevelConfig::threads`]) uses the larger of the two.
pub struct RunCtx<'a, R: ?Sized, S> {
    /// Source of randomness for the run.
    pub rng: &'a mut R,
    /// Receives the engine's trace events ([`NullSink`] compiles them out).
    pub sink: &'a S,
    /// Polled at pass boundaries and every few dozen moves.
    pub cancel: &'a CancelToken,
    /// Worker-thread budget for coarsening's net contraction (`<= 1` =
    /// inline).
    pub threads: usize,
}

impl<'a, R: Rng + ?Sized> RunCtx<'a, R, NullSink> {
    /// A default context around `rng`: no tracing, no cancellation, one
    /// thread.
    pub fn new(rng: &'a mut R) -> Self {
        RunCtx {
            rng,
            sink: &NullSink,
            cancel: &NEVER_CANCEL,
            threads: 1,
        }
    }
}

impl<'a, R: ?Sized, S> RunCtx<'a, R, S> {
    /// Replaces the trace sink.
    pub fn with_sink<S2: Sink>(self, sink: &'a S2) -> RunCtx<'a, R, S2> {
        RunCtx {
            rng: self.rng,
            sink,
            cancel: self.cancel,
            threads: self.threads,
        }
    }

    /// Replaces the cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Sets the worker-thread budget.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Reborrows the context for one nested call, leaving `self` usable
    /// afterwards (the RNG advances across calls, as loops require).
    pub fn reborrow(&mut self) -> RunCtx<'_, R, S> {
        RunCtx {
            rng: self.rng,
            sink: self.sink,
            cancel: self.cancel,
            threads: self.threads,
        }
    }
}

/// A complete partitioning engine: produces a solution from scratch given
/// only the instance, the constraints, and the run context.
///
/// Engines that only support bipartitioning return
/// [`PartitionError::UnsupportedPartCount`] when `balance` names more than
/// two parts; the k-way engines take their part count from
/// `balance.num_parts()`.
pub trait Partitioner {
    /// Partitions `hg` under `balance`, honouring `fixed`. The engine
    /// draws randomness from `ctx.rng`, streams its trace events into
    /// `ctx.sink`, polls `ctx.cancel` at pass boundaries (and, in the hot
    /// engines, every few dozen moves), and uses at most `ctx.threads`
    /// worker threads for coarsening. With [`NullSink`] the
    /// instrumentation compiles out entirely; with [`CancelToken::never`]
    /// every cancellation check is one predictable branch; the thread
    /// budget never changes the result.
    ///
    /// A cancelled run is **not** an error: the engine stops early and
    /// returns its best-so-far legal solution, recording an
    /// [`Event::Cancelled`](vlsi_trace::Event::Cancelled) per stopped loop.
    ///
    /// # Errors
    /// Engine-specific; at minimum
    /// [`PartitionError::UnsupportedPartCount`] for part counts the engine
    /// cannot handle and [`PartitionError::InfeasibleInstance`] when no
    /// legal solution can be constructed.
    fn partition_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError>;
}

/// A pass-based refinement engine: improves an *existing* assignment
/// without changing its feasibility class (fixities are honoured, balance
/// is restored by the best-prefix rollback of each pass).
///
/// Refiners never worsen their input: the returned cut is at most the cut
/// of `parts`. Refinement is deterministic: no refiner draws from
/// `ctx.rng`, so any RNG will do and its state is left untouched.
pub trait Refiner {
    /// Refines `parts`, streaming pass brackets into `ctx.sink` and polling
    /// `ctx.cancel` at pass boundaries. Refinement runs on the calling
    /// thread: `ctx.threads` is not used, so the answer is the same at
    /// every budget. A cancelled refinement returns the best solution
    /// reached so far (never worse than the input).
    ///
    /// # Errors
    /// [`PartitionError::UnsupportedPartCount`] for part counts the refiner
    /// cannot handle, or [`PartitionError::Input`] when `parts` is
    /// inconsistent with the instance.
    fn refine_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        parts: Vec<PartId>,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError>;
}

// --- Partitioner implementations -----------------------------------------

impl Partitioner for BipartFm {
    /// Flat FM from a random legal initial solution.
    fn partition_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        if balance.num_parts() != 2 {
            return Err(PartitionError::UnsupportedPartCount {
                requested: balance.num_parts(),
                supported: 2,
            });
        }
        let initial = random_initial(hg, fixed, balance, 2, ctx.rng)?;
        let r = self.run(hg, fixed, balance, initial, ctx)?;
        Ok(PartitionResult::new(r.parts, r.cut))
    }
}

impl Partitioner for MultilevelPartitioner {
    fn partition_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        self.run(hg, fixed, balance, ctx).map(Into::into)
    }
}

impl Partitioner for KlConfig {
    /// Kernighan–Lin from a random legal initial solution.
    fn partition_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        if balance.num_parts() != 2 {
            return Err(PartitionError::UnsupportedPartCount {
                requested: balance.num_parts(),
                supported: 2,
            });
        }
        let initial = random_initial(hg, fixed, balance, 2, ctx.rng)?;
        kernighan_lin(hg, fixed, balance, initial, *self, ctx.sink, ctx.cancel)
    }
}

impl Partitioner for AnnealingConfig {
    /// Simulated annealing from a random legal initial solution.
    fn partition_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        if balance.num_parts() != 2 {
            return Err(PartitionError::UnsupportedPartCount {
                requested: balance.num_parts(),
                supported: 2,
            });
        }
        let initial = random_initial(hg, fixed, balance, 2, ctx.rng)?;
        simulated_annealing(
            hg, fixed, balance, initial, *self, ctx.rng, ctx.sink, ctx.cancel,
        )
    }
}

/// Shared configuration of the two k-way strategies.
///
/// The part count itself is *not* part of the config: both strategies read
/// it from `balance.num_parts()` at partition time, so one engine value can
/// serve any `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KwayConfig {
    /// Per-part balance tolerance used when the strategy derives internal
    /// balance constraints (recursive-bisection splits, coarsest-level
    /// solves).
    pub tolerance: f64,
    /// Multilevel settings of the inner bipartitioning / coarsening engine
    /// (including its worker-thread budget).
    pub ml: MultilevelConfig,
    /// Upper bound on direct k-way FM refinement passes.
    pub refine_passes: usize,
    /// Objective optimised by the k-way refinement passes.
    pub objective: Objective,
}

impl Default for KwayConfig {
    fn default() -> Self {
        KwayConfig {
            tolerance: 0.1,
            ml: MultilevelConfig::default(),
            refine_passes: 4,
            objective: Objective::Cut,
        }
    }
}

/// K-way partitioning by recursive bisection with a final direct k-way FM
/// refinement stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecursiveBisection(pub KwayConfig);

impl Partitioner for RecursiveBisection {
    fn partition_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        let cfg = &self.0;
        let ml = MultilevelConfig {
            threads: cfg.ml.threads.max(ctx.threads),
            ..cfg.ml
        };
        let r = kway::recursive_bisection(
            hg,
            fixed,
            balance.num_parts(),
            cfg.tolerance,
            &ml,
            ctx.rng,
            ctx.sink,
            ctx.cancel,
        )?;
        // The bisection stack only targets even splits. Under a
        // heterogeneous constraint (per-part capacity vectors), repair the
        // assignment deterministically before judging or refining; the
        // uniform even-split case is routed untouched, bit-for-bit.
        let uniform = BalanceConstraint::even(
            balance.num_parts(),
            hg.total_weights(),
            Tolerance::Relative(cfg.tolerance),
        );
        let parts = if *balance == uniform {
            r.parts
        } else {
            crate::warmstart::legalize_assignment(hg, fixed, balance, &r.parts)?.0
        };
        if cfg.refine_passes == 0 || ctx.cancel.is_cancelled() {
            // The bisection stack reports a plain cut; the result carries
            // the configured objective's value, as refinement's would.
            let value = CutState::new(hg, balance.num_parts(), &parts).value(cfg.objective);
            return Ok(PartitionResult::new(parts, value));
        }
        kway::refine(
            hg,
            fixed,
            balance,
            parts,
            cfg.objective,
            cfg.refine_passes,
            ctx.sink,
            ctx.cancel,
        )
    }
}

/// Direct multilevel k-way partitioning: coarsen once, solve the coarsest
/// level k-way, refine k-way at every uncoarsening level.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DirectKway(pub KwayConfig);

impl Partitioner for DirectKway {
    fn partition_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        let cfg = &self.0;
        let ml = MultilevelConfig {
            threads: cfg.ml.threads.max(ctx.threads),
            ..cfg.ml
        };
        kway::multilevel_kway(
            hg,
            fixed,
            balance,
            cfg.objective,
            cfg.tolerance,
            &ml,
            ctx.rng,
            ctx.sink,
            ctx.cancel,
        )
    }
}

// --- Refiner implementations ---------------------------------------------

impl Refiner for BipartFm {
    /// One full FM run (up to `max_passes` passes) from `parts`.
    fn refine_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        parts: Vec<PartId>,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        let r = self.run(hg, fixed, balance, parts, ctx)?;
        Ok(PartitionResult::new(r.parts, r.cut))
    }
}

/// The multilevel engine's per-level refinement: a first FM stage followed
/// by an optional second stage with a different configuration. FM never
/// worsens its input, so the stack dominates either stage alone (the
/// default [`MultilevelConfig`] stacks CLIP then LIFO).
#[derive(Debug, Clone)]
pub struct FmStack {
    first: BipartFm,
    second: Option<BipartFm>,
}

impl FmStack {
    /// Builds a stack from the stage configurations.
    pub fn new(first: FmConfig, second: Option<FmConfig>) -> Self {
        FmStack {
            first: BipartFm::new(first),
            second: second.map(BipartFm::new),
        }
    }

    /// The refinement stack used at every uncoarsening level by a
    /// multilevel engine with configuration `cfg` (`refine_fm` then
    /// `refine_fm2`).
    pub fn from_multilevel(cfg: &MultilevelConfig) -> Self {
        FmStack::new(cfg.refine_fm, cfg.refine_fm2)
    }
}

impl Refiner for FmStack {
    fn refine_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        parts: Vec<PartId>,
        mut ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        let r = self.first.run(hg, fixed, balance, parts, ctx.reborrow())?;
        let r = match &self.second {
            Some(fm2) if !ctx.cancel.is_cancelled() => fm2.run(hg, fixed, balance, r.parts, ctx)?,
            _ => r,
        };
        Ok(PartitionResult::new(r.parts, r.cut))
    }
}

/// The direct k-way refinement loop as a [`Refiner`]: up to `max_passes`
/// passes, stopping early when a pass fails to improve the objective.
/// The instance picks the pass: the synchronous-round pass whenever some
/// movable vertex of positive weight fits inside the balance windows
/// (`max − min`) of two parts its fixity allows, else the FM-relaxation
/// pass, which overshoots by the heaviest movable vertex and rolls back to
/// the best balanced prefix. `ctx.threads` plays no part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KwayRefiner {
    /// Objective optimised by each pass.
    pub objective: Objective,
    /// Upper bound on passes.
    pub max_passes: usize,
}

impl Default for KwayRefiner {
    fn default() -> Self {
        KwayRefiner {
            objective: Objective::Cut,
            max_passes: 4,
        }
    }
}

impl Refiner for KwayRefiner {
    fn refine_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        parts: Vec<PartId>,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        kway::refine(
            hg,
            fixed,
            balance,
            parts,
            self.objective,
            self.max_passes,
            ctx.sink,
            ctx.cancel,
        )
    }
}

// --- Engine registry -----------------------------------------------------

/// A registry entry: canonical name, accepted aliases, one-line summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineInfo {
    /// Canonical engine name (what [`EngineConfig::name`] returns).
    pub name: &'static str,
    /// Alternative names accepted by [`EngineConfig::by_name`].
    pub aliases: &'static [&'static str],
    /// One-line human-readable description.
    pub summary: &'static str,
}

/// The engine registry, in presentation order.
pub const ENGINES: &[EngineInfo] = &[
    EngineInfo {
        name: "fm",
        aliases: &["flat"],
        summary: "flat FM bipartitioner (LIFO gain buckets, random initial solution)",
    },
    EngineInfo {
        name: "ml",
        aliases: &["multilevel"],
        summary: "multilevel CLIP-FM bipartitioner (the paper's engine)",
    },
    EngineInfo {
        name: "kl",
        aliases: &["kernighan-lin"],
        summary: "Kernighan-Lin pairwise-swap bipartitioner",
    },
    EngineInfo {
        name: "sa",
        aliases: &["annealing"],
        summary: "simulated-annealing bipartitioner with calibrated initial temperature",
    },
    EngineInfo {
        name: "rb",
        aliases: &["kway-rb"],
        summary: "k-way by recursive bisection plus direct k-way FM refinement",
    },
    EngineInfo {
        name: "kway",
        aliases: &["kway-direct"],
        summary: "direct multilevel k-way partitioner",
    },
];

/// Error of [`EngineConfig::by_name`]: the name matched no registered
/// engine. [`fmt::Display`] lists every valid name and alias, so callers
/// (CLI, service protocol) can surface an actionable message verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownEngine {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown engine '{}'; known engines: ", self.name)?;
        for (i, info) in ENGINES.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", info.name)?;
            for alias in info.aliases {
                write!(f, " (alias: {alias})")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for UnknownEngine {}

/// A partitioning engine selected and configured by name.
///
/// This is the dyn-compatible face of the trait layer: the [`Partitioner`]
/// trait itself is generic over RNG and sink, so engines are enumerated
/// here and dispatched statically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineConfig {
    /// Flat FM from a random initial solution.
    Fm(FmConfig),
    /// The multilevel CLIP-FM engine.
    Multilevel(MultilevelConfig),
    /// Kernighan–Lin pairwise swaps.
    Kl(KlConfig),
    /// Simulated annealing.
    Annealing(AnnealingConfig),
    /// K-way by recursive bisection (plus k-way FM cleanup).
    KwayRb(KwayConfig),
    /// Direct multilevel k-way.
    KwayDirect(KwayConfig),
}

impl EngineConfig {
    /// Constructs the default-configured engine registered under `name`
    /// (canonical name or alias, case-insensitive).
    ///
    /// # Errors
    /// [`UnknownEngine`] for unregistered names; its `Display` lists every
    /// valid name and alias.
    pub fn by_name(name: &str) -> Result<EngineConfig, UnknownEngine> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "fm" | "flat" => Ok(EngineConfig::Fm(FmConfig::default())),
            "ml" | "multilevel" => Ok(EngineConfig::Multilevel(MultilevelConfig::default())),
            "kl" | "kernighan-lin" => Ok(EngineConfig::Kl(KlConfig::default())),
            "sa" | "annealing" => Ok(EngineConfig::Annealing(AnnealingConfig::default())),
            "rb" | "kway-rb" => Ok(EngineConfig::KwayRb(KwayConfig::default())),
            "kway" | "kway-direct" => Ok(EngineConfig::KwayDirect(KwayConfig::default())),
            _ => Err(UnknownEngine {
                name: name.to_string(),
            }),
        }
    }

    /// The engine's canonical registry name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineConfig::Fm(_) => "fm",
            EngineConfig::Multilevel(_) => "ml",
            EngineConfig::Kl(_) => "kl",
            EngineConfig::Annealing(_) => "sa",
            EngineConfig::KwayRb(_) => "rb",
            EngineConfig::KwayDirect(_) => "kway",
        }
    }

    /// The registry entry for this engine.
    pub fn info(&self) -> &'static EngineInfo {
        ENGINES
            .iter()
            .find(|e| e.name == self.name())
            .expect("every variant is registered")
    }

    /// Sets the engine's *internal* worker-thread budget where the engine
    /// has one (the multilevel and k-way configs, whose coarsening forks
    /// over it); a no-op for the flat engines, which never fork. No answer
    /// depends on it.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        match &mut self {
            EngineConfig::Multilevel(cfg) => cfg.threads = threads,
            EngineConfig::KwayRb(cfg) | EngineConfig::KwayDirect(cfg) => cfg.ml.threads = threads,
            EngineConfig::Fm(_) | EngineConfig::Kl(_) | EngineConfig::Annealing(_) => {}
        }
        self
    }

    /// Sets the objective for engines that optimise one (the k-way
    /// configs); a no-op for the bipartitioning engines, where cut and
    /// connectivity coincide (`km1 == cut` at `k = 2`).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        match &mut self {
            EngineConfig::KwayRb(cfg) | EngineConfig::KwayDirect(cfg) => {
                cfg.objective = objective;
            }
            EngineConfig::Fm(_)
            | EngineConfig::Kl(_)
            | EngineConfig::Annealing(_)
            | EngineConfig::Multilevel(_) => {}
        }
        self
    }

    /// The objective this engine optimises (the k-way configs carry one;
    /// the bipartitioning engines are fixed on cut, where the two
    /// objectives coincide).
    pub fn objective(&self) -> Objective {
        match self {
            EngineConfig::KwayRb(cfg) | EngineConfig::KwayDirect(cfg) => cfg.objective,
            _ => Objective::Cut,
        }
    }
}

impl Partitioner for EngineConfig {
    fn partition_ctx<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        ctx: RunCtx<'_, R, S>,
    ) -> Result<PartitionResult, PartitionError> {
        match self {
            EngineConfig::Fm(cfg) => BipartFm::new(*cfg).partition_ctx(hg, fixed, balance, ctx),
            EngineConfig::Multilevel(cfg) => {
                MultilevelPartitioner::new(*cfg).partition_ctx(hg, fixed, balance, ctx)
            }
            EngineConfig::Kl(cfg) => cfg.partition_ctx(hg, fixed, balance, ctx),
            EngineConfig::Annealing(cfg) => cfg.partition_ctx(hg, fixed, balance, ctx),
            EngineConfig::KwayRb(cfg) => {
                RecursiveBisection(*cfg).partition_ctx(hg, fixed, balance, ctx)
            }
            EngineConfig::KwayDirect(cfg) => {
                DirectKway(*cfg).partition_ctx(hg, fixed, balance, ctx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{
        validate_partitioning, HypergraphBuilder, Partitioning, Tolerance, VertexId,
    };
    use vlsi_rng::{ChaCha8Rng, SeedableRng};

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn registry_covers_every_name_and_alias() {
        for info in ENGINES {
            let engine = EngineConfig::by_name(info.name).unwrap();
            assert_eq!(engine.name(), info.name);
            assert_eq!(engine.info().name, info.name);
            for alias in info.aliases {
                assert_eq!(EngineConfig::by_name(alias).unwrap().name(), info.name);
            }
        }
        assert!(EngineConfig::by_name("no-such-engine").is_err());
        // Case-insensitive.
        assert_eq!(EngineConfig::by_name("ML").unwrap().name(), "ml");
    }

    #[test]
    fn unknown_engine_error_lists_every_name_and_alias() {
        let err = EngineConfig::by_name("quantum").unwrap_err();
        assert_eq!(err.name, "quantum");
        let msg = err.to_string();
        assert!(msg.contains("unknown engine 'quantum'"), "{msg}");
        for info in ENGINES {
            assert!(msg.contains(info.name), "{msg} missing {}", info.name);
            for alias in info.aliases {
                assert!(msg.contains(alias), "{msg} missing alias {alias}");
            }
        }
    }

    #[test]
    fn with_threads_reaches_the_threaded_engines_only() {
        match EngineConfig::by_name("ml").unwrap().with_threads(4) {
            EngineConfig::Multilevel(cfg) => assert_eq!(cfg.threads, 4),
            other => panic!("unexpected engine {other:?}"),
        }
        match EngineConfig::by_name("kway").unwrap().with_threads(3) {
            EngineConfig::KwayDirect(cfg) => assert_eq!(cfg.ml.threads, 3),
            other => panic!("unexpected engine {other:?}"),
        }
        let fm = EngineConfig::by_name("fm").unwrap();
        assert_eq!(fm.with_threads(8), fm); // flat engines: config untouched
    }

    #[test]
    fn every_engine_bisects_a_chain() {
        let hg = chain(24);
        let fixed = FixedVertices::all_free(24);
        let balance = BalanceConstraint::bisection(24, Tolerance::Relative(0.1));
        for info in ENGINES {
            let engine = EngineConfig::by_name(info.name).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let r = engine
                .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
                .unwrap();
            let p = Partitioning::from_parts(&hg, 2, r.parts).unwrap();
            assert!(
                validate_partitioning(&hg, &p, &balance, &fixed).is_valid(),
                "{} produced an invalid bisection",
                info.name
            );
            assert!(
                r.cut <= 5,
                "{}: cut {} far from optimal 1",
                info.name,
                r.cut
            );
        }
    }

    #[test]
    fn kway_engines_partition_four_ways_and_bipart_engines_refuse() {
        let hg = chain(32);
        let fixed = FixedVertices::all_free(32);
        let balance = BalanceConstraint::even(4, &[32], Tolerance::Relative(0.2));
        for name in ["rb", "kway"] {
            let engine = EngineConfig::by_name(name).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let r = engine
                .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
                .unwrap();
            let p = Partitioning::from_parts(&hg, 4, r.parts).unwrap();
            assert!(validate_partitioning(&hg, &p, &balance, &fixed).is_valid());
        }
        for name in ["fm", "ml", "kl", "sa"] {
            let engine = EngineConfig::by_name(name).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            assert!(
                matches!(
                    engine.partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng)),
                    Err(PartitionError::UnsupportedPartCount { .. })
                ),
                "{name} should refuse 4-way"
            );
        }
    }

    #[test]
    fn engines_honour_fixed_vertices() {
        let hg = chain(20);
        let mut fixed = FixedVertices::all_free(20);
        fixed.fix(VertexId(0), PartId(1));
        fixed.fix(VertexId(19), PartId(0));
        let balance = BalanceConstraint::bisection(20, Tolerance::Relative(0.1));
        for info in ENGINES {
            let engine = EngineConfig::by_name(info.name).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let r = engine
                .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
                .unwrap();
            assert_eq!(r.parts[0], PartId(1), "{}", info.name);
            assert_eq!(r.parts[19], PartId(0), "{}", info.name);
        }
    }

    #[test]
    fn refiners_never_worsen_and_respect_fixities() {
        let hg = chain(24);
        let mut fixed = FixedVertices::all_free(24);
        fixed.fix(VertexId(5), PartId(0));
        let balance = BalanceConstraint::bisection(24, Tolerance::Relative(0.1));
        // A deliberately bad interleaved start (consistent with the fixity).
        let mut initial: Vec<PartId> = (0..24).map(|i| PartId(i % 2)).collect();
        initial[5] = PartId(0);
        initial[6] = PartId(1);
        let start_cut = Partitioning::from_parts(&hg, 2, initial.clone())
            .unwrap()
            .cut_value(Objective::Cut);

        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let fm = BipartFm::new(FmConfig::default());
        let stack = FmStack::from_multilevel(&MultilevelConfig::default());
        let kw = KwayRefiner::default();
        let results = [
            fm.refine_ctx(
                &hg,
                &fixed,
                &balance,
                initial.clone(),
                RunCtx::new(&mut rng),
            )
            .unwrap(),
            stack
                .refine_ctx(
                    &hg,
                    &fixed,
                    &balance,
                    initial.clone(),
                    RunCtx::new(&mut rng),
                )
                .unwrap(),
            kw.refine_ctx(
                &hg,
                &fixed,
                &balance,
                initial.clone(),
                RunCtx::new(&mut rng),
            )
            .unwrap(),
        ];
        for r in &results {
            assert!(r.cut <= start_cut);
            assert_eq!(r.parts[5], PartId(0));
        }
    }

    #[test]
    fn rb_engine_skips_cleanup_when_disabled() {
        let hg = chain(16);
        let fixed = FixedVertices::all_free(16);
        let balance = BalanceConstraint::even(4, &[16], Tolerance::Relative(0.3));
        let cfg = KwayConfig {
            refine_passes: 0,
            ..KwayConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let r = RecursiveBisection(cfg)
            .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
            .unwrap();
        let p = Partitioning::from_parts(&hg, 4, r.parts).unwrap();
        assert_eq!(p.cut_value(Objective::Cut), r.cut);
    }

    #[test]
    fn rb_engine_reports_the_configured_objective_without_refinement() {
        // A chain plus one net over four vertices pinned to four different
        // parts: that net spans every part, so k-1 exceeds the cut.
        let n = 32;
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        b.add_net(1, [v[0], v[8], v[16], v[24]]).unwrap();
        let hg = b.build().unwrap();
        let mut fixed = FixedVertices::all_free(n);
        for p in 0..4 {
            fixed.fix(VertexId(8 * p), PartId(p));
        }
        let balance = BalanceConstraint::even(4, &[n as u64], Tolerance::Relative(0.1));
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let no_passes = KwayConfig {
            refine_passes: 0,
            objective: Objective::KMinus1,
            ..KwayConfig::default()
        };
        let with_passes = KwayConfig {
            objective: Objective::KMinus1,
            ..KwayConfig::default()
        };
        for (cfg, cancel) in [(no_passes, CancelToken::never()), (with_passes, cancelled)] {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let r = RecursiveBisection(cfg)
                .partition_ctx(
                    &hg,
                    &fixed,
                    &balance,
                    RunCtx::new(&mut rng).with_cancel(&cancel),
                )
                .unwrap();
            let p = Partitioning::from_parts(&hg, 4, r.parts).unwrap();
            assert_ne!(p.cut_value(Objective::KMinus1), p.cut_value(Objective::Cut));
            assert_eq!(r.cut, p.cut_value(Objective::KMinus1));
        }
    }

    #[test]
    fn runctx_reborrow_supports_sequential_calls() {
        let hg = chain(16);
        let fixed = FixedVertices::all_free(16);
        let balance = BalanceConstraint::bisection(16, Tolerance::Relative(0.1));
        let engine = EngineConfig::by_name("fm").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ctx = RunCtx::new(&mut rng).with_threads(2);
        let a = engine
            .partition_ctx(&hg, &fixed, &balance, ctx.reborrow())
            .unwrap();
        let b = engine
            .partition_ctx(&hg, &fixed, &balance, ctx.reborrow())
            .unwrap();
        // The RNG advanced between the calls; both are legal bisections.
        for r in [&a, &b] {
            let p = Partitioning::from_parts(&hg, 2, r.parts.clone()).unwrap();
            assert!(validate_partitioning(&hg, &p, &balance, &fixed).is_valid());
        }
    }
}
