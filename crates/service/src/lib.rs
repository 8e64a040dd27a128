//! Batch partitioning server for the fixed-vertices engines.
//!
//! `vlsi-service` turns the [`vlsi_partition`] engine registry into a
//! long-running batch server: clients submit partitioning jobs as
//! line-delimited JSON (over stdin/stdout or TCP), a bounded two-lane
//! priority queue feeds a worker pool, and each job runs under a
//! cooperative [`CancelToken`] deadline that returns the best-so-far
//! legal partition instead of aborting. Identical jobs are answered from
//! a content-addressed solution cache, warm-start requests refine a
//! previously returned solution instead of partitioning from scratch,
//! and a metrics endpoint surfaces service- and engine-level counters
//! (including per-engine p50/p99 latency).
//!
//! The TCP transport is a nonblocking epoll event loop (Linux
//! x86_64/aarch64; dependency-free via an in-crate raw-syscall shim)
//! with per-client admission token buckets, queue load shedding and
//! idle timeouts — see [`AdmissionConfig`] and `docs/OPERATIONS.md`.
//!
//! See `docs/PROTOCOL.md` for the complete wire reference and
//! `docs/OPERATIONS.md` for the operational overview; the module docs of
//! [`protocol`], [`queue`], [`admission`], [`cache`] and [`server`]
//! cover the layers.
//!
//! # Example
//!
//! ```
//! use std::io::Cursor;
//! use vlsi_service::{Service, ServiceConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let service = Service::start(ServiceConfig {
//!     workers: 1,
//!     ..ServiceConfig::default()
//! })?;
//! let requests = concat!(
//!     r#"{"id":"j1","engine":"fm","starts":2,"seed":1,"#,
//!     r#""hypergraph":{"vertices":[1,1,1,1],"nets":[[0,1],[1,2],[2,3]]}}"#,
//!     "\n",
//! );
//! let mut out = Vec::new();
//! service.serve(Cursor::new(requests), &mut out)?;
//! let reply = String::from_utf8(out).unwrap();
//! assert!(reply.contains("\"status\":\"ok\""));
//! service.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! [`CancelToken`]: vlsi_partition::CancelToken

// `deny` rather than `forbid`: the epoll shim in `sys` is the one module
// allowed to make raw syscalls; everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod eventloop;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod sys;

pub use admission::{AdmissionConfig, TokenBucket};
pub use cache::{cache_key, CacheKey, CacheStats, SolutionCache};
pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use protocol::{parse_request, JobRequest, JobResponse, ProtocolError, Request, ERROR_CODES};
pub use queue::{BoundedQueue, Lane, QueueClosed, WorkerPool};
pub use server::{serve_stdio, serve_tcp, ServeOutcome, Service, ServiceConfig};
