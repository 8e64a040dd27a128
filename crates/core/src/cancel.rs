//! Cooperative cancellation for the partitioning engines.
//!
//! A [`CancelToken`] is a cheap, cloneable handle combining a manual flag
//! with an optional wall-clock deadline. Engines poll it at pass
//! boundaries and (for the long inner loops) every few dozen moves; when
//! the token reports cancelled, the engine stops early and returns its
//! **best-so-far** solution — a legal partition, never an error. The
//! multistart drivers additionally guarantee that at least one start runs
//! to completion, so a caller with an already-expired deadline still gets
//! a valid (if unrefined) answer.
//!
//! [`CancelToken::never`] is the default of
//! [`RunCtx::new`](crate::RunCtx::new): it holds no allocation and every
//! check is a single predictable branch, so un-cancellable runs cost what
//! they did before cancellation existed (`cargo bench --bench
//! cancel_overhead` keeps this honest).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interval, in inner-loop iterations (moves, proposals, swaps), at which
/// engines re-poll an armed token. Checks at this granularity bound the
/// cancellation latency to a few microseconds of engine work while keeping
/// the `Instant::now` call off the per-move hot path.
pub const CHECK_INTERVAL: usize = 64;

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A cheap, cloneable cancellation handle: an atomic flag plus an optional
/// deadline. All clones observe the same flag.
///
/// # Example
/// ```
/// use vlsi_partition::CancelToken;
///
/// let never = CancelToken::never();
/// assert!(!never.is_cancelled());
///
/// let manual = CancelToken::new();
/// let watcher = manual.clone();
/// assert!(!watcher.is_cancelled());
/// manual.cancel();
/// assert!(watcher.is_cancelled());
///
/// let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
/// assert!(expired.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that never cancels. Checks against it are a single branch
    /// on a `None` discriminant — no allocation, no atomics, no clock.
    /// `const`, so it can back `static` defaults such as the one
    /// [`RunCtx::new`](crate::RunCtx::new) borrows.
    pub const fn never() -> Self {
        CancelToken { inner: None }
    }

    /// A manually-cancellable token (no deadline).
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A token that cancels `timeout` from now (and can also be cancelled
    /// manually before that).
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken::at_deadline(Instant::now() + timeout)
    }

    /// A token that cancels at `deadline` (and can also be cancelled
    /// manually before that).
    pub fn at_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// Sets the manual flag. A no-op on [`CancelToken::never`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the token is cancelled (manually or by deadline expiry).
    ///
    /// Deadline expiry is latched into the flag on first observation, so
    /// repeated checks after expiry never touch the clock again.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.flag.load(Ordering::Relaxed) {
            return true;
        }
        match inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                inner.flag.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Whether this is the zero-cost [`CancelToken::never`] token.
    pub fn is_never(&self) -> bool {
        self.inner.is_none()
    }

    /// Time remaining until the deadline (`None` when the token has no
    /// deadline; zero once expired).
    pub fn remaining(&self) -> Option<Duration> {
        let deadline = self.inner.as_ref()?.deadline?;
        Some(deadline.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_is_free_and_never_cancels() {
        let t = CancelToken::never();
        assert!(t.is_never());
        assert!(!t.is_cancelled());
        t.cancel(); // no-op
        assert!(!t.is_cancelled());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn manual_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn zero_deadline_is_immediately_cancelled() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn far_deadline_is_not_cancelled() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
        // Manual cancel still wins over the pending deadline.
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn default_is_never() {
        assert!(CancelToken::default().is_never());
    }
}
