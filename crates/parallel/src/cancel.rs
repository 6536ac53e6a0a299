//! Cooperative cancellation: shareable tokens and monotonic deadlines.
//!
//! Long `n²/2` LD runs (the production north star) get killed: OOM
//! reapers, preemption, SIGINT, operator deadlines. The worker teams in
//! this crate already carry an *internal* cancellation flag to drain
//! panicking regions; [`CancelToken`] promotes that mechanism into a
//! public, shareable handle that callers (a CLI signal handler, a service
//! request scope, a test harness) can trip from any thread. The
//! dynamically-scheduled loops poll the token **at chunk granularity** —
//! a tripped token stops the scheduler from handing out further chunks,
//! so a region drains at the next chunk boundary instead of running the
//! whole iteration space (and never mid-kernel, so partial outputs stay
//! slab-consistent).
//!
//! [`Deadline`] is the time-based companion, built on the monotonic
//! [`std::time::Instant`] clock (wall-clock steps cannot fire or defer
//! it). Drivers that accept a deadline convert its expiry into a token
//! trip, so the two compose.

use crate::panic::lock_ignore_poison;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// First recorded cancellation reason (first writer wins).
    reason: Mutex<Option<String>>,
    /// Hierarchy: a child observes its parent's cancellation, but
    /// cancelling a child never propagates upward.
    parent: Option<CancelToken>,
}

/// Every token's trips, for [`CancelToken::wait`]: one process-wide mutex
/// and condvar, notified by every trip, so a waiter on a child wakes when
/// an ancestor trips without any token keeping a list of its waiters.
static TRIPS: (Mutex<()>, Condvar) = (Mutex::new(()), Condvar::new());

/// A shareable, hierarchical cancellation token.
///
/// Cloning shares the same underlying flag; [`CancelToken::child`] creates
/// a linked token that observes the parent's cancellation but can also be
/// tripped independently (e.g. one token per request under a global
/// shutdown token).
///
/// ```
/// use ld_parallel::CancelToken;
/// let root = CancelToken::new();
/// let child = root.child();
/// assert!(!child.is_cancelled());
/// root.cancel_with_reason("shutting down");
/// assert!(child.is_cancelled());
/// assert_eq!(child.reason().as_deref(), Some("shutting down"));
/// ```
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token with no parent.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                reason: Mutex::new(None),
                parent: None,
            }),
        }
    }

    /// A child token: cancelled when *either* it or any ancestor is
    /// cancelled. Cancelling the child does not affect the parent.
    pub fn child(&self) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                reason: Mutex::new(None),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Trips the token with the generic reason `"cancelled"`.
    pub fn cancel(&self) {
        self.cancel_with_reason("cancelled");
    }

    /// Trips the token, recording `reason` (the first recorded reason
    /// wins; later calls only keep the flag raised).
    pub fn cancel_with_reason(&self, reason: impl Into<String>) {
        {
            let mut slot = lock_ignore_poison(&self.inner.reason);
            if slot.is_none() {
                *slot = Some(reason.into());
            }
        }
        // Release: the reason write above must be visible to any thread
        // that observes the flag.
        self.inner.cancelled.store(true, Ordering::Release);
        // Under the lock, so a waiter between its check and its wait
        // cannot miss the notification.
        let _trips = lock_ignore_poison(&TRIPS.0);
        TRIPS.1.notify_all();
    }

    /// Blocks the calling thread until this token or any ancestor is
    /// cancelled; returns at once if one already is.
    pub fn wait(&self) {
        let mut trips = lock_ignore_poison(&TRIPS.0);
        while !self.is_cancelled() {
            trips = TRIPS.1.wait(trips).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// True once this token or any ancestor has been cancelled.
    ///
    /// This is the poll the dynamic schedulers issue before every chunk
    /// grab: one relaxed-ish atomic load per hop of the (typically depth-1)
    /// parent chain.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match &self.inner.parent {
            Some(p) => p.is_cancelled(),
            None => false,
        }
    }

    /// The recorded cancellation reason: this token's own, falling back to
    /// the nearest cancelled ancestor's. `None` while un-cancelled.
    pub fn reason(&self) -> Option<String> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            if let Some(r) = lock_ignore_poison(&self.inner.reason).clone() {
                return Some(r);
            }
        }
        match &self.inner.parent {
            Some(p) => p.reason(),
            None => None,
        }
    }
}

/// A monotonic-clock deadline (a point in time work must not run past).
///
/// Built on [`Instant`], so wall-clock adjustments (NTP steps, suspend
/// semantics aside) cannot spuriously fire or defer it. Combine with a
/// [`CancelToken`]: the driver that polls the deadline trips the token on
/// expiry, and everything downstream reacts to the token alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Self {
            at: Instant::now().checked_add(d).unwrap_or_else(far_future),
        }
    }

    /// A deadline at the given instant.
    pub fn at(at: Instant) -> Self {
        Self { at }
    }

    /// True once the deadline has passed.
    #[inline]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time remaining (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// The underlying instant.
    pub fn instant(&self) -> Instant {
        self.at
    }
}

/// An instant far enough out to behave as "never" (saturation target for
/// overflowing `after` spans).
fn far_future() -> Instant {
    // ~100 years of headroom; Instant cannot overflow from here in any
    // realistic process lifetime.
    let mut t = Instant::now();
    for _ in 0..100 {
        match t.checked_add(Duration::from_secs(365 * 24 * 3600)) {
            Some(next) => t = next,
            None => break,
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_trips_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        t.cancel_with_reason("first");
        t.cancel_with_reason("second");
        assert!(t.is_cancelled());
        assert_eq!(t.reason().as_deref(), Some("first"));
    }

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
        assert_eq!(a.reason().as_deref(), Some("cancelled"));
    }

    #[test]
    fn child_observes_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();
        child.cancel_with_reason("child stop");
        assert!(!parent.is_cancelled(), "child trip must not bubble up");
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled(), "trips flow downward");
        assert_eq!(grandchild.reason().as_deref(), Some("child stop"));
        parent.cancel_with_reason("root stop");
        // the child's own reason still wins locally
        assert_eq!(child.reason().as_deref(), Some("child stop"));
    }

    #[test]
    fn token_trips_across_threads() {
        let t = CancelToken::new();
        let t2 = t.clone();
        std::thread::spawn(move || t2.cancel_with_reason("from thread"))
            .join()
            .ok();
        assert!(t.is_cancelled());
        assert_eq!(t.reason().as_deref(), Some("from thread"));
    }

    #[test]
    fn wait_on_a_tripped_token_returns_at_once() {
        let t = CancelToken::new();
        t.cancel();
        t.wait();
        t.child().wait();
    }

    #[test]
    fn child_wait_returns_after_parent_cancel() {
        let parent = CancelToken::new();
        let child = parent.child();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            child.wait();
            tx.send(()).unwrap();
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "wait returned before any trip"
        );
        parent.cancel();
        rx.recv_timeout(Duration::from_secs(10))
            .expect("child.wait() returns once the parent trips");
        waiter.join().unwrap();
    }

    #[test]
    fn deadline_expiry_is_monotonic() {
        let d = Deadline::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(far.remaining() > Duration::from_secs(3000));
        assert!(far.instant() > Instant::now());
    }

    #[test]
    fn overflowing_deadline_saturates() {
        let d = Deadline::after(Duration::from_secs(u64::MAX));
        assert!(!d.expired());
    }
}
