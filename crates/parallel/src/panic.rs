//! Worker-panic containment.
//!
//! Long-running batch scans (the production north-star) cannot afford a
//! single panicking worker taking the whole process down — or worse,
//! wedging a join forever. Every team/loop primitive in this crate wraps
//! worker closures in [`std::panic::catch_unwind`]; the loops surface the
//! **first** panic as a typed [`WorkerPanic`] with its payload message
//! preserved; the remaining workers drain via a shared cancellation flag,
//! so the fork-join always completes.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The boxed payload a panicking thread leaves behind.
type Payload = Box<dyn Any + Send + 'static>;

/// A worker thread panicked inside a parallel region.
///
/// Carries the panic payload rendered as a string (the argument of the
/// `panic!` that fired, when it was a `&str` or `String`) plus the logical
/// worker id that observed it first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Rendered panic payload ("worker panicked" when the payload was not
    /// a string).
    pub message: String,
    /// Logical id of the worker whose panic was captured first.
    pub worker: usize,
}

impl WorkerPanic {
    /// Builds from a captured payload.
    fn from_payload(worker: usize, payload: &Payload) -> Self {
        Self {
            message: payload_message(payload),
            worker,
        }
    }
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a panic payload into a human-readable message.
fn payload_message(payload: &Payload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

/// Shared first-panic slot + cancellation flag for one parallel region.
///
/// Workers record the first panic they observe and raise the cancellation
/// flag; dynamically-scheduled loops poll [`PanicTrap::cancelled`] before
/// grabbing their next chunk, so a panic drains the region promptly
/// instead of letting the surviving workers finish the whole iteration
/// space (or, with a poisoned queue, hang).
pub(crate) struct PanicTrap {
    cancel: AtomicBool,
    first: Mutex<Option<(usize, Payload)>>,
}

impl PanicTrap {
    pub(crate) fn new() -> Self {
        Self {
            cancel: AtomicBool::new(false),
            first: Mutex::new(None),
        }
    }

    /// True once any worker has panicked.
    #[inline]
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Records a panic (first writer wins) and raises the cancel flag.
    fn record(&self, worker: usize, payload: Payload) {
        self.cancel.store(true, Ordering::Relaxed);
        let mut slot = lock_ignore_poison(&self.first);
        if slot.is_none() {
            *slot = Some((worker, payload));
        }
    }

    /// Runs `f`, trapping any unwind into the shared slot. Returns `true`
    /// if `f` completed without panicking.
    #[inline]
    pub(crate) fn run(&self, worker: usize, f: impl FnOnce()) -> bool {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(()) => true,
            Err(payload) => {
                self.record(worker, payload);
                false
            }
        }
    }

    /// Consumes the trap, yielding the first captured panic (if any).
    pub(crate) fn into_result(self) -> Result<(), WorkerPanic> {
        match self
            .first
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            Some((worker, payload)) => Err(WorkerPanic::from_payload(worker, &payload)),
            None => Ok(()),
        }
    }
}

/// Locks a mutex, recovering the guard even if a previous holder panicked
/// (our critical sections never leave shared state inconsistent).
#[inline]
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
