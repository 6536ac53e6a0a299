//! The unified error taxonomy and memory budgeting for the fallible API.
//!
//! The ROADMAP north-star is a production LD service running long batch
//! scans; those cannot afford a process abort on a malformed input, an
//! `n(n+1)/2` triangle index that overflows `usize`, an allocation failure
//! in the slab scratch, or a panicking worker. Every matrix-level driver on
//! [`crate::LdEngine`] therefore has a `try_` form returning
//! `Result<_, LdError>`:
//!
//! * shapes are validated up front ([`LdError::DimensionMismatch`],
//!   [`LdError::EmptyInput`]);
//! * all `n²` / triangle-size arithmetic is checked
//!   ([`LdError::SizeOverflow`]);
//! * large buffers are allocated with `try_reserve`
//!   ([`LdError::AllocationFailed`]);
//! * the estimated transient footprint is held under a configurable
//!   [`MemoryBudget`] — the slab height auto-shrinks to fit before the
//!   engine gives up ([`LdError::BudgetExceeded`]);
//! * worker panics are contained by `ld-parallel` and surface as
//!   [`LdError::Worker`] instead of unwinding the caller.
//!
//! The historical infallible entry points are thin wrappers that panic with
//! the error's `Display` message, preserving their documented behavior.

use std::fmt;

pub use ld_parallel::WorkerPanic;

/// Everything that can go wrong in a fallible LD computation.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum LdError {
    /// Two operands disagree on a dimension that must match.
    DimensionMismatch {
        /// What was being matched (e.g. "sample sets must match").
        context: &'static str,
        /// Dimension of the left operand.
        left: usize,
        /// Dimension of the right operand.
        right: usize,
    },
    /// A size computation (`n²`, `n(n+1)/2`, byte counts) overflowed
    /// the machine's address arithmetic.
    SizeOverflow {
        /// The quantity that overflowed (e.g. "packed triangle size").
        what: &'static str,
    },
    /// The allocator refused a buffer of `bytes` bytes.
    AllocationFailed {
        /// What the buffer was for (e.g. "slab counts scratch").
        what: &'static str,
        /// Requested size in bytes.
        bytes: usize,
    },
    /// The estimated footprint exceeds the configured [`MemoryBudget`]
    /// even at the minimum slab height of one row.
    BudgetExceeded {
        /// Minimum bytes the computation needs.
        required: usize,
        /// The configured budget in bytes.
        budget: usize,
    },
    /// A worker thread panicked inside a parallel region; the region was
    /// drained and joined, and the first panic payload is preserved here.
    Worker(WorkerPanic),
    /// A configuration value is unusable (e.g. a zero tile size).
    InvalidConfig {
        /// Human-readable description of the bad parameter.
        message: &'static str,
    },
    /// The genotype matrix has zero samples (or zero SNPs where at least
    /// one is required) — no frequency is defined.
    EmptyInput,
    /// The run was cancelled cooperatively (token trip, deadline expiry,
    /// SIGINT) before covering the whole iteration space. Completed slabs
    /// stay consistent — cancellation lands on slab boundaries, never
    /// mid-kernel — and when a checkpoint sink was configured, a final
    /// snapshot of the completed slabs was flushed before this error was
    /// returned.
    Cancelled {
        /// The recorded cancellation reason (e.g. `"deadline exceeded"`).
        reason: String,
        /// Row slabs fully computed (and checkpointable) before the stop.
        completed_slabs: usize,
    },
    /// A checkpoint could not be written, read, or validated. The message
    /// locates the failure (byte offset for parse errors, the mismatching
    /// field for resume-validation errors).
    Checkpoint {
        /// Located, human-readable description of the failure.
        message: String,
    },
    /// Shard inputs are mutually inconsistent — different matrix
    /// fingerprints, headers, or overlapping slab spans. Merging them
    /// would corrupt the panel, so the merge refuses instead (see
    /// [`crate::shard::merge_shard_states`]).
    ShardMismatch {
        /// Which inputs disagree and on what field.
        message: String,
    },
    /// A shard merge found gaps: the inputs do not cover every row slab
    /// of the run. The error carries the gap report — which slab spans
    /// are absent — so the caller can name the shards to re-run instead
    /// of writing a silently truncated panel.
    IncompleteShardSet {
        /// Half-open `[start, end)` slab-index spans with no records.
        missing: Vec<(u64, u64)>,
        /// Total slab count of the run being merged.
        n_slabs: u64,
    },
    /// A tile store chunk or manifest is missing, truncated, damaged or
    /// inconsistent with the run. The message names the offending chunk
    /// (index and, for file-backed stores, the file) and what failed —
    /// a damaged store must never decode into a silently wrong panel.
    TileStore {
        /// Which chunk/manifest failed and how.
        message: String,
    },
}

impl fmt::Display for LdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch {
                context,
                left,
                right,
            } => {
                write!(f, "dimension mismatch: {context} ({left} vs {right})")
            }
            Self::SizeOverflow { what } => {
                write!(f, "size overflow computing {what}")
            }
            Self::AllocationFailed { what, bytes } => {
                write!(f, "allocation of {bytes} bytes failed for {what}")
            }
            Self::BudgetExceeded { required, budget } => {
                write!(
                    f,
                    "memory budget exceeded: needs at least {required} bytes, budget is {budget}"
                )
            }
            Self::Worker(p) => write!(f, "{p}"),
            Self::InvalidConfig { message } => write!(f, "invalid config: {message}"),
            Self::EmptyInput => write!(f, "cannot compute LD with zero samples"),
            Self::Cancelled {
                reason,
                completed_slabs,
            } => {
                write!(
                    f,
                    "run cancelled ({reason}) after {completed_slabs} completed slab(s)"
                )
            }
            Self::Checkpoint { message } => write!(f, "checkpoint error: {message}"),
            Self::ShardMismatch { message } => write!(f, "shard mismatch: {message}"),
            Self::TileStore { message } => write!(f, "tile store error: {message}"),
            Self::IncompleteShardSet { missing, n_slabs } => {
                let gap: u64 = missing.iter().map(|&(a, b)| b - a).sum();
                write!(
                    f,
                    "incomplete shard set: missing {gap} of {n_slabs} slab(s) \
                     (slab spans {}); re-run the shards covering these spans, \
                     then merge again",
                    crate::shard::format_spans(missing)
                )
            }
        }
    }
}

impl std::error::Error for LdError {}

impl From<WorkerPanic> for LdError {
    fn from(p: WorkerPanic) -> Self {
        Self::Worker(p)
    }
}

/// A cap on the *transient* memory of a slab-driver run.
///
/// The footprint model (see DESIGN.md "Error handling & resource limits")
/// is the run's *source's*: for an in-memory matrix, fixed cost `F` =
/// packed output (`8·n(n+1)/2` bytes, matrix form only) plus the transform
/// tables (≤ `20·n` bytes), and a per-slab-row cost `R = threads × n × e`
/// bytes where `e` is 4 (u32 counts scratch) for the packed sink and 12
/// (u32 + f64) for the row visitor. Given a budget `B`, the engine shrinks
/// the slab height to `min(configured, ⌊(B − F) / R⌋)` and fails with
/// [`LdError::BudgetExceeded`] only when even one row does not fit. A tile
/// store is read in windows sized to `B` (DESIGN.md §13): the one window
/// — the in-memory model plus the packed panel and one chunk load — when
/// it fits, else the largest that do, at the configured slab height
/// whenever the smallest window fits it. Results are bit-exact regardless
/// of the slab height and windows chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct MemoryBudget {
    limit: Option<usize>,
}

impl MemoryBudget {
    /// No cap (the default): slab height is taken as configured.
    pub const fn unlimited() -> Self {
        Self { limit: None }
    }

    /// Caps transient memory at `n` bytes.
    pub const fn bytes(n: usize) -> Self {
        Self { limit: Some(n) }
    }

    /// Caps transient memory at `n` MiB (saturating).
    pub const fn mib(n: usize) -> Self {
        Self {
            limit: Some(n.saturating_mul(1024 * 1024)),
        }
    }

    /// The cap in bytes, or `None` when unlimited.
    pub const fn limit(&self) -> Option<usize> {
        self.limit
    }
}

/// Allocates a zero-initialized `Vec<T>` through the *fallible* reserve
/// path, so allocator failure comes back as [`LdError::AllocationFailed`]
/// instead of aborting the process.
///
/// The allocation is flagged via [`fault::in_fallible_alloc`] so the
/// fault-injection harness can target exactly these sites.
pub(crate) fn try_zeroed_vec<T: Copy + Default>(
    len: usize,
    what: &'static str,
) -> Result<Vec<T>, LdError> {
    try_filled_vec(len, T::default(), what)
}

/// [`try_zeroed_vec`] with an explicit fill value (one pass over the
/// buffer, not a zeroing followed by a fill).
pub(crate) fn try_filled_vec<T: Copy>(
    len: usize,
    fill: T,
    what: &'static str,
) -> Result<Vec<T>, LdError> {
    let bytes = len.saturating_mul(std::mem::size_of::<T>());
    let _guard = fault::FallibleAllocGuard::new();
    let mut v: Vec<T> = Vec::new();
    v.try_reserve_exact(len)
        .map_err(|_| LdError::AllocationFailed { what, bytes })?;
    v.resize(len, fill);
    Ok(v)
}

/// The packed-triangle length `n(n+1)/2`, checked against `usize`.
pub(crate) fn checked_triangle_len(n: usize) -> Result<usize, LdError> {
    let tri = (n as u128) * (n as u128 + 1) / 2;
    usize::try_from(tri).map_err(|_| LdError::SizeOverflow {
        what: "packed triangle size n(n+1)/2",
    })
}

/// `a × b` with overflow surfaced as a typed error.
pub(crate) fn checked_mul(a: usize, b: usize, what: &'static str) -> Result<usize, LdError> {
    a.checked_mul(b).ok_or(LdError::SizeOverflow { what })
}

/// `a + b` with overflow surfaced as a typed error.
pub(crate) fn checked_add(a: usize, b: usize, what: &'static str) -> Result<usize, LdError> {
    a.checked_add(b).ok_or(LdError::SizeOverflow { what })
}

/// Hooks for the fault-injection test harness. **Not a public API** — the
/// shape of this module may change at any time.
#[doc(hidden)]
pub mod fault {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, Ordering};

    thread_local! {
        static IN_FALLIBLE_ALLOC: Cell<u32> = const { Cell::new(0) };
    }

    /// True while the current thread is inside a `try_reserve`-backed
    /// allocation — the only allocations a failure-injecting test
    /// allocator may refuse without aborting the process.
    pub fn in_fallible_alloc() -> bool {
        IN_FALLIBLE_ALLOC.with(|c| c.get()) > 0
    }

    /// RAII marker delimiting a fallible-allocation scope.
    pub(crate) struct FallibleAllocGuard;

    impl FallibleAllocGuard {
        pub(crate) fn new() -> Self {
            IN_FALLIBLE_ALLOC.with(|c| c.set(c.get() + 1));
            Self
        }
    }

    impl Drop for FallibleAllocGuard {
        fn drop(&mut self) {
            IN_FALLIBLE_ALLOC.with(|c| c.set(c.get().saturating_sub(1)));
        }
    }

    static KERNEL_PANIC: AtomicBool = AtomicBool::new(false);

    /// Arms (or disarms) a deliberate panic in the fused kernel workers —
    /// lets tests induce a mid-scan worker panic without a special build.
    pub fn arm_kernel_panic(on: bool) {
        KERNEL_PANIC.store(on, Ordering::SeqCst);
    }

    /// Checked by the fused workers; panics when armed.
    #[inline]
    pub fn check_kernel_panic() {
        if KERNEL_PANIC.load(Ordering::Relaxed) {
            panic!("injected kernel panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            LdError::EmptyInput.to_string(),
            "cannot compute LD with zero samples"
        );
        let e = LdError::DimensionMismatch {
            context: "sample sets must match",
            left: 3,
            right: 4,
        };
        assert!(e.to_string().contains("sample sets must match"));
        assert!(LdError::SizeOverflow {
            what: "packed triangle size n(n+1)/2"
        }
        .to_string()
        .contains("overflow"));
        let b = LdError::BudgetExceeded {
            required: 100,
            budget: 10,
        };
        assert!(b.to_string().contains("budget"));
    }

    #[test]
    fn triangle_len_checked() {
        assert_eq!(checked_triangle_len(0).ok(), Some(0));
        assert_eq!(checked_triangle_len(4).ok(), Some(10));
        assert!(checked_triangle_len(usize::MAX).is_err());
        // n(n+1) overflows usize but the triangle itself still must fail
        assert!(checked_triangle_len(1 << 40).is_err());
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(MemoryBudget::default(), MemoryBudget::unlimited());
        assert_eq!(MemoryBudget::bytes(10).limit(), Some(10));
        assert_eq!(MemoryBudget::mib(2).limit(), Some(2 * 1024 * 1024));
        assert_eq!(MemoryBudget::unlimited().limit(), None);
    }

    #[test]
    fn try_zeroed_vec_ok() {
        let v = try_zeroed_vec::<u32>(16, "test").expect("small alloc");
        assert_eq!(v.len(), 16);
        assert!(v.iter().all(|&x| x == 0));
        assert!(!fault::in_fallible_alloc());
    }

    #[test]
    fn worker_panic_converts() {
        let p = WorkerPanic {
            message: "boom".into(),
            worker: 2,
        };
        let e: LdError = p.into();
        assert!(e.to_string().contains("boom"));
    }
}
