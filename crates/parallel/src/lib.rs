//! # ld-parallel — threading substrate for the LD kernels
//!
//! The paper parallelizes its GEMM-based LD the BLIS way: the macro loops
//! around the micro-kernel are partitioned across cores, each thread packing
//! and computing an independent slab of the output (Tables I–III, Fig. 5).
//! This crate provides the small, dependency-light machinery for that:
//!
//! * [`run_team`] — fork-join execution of a closure on `n` logical workers
//!   using `std::thread::scope` (the calling thread doubles as worker 0, so
//!   a team of 1 runs inline with zero overhead);
//! * [`parallel_for`] / [`parallel_for_dynamic`] — data-parallel loops over
//!   index ranges with static (even slabs) or dynamic (atomic chunk
//!   grabbing) scheduling;
//! * [`try_parallel_for_dynamic_init_ctl`] — the dynamic loop in full:
//!   per-worker state, panic containment and a cancellation token. It is
//!   the scheduler of the LD slab driver, and [`parallel_for_dynamic`] is
//!   the same loop body with no state and no token;
//! * [`partition`] — range-splitting helpers, including the triangle-aware
//!   splitter that balances the `N(N+1)/2` pair workload of the symmetric
//!   `GᵀG` (SYRK) driver;
//! * [`Backoff`] — capped exponential retry delays with deterministic
//!   equal jitter, shared by the `run-sharded` supervisor and the
//!   `ld-serve` client harness so simultaneous retries decorrelate.
//!
//! Everything here guarantees data-race freedom through the type system:
//! scoped threads borrow.
//!
//! ## Panic containment
//!
//! Every worker closure runs inside `catch_unwind`. The `try_` entry
//! points ([`try_parallel_for`], [`try_parallel_for_dynamic_init_ctl`])
//! surface the first worker panic as a typed [`WorkerPanic`] instead of
//! unwinding the caller. Remaining workers drain via a shared cancellation
//! flag, so the fork-join always completes — a single bad row in a long
//! batch scan aborts the region, not the process. The infallible entry
//! points re-raise the panic on the calling thread once every worker has
//! been joined.
//!
//! ## Cooperative cancellation
//!
//! The same flag that drains panicking regions is exposed as a public,
//! shareable [`CancelToken`] (with hierarchical [`CancelToken::child`]
//! tokens and a monotonic [`Deadline`] companion).
//! [`try_parallel_for_dynamic_init_ctl`] polls a token **before every
//! chunk grab**: a tripped token stops the scheduler from handing out
//! further chunks, so the region drains at the next chunk boundary —
//! never mid-chunk — and the join still completes. The loop reports
//! whether it was cut short via [`LoopOutcome`].

#![warn(missing_docs)]

mod backoff;
mod cancel;
mod panic;
pub mod partition;
mod team;

pub use backoff::Backoff;
pub use cancel::{CancelToken, Deadline};
pub use panic::WorkerPanic;
pub use partition::{
    even_ranges, triangle_ranges, triangle_row_ranges, triangle_row_weight, triangle_weight,
};
pub use team::{
    available_threads, parallel_for, parallel_for_dynamic, run_team, scheduler_grain,
    try_parallel_for, try_parallel_for_dynamic_init_ctl, LoopOutcome,
};
