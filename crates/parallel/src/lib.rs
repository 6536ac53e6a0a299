//! # ld-parallel — threading substrate for the LD kernels
//!
//! The paper parallelizes its GEMM-based LD the BLIS way: the macro loops
//! around the micro-kernel are partitioned across cores, each thread packing
//! and computing an independent slab of the output (Tables I–III, Fig. 5).
//! This crate provides the small, dependency-light machinery for that, and
//! it has **one spawner**: every compute thread of the workspace is a
//! worker of the one claim loop below. The kernels' threaded drivers, the
//! slab driver and every parallel fill reach it through one of its two
//! entry points; nothing else spawns compute threads.
//!
//! * [`try_for_each_part`] — the safe parallel writer: `f(index, part)`
//!   once per disjoint part of an output (the rows of a packed triangle,
//!   one slab of a cross matrix, one block of GEMM rows), parts claimed
//!   `grain` at a time;
//! * [`try_parallel_for_dynamic_init_ctl`] — the claim loop in full:
//!   per-worker state, panic containment and a cancellation token. It is
//!   the scheduler of the LD slab driver, and [`try_for_each_part`] is
//!   the same loop body with no state and no token. The calling thread is
//!   worker 0, so a team of one spawns nothing;
//! * [`Backoff`] — capped exponential retry delays with deterministic
//!   equal jitter, shared by the `run-sharded` supervisor and the
//!   `ld-serve` client harness so simultaneous retries decorrelate.
//!
//! Everything here guarantees data-race freedom through the type system:
//! scoped threads borrow, and a part handed to [`try_for_each_part`] is
//! moved to the one worker that claims it.
//!
//! ## Panic containment
//!
//! Every worker closure runs inside `catch_unwind`. Both loops surface
//! the first worker panic as a typed [`WorkerPanic`] instead of unwinding
//! the caller. Remaining workers drain via a shared cancellation flag, so
//! the fork-join always completes — a single bad row in a long batch scan
//! aborts the region, not the process.
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
mod team;

pub use backoff::Backoff;
pub use cancel::{CancelToken, Deadline};
pub use panic::WorkerPanic;
pub use team::{
    available_threads, try_for_each_part, try_parallel_for_dynamic_init_ctl, LoopOutcome,
};
