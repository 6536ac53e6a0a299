//! Fork-join worker teams over `std::thread::scope`.
//!
//! Every worker of every primitive runs inside a panic trap. The
//! infallible forms (`run_team`, `parallel_for`, `parallel_for_dynamic`)
//! re-raise a worker panic on the caller exactly like `std::thread::scope`
//! does; the `try_` forms (`try_parallel_for`,
//! `try_parallel_for_dynamic_init_ctl`) **contain** it — the first panic
//! is converted into a typed [`WorkerPanic`] (payload message preserved),
//! the remaining workers drain via a cancellation flag, and the join
//! always completes.
//!
//! There is one dynamically-scheduled loop body (`dynamic_loop`):
//! [`parallel_for_dynamic`] is that body with no per-worker state and no
//! token, so the chunk schedule — and with it `tiles_claimed` — is the
//! same function of `(len, grain)` at every thread count.

use crate::cancel::CancelToken;
use crate::panic::{PanicTrap, WorkerPanic};
use ld_trace::recorder::{Span, SpanKind};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Encodes a chunk claim for the flight recorder:
/// `(chunk_index << 1) | stolen`.
#[inline]
fn chunk_arg(chunk_idx: usize, stolen: bool) -> u64 {
    ((chunk_idx as u64) << 1) | u64::from(stolen)
}

/// How a cancellable dynamic loop finished.
///
/// Returned by [`try_parallel_for_dynamic_init_ctl`] so callers can distinguish a fully
/// drained iteration space from one cut short by a tripped
/// [`CancelToken`]. Cancellation is **not** an error at this layer — the
/// caller decides whether partial progress is a typed failure (the LD
/// driver maps it to `LdError::Cancelled`) or a normal early exit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopOutcome {
    /// Every index in `0..len` was handed out and processed.
    Completed,
    /// The token tripped while unclaimed work remained; workers stopped at
    /// the next chunk boundary and the join completed cleanly.
    Cancelled,
}

impl LoopOutcome {
    /// True when the loop drained its whole range.
    pub fn is_complete(self) -> bool {
        matches!(self, LoopOutcome::Completed)
    }
}

/// Post-join outcome: the range drained iff every chunk was claimed. The
/// claim counter only stops advancing when workers break early (token
/// trip), so `next < len` after the join means unclaimed work remains.
fn outcome_from(next: &AtomicUsize, len: usize, token: Option<&CancelToken>) -> LoopOutcome {
    if next.load(Ordering::Relaxed) >= len || token.is_none_or(|t| !t.is_cancelled()) {
        LoopOutcome::Completed
    } else {
        LoopOutcome::Cancelled
    }
}

/// Whether chunk `chunk_idx` lies outside worker `tid`'s share of a static
/// even split of `chunks` chunks over `n` workers — i.e. the dynamic
/// scheduler handed this worker a chunk that static partitioning would
/// have given to someone else. Recorded as `steal_count`: a load-imbalance
/// signal that is timing-dependent by design (only the *total* number of
/// claims is deterministic).
fn is_steal(chunk_idx: usize, tid: usize, chunks: usize, n: usize) -> bool {
    let lo = tid * chunks / n;
    let hi = (tid + 1) * chunks / n;
    chunk_idx < lo || chunk_idx >= hi
}

/// Scheduler grain for slab-structured loops: `slab × chunk_slabs` rows
/// per dynamic chunk claim, both factors clamped to at least 1.
///
/// `chunk_slabs = 1` (the default) reproduces the historic one-claim-
/// per-slab schedule; larger values amortize the atomic `fetch_add` and
/// chunk-span bookkeeping over several slabs — the knob the autotuner
/// sweeps. Because every chunk starts at a multiple of the grain, slab
/// boundaries inside a chunk stay aligned: callers can walk a claimed
/// range slab-by-slab and each sub-range is a whole slab (except the
/// final fringe of the matrix).
pub fn scheduler_grain(slab: usize, chunk_slabs: usize) -> usize {
    slab.max(1).saturating_mul(chunk_slabs.max(1))
}

/// Number of hardware threads available, with a floor of 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Core fork-join with panic trapping. Every worker (including worker 0 on
/// the calling thread) runs inside `catch_unwind`; the first payload is
/// captured, everyone else finishes, and the payload is surfaced as a
/// `Result` instead of unwinding through the scope join.
fn run_team_trapped<F>(n: usize, f: F) -> Result<(), (usize, crate::panic::Payload)>
where
    F: Fn(usize) + Sync,
{
    let trap = PanicTrap::new();
    if n == 1 {
        ld_trace::recorder::set_worker(0);
        trap.run(0, || f(0));
        return trap.into_result();
    }
    std::thread::scope(|s| {
        for tid in 1..n {
            let f = &f;
            let trap = &trap;
            s.spawn(move || {
                // Bind this OS thread's flight-recorder timeline to its
                // logical worker id.
                ld_trace::recorder::set_worker(tid);
                trap.run(tid, || f(tid))
            });
        }
        ld_trace::recorder::set_worker(0);
        trap.run(0, || f(0));
    });
    trap.into_result()
}

/// Runs `f(worker_id)` on `n_threads` logical workers and waits for all of
/// them. Worker 0 is the calling thread, so `run_team(1, f)` is just
/// `f(0)` — the single-thread path has no synchronization cost, which
/// matters when benchmarking 1-thread rows of the paper's tables.
///
/// The closure may borrow from the caller's stack (scoped threads).
/// A panicking worker propagates its original payload to the caller after
/// every other worker has finished.
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let hits = AtomicUsize::new(0);
/// ld_parallel::run_team(4, |tid| {
///     hits.fetch_add(tid + 1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
/// ```
pub fn run_team<F>(n_threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let n = n_threads.max(1);
    if let Err((_, payload)) = run_team_trapped(n, f) {
        std::panic::resume_unwind(payload);
    }
}

/// Statically-scheduled parallel loop: splits `0..len` into `n_threads`
/// nearly-even contiguous slabs and runs `f(range)` on each worker.
///
/// Use when iterations have uniform cost (e.g. GEMM column blocks).
/// A worker panic propagates (see [`try_parallel_for`] for containment).
pub fn parallel_for<F>(n_threads: usize, len: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    if let Err(p) = try_parallel_for_impl(n_threads, len, &f) {
        std::panic::resume_unwind(p.1);
    }
}

/// Panic-containing [`parallel_for`].
pub fn try_parallel_for<F>(n_threads: usize, len: usize, f: F) -> Result<(), WorkerPanic>
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    try_parallel_for_impl(n_threads, len, &f)
        .map_err(|(tid, payload)| WorkerPanic::from_payload(tid, &payload))
}

fn try_parallel_for_impl<F>(
    n_threads: usize,
    len: usize,
    f: &F,
) -> Result<(), (usize, crate::panic::Payload)>
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let n = n_threads.max(1).min(len.max(1));
    if n == 1 {
        return run_team_trapped(1, |_| f(0..len));
    }
    let ranges = crate::partition::even_ranges(len, n);
    run_team_trapped(n, |tid| {
        let r = ranges[tid].clone();
        if !r.is_empty() {
            f(r);
        }
    })
}

/// Dynamically-scheduled parallel loop: workers grab chunks of at most
/// `grain` consecutive indices from an atomic counter until the range is
/// drained.
///
/// Use when iteration costs are skewed (e.g. the triangular pair space of
/// the baseline kernels, or ω-statistic windows of varying SNP counts).
/// This is [`try_parallel_for_dynamic_init_ctl`] with no per-worker state
/// and no token: `f` sees at most `grain` indices per call at every thread
/// count, one worker included. A worker panic propagates.
pub fn parallel_for_dynamic<F>(n_threads: usize, len: usize, grain: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    if let Err(p) = dynamic_loop(n_threads, len, grain, None, &|_| (), &|(), r| f(r)) {
        std::panic::resume_unwind(p.1);
    }
}

/// Cancellable, panic-containing dynamically-scheduled loop with
/// **per-worker state**: each worker builds its state once with
/// `init(worker_id)`, then repeatedly grabs chunks of at most `grain`
/// consecutive indices and runs `f(&mut state, range)` on them.
///
/// This is the scheduler behind the LD slab driver: `init` allocates a
/// worker's bounded scratch slab exactly once, dynamic chunk-grabbing
/// absorbs the skew of triangular workloads without per-chunk allocation,
/// and the single-thread path still chunks by `grain` — callers rely on
/// every `f` invocation seeing at most `grain` indices (that bound is what
/// caps the scratch size).
///
/// `token` is polled **before every chunk grab** on every path, so
/// cancellation granularity is identical at any thread count. A tripped
/// token never interrupts `f` mid-chunk — chunks that started before the
/// trip run to completion, so slab-granular outputs stay consistent — and
/// the loop reports `Ok(LoopOutcome::Cancelled)` once the join finishes.
/// Panics in `init` or `f` (first one wins, and wins over cancellation)
/// become a typed [`WorkerPanic`]; the cancellation flag stops the
/// surviving workers from grabbing further chunks, so the loop drains
/// promptly and the join cannot hang.
///
/// ```
/// use ld_parallel::{try_parallel_for_dynamic_init_ctl, CancelToken, LoopOutcome};
/// let token = CancelToken::new();
/// token.cancel_with_reason("deadline");
/// let out = try_parallel_for_dynamic_init_ctl(2, 100, 8, Some(&token), |_tid| (), |_s, _r| {
///     unreachable!("no chunk is handed out after the trip");
/// })
/// .unwrap();
/// assert_eq!(out, LoopOutcome::Cancelled);
/// ```
pub fn try_parallel_for_dynamic_init_ctl<S, I, F>(
    n_threads: usize,
    len: usize,
    grain: usize,
    token: Option<&CancelToken>,
    init: I,
    f: F,
) -> Result<LoopOutcome, WorkerPanic>
where
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>) + Sync,
{
    dynamic_loop(n_threads, len, grain, token, &init, &f)
        .map_err(|(tid, payload)| WorkerPanic::from_payload(tid, &payload))
}

/// The one claim-a-chunk loop behind both dynamic entry points.
fn dynamic_loop<S, I, F>(
    n_threads: usize,
    len: usize,
    grain: usize,
    token: Option<&CancelToken>,
    init: &I,
    f: &F,
) -> Result<LoopOutcome, (usize, crate::panic::Payload)>
where
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>) + Sync,
{
    let grain = grain.max(1);
    let n = n_threads.max(1).min(len.div_ceil(grain).max(1));
    if len == 0 {
        return Ok(LoopOutcome::Completed);
    }
    if n == 1 {
        let next = AtomicUsize::new(0);
        run_team_trapped(1, |_| {
            let mut state = init(0);
            let mut start = 0usize;
            while start < len {
                if token.is_some_and(|t| t.is_cancelled()) {
                    break;
                }
                let end = (start + grain).min(len);
                ld_trace::worker_claim(0, false);
                next.store(end, Ordering::Relaxed);
                let span = Span::begin(SpanKind::Chunk);
                f(&mut state, start..end);
                span.end(chunk_arg(start / grain, false));
                start = end;
            }
        })?;
        return Ok(outcome_from(&next, len, token));
    }
    let next = AtomicUsize::new(0);
    let trap = PanicTrap::new();
    let chunks = len.div_ceil(grain);
    std::thread::scope(|s| {
        let worker = |tid: usize| {
            let trap = &trap;
            let next = &next;
            move || {
                ld_trace::recorder::set_worker(tid);
                let mut state: Option<S> = None;
                while !trap.cancelled() {
                    if token.is_some_and(|t| t.is_cancelled()) {
                        break;
                    }
                    let start = next.fetch_add(grain, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    let stolen = is_steal(start / grain, tid, chunks, n);
                    ld_trace::worker_claim(tid, stolen);
                    let end = (start + grain).min(len);
                    let span = Span::begin(SpanKind::Chunk);
                    let ok = trap.run(tid, || {
                        // `state` is only touched by this worker; the
                        // AssertUnwindSafe in `trap.run` is sound because a
                        // panicking chunk cancels the whole loop (no state
                        // is observed after a panic).
                        let state = &mut state;
                        f(state.get_or_insert_with(|| init(tid)), start..end);
                    });
                    span.end(chunk_arg(start / grain, stolen));
                    if !ok {
                        break;
                    }
                }
            }
        };
        for tid in 1..n {
            s.spawn(worker(tid));
        }
        worker(0)();
    });
    trap.into_result()?;
    Ok(outcome_from(&next, len, token))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The dynamic loop with no per-worker state, fallible and cancellable.
    fn dynamic_ctl<F>(
        threads: usize,
        len: usize,
        grain: usize,
        token: Option<&CancelToken>,
        f: F,
    ) -> Result<LoopOutcome, WorkerPanic>
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        try_parallel_for_dynamic_init_ctl(threads, len, grain, token, |_| (), |(), r| f(r))
    }

    #[test]
    fn team_runs_every_worker_once() {
        for n in [1usize, 2, 3, 8] {
            let seen = Mutex::new(vec![0usize; n]);
            run_team(n, |tid| {
                seen.lock().unwrap()[tid] += 1;
            });
            assert_eq!(*seen.lock().unwrap(), vec![1; n], "n={n}");
        }
    }

    #[test]
    fn team_zero_is_clamped_to_one() {
        let ran = AtomicUsize::new(0);
        run_team(0, |tid| {
            assert_eq!(tid, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn static_for_covers_range_exactly_once() {
        for (threads, len) in [(1usize, 10usize), (3, 10), (4, 3), (8, 100), (5, 0)] {
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(threads, len, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads} len={len}"
            );
        }
    }

    #[test]
    fn dynamic_for_covers_range_exactly_once() {
        for (threads, len, grain) in [
            (1usize, 10usize, 3usize),
            (4, 100, 7),
            (3, 5, 100),
            (2, 0, 1),
        ] {
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_dynamic(threads, len, grain, |r| {
                // chunked by `grain` at every thread count, one included
                assert!(r.len() <= grain);
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads} len={len} grain={grain}"
            );
        }
    }

    #[test]
    fn dynamic_init_covers_range_and_respects_grain() {
        for (threads, len, grain) in [
            (1usize, 10usize, 3usize),
            (4, 100, 7),
            (3, 5, 100),
            (2, 0, 1),
            (7, 64, 8),
        ] {
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let inits = AtomicUsize::new(0);
            let out = try_parallel_for_dynamic_init_ctl(
                threads,
                len,
                grain,
                None,
                |_tid| {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |state, r| {
                    // every chunk obeys the grain bound — the scratch-size
                    // guarantee the fused pipeline depends on
                    assert!(r.len() <= grain);
                    state.push(r.len());
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                },
            )
            .unwrap();
            assert_eq!(out, LoopOutcome::Completed);
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads} len={len} grain={grain}"
            );
            // at most one init per worker, and none when there is no work
            let bound = if len == 0 { 0 } else { threads.max(1) };
            assert!(inits.load(Ordering::Relaxed) <= bound);
        }
    }

    #[test]
    fn workers_can_borrow_stack_data() {
        let data = [1u64, 2, 3, 4];
        let sum = AtomicUsize::new(0);
        parallel_for(2, data.len(), |r| {
            let local: u64 = data[r].iter().sum();
            sum.fetch_add(local as usize, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn scheduler_grain_clamps_and_multiplies() {
        assert_eq!(scheduler_grain(64, 1), 64);
        assert_eq!(scheduler_grain(64, 4), 256);
        assert_eq!(scheduler_grain(0, 0), 1);
        assert_eq!(scheduler_grain(0, 3), 3);
        assert_eq!(scheduler_grain(usize::MAX, 2), usize::MAX);
    }

    #[test]
    fn pre_tripped_token_hands_out_no_chunks() {
        let token = crate::CancelToken::new();
        token.cancel_with_reason("pre-tripped");
        for threads in [1usize, 2, 7] {
            let ran = AtomicUsize::new(0);
            let out = try_parallel_for_dynamic_init_ctl(
                threads,
                64,
                8,
                Some(&token),
                |_tid| (),
                |_s, _r| {
                    ran.fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap();
            assert_eq!(out, LoopOutcome::Cancelled, "threads={threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "threads={threads}");
        }
    }

    #[test]
    fn init_ctl_single_thread_trip_is_chunk_granular() {
        // trip the token from inside chunk 1; with 1 thread the schedule is
        // deterministic: chunks 0 and 1 run, nothing after.
        let token = crate::CancelToken::new();
        let seen = Mutex::new(Vec::new());
        let out = try_parallel_for_dynamic_init_ctl(
            1,
            50,
            10,
            Some(&token),
            |_tid| (),
            |_s, r| {
                assert_eq!(r.len(), 10, "cancellation must not truncate a chunk");
                seen.lock().unwrap().push(r.start);
                if r.start == 10 {
                    token.cancel_with_reason("enough");
                }
            },
        )
        .unwrap();
        assert_eq!(out, LoopOutcome::Cancelled);
        assert_eq!(*seen.lock().unwrap(), vec![0, 10]);
    }

    #[test]
    fn panic_wins_over_cancellation() {
        let token = crate::CancelToken::new();
        let err = dynamic_ctl(2, 40, 4, Some(&token), |r| {
            if r.start == 0 {
                panic!("chunk zero exploded");
            }
        })
        .unwrap_err();
        assert!(err.message.contains("chunk zero exploded"));
    }

    #[test]
    fn trip_after_completion_reports_completed() {
        let token = crate::CancelToken::new();
        let out = dynamic_ctl(2, 16, 4, Some(&token), |_r| {}).unwrap();
        token.cancel();
        assert_eq!(out, LoopOutcome::Completed);
        assert!(out.is_complete());
    }
}
