//! The one worker team: a dynamically-scheduled claim loop over
//! `std::thread::scope`, and the only place in the workspace's compute
//! stack that spawns a thread.
//!
//! Every worker runs inside a panic trap: the first panic is converted
//! into a typed [`WorkerPanic`] (payload message preserved), the remaining
//! workers drain via a cancellation flag, and the join always completes.
//! [`try_for_each_part`] is [`try_parallel_for_dynamic_init_ctl`] with no
//! per-worker state and no token, so the chunk schedule — and with it
//! `tiles_claimed` — is the same function of `(len, grain)` at every
//! thread count.

use crate::cancel::CancelToken;
use crate::panic::{lock_ignore_poison, PanicTrap, WorkerPanic};
use ld_trace::recorder::{Span, SpanKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Number of hardware threads available, with a floor of 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(index, part)` once per item of `parts` — typically disjoint
/// `&mut [T]` pieces of one output, such as the rows `ld_core`'s
/// `LdMatrix::rows_mut` splits a packed triangle into — with workers
/// claiming `grain` consecutive parts at a time on the dynamic scheduler
/// of [`try_parallel_for_dynamic_init_ctl`].
///
/// Each part is moved to the one worker that claims it, so the loop needs
/// no `unsafe`: the disjointness a raw-pointer fill would have to argue
/// is the borrow checker's, proved where the caller split its buffer.
/// The chunk schedule (and `tiles_claimed`) is the same function of
/// `(parts, grain)` at every thread count, and so is the index each part
/// is handed with. The first worker panic comes back as a
/// [`WorkerPanic`] once the team has drained.
///
/// ```
/// let mut out = vec![0usize; 10];
/// ld_parallel::try_for_each_part(2, 4, out.chunks_mut(3), |k, part| {
///     part.fill(k);
/// })
/// .unwrap();
/// assert_eq!(out, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
/// ```
pub fn try_for_each_part<P, F>(
    n_threads: usize,
    grain: usize,
    parts: impl IntoIterator<Item = P>,
    f: F,
) -> Result<(), WorkerPanic>
where
    P: Send,
    F: Fn(usize, P) + Sync,
{
    let grain = grain.max(1);
    let mut slots: Vec<Option<P>> = parts.into_iter().map(Some).collect();
    let len = slots.len();
    // One lock per claimable chunk: the scheduler hands chunk `c` (the
    // slots `c·grain ..`) to exactly one worker, so each lock is taken once.
    let chunks: Vec<Mutex<&mut [Option<P>]>> = slots.chunks_mut(grain).map(Mutex::new).collect();
    try_parallel_for_dynamic_init_ctl(
        n_threads,
        len,
        grain,
        None,
        |_| (),
        |(), range| {
            let mut chunk = lock_ignore_poison(&chunks[range.start / grain]);
            for (index, slot) in range.zip(chunk.iter_mut()) {
                if let Some(part) = slot.take() {
                    f(index, part);
                }
            }
        },
    )
    .map(|_| ())
}

/// Cancellable, panic-containing dynamically-scheduled loop with
/// **per-worker state**: each worker builds its state once with
/// `init(worker_id)`, then repeatedly grabs chunks of at most `grain`
/// consecutive indices and runs `f(&mut state, range)` on them.
///
/// This is the scheduler behind the LD slab driver: `init` allocates a
/// worker's bounded scratch slab exactly once, dynamic chunk-grabbing
/// absorbs the skew of triangular workloads without per-chunk allocation,
/// and a team of one runs the same claim loop on the calling thread —
/// callers rely on every `f` invocation seeing at most `grain` indices
/// (that bound is what caps the scratch size).
///
/// `token` is polled **before every chunk grab**, so
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
    let grain = grain.max(1);
    let n = n_threads.max(1).min(len.div_ceil(grain).max(1));
    if len == 0 {
        return Ok(LoopOutcome::Completed);
    }
    let next = AtomicUsize::new(0);
    let trap = PanicTrap::new();
    // Worker 0 is the calling thread: a team of one spawns nothing and
    // claims the chunks in order.
    let worker = |tid: usize| {
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
            ld_trace::worker_claim(tid);
            let end = (start + grain).min(len);
            let span = Span::begin(SpanKind::Chunk);
            let ok = trap.run(tid, || {
                // `state` is only touched by this worker; the
                // AssertUnwindSafe in `trap.run` is sound because a
                // panicking chunk cancels the whole loop (no state is
                // observed after a panic).
                let state = &mut state;
                f(state.get_or_insert_with(|| init(tid)), start..end);
            });
            span.end((start / grain) as u64);
            if !ok {
                break;
            }
        }
    };
    std::thread::scope(|s| {
        let worker = &worker;
        for tid in 1..n {
            s.spawn(move || worker(tid));
        }
        worker(0);
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
    fn team_zero_is_clamped_to_one() {
        let ran = AtomicUsize::new(0);
        let init = |tid| assert_eq!(tid, 0, "a team of zero is the caller alone");
        try_parallel_for_dynamic_init_ctl(0, 3, 1, None, init, |(), _| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    /// Runs [`try_for_each_part`] over the parts `0..len` and returns how
    /// often each was visited, checking every part arrives with its index.
    fn part_visits(threads: usize, grain: usize, len: usize) -> Vec<usize> {
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        try_for_each_part(threads, grain, 0..len, |index, part| {
            assert_eq!(index, part, "a part comes with its own index");
            hits[part].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        hits.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn static_for_covers_range_exactly_once() {
        // one chunk per worker: the shape of a static even split
        for (threads, len) in [(1usize, 10usize), (3, 10), (4, 3), (8, 100), (5, 0)] {
            let grain = len.div_ceil(threads);
            assert_eq!(
                part_visits(threads, grain, len),
                vec![1; len],
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
            assert_eq!(
                part_visits(threads, grain, len),
                vec![1; len],
                "threads={threads} len={len} grain={grain}"
            );
        }
    }

    #[test]
    fn for_each_part_visits_every_part_once() {
        for threads in [1usize, 2, 7] {
            for grain in [1usize, 4, 64] {
                for len in [0usize, 1, 100] {
                    assert_eq!(
                        part_visits(threads, grain, len),
                        vec![1; len],
                        "threads={threads} grain={grain} parts={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn for_each_part_returns_the_first_panic_after_draining() {
        for threads in [1usize, 2, 7] {
            for grain in [1usize, 4, 64] {
                let visited = AtomicUsize::new(0);
                let err = try_for_each_part(threads, grain, 0..100usize, |_, part| {
                    if part == 0 {
                        panic!("part {part} failed");
                    }
                    visited.fetch_add(1, Ordering::Relaxed);
                })
                .expect_err("part 0 always panics");
                assert_eq!(
                    err.message, "part 0 failed",
                    "threads={threads} grain={grain}"
                );
                // the join returned: every other worker stopped claiming
                // and finished what it held
                assert!(visited.load(Ordering::Relaxed) <= 99);
                if threads == 1 {
                    // one worker: nothing is claimed after the panic
                    assert_eq!(visited.load(Ordering::Relaxed), 0, "grain={grain}");
                }
            }
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
        try_for_each_part(2, 1, data.chunks(2), |_, part| {
            let local: u64 = part.iter().sum();
            sum.fetch_add(local as usize, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
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
