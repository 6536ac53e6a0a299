//! Loop edge cases and worker-panic containment regressions.
//!
//! The claim loop feeds every parallel driver, so its degenerate shapes
//! (no items, more threads than items) must visit every item exactly once.
//! The panic tests pin the containment contract across team sizes: the
//! first panic becomes a typed [`WorkerPanic`], the remaining workers
//! drain, and the join never hangs.

use ld_parallel::{try_for_each_part, try_parallel_for_dynamic_init_ctl, LoopOutcome, WorkerPanic};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The dynamic loop with no per-worker state and no token, panics
/// contained.
fn try_parallel_for_dynamic<F>(
    threads: usize,
    len: usize,
    grain: usize,
    f: F,
) -> Result<LoopOutcome, WorkerPanic>
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    try_parallel_for_dynamic_init_ctl(threads, len, grain, None, |_| (), |(), r| f(r))
}

// ---------------------------------------------------------------------
// Loop edge cases
// ---------------------------------------------------------------------

#[test]
fn parallel_for_zero_length_runs_and_returns() {
    let hits = AtomicUsize::new(0);
    try_for_each_part(4, 8, std::iter::empty::<&mut [u8]>(), |_, part| {
        hits.fetch_add(part.len() + 1, Ordering::Relaxed);
    })
    .expect("empty loop cannot panic");
    assert_eq!(hits.load(Ordering::Relaxed), 0);
    try_parallel_for_dynamic(4, 0, 8, |_r| {}).expect("empty dynamic loop");
}

#[test]
fn parallel_for_more_threads_than_items_visits_each_once() {
    let n = 3usize;
    let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    try_for_each_part(16, 1, &counts, |_, c| {
        c.fetch_add(1, Ordering::Relaxed);
    })
    .expect("no part panics");
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "item {i} visited != once");
    }
}

// ---------------------------------------------------------------------
// WorkerPanic containment across team sizes
// ---------------------------------------------------------------------

#[test]
fn parallel_for_contains_panics_on_teams_of_1_2_and_7() {
    for team in [1usize, 2, 7] {
        let err = try_for_each_part(team, 8, 0..64usize, |_, i| {
            if i == 13 {
                panic!("chunk holding 13 blew up");
            }
        })
        .expect_err("some chunk always holds item 13");
        assert_eq!(err.message, "chunk holding 13 blew up");
    }
}

#[test]
fn dynamic_loop_contains_panics_and_drains() {
    for team in [1usize, 2, 7] {
        let visited = AtomicUsize::new(0);
        let err = try_parallel_for_dynamic(team, 256, 8, |r| {
            if r.contains(&200) {
                panic!("dynamic chunk failed");
            }
            visited.fetch_add(r.len(), Ordering::Relaxed);
        })
        .expect_err("chunk holding 200 always panics");
        assert_eq!(err.message, "dynamic chunk failed");
        // survivors drained: every chunk either completed or was cancelled,
        // and the call returned (no hang) — visited is at most len - 8
        assert!(visited.load(Ordering::Relaxed) <= 256 - 8);
    }
}

#[test]
fn non_string_panic_payload_is_described() {
    let err = try_for_each_part(2, 1, 0..2usize, |_, i| {
        if i == 0 {
            std::panic::panic_any(42usize);
        }
    })
    .expect_err("the part 0 panics with a non-string payload");
    assert!(
        !err.message.is_empty(),
        "non-string payloads still need a description"
    );
}
