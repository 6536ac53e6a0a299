//! Partition edge cases and worker-panic containment regressions.
//!
//! The partition functions feed every parallel driver, so their degenerate
//! shapes (`len = 0`, more threads than items, `n = 0/1` triangles) must
//! produce exactly-covering, non-overlapping ranges. The panic tests pin
//! the containment contract across team sizes: the first panic becomes a
//! typed [`WorkerPanic`] (or, from the infallible forms, is re-raised after
//! the join), the remaining workers drain, and the join never hangs.

use ld_parallel::{
    even_ranges, parallel_for, run_team, triangle_row_ranges, try_parallel_for,
    try_parallel_for_dynamic_init_ctl, LoopOutcome, WorkerPanic,
};
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

/// A team whose worker panic comes back as the caught payload: `run_team`
/// re-raises it on the caller after every worker has been joined.
fn team_panic(team: usize, f: impl Fn(usize) + Sync) -> Box<dyn std::any::Any + Send> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_team(team, f)))
        .expect_err("a worker panics")
}

fn assert_exact_cover(ranges: &[std::ops::Range<usize>], len: usize) {
    let mut next = 0usize;
    for r in ranges {
        assert_eq!(r.start, next, "gap or overlap at {next} in {ranges:?}");
        assert!(r.end >= r.start, "negative range {r:?}");
        next = r.end;
    }
    assert_eq!(next, len, "ranges do not cover 0..{len}: {ranges:?}");
}

// ---------------------------------------------------------------------
// Partition edge cases
// ---------------------------------------------------------------------

#[test]
fn even_ranges_zero_length() {
    for parts in [1, 2, 7] {
        let r = even_ranges(0, parts);
        assert_exact_cover(&r, 0);
        assert!(
            r.iter().all(|r| r.is_empty()),
            "zero items must yield only empty ranges: {r:?}"
        );
    }
}

#[test]
fn even_ranges_more_threads_than_items() {
    let r = even_ranges(3, 8);
    assert_exact_cover(&r, 3);
    let nonempty = r.iter().filter(|r| !r.is_empty()).count();
    assert_eq!(nonempty, 3, "3 items across 8 parts: {r:?}");
}

#[test]
fn even_ranges_zero_parts_is_clamped() {
    let r = even_ranges(5, 0);
    assert_exact_cover(&r, 5);
}

#[test]
fn triangle_row_ranges_degenerate_n() {
    for parts in [1, 2, 7] {
        let r0 = triangle_row_ranges(0, parts);
        assert_exact_cover(&r0, 0);
        let r1 = triangle_row_ranges(1, parts);
        assert_exact_cover(&r1, 1);
        assert_eq!(
            r1.iter().filter(|r| !r.is_empty()).count(),
            1,
            "one row can be owned by exactly one part: {r1:?}"
        );
    }
}

#[test]
fn triangle_row_ranges_cover_for_many_shapes() {
    for n in [2, 3, 5, 17, 64, 101] {
        for parts in [1, 2, 3, 7, 16] {
            assert_exact_cover(&triangle_row_ranges(n, parts), n);
        }
    }
}

#[test]
fn parallel_for_zero_length_runs_and_returns() {
    let hits = AtomicUsize::new(0);
    parallel_for(4, 0, |r| {
        hits.fetch_add(r.len(), Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 0);
    try_parallel_for(4, 0, |_r| {}).expect("empty loop cannot panic");
    try_parallel_for_dynamic(4, 0, 8, |_r| {}).expect("empty dynamic loop");
}

#[test]
fn parallel_for_more_threads_than_items_visits_each_once() {
    let n = 3usize;
    let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    parallel_for(16, n, |r| {
        for i in r {
            counts[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "item {i} visited != once");
    }
}

// ---------------------------------------------------------------------
// WorkerPanic containment across team sizes
// ---------------------------------------------------------------------

#[test]
fn run_team_joins_then_reraises_panics_on_teams_of_1_2_and_7() {
    for team in [1usize, 2, 7] {
        let finished = AtomicUsize::new(0);
        let payload = team_panic(team, |tid| {
            if tid == team - 1 {
                panic!("worker {tid} of {team} failed");
            }
            finished.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(format!("worker {} of {team} failed", team - 1).as_str()),
            "payload must survive for team size {team}"
        );
        // every surviving worker ran to completion before the re-raise
        assert_eq!(finished.load(Ordering::Relaxed), team - 1);
    }
}

#[test]
fn parallel_for_contains_panics_on_teams_of_1_2_and_7() {
    for team in [1usize, 2, 7] {
        let err = try_parallel_for(team, 64, |r| {
            if r.contains(&13) {
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
    let err = try_parallel_for(2, 2, |r| {
        if r.contains(&0) {
            std::panic::panic_any(42usize);
        }
    })
    .expect_err("the range holding 0 panics with a non-string payload");
    assert!(
        !err.message.is_empty(),
        "non-string payloads still need a description"
    );
    // the infallible form hands the original payload back untouched
    let payload = team_panic(2, |tid| {
        if tid == 0 {
            std::panic::panic_any(42usize);
        }
    });
    assert_eq!(payload.downcast_ref::<usize>(), Some(&42));
}
