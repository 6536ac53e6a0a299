//! `tiles_claimed` is pinned as deterministic (`ld-trace`'s
//! `deterministic_partition_is_fixed`): the number of chunks the dynamic
//! scheduler hands out is `⌈len / grain⌉`, whatever the team size. The
//! counter is process-global, so this test owns its binary.

use ld_parallel::try_for_each_part;
use ld_trace::Counter;

#[test]
fn tiles_claimed_does_not_depend_on_the_thread_count() {
    for threads in [1usize, 2, 7] {
        let before = ld_trace::get(Counter::TilesClaimed);
        try_for_each_part(threads, 8, 0..100usize, |_, _| {}).unwrap();
        let claimed = ld_trace::get(Counter::TilesClaimed) - before;
        assert_eq!(claimed, 13, "threads={threads}");
    }
}
