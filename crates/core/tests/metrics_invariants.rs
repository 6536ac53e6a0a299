//! Counter-invariant tests: the `ld-trace` counters are *correct*, not
//! just present.
//!
//! The deterministic counters (`kernel_tiles`, `kernel_words`,
//! `bytes_packed`, `slabs_emitted`, `tiles_claimed`) are predicted by an
//! independent re-implementation of the documented driver geometry
//! (DESIGN.md §8) and must match exactly:
//!
//! * `kernel_tiles` = the micro-tile grid covering the padded upper
//!   triangle (tile counted iff its row start is ≤ its column end, the
//!   `pc`-independent SYRK skip);
//! * `kernel_words == words_per_snp × kernel_tiles × MR × NR` — the skip
//!   decision never depends on the rank-k pass, so every distinct tile is
//!   swept over the full packed depth;
//! * `bytes_packed` = the Σ of `pack_panels` buffer sizes
//!   (`ceil(snps/R)·R·kc` words) over every (jc, pc[, ic]) block;
//! * `pairs_transformed` is every value the epilogue computed: `n(n+1)/2`
//!   on an all-pairs run, the staircase's `Σ (e(s) − s − 1)` on a
//!   thresholded `r²` run, `e` recomputed here from the frequency bound;
//! * all of the above are **identical across 1/2/7 threads** (the dynamic
//!   scheduler's chunks are grain-aligned, so the slab decomposition is
//!   thread-invariant) and — for slab heights that preserve micro-tile
//!   grid alignment — across slab sizes.

use ld_bitmat::BitMatrix;
use ld_core::{
    r2_keeps, Input, LdEngine, LdStats, MemoryBudget, MemoryTileStore, NanPolicy, RowSlabVisit,
    Rows, RunControl, Source,
};
use ld_kernels::micro::Kernel;
use ld_kernels::pack::packed_len;
use ld_kernels::{BlockSizes, KernelKind};
use ld_rng::SmallRng;
use ld_trace::Counter;
use std::sync::{Mutex, MutexGuard, OnceLock};

mod windows;

/// The ld-trace counters are process-global; tests that reset and read
/// them must not interleave. (Separate integration-test *files* are
/// separate processes — only this file needs the lock.)
fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn random_matrix(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = BitMatrix::zeros(n_samples, n_snps);
    for j in 0..n_snps {
        for s in 0..n_samples {
            if rng.gen_bool(0.3) {
                g.set(s, j, true);
            }
        }
    }
    g
}

/// What the deterministic counters must read after one fused
/// `try_stat_matrix` run.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    tiles: u64,
    words: u64,
    bytes_packed: u64,
    slabs: u64,
}

/// Independent model of the fused SYRK geometry: replays the documented
/// five-loop structure (jc/pc/ic/jr/ir with the two `i > j` skips) per
/// grain-aligned row slab and accumulates what the instrumentation is
/// specified to count. Deliberately *not* a call into ld-kernels — it
/// re-derives the numbers from DESIGN.md §8 so a driver bug cannot
/// self-certify.
fn expected_counters(n: usize, k_words: usize, slab: usize, kind: KernelKind) -> Expected {
    let kernel = Kernel::resolve(kind).expect("kernel must resolve");
    let (mr, nr) = (kernel.mr(), kernel.nr());
    let bs0 = BlockSizes::default();
    let (mut tiles, mut words, mut bytes) = (0u64, 0u64, 0u64);
    let slab = slab.max(1).min(n);
    let n_slabs = n.div_ceil(slab);
    for s in 0..n_slabs {
        let (r0, r1) = (s * slab, ((s + 1) * slab).min(n));
        let bs = bs0.clamped(r1 - r0, n - r0, k_words);
        let mut jc = r0;
        while jc < n {
            let ncur = bs.nc.min(n - jc);
            let mut pc = 0usize;
            while pc < k_words {
                let kcur = bs.kc.min(k_words - pc);
                bytes += (packed_len(ncur, kcur, nr) * 8) as u64;
                let mut ic = r0;
                while ic < r1 {
                    let mcur = bs.mc.min(r1 - ic);
                    if ic > jc + ncur - 1 {
                        ic += mcur;
                        continue;
                    }
                    bytes += (packed_len(mcur, kcur, mr) * 8) as u64;
                    let mut jr = 0usize;
                    while jr < ncur {
                        let nrcur = nr.min(ncur - jr);
                        let gj1 = jc + jr + nrcur - 1;
                        let mut ir = 0usize;
                        while ir < mcur {
                            let gi0 = ic + ir;
                            if gi0 <= gj1 {
                                if pc == 0 {
                                    tiles += 1;
                                }
                                words += (kcur * mr * nr) as u64;
                            }
                            ir += mr;
                        }
                        jr += nr;
                    }
                    ic += mcur;
                }
                pc += kcur;
            }
            jc += ncur;
        }
    }
    Expected {
        tiles,
        words,
        bytes_packed: bytes,
        slabs: n_slabs as u64,
    }
}

/// One instrumented fused run; returns the deterministic counters.
fn run_and_read(g: &BitMatrix, threads: usize, slab: usize) -> Expected {
    let engine = LdEngine::new()
        .threads(threads)
        .slab_rows(slab)
        .nan_policy(NanPolicy::Zero);
    ld_trace::reset();
    let _ = engine
        .try_stat_matrix(g, LdStats::RSquared)
        .expect("LD matrix");
    Expected {
        tiles: ld_trace::get(Counter::KernelTiles),
        words: ld_trace::get(Counter::KernelWords),
        bytes_packed: ld_trace::get(Counter::BytesPacked),
        slabs: ld_trace::get(Counter::SlabsEmitted),
    }
}

#[test]
fn counters_match_the_geometry_model() {
    let _l = counter_lock();
    // (n_snps, n_samples) chosen to hit fringe tiles, multi-word columns,
    // and a sub-word column; slabs include non-divisors of n.
    for &(n, k) in &[(97usize, 130usize), (256, 64), (33, 1000), (64, 63)] {
        let g = random_matrix(k, n, (n as u64) << 32 | k as u64);
        let k_words = g.full_view().words_per_snp();
        for &slab in &[16usize, 64, 1000] {
            let got = run_and_read(&g, 1, slab);
            let want = expected_counters(n, k_words, slab, KernelKind::Auto);
            assert_eq!(got, want, "n={n} k={k} slab={slab}");
        }
    }
}

#[test]
fn tiles_cover_the_padded_triangle_and_words_are_tiles_times_depth() {
    let _l = counter_lock();
    let (n, k) = (129usize, 150usize);
    let g = random_matrix(k, n, 0xDEC0DE);
    let k_words = g.full_view().words_per_snp();
    let kernel = Kernel::resolve(KernelKind::Auto).unwrap();
    let (mr, nr) = (kernel.mr(), kernel.nr());
    let got = run_and_read(&g, 1, n); // one slab: the pure triangle case
                                      // Exact padded-triangle tile count: column tiles at multiples of NR;
                                      // each keeps every row tile whose start is ≤ its (clipped) last column.
    let mut grid_tiles = 0u64;
    let mut j0 = 0usize;
    while j0 < n {
        let j1 = (j0 + nr).min(n) - 1;
        grid_tiles += (j1 / mr + 1).min(n.div_ceil(mr)) as u64;
        j0 += nr;
    }
    assert_eq!(got.tiles, grid_tiles, "tiles != padded-triangle tile grid");
    // Coverage: the padded tile area must dominate the true triangle and
    // never exceed it by more than one fringe ring.
    let area = got.tiles * (mr * nr) as u64;
    let triangle = (n * (n + 1) / 2) as u64;
    assert!(area >= triangle, "tile area {area} < triangle {triangle}");
    let padded_bound = ((n + mr) * (n + nr)) as u64;
    assert!(
        area <= padded_bound,
        "tile area {area} > bound {padded_bound}"
    );
    // The SYRK skip is pc-independent, so every distinct tile is swept
    // over the full packed depth: words == words_per_snp × pair-ops.
    assert_eq!(got.words, got.tiles * (mr * nr * k_words) as u64);
}

#[test]
fn counters_are_thread_invariant() {
    let _l = counter_lock();
    let (n, k) = (201usize, 333usize);
    let g = random_matrix(k, n, 0x7EAD);
    let slab = 32usize;
    let base = run_and_read(&g, 1, slab);
    // Claimed chunks must equal emitted slabs (every chunk is claimed
    // exactly once), regardless of which worker got which.
    ld_trace::reset();
    for &threads in &[1usize, 2, 7] {
        let engine = LdEngine::new()
            .threads(threads)
            .slab_rows(slab)
            .nan_policy(NanPolicy::Zero);
        ld_trace::reset();
        let _ = engine
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        let got = Expected {
            tiles: ld_trace::get(Counter::KernelTiles),
            words: ld_trace::get(Counter::KernelWords),
            bytes_packed: ld_trace::get(Counter::BytesPacked),
            slabs: ld_trace::get(Counter::SlabsEmitted),
        };
        assert_eq!(got, base, "threads={threads}");
        assert_eq!(
            ld_trace::get(Counter::TilesClaimed),
            base.slabs,
            "claims != slabs at threads={threads}"
        );
        assert_eq!(ld_trace::get(Counter::BudgetShrinks), 0);
    }
}

#[test]
fn tile_counters_are_slab_invariant_on_aligned_grids() {
    let _l = counter_lock();
    // Slab heights that are multiples of 64 keep the micro-tile grid
    // globally aligned for every MR/NR in the kernel family (all divide
    // 64), so the distinct-tile set — and hence tiles and words — cannot
    // depend on the slab decomposition. (`bytes_packed` legitimately
    // varies: pack-panel widths follow the per-slab column window.)
    let (n, k) = (256usize, 100usize);
    let g = random_matrix(k, n, 0x51AB);
    let base = run_and_read(&g, 1, 64);
    for &slab in &[128usize, 256] {
        let got = run_and_read(&g, 1, slab);
        assert_eq!(got.tiles, base.tiles, "slab={slab}");
        assert_eq!(got.words, base.words, "slab={slab}");
    }
}

#[test]
fn two_pass_driver_hits_the_same_tile_geometry() {
    let _l = counter_lock();
    // The two-pass oracle computes the same triangle in one full-height
    // slab; its tile/word counters must equal the fused run at slab = n.
    let (n, k) = (100usize, 80usize);
    let g = random_matrix(k, n, 0x2FA55);
    let fused = run_and_read(&g, 1, n);
    let engine = LdEngine::new().threads(1).nan_policy(NanPolicy::Zero);
    ld_trace::reset();
    let _ = engine.stat_matrix_twopass(&g, LdStats::RSquared);
    assert_eq!(ld_trace::get(Counter::KernelTiles), fused.tiles);
    assert_eq!(ld_trace::get(Counter::KernelWords), fused.words);
}

#[test]
fn cancel_polls_are_exactly_slab_granular() {
    let _l = counter_lock();
    // The token/deadline poll sits once per computed row slab — never in
    // the tile loops — so `cancel_polls` must equal `slabs_emitted` on
    // every run, token-carrying or not, at any thread count.
    let (n, k) = (157usize, 210usize);
    let g = random_matrix(k, n, 0xCA9CE1);
    for &slab in &[16usize, 64] {
        let n_slabs = n.div_ceil(slab) as u64;
        for &threads in &[1usize, 2, 7] {
            let engine = LdEngine::new()
                .threads(threads)
                .slab_rows(slab)
                .nan_policy(NanPolicy::Zero);
            ld_trace::reset();
            let _ = engine
                .try_stat_matrix(&g, LdStats::RSquared)
                .expect("LD matrix");
            let polls = ld_trace::get(Counter::CancelPolls);
            let slabs = ld_trace::get(Counter::SlabsEmitted);
            assert_eq!(polls, slabs, "slab={slab} threads={threads}");
            assert_eq!(polls, n_slabs, "slab={slab} threads={threads}");
            assert_eq!(ld_trace::get(Counter::ResumeSlabsSkipped), 0);
        }
    }
}

#[test]
fn resumed_slabs_skip_the_poll_and_the_counters_balance() {
    use ld_core::{CheckpointPlan, MemorySink, RunControl};
    let _l = counter_lock();
    // A resumed run replays recorded slabs without polling, so
    // `resume_slabs_skipped + cancel_polls == total slabs` and the two
    // runs together account for every slab exactly once.
    let (n, k, slab) = (96usize, 120usize, 16usize);
    let n_slabs = (n.div_ceil(slab)) as u64;
    let g = random_matrix(k, n, 0x0E5C0E5);
    let engine = LdEngine::new()
        .threads(2)
        .slab_rows(slab)
        .nan_policy(NanPolicy::Zero);

    // Full checkpointed run: every slab computed (and polled) once, at
    // least one snapshot flushed.
    let sink = MemorySink::new();
    ld_trace::reset();
    {
        let plan = CheckpointPlan::new(&sink).every_slabs(1);
        let ctl = RunControl::new().with_checkpoint(plan);
        engine
            .try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
            .expect("checkpointed run must succeed");
    }
    assert_eq!(ld_trace::get(Counter::CancelPolls), n_slabs);
    assert_eq!(ld_trace::get(Counter::SlabsEmitted), n_slabs);
    assert!(ld_trace::get(Counter::CheckpointsWritten) >= 1);
    let state = sink.latest().expect("snapshot must exist");
    let state = ld_core::CheckpointState::from_bytes(&state).expect("snapshot must parse");
    assert_eq!(state.records.len() as u64, n_slabs);

    // Resume from the complete snapshot: zero computed slabs, zero polls,
    // every slab accounted for by the skip counter.
    ld_trace::reset();
    {
        let sink2 = MemorySink::new();
        let plan = CheckpointPlan::new(&sink2)
            .every_slabs(usize::MAX)
            .resume_from(state);
        let ctl = RunControl::new().with_checkpoint(plan);
        engine
            .try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
            .expect("resumed run must succeed");
    }
    let polls = ld_trace::get(Counter::CancelPolls);
    let skipped = ld_trace::get(Counter::ResumeSlabsSkipped);
    assert_eq!(skipped, n_slabs);
    assert_eq!(polls + skipped, n_slabs);
    assert_eq!(ld_trace::get(Counter::SlabsEmitted), 0);
}

/// A windowed store run's work does not depend on the thread count: on a
/// budget between the smallest windows and the one window — the price of
/// nine-slab row windows by one-chunk column windows at each thread
/// count, where the window model fits the same windows at 1, 2 and 7
/// threads — `tiles_claimed`, `kernel_words` and `pairs_transformed` are
/// equal across thread counts, and `chunks_read` and `store_bytes_read`
/// equal the model's closed form. (A scratch copy that reads each column
/// window twice fails the closed form.)
#[test]
fn windowed_store_work_is_thread_invariant() {
    let _l = counter_lock();
    let (n, slab, chunk) = (61usize, 4usize, 5usize);
    let g = random_matrix(130, n, 0x3D0C);
    let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
    let meta = ld_core::TileSource::meta(&store).clone();
    let oracle = LdEngine::new()
        .try_stat_matrix(&g, LdStats::RSquared)
        .unwrap();
    let rows = 9usize;
    let mut base = None;
    for threads in [1usize, 2, 7] {
        let shape = windows::Geometry {
            slab,
            rows,
            cols: 1,
        };
        let budget = windows::price(&meta, threads, true, n, shape);
        assert!(budget < windows::price(&meta, threads, true, n, windows::Geometry::one(slab)));
        assert_eq!(
            windows::fitted(&meta, threads, true, n, Some(budget), slab),
            shape,
            "t{threads}"
        );
        let e = LdEngine::new()
            .threads(threads)
            .slab_rows(slab)
            .nan_policy(NanPolicy::Zero)
            .memory_budget(MemoryBudget::bytes(budget));
        ld_trace::reset();
        let got = e
            .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &RunControl::new())
            .unwrap();
        for (a, b) in oracle.packed().iter().zip(got.packed()) {
            assert_eq!(a.to_bits(), b.to_bits(), "t{threads}");
        }
        let read = windows::chunks_read(n, chunk, slab, n, rows, 0..n.div_ceil(slab), |_| true);
        assert_eq!(
            ld_trace::get(Counter::ChunksRead),
            read.len() as u64,
            "t{threads}"
        );
        assert_eq!(
            ld_trace::get(Counter::StoreBytesRead),
            windows::bytes_read(&meta, &read),
            "t{threads}"
        );
        assert_eq!(
            ld_trace::get(Counter::PairsTransformed),
            (n * (n + 1) / 2) as u64,
            "t{threads}"
        );
        let work = [
            ld_trace::get(Counter::TilesClaimed),
            ld_trace::get(Counter::KernelWords),
        ];
        assert_eq!(*base.get_or_insert(work), work, "t{threads}");
    }
}

/// `budget_shrinks` counts runs whose slab the budget shrank, once per
/// run: the planners (`slab_for`, `shard_plan_from`) count nothing, so a
/// shard process that plans and then runs reads 1, not 2.
#[test]
fn budget_shrinks_counts_runs_not_plans() {
    let _l = counter_lock();
    let n = 200usize;
    let g = random_matrix(64, n, 0x5B1B);
    let src = Source::from(&g);
    // the packed triangle, the tables and about 16 rows of u32 scratch
    let budget = MemoryBudget::bytes(8 * n * (n + 1) / 2 + 20 * n + 16 * 4 * n);
    let e = LdEngine::new()
        .threads(1)
        .slab_rows(64)
        .nan_policy(NanPolicy::Zero)
        .memory_budget(budget);
    ld_trace::reset();
    let slab = e.slab_for(&src, true).unwrap();
    assert!(slab < 64, "the budget must bind (slab {slab})");
    let plan = e.shard_plan_from(&src, 3).unwrap();
    assert_eq!(ld_trace::get(Counter::BudgetShrinks), 0, "planning");
    let ctl = RunControl::new().with_shard(plan[0]);
    e.try_stat_shard_with(&g, LdStats::RSquared, &ctl).unwrap();
    assert_eq!(ld_trace::get(Counter::BudgetShrinks), 1, "one shard run");
}

/// Sites of spread-out frequencies, so the frequency bound prunes.
fn spread_panel(n_samples: usize, n: usize) -> BitMatrix {
    let mut rng = SmallRng::seed_from_u64(0x57A1);
    let mut g = BitMatrix::zeros(n_samples, n);
    for j in 0..n {
        let density = rng.gen_range(0.0f64..0.5);
        for s in 0..n_samples {
            if rng.gen_bool(density) {
                g.set(s, j, true);
            }
        }
    }
    g
}

/// The staircase of `r² ≥ t` over `g` recomputed from exact integer
/// bounds: each sorted row's reach `e(s)` (one past its last column).
/// No bound may lie near the threshold, so the plan's margin decides
/// nothing.
fn stair_ends(g: &BitMatrix, t: f64) -> Vec<usize> {
    let (n, big_n) = (g.n_snps(), g.n_samples() as u64);
    let mut minor: Vec<u64> = (0..n)
        .map(|j| g.ones_in_snp(j).min(big_n - g.ones_in_snp(j)))
        .collect();
    minor.sort_unstable();
    let mut ends = vec![0; n];
    for (s, &a) in minor.iter().enumerate() {
        ends[s] = s + 1;
        for &b in &minor[s + 1..] {
            let bound = if a == 0 {
                0.0
            } else {
                (a * (big_n - b)) as f64 / (b * (big_n - a)) as f64
            };
            assert!((bound - t).abs() > 1e-6, "a bound sits on the threshold");
            ends[s] += usize::from(bound >= t);
        }
    }
    ends
}

/// `pairs_transformed` is the work ledger of the epilogue: `n(n+1)/2` on
/// an unpruned run, and on a staircase run the pairs the frequency bound
/// lets through, `Σ_s (e(s) − s − 1)` with `e` recomputed here from exact
/// integer bounds (no bound lies near the threshold, so the plan's margin
/// decides nothing) — at 1, 2 and 7 threads, with `kernel_words` equal
/// across them and below the unpruned run's. A staircase one column wider
/// anywhere reads more.
#[test]
fn pairs_transformed_follows_the_staircase() {
    let _l = counter_lock();
    let (n, n_samples, t) = (300usize, 256usize, 0.5f64);
    let g = spread_panel(n_samples, n);
    let ends = stair_ends(&g, t);
    let stair: usize = ends.iter().enumerate().map(|(s, &e)| e - s - 1).sum();
    assert!(
        stair > 0 && stair < n * (n - 1) / 4,
        "the staircase must prune: {stair}"
    );
    let mut dense_words = Vec::new();
    let mut stair_words = Vec::new();
    for threads in [1usize, 2, 7] {
        let e = LdEngine::new()
            .threads(threads)
            .slab_rows(16)
            .nan_policy(NanPolicy::Zero);
        ld_trace::reset();
        e.try_stat_rows_with(
            &g,
            LdStats::RSquared,
            |_: &RowSlabVisit<'_>| {},
            &RunControl::new(),
        )
        .unwrap();
        assert_eq!(
            ld_trace::get(Counter::PairsTransformed),
            (n * (n + 1) / 2) as u64
        );
        dense_words.push(ld_trace::get(Counter::KernelWords));
        ld_trace::reset();
        r2_rows(&e, Input::Panel(g.clone()), t);
        assert_eq!(
            ld_trace::get(Counter::PairsTransformed),
            stair as u64,
            "t{threads}"
        );
        stair_words.push(ld_trace::get(Counter::KernelWords));
    }
    assert!(
        dense_words.windows(2).all(|w| w[0] == w[1]),
        "{dense_words:?}"
    );
    assert!(
        stair_words.windows(2).all(|w| w[0] == w[1]),
        "{stair_words:?}"
    );
    assert!(
        stair_words[0] < dense_words[0],
        "{stair_words:?} vs {dense_words:?}"
    );
}

/// A staircase run's modeled peak (`alloc_peak_bytes`) is its closed form,
/// with `e` recomputed from the frequency bound: per site 20 bytes of
/// tables, 24 of plan (`order`, `ends`, the first bitset word of each row
/// and one past the last) and 24 of hand-off (inverse order, one row of
/// columns and values), plus 8; 8 per bitset word (`Σ ⌈(e(s) − s −
/// 1)/64⌉`) and per word of the hand-off's three one-bit-per-site maps; one
/// f64 row of `strip` per worker, and per slab row `threads × strip` u32
/// counts — `strip` the widest slab's `e(r0 + slab − 1) − r0`. From a
/// store its budget holds whole, add the panel and one chunk load: the
/// store is read once (`chunks_read` = its chunks) and the staircase runs
/// on it (`pairs_transformed` = the memory run's). At 1, 2 and 7 threads.
#[test]
fn staircase_peak_is_its_closed_form() {
    let _l = counter_lock();
    let (n, n_samples, t, slab, chunk) = (300usize, 256usize, 0.5f64, 16usize, 64usize);
    let g = spread_panel(n_samples, n);
    let ends = stair_ends(&g, t);
    let stair: usize = ends.iter().enumerate().map(|(s, &e)| e - s - 1).sum();
    let words: usize = ends
        .iter()
        .enumerate()
        .map(|(s, &e)| (e - s - 1).div_ceil(64))
        .sum();
    let strip = (0..n)
        .map(|r0| ends[(r0 + slab).min(n) - 1] - r0)
        .max()
        .unwrap();
    let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
    let meta = ld_core::TileSource::meta(&store).clone();
    let held = n * meta.words_per_snp * 8 + meta.chunk_bytes(0);
    for threads in [1usize, 2, 7] {
        let fixed = 68 * n + 8 + 8 * (words + 3 * n.div_ceil(64)) + 8 * threads * strip;
        let closed = (fixed + 4 * threads * strip * slab) as u64;
        let e = LdEngine::new()
            .threads(threads)
            .slab_rows(slab)
            .nan_policy(NanPolicy::Zero);
        ld_trace::reset();
        r2_rows(&e, Input::Panel(g.clone()), t);
        assert_eq!(
            ld_trace::get(Counter::AllocPeakBytes),
            closed,
            "memory t{threads}"
        );
        assert_eq!(ld_trace::get(Counter::PairsTransformed), stair as u64);

        let e = e.memory_budget(MemoryBudget::mib(16));
        ld_trace::reset();
        r2_rows(&e, Input::Store(&store), t);
        let store_closed = closed + held as u64;
        assert_eq!(
            ld_trace::get(Counter::AllocPeakBytes),
            store_closed,
            "store t{threads}"
        );
        assert_eq!(ld_trace::get(Counter::ChunksRead), meta.n_chunks() as u64);
        assert_eq!(ld_trace::get(Counter::PairsTransformed), stair as u64);
    }
}

/// The pairs `(i, j, r²)` a thresholded `r²` run of the one row verb
/// hands over, in the order it hands them over.
fn r2_rows(e: &LdEngine, input: Input<'_>, t: f64) -> Vec<(usize, usize, f64)> {
    let mut kept = Vec::new();
    let make = |rows: &Rows<'_>| -> Vec<_> { rows.pairs().filter(|p| r2_keeps(p.2, t)).collect() };
    let deliver = |part: Vec<_>| kept.extend(part);
    e.try_rows_in_order_with(
        input,
        LdStats::RSquared,
        t,
        make,
        deliver,
        &RunControl::new(),
    )
    .unwrap();
    kept
}

/// A thresholded `r²` run from a store reads it once into memory exactly
/// when the window model takes the one window: at the one-window price of
/// the row sink it reads every chunk once and runs the staircase there;
/// one byte below, where the model reads windows, at one byte over the
/// smallest windows' price and with no budget it reads the windows'
/// chunks (their closed form) and keeps the dense grid. Every run hands
/// over the memory run's pairs, bit for bit.
#[test]
fn resident_read_is_the_one_window_decision() {
    let _l = counter_lock();
    let (n, slab, chunk, t) = (200usize, 16usize, 20usize, 0.5f64);
    let g = spread_panel(2048, n);
    let ends = stair_ends(&g, t);
    let stair: usize = ends.iter().enumerate().map(|(s, &e)| e - s - 1).sum();
    let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
    let meta = ld_core::TileSource::meta(&store).clone();
    let bits = |p: &[(usize, usize, f64)]| -> Vec<(usize, usize, u64)> {
        p.iter().map(|&(i, j, v)| (i, j, v.to_bits())).collect()
    };
    let want_pairs = bits(&r2_rows(&LdEngine::new(), Input::Panel(g.clone()), t));
    for threads in [1usize, 2, 7] {
        let one = windows::price(&meta, threads, false, n, windows::Geometry::one(slab));
        let smallest = windows::Geometry {
            slab,
            rows: threads,
            cols: 1,
        };
        let small = windows::price(&meta, threads, false, n, smallest);
        let below = windows::fitted(&meta, threads, false, n, Some(one - 1), slab);
        assert_ne!(
            below.rows,
            windows::ONE,
            "t{threads}: one byte below must read windows"
        );
        for budget in [None, Some(one), Some(one - 1), Some(small + 1)] {
            let mut e = LdEngine::new().threads(threads).slab_rows(slab);
            if let Some(b) = budget {
                e = e.memory_budget(MemoryBudget::bytes(b));
            }
            let fitted = windows::fitted(&meta, threads, false, n, budget, slab);
            ld_trace::reset();
            let got = r2_rows(&e, Input::Store(&store), t);
            let want = budget.is_some() && fitted.rows == windows::ONE;
            let (reads, transformed) = match want {
                true => (meta.n_chunks(), stair),
                false => {
                    let slabs = 0..n.div_ceil(slab);
                    let read =
                        windows::chunks_read(n, chunk, slab, n, fitted.rows, slabs, |_| true);
                    assert!(
                        read.len() > meta.n_chunks(),
                        "t{threads} {budget:?}: {fitted:?}"
                    );
                    (read.len(), n * (n + 1) / 2)
                }
            };
            assert_eq!(
                ld_trace::get(Counter::ChunksRead),
                reads as u64,
                "t{threads} {budget:?}"
            );
            assert_eq!(
                ld_trace::get(Counter::PairsTransformed),
                transformed as u64,
                "t{threads} {budget:?}"
            );
            assert_eq!(bits(&got), want_pairs, "t{threads} {budget:?}");
        }
    }
}
