//! Kill/resume for the out-of-core driver, with chunk-read accounting.
//!
//! The contract: a store run cancelled at **any** slab boundary,
//! checkpointed and resumed is bit-identical to an uninterrupted run —
//! *and the resume does not re-read the chunks of completed slabs*. The
//! second half is what makes resumption worth having for a multi-hour
//! out-of-core scan, and it is asserted directly through the
//! `chunks_read` / `resume_slabs_skipped` counters against the window
//! model's closed form (`windows::chunks_read`, DESIGN.md §13).
//!
//! Every test takes one file-wide lock: the counters are process-global,
//! and this file owns the only out-of-core runs in its process, so the
//! deltas observed under the lock are exact.

use ld_bitmat::BitMatrix;
use ld_core::{
    CancelToken, CheckpointPlan, CheckpointSink, CheckpointState, LdEngine, LdError, LdStats,
    MemoryBudget, MemorySink, MemoryTileStore, NanPolicy, RunControl, SlabRange, Source,
    TileStoreMeta,
};
use ld_rng::SmallRng;
use ld_trace::Counter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

mod windows;

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

/// Trips a token after its `k`-th successful write — "the process was
/// killed after k slabs were persisted".
struct TrippingSink {
    inner: MemorySink,
    token: CancelToken,
    trip_after: usize,
    writes: AtomicUsize,
}

impl TrippingSink {
    fn new(token: &CancelToken, trip_after: usize) -> Self {
        Self {
            inner: MemorySink::new(),
            token: token.clone(),
            trip_after,
            writes: AtomicUsize::new(0),
        }
    }
}

impl CheckpointSink for TrippingSink {
    fn write_checkpoint(&self, bytes: &[u8]) -> Result<(), String> {
        self.inner.write_checkpoint(bytes)?;
        if self.writes.fetch_add(1, Ordering::SeqCst) + 1 >= self.trip_after {
            self.token.cancel_with_reason("test kill");
        }
        Ok(())
    }
}

/// Chunk reads of an unsharded store run whose row windows are `rows`
/// slabs, over the pending slabs (the window model's closed form).
fn expected_chunk_reads(
    n: usize,
    slab: usize,
    chunk: usize,
    band: usize,
    rows: usize,
    pending: impl Fn(usize) -> bool,
) -> u64 {
    windows::chunks_read(n, chunk, slab, band, rows, 0..n.div_ceil(slab), pending).len() as u64
}

/// Cancel after every possible number of persisted slabs, resume, and
/// require a bit-identical triangle and a resume that read exactly the
/// pending slabs' windows — with no budget (`threads` slabs by one chunk)
/// and, on a store with room for windows of more than seven slabs, with a
/// budget one byte below the one-window price, at threads 1/2/7. One
/// worker trips exactly after `k` slabs, having read exactly the windows
/// it started; more workers may complete more slabs first.
#[test]
fn outofcore_resume_is_bit_identical_and_skips_completed_chunks() {
    let _l = counter_lock();
    let threads = [1usize, 2, 7];
    for (n, slab, chunk, budgeted) in [(37usize, 5usize, 4usize, false), (61, 4, 5, true)] {
        let n_slabs = n.div_ceil(slab);
        let g = random_matrix(64, n, 0x000c_5eed);
        let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
        let meta = ld_core::TileSource::meta(&store).clone();
        for k in 1..n_slabs {
            let t = threads[k % threads.len()];
            let budget = budgeted.then(|| resident_price(&meta, t, slab, true) - 1);
            let e = LdEngine::new()
                .threads(t)
                .slab_rows(slab)
                .nan_policy(NanPolicy::Zero);
            let e = match budget {
                Some(b) => e.memory_budget(MemoryBudget::bytes(b)),
                None => e,
            };
            let w = windows::fitted(&meta, t, true, n, budget, slab);
            assert_eq!(w.slab, slab);
            assert_ne!(w.rows, windows::ONE, "below the one-window price");
            let what = format!("n{n} k{k} t{t} {w:?}");
            let oracle = e.try_stat_matrix(&g, LdStats::RSquared).unwrap();

            // Phase 1: checkpoint every slab; the sink kills the run after
            // k writes.
            let token = CancelToken::new();
            let sink = TrippingSink::new(&token, k);
            let ctl = RunControl::new()
                .with_token(&token)
                .with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
            ld_trace::reset();
            let first = e.try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl);
            // one poll per computed slab, always followed by the compute
            assert_eq!(
                ld_trace::get(Counter::CancelPolls),
                ld_trace::get(Counter::SlabsEmitted),
                "{what}"
            );
            match first {
                Err(LdError::Cancelled {
                    reason,
                    completed_slabs,
                }) if t == 1 => {
                    assert_eq!(reason, "test kill", "{what}");
                    assert_eq!(completed_slabs, k, "{what}: one worker is exact");
                    // every row window up to the one holding slab k − 1
                    let started = |s: usize| s / w.rows <= (k - 1) / w.rows;
                    assert_eq!(
                        ld_trace::get(Counter::ChunksRead),
                        expected_chunk_reads(n, slab, chunk, n, w.rows, started),
                        "{what}: an interrupted run reads the windows it started"
                    );
                }
                Err(LdError::Cancelled {
                    completed_slabs, ..
                }) => assert!(completed_slabs >= k, "{what}: {completed_slabs}"),
                // slabs already claimed when the token trips still
                // complete, so several workers may finish the run
                Ok(m) if t > 1 => {
                    assert_bits(&oracle, &m, &format!("{what} uninterrupted"));
                    continue;
                }
                other => panic!("{what}: expected cancellation, got {other:?}"),
            }
            let bytes = sink.inner.latest().expect("final flush");
            let state = CheckpointState::from_bytes(&bytes).expect("snapshot parses");
            let done: Vec<usize> = state.records.iter().map(|r| r.index as usize).collect();

            // Phase 2: resume to completion; only the pending slabs'
            // windows may be read.
            let replay = MemorySink::new();
            let ctl = RunControl::new().with_checkpoint(
                CheckpointPlan::new(&replay)
                    .every_slabs(usize::MAX)
                    .resume_from(state),
            );
            ld_trace::reset();
            let resumed = e
                .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
                .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
            assert_eq!(
                ld_trace::get(Counter::ResumeSlabsSkipped),
                done.len() as u64,
                "{what}"
            );
            assert_eq!(
                ld_trace::get(Counter::SlabsEmitted),
                (n_slabs - done.len()) as u64,
                "{what}"
            );
            let pending = |s: usize| !done.contains(&s);
            let read = windows::chunks_read(n, chunk, slab, n, w.rows, 0..n_slabs, pending);
            assert_eq!(
                ld_trace::get(Counter::ChunksRead),
                read.len() as u64,
                "{what}: resume reads exactly the pending slabs' windows"
            );
            assert_eq!(
                ld_trace::get(Counter::StoreBytesRead),
                windows::bytes_read(&meta, &read),
                "{what}"
            );
            let full = expected_chunk_reads(n, slab, chunk, n, w.rows, |_| true);
            if t == 1 {
                assert!(
                    (read.len() as u64) < full,
                    "{what}: resume must read strictly fewer chunks ({} vs {full})",
                    read.len()
                );
            }
            assert_bits(&oracle, &resumed, &what);
        }
    }
}

/// Resuming from a complete snapshot touches the store not at all.
#[test]
fn resume_from_complete_snapshot_reads_zero_chunks() {
    let _l = counter_lock();
    let (n, slab, chunk) = (24usize, 4usize, 5usize);
    let g = random_matrix(40, n, 0xf0_11);
    let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
    let e = LdEngine::new().threads(2).slab_rows(slab);
    let sink = MemorySink::new();
    let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
    let first = e
        .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
        .unwrap();
    let state = CheckpointState::from_bytes(&sink.latest().unwrap()).unwrap();
    assert_eq!(state.records.len(), n.div_ceil(slab));
    let replay = MemorySink::new();
    let ctl = RunControl::new().with_checkpoint(
        CheckpointPlan::new(&replay)
            .every_slabs(usize::MAX)
            .resume_from(state),
    );
    ld_trace::reset();
    let resumed = e
        .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
        .unwrap();
    assert_eq!(ld_trace::get(Counter::ChunksRead), 0);
    assert_eq!(ld_trace::get(Counter::StoreBytesRead), 0);
    assert_eq!(ld_trace::get(Counter::SlabsEmitted), 0);
    assert_eq!(ld_trace::get(Counter::CancelPolls), 0);
    assert_eq!(
        ld_trace::get(Counter::ResumeSlabsSkipped),
        n.div_ceil(slab) as u64
    );
    for (a, b) in first.packed().iter().zip(resumed.packed()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// The deterministic read accounting of a fresh unbudgeted run — row
/// windows of `threads` slabs, column windows of one chunk: `chunks_read`
/// and `store_bytes_read` match the window model's closed form exactly,
/// for several geometries and thread counts.
#[test]
fn fresh_run_chunk_reads_match_the_documented_model() {
    let _l = counter_lock();
    for &(n, slab, chunk) in &[
        (37usize, 5usize, 4usize),
        (20, 20, 3),
        (16, 1, 16),
        (9, 2, 1),
    ] {
        let g = random_matrix(33, n, (n * 31 + slab * 7 + chunk) as u64);
        let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
        let meta = ld_core::TileSource::meta(&store).clone();
        for threads in [1usize, 2, 7] {
            let e = LdEngine::new().threads(threads).slab_rows(slab);
            ld_trace::reset();
            e.try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &RunControl::new())
                .unwrap();
            let read =
                windows::chunks_read(n, chunk, slab, n, threads, 0..n.div_ceil(slab), |_| true);
            let what = format!("n={n} slab={slab} chunk={chunk} t{threads}");
            assert_eq!(
                ld_trace::get(Counter::ChunksRead),
                read.len() as u64,
                "{what}"
            );
            assert_eq!(
                ld_trace::get(Counter::StoreBytesRead),
                windows::bytes_read(&meta, &read),
                "{what}"
            );
        }
    }
}

/// A column band bounds the windows: a store-backed banded run reads, per
/// row window, the chunks from its first row's to the one holding column
/// `r1 + w − 1` of its last slab — and nothing to the right of the band.
#[test]
fn banded_run_chunk_reads_stop_at_the_band() {
    let _l = counter_lock();
    for &(n, slab, chunk, w) in &[
        (37usize, 5usize, 4usize, 3usize),
        (37, 5, 4, 0),
        (37, 5, 4, 36),
        (37, 5, 4, 100),
        (64, 8, 16, 1),
        (20, 20, 3, 2),
        (9, 2, 1, 4),
    ] {
        let g = random_matrix(33, n, (n * 31 + slab * 7 + chunk + w) as u64);
        let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
        let e = LdEngine::new().threads(2).slab_rows(slab);
        ld_trace::reset();
        e.try_stat_rows_with(
            Source::Store(&store),
            LdStats::RSquared,
            |_| {},
            &RunControl::new().with_band(w),
        )
        .unwrap();
        assert_eq!(
            ld_trace::get(Counter::ChunksRead),
            expected_chunk_reads(n, slab, chunk, w, 2, |_| true),
            "n={n} slab={slab} chunk={chunk} w={w}"
        );
    }
}

/// A banded run is interruptible like any other: a token tripped (or a
/// deadline expired) before the run starts computes and delivers nothing,
/// from either source.
#[test]
fn pre_tripped_banded_run_is_cancelled_before_any_slab() {
    let _l = counter_lock();
    let g = random_matrix(40, 50, 0xba2d);
    let store = MemoryTileStore::from_matrix(&g, 8).unwrap();
    let e = LdEngine::new().threads(2).slab_rows(4);
    let token = CancelToken::new();
    token.cancel_with_reason("stop");
    let expired = ld_core::Deadline::after(std::time::Duration::ZERO);
    for src in [Source::from(&g), Source::Store(&store)] {
        for (ctl, reason) in [
            (RunControl::new().with_token(&token), "stop"),
            (
                RunControl::new().with_deadline(expired),
                "deadline exceeded",
            ),
        ] {
            ld_trace::reset();
            let delivered = AtomicUsize::new(0);
            let err = e
                .try_stat_rows_with(
                    src,
                    LdStats::RSquared,
                    |_| {
                        delivered.fetch_add(1, Ordering::Relaxed);
                    },
                    &ctl.with_band(7),
                )
                .expect_err("a tripped run must cancel");
            match err {
                LdError::Cancelled {
                    reason: got,
                    completed_slabs,
                } => {
                    assert_eq!(got, reason);
                    assert_eq!(completed_slabs, 0, "{reason}");
                }
                other => panic!("{reason}: unexpected error {other}"),
            }
            assert_eq!(delivered.into_inner(), 0, "{reason}");
            assert_eq!(ld_trace::get(Counter::SlabsEmitted), 0, "{reason}");
            assert_eq!(ld_trace::get(Counter::ChunksRead), 0, "{reason}");
        }
    }
}

// ---------------------------------------------------------------------
// The one window: a store run whose budget holds the whole packed panel
// reads each chunk its pending slabs need exactly once (every chunk, on a
// fresh unsharded run) and computes it as the memory source does.
// ---------------------------------------------------------------------

/// The one window's price of a run at `slab` rows over `threads`
/// workers, for the packed (`true`) or row sink: the in-memory model (the
/// `8·n(n+1)/2` triangle of the packed sink, `20n` bytes of tables, and
/// per worker and slab row `n` u32 counts, plus `n` f64 values for the row
/// sink), plus the packed panel, plus one chunk load (its encoded bytes).
fn resident_price(meta: &TileStoreMeta, threads: usize, slab: usize, packed: bool) -> usize {
    let n = meta.n_snps;
    let (triangle, per_value) = if packed {
        (8 * n * (n + 1) / 2, 4)
    } else {
        (0, 4 + 8)
    };
    let fixed = triangle + 20 * n + n * meta.words_per_snp * 8 + meta.chunk_bytes(0);
    fixed + slab * threads * n * per_value
}

/// Chunks a one-window run without a band reads: each chunk once, from the
/// one holding the first pending slab's first row to the last — the memory
/// arm reads no column left of the rows it computes. 0 when no slab is
/// pending.
fn resident_chunk_reads(meta: &TileStoreMeta, slab: usize, pending: impl Fn(usize) -> bool) -> u64 {
    let n_slabs = meta.n_snps.div_ceil(slab);
    (0..n_slabs)
        .find(|&k| pending(k))
        .map_or(0, |k| (meta.n_chunks() - k * slab / meta.chunk_snps) as u64)
}

fn store_bytes(meta: &TileStoreMeta) -> u64 {
    (0..meta.n_chunks())
        .map(|c| meta.chunk_bytes(c) as u64)
        .sum()
}

fn assert_bits(want: &ld_core::LdMatrix, got: &ld_core::LdMatrix, what: &str) {
    for (idx, (a, b)) in want.packed().iter().zip(got.packed()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: packed[{idx}] {a} vs {b}");
    }
}

/// A budgeted run that holds the whole panel reads each chunk once — for
/// the packed and the row sink, at every thread count — and its values
/// are the in-memory run's.
#[test]
fn resident_run_reads_each_chunk_once() {
    let _l = counter_lock();
    let (n, slab, chunk) = (37usize, 5usize, 4usize);
    let g = random_matrix(64, n, 0x2e51);
    let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
    let meta = ld_core::TileSource::meta(&store).clone();
    for threads in [1usize, 2, 7] {
        let budget = MemoryBudget::bytes(resident_price(&meta, threads, slab, true));
        let e = LdEngine::new()
            .threads(threads)
            .slab_rows(slab)
            .memory_budget(budget);
        let oracle = e.try_stat_matrix(&g, LdStats::RSquared).unwrap();
        assert_eq!(e.slab_for(&Source::Store(&store), true).unwrap(), slab);
        ld_trace::reset();
        let got = e
            .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &RunControl::new())
            .unwrap();
        assert_eq!(
            ld_trace::get(Counter::ChunksRead),
            meta.n_chunks() as u64,
            "t{threads}"
        );
        assert_eq!(
            ld_trace::get(Counter::StoreBytesRead),
            store_bytes(&meta),
            "t{threads}"
        );
        assert_bits(&oracle, &got, &format!("packed t{threads}"));
        let budget = MemoryBudget::bytes(resident_price(&meta, threads, slab, false));
        let e = e.memory_budget(budget);
        ld_trace::reset();
        let rows = Mutex::new(vec![0f64; n * (n + 1) / 2]);
        let visit = |s: &ld_core::RowSlabVisit<'_>| {
            let mut rows = rows.lock().unwrap();
            for (i, row) in s.rows() {
                let off = oracle.index(i, i);
                rows[off..off + row.len()].copy_from_slice(row);
            }
        };
        e.try_stat_rows_with(
            Source::Store(&store),
            LdStats::RSquared,
            visit,
            &RunControl::new(),
        )
        .unwrap();
        assert_eq!(
            ld_trace::get(Counter::ChunksRead),
            meta.n_chunks() as u64,
            "rows t{threads}"
        );
        for (idx, (a, b)) in oracle
            .packed()
            .iter()
            .zip(&*rows.lock().unwrap())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "rows t{threads}: packed[{idx}]");
        }
    }
}

/// The one-window price is where the windows become one: at it the run
/// reads each chunk once; one byte below it the run takes the windows the
/// model fits — the largest that fit at the same slab height, or the one
/// window at a shorter slab where no smaller window is cheaper (one slab
/// spanning the store) — and reads exactly their closed form.
#[test]
fn one_byte_below_the_resident_price_streams() {
    let _l = counter_lock();
    for &(n, slab, chunk, threads) in &[
        (37usize, 5usize, 4usize, 1usize),
        (37, 5, 4, 2),
        (20, 20, 3, 7),
        (9, 2, 1, 2),
    ] {
        let g = random_matrix(33, n, (n * 17 + slab + chunk) as u64);
        let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
        let meta = ld_core::TileSource::meta(&store).clone();
        let price = resident_price(&meta, threads, slab, true);
        let e = LdEngine::new().threads(threads).slab_rows(slab);
        let oracle = e.try_stat_matrix(&g, LdStats::RSquared).unwrap();
        let what = format!("n={n} slab={slab} chunk={chunk} t{threads}");
        for budget in [price, price - 1] {
            let w = windows::fitted(&meta, threads, true, n, Some(budget), slab);
            assert_eq!(
                w == windows::Geometry::one(slab),
                budget == price,
                "{what} {w:?}"
            );
            let reads =
                windows::chunks_read(n, chunk, w.slab, n, w.rows, 0..n.div_ceil(w.slab), |_| true);
            let e = e.clone().memory_budget(MemoryBudget::bytes(budget));
            assert_eq!(
                e.slab_for(&Source::Store(&store), true).unwrap(),
                w.slab,
                "{what}"
            );
            ld_trace::reset();
            let got = e
                .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &RunControl::new())
                .unwrap();
            assert_eq!(
                ld_trace::get(Counter::ChunksRead),
                reads.len() as u64,
                "{what} budget {budget} {w:?}"
            );
            assert_bits(&oracle, &got, &what);
        }
    }
}

/// A resident run resumed from a complete snapshot reads nothing.
#[test]
fn resident_resume_from_complete_snapshot_reads_zero_chunks() {
    let _l = counter_lock();
    let (n, slab, chunk) = (24usize, 4usize, 5usize);
    let g = random_matrix(40, n, 0xf0_12);
    let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
    let meta = ld_core::TileSource::meta(&store).clone();
    let e = LdEngine::new()
        .threads(2)
        .slab_rows(slab)
        .memory_budget(MemoryBudget::bytes(resident_price(&meta, 2, slab, true)));
    let sink = MemorySink::new();
    let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
    ld_trace::reset();
    let first = e
        .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
        .unwrap();
    assert_eq!(ld_trace::get(Counter::ChunksRead), meta.n_chunks() as u64);
    let state = CheckpointState::from_bytes(&sink.latest().unwrap()).unwrap();
    assert_eq!(state.records.len(), n.div_ceil(slab));
    let replay = MemorySink::new();
    let ctl = RunControl::new().with_checkpoint(
        CheckpointPlan::new(&replay)
            .every_slabs(usize::MAX)
            .resume_from(state),
    );
    ld_trace::reset();
    let resumed = e
        .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
        .unwrap();
    assert_eq!(ld_trace::get(Counter::ChunksRead), 0);
    assert_eq!(ld_trace::get(Counter::StoreBytesRead), 0);
    assert_eq!(ld_trace::get(Counter::SlabsEmitted), 0);
    assert_eq!(
        ld_trace::get(Counter::ResumeSlabsSkipped),
        n.div_ceil(slab) as u64
    );
    assert_bits(&first, &resumed, "resumed");
}

/// A resident shard run reads each chunk its window needs once — from the
/// one holding the window's first row to the last — and its records are
/// the streamed shard's, bit for bit.
#[test]
fn resident_shard_reads_from_its_first_row() {
    let _l = counter_lock();
    let (n, slab, chunk) = (37usize, 5usize, 4usize);
    let g = random_matrix(64, n, 0x5a4d);
    let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
    let meta = ld_core::TileSource::meta(&store).clone();
    let streamed = LdEngine::new().threads(2).slab_rows(slab);
    let resident = streamed
        .clone()
        .memory_budget(MemoryBudget::bytes(resident_price(&meta, 2, slab, true)));
    assert_eq!(
        resident.slab_for(&Source::Store(&store), true).unwrap(),
        slab
    );
    for (lo, hi) in [(0usize, 3usize), (3, 6), (6, 8), (7, 8)] {
        let ctl = RunControl::new().with_shard(SlabRange::new(lo, hi));
        let want = streamed
            .try_stat_shard_with(Source::Store(&store), LdStats::RSquared, &ctl)
            .unwrap();
        ld_trace::reset();
        let got = resident
            .try_stat_shard_with(Source::Store(&store), LdStats::RSquared, &ctl)
            .unwrap();
        let reads = resident_chunk_reads(&meta, slab, |s| (lo..hi).contains(&s));
        assert_eq!(ld_trace::get(Counter::ChunksRead), reads, "[{lo}, {hi})");
        assert_eq!(got.records.len(), want.records.len());
        for (a, b) in got.records.iter().zip(&want.records) {
            assert_eq!(a.index, b.index);
            let bits =
                |r: &ld_core::SlabRecord| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "[{lo}, {hi}) slab {}", a.index);
        }
    }
}

/// A resident run killed after `k` checkpointed slabs and resumed is
/// bit-identical to the uninterrupted run; the first phase reads every
/// chunk once, the resume each chunk from the first pending slab's on.
#[test]
fn resident_resume_is_bit_identical() {
    let _l = counter_lock();
    let (n, slab, chunk) = (37usize, 5usize, 4usize);
    let n_slabs = n.div_ceil(slab); // 8
    let g = random_matrix(64, n, 0x000c_5eee);
    let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
    let meta = ld_core::TileSource::meta(&store).clone();
    let threads = [1usize, 2, 7];
    for k in 1..n_slabs {
        let t = threads[k % threads.len()];
        let e = LdEngine::new()
            .threads(t)
            .slab_rows(slab)
            .nan_policy(NanPolicy::Zero)
            .memory_budget(MemoryBudget::bytes(resident_price(&meta, t, slab, true)));
        let oracle = e.try_stat_matrix(&g, LdStats::RSquared).unwrap();
        let token = CancelToken::new();
        let sink = TrippingSink::new(&token, k);
        let ctl = RunControl::new()
            .with_token(&token)
            .with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
        ld_trace::reset();
        let first = e.try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl);
        assert_eq!(
            ld_trace::get(Counter::ChunksRead),
            meta.n_chunks() as u64,
            "k{k} t{t}"
        );
        match first {
            Err(LdError::Cancelled {
                completed_slabs, ..
            }) if t == 1 => assert_eq!(completed_slabs, k, "k{k}: one worker is exact"),
            Err(LdError::Cancelled {
                completed_slabs, ..
            }) => assert!(completed_slabs >= k, "k{k} t{t}: {completed_slabs}"),
            // slabs already claimed when the token trips still complete,
            // so several workers may finish the run
            Ok(m) if t > 1 => {
                assert_bits(&oracle, &m, &format!("k{k} t{t} uninterrupted"));
                continue;
            }
            other => panic!("k{k} t{t}: expected cancellation, got {other:?}"),
        }
        let state = CheckpointState::from_bytes(&sink.inner.latest().unwrap()).unwrap();
        let done = state.records.len();
        let done_set: Vec<usize> = state.records.iter().map(|r| r.index as usize).collect();
        let reads = resident_chunk_reads(&meta, slab, |s| !done_set.contains(&s));
        if t == 1 {
            // slabs 0..k are done, so the head of the store is skipped
            assert!(reads < meta.n_chunks() as u64, "k{k}: {reads} reads");
        }
        let replay = MemorySink::new();
        let ctl = RunControl::new().with_checkpoint(
            CheckpointPlan::new(&replay)
                .every_slabs(usize::MAX)
                .resume_from(state),
        );
        ld_trace::reset();
        let resumed = e
            .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
            .unwrap_or_else(|e| panic!("k{k}: resume failed: {e}"));
        assert_eq!(ld_trace::get(Counter::ResumeSlabsSkipped), done as u64);
        assert_eq!(
            ld_trace::get(Counter::SlabsEmitted),
            (n_slabs - done) as u64
        );
        assert_eq!(ld_trace::get(Counter::ChunksRead), reads, "k{k} t{t}");
        assert_bits(&oracle, &resumed, &format!("k{k} t{t}"));
    }
}

/// Checkpoints do not record the windows: one from a one-window run
/// resumes on an unbudgeted (smallest-window) run of the same slab grid,
/// and the reverse, bit-identically — each resume reading its own
/// windows' schedule.
#[test]
fn resident_and_streamed_checkpoints_are_interchangeable() {
    let _l = counter_lock();
    let (n, slab, chunk) = (37usize, 5usize, 4usize);
    let n_slabs = n.div_ceil(slab);
    let g = random_matrix(64, n, 0x1e5d);
    let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
    let meta = ld_core::TileSource::meta(&store).clone();
    let streamed = LdEngine::new().threads(1).slab_rows(slab);
    let resident = streamed
        .clone()
        .memory_budget(MemoryBudget::bytes(resident_price(&meta, 1, slab, true)));
    let oracle = streamed.try_stat_matrix(&g, LdStats::RSquared).unwrap();
    for k in 1..n_slabs {
        for resident_first in [true, false] {
            let (first, second) = if resident_first {
                (&resident, &streamed)
            } else {
                (&streamed, &resident)
            };
            let token = CancelToken::new();
            let sink = TrippingSink::new(&token, k);
            let ctl = RunControl::new()
                .with_token(&token)
                .with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
            let err = first
                .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
                .expect_err("tripped run must cancel");
            assert!(
                matches!(err, LdError::Cancelled { completed_slabs, .. } if completed_slabs == k)
            );
            let state = CheckpointState::from_bytes(&sink.inner.latest().unwrap()).unwrap();
            let replay = MemorySink::new();
            let ctl = RunControl::new().with_checkpoint(
                CheckpointPlan::new(&replay)
                    .every_slabs(usize::MAX)
                    .resume_from(state),
            );
            ld_trace::reset();
            let resumed = second
                .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
                .unwrap_or_else(|e| panic!("k{k} resident-first={resident_first}: {e}"));
            let reads = if resident_first {
                expected_chunk_reads(n, slab, chunk, n, 1, |s| s >= k)
            } else {
                resident_chunk_reads(&meta, slab, |s| s >= k)
            };
            assert_eq!(ld_trace::get(Counter::ChunksRead), reads, "k{k}");
            assert_bits(
                &oracle,
                &resumed,
                &format!("k{k} resident-first={resident_first}"),
            );
        }
    }
}
