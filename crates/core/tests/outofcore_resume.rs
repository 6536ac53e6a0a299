//! Kill/resume for the out-of-core driver, with chunk-read accounting.
//!
//! The contract: a streamed run cancelled at **any** slab boundary,
//! checkpointed and resumed is bit-identical to an uninterrupted run —
//! *and the resume does not re-read the chunks of completed slabs*. The
//! second half is what makes resumption worth having for a multi-hour
//! out-of-core scan, and it is asserted directly through the
//! `chunks_read` / `resume_slabs_skipped` counters (when the `metrics`
//! feature is on; the bit-identity half runs either way).
//!
//! Every test takes one file-wide lock: the counters are process-global,
//! and this file owns the only out-of-core runs in its process, so the
//! deltas observed under the lock are exact.

use ld_bitmat::BitMatrix;
use ld_core::{
    CancelToken, CheckpointPlan, CheckpointSink, CheckpointState, LdEngine, LdError, LdStats,
    MemorySink, MemoryTileStore, NanPolicy, RunControl, Source,
};
use ld_rng::SmallRng;
use ld_trace::Counter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

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

/// Chunks the out-of-core driver reads in one full (uninterrupted) run:
/// per slab, the A-panel's covering chunks plus the column stream from
/// the first covering chunk to the chunk holding the slab's last column,
/// `min(n, r1 + band) − 1` (the documented panel double-read). `band = n`
/// is a run without a band: the stream runs to the last chunk.
fn expected_chunk_reads(
    n: usize,
    slab: usize,
    chunk: usize,
    band: usize,
    pending: impl Fn(usize) -> bool,
) -> u64 {
    let n_slabs = n.div_ceil(slab);
    let mut reads = 0u64;
    for k in 0..n_slabs {
        if !pending(k) {
            continue;
        }
        let (r0, r1) = (k * slab, ((k + 1) * slab).min(n));
        let (first, last) = (r0 / chunk, (r1 - 1) / chunk);
        reads += (last - first + 1) as u64; // panel assembly
        let last_col = n.min(r1 + band) - 1;
        reads += (last_col / chunk - first + 1) as u64; // column stream
    }
    reads
}

/// Cancel after every possible number of persisted slabs, resume, and
/// require (a) a bit-identical triangle and (b) — when counters are on —
/// that the resumed run read exactly the pending slabs' chunks and
/// skipped the rest.
#[test]
fn outofcore_resume_is_bit_identical_and_skips_completed_chunks() {
    let _l = counter_lock();
    let (n, slab, chunk) = (37usize, 5usize, 4usize);
    let n_slabs = n.div_ceil(slab); // 8
    let g = random_matrix(64, n, 0x000c_5eed);
    let store = MemoryTileStore::from_matrix(&g, chunk).unwrap();
    let threads = [1usize, 2, 7];
    for k in 1..n_slabs {
        let t = threads[k % threads.len()];
        let e = LdEngine::new()
            .threads(t)
            .slab_rows(slab)
            .nan_policy(NanPolicy::Zero);
        let oracle = e.try_stat_matrix(&g, LdStats::RSquared).unwrap();

        // Phase 1: checkpoint every slab; the sink kills the run after
        // k writes. The sequential driver makes this exact: k slabs
        // complete, no more.
        let token = CancelToken::new();
        let sink = TrippingSink::new(&token, k);
        let ctl = RunControl::new()
            .with_token(&token)
            .with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
        ld_trace::reset();
        let err = e
            .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
            .expect_err("tripped run must cancel");
        match err {
            LdError::Cancelled {
                reason,
                completed_slabs,
            } => {
                assert_eq!(reason, "test kill", "k{k}");
                assert_eq!(completed_slabs, k, "k{k}: sequential driver is exact");
            }
            other => panic!("k{k}: unexpected error {other}"),
        }
        // one poll per computed slab, always followed by the compute
        assert_eq!(
            ld_trace::get(Counter::CancelPolls),
            ld_trace::get(Counter::SlabsEmitted),
            "k{k}"
        );
        assert_eq!(
            ld_trace::get(Counter::ChunksRead),
            expected_chunk_reads(n, slab, chunk, n, |s| s < k),
            "k{k}: interrupted run reads exactly the completed slabs' chunks"
        );
        let bytes = sink.inner.latest().expect("final flush");
        let state = CheckpointState::from_bytes(&bytes).expect("snapshot parses");
        assert_eq!(state.records.len(), k, "k{k}");

        // Phase 2: resume to completion; only the pending slabs' chunks
        // may be touched.
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
        assert_eq!(ld_trace::get(Counter::ResumeSlabsSkipped), k as u64, "k{k}");
        assert_eq!(
            ld_trace::get(Counter::SlabsEmitted),
            (n_slabs - k) as u64,
            "k{k}"
        );
        let full = expected_chunk_reads(n, slab, chunk, n, |_| true);
        let got = ld_trace::get(Counter::ChunksRead);
        assert_eq!(
            got,
            expected_chunk_reads(n, slab, chunk, n, |s| s >= k),
            "k{k}: resume reads exactly the pending slabs' chunks"
        );
        assert!(
            got < full,
            "k{k}: resume must read strictly fewer chunks ({got} vs {full})"
        );
        for (idx, (a, b)) in oracle.packed().iter().zip(resumed.packed()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "k{k} t{t}: packed[{idx}] {a} vs {b}"
            );
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

/// The deterministic read accounting of a fresh run: `chunks_read` and
/// `store_bytes_read` match the documented panel + column-stream model
/// exactly, for several geometries.
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
        let e = LdEngine::new().threads(2).slab_rows(slab);
        ld_trace::reset();
        e.try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &RunControl::new())
            .unwrap();
        assert_eq!(
            ld_trace::get(Counter::ChunksRead),
            expected_chunk_reads(n, slab, chunk, n, |_| true),
            "n={n} slab={slab} chunk={chunk}"
        );
        // bytes: same walk, weighted by each chunk's encoded size
        let n_chunks = meta.n_chunks();
        let mut bytes = 0u64;
        for k in 0..n.div_ceil(slab) {
            let (r0, r1) = (k * slab, ((k + 1) * slab).min(n));
            let (first, last) = (r0 / chunk, (r1 - 1) / chunk);
            for c in first..=last {
                bytes += meta.chunk_bytes(c) as u64;
            }
            for c in first..n_chunks {
                bytes += meta.chunk_bytes(c) as u64;
            }
        }
        assert_eq!(
            ld_trace::get(Counter::StoreBytesRead),
            bytes,
            "n={n} slab={slab} chunk={chunk}"
        );
        // the prefetcher never claims more hits than there were reads
        assert!(ld_trace::get(Counter::PrefetchHits) <= ld_trace::get(Counter::ChunksRead));
    }
}

/// A column band bounds the stream: a store-backed banded run reads, per
/// slab, its panel chunks plus the chunks from the slab's first to the one
/// holding column `r1 + w − 1` — and nothing to the right of the band.
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
            expected_chunk_reads(n, slab, chunk, w, |_| true),
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
            let mut delivered = 0usize;
            let err = e
                .try_stat_rows_with(
                    src,
                    LdStats::RSquared,
                    |_| delivered += 1,
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
            assert_eq!(delivered, 0, "{reason}");
            assert_eq!(ld_trace::get(Counter::SlabsEmitted), 0, "{reason}");
            assert_eq!(ld_trace::get(Counter::ChunksRead), 0, "{reason}");
        }
    }
}
