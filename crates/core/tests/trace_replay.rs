//! Replay test: the fused driver's recorded span tree must match the
//! five-loop slab geometry the engine was configured with, at 1, 2 and
//! 7 threads.

use ld_bitmat::BitMatrix;
use ld_core::{LdEngine, LdStats, NanPolicy};
use ld_trace::recorder::{start, stop, RecorderConfig, SpanKind, TraceSnapshot};

/// Recorder state is process-global; serialize the per-thread-count runs.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A deterministic toy matrix (same generator style as the engine tests).
fn toy_matrix(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
    let mut g = BitMatrix::zeros(n_samples, n_snps);
    let mut state = seed | 1;
    for j in 0..n_snps {
        for i in 0..n_samples {
            // xorshift64* — cheap, deterministic, well-mixed
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63 == 1 {
                g.set(i, j, true);
            }
        }
    }
    g
}

/// Runs the fused packed driver under the recorder and returns the
/// snapshot alongside the slab count the geometry implies.
fn record_run(threads: usize, n: usize, slab: usize) -> (TraceSnapshot, usize) {
    let g = toy_matrix(96, n, 0x5eed ^ threads as u64);
    let engine = LdEngine::new()
        .threads(threads)
        .slab_rows(slab)
        .nan_policy(NanPolicy::Zero);
    while stop().is_some() {}
    start(RecorderConfig::for_threads(threads));
    let m = engine.stat_matrix(&g, LdStats::RSquared);
    let snap = stop().expect("recorder was active");
    assert_eq!(m.n_snps(), n, "the run itself must have completed");
    (snap, n.div_ceil(slab))
}

/// One complete span per `(kind, arg)` expectation, used to replay the
/// slab geometry against the timeline.
fn args_of(snap: &TraceSnapshot, kind: SpanKind) -> Vec<u64> {
    let mut v: Vec<u64> = snap
        .events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.arg)
        .collect();
    v.sort_unstable();
    v
}

fn assert_replay(threads: usize) {
    let (n, slab) = (100usize, 16usize);
    let (snap, n_slabs) = record_run(threads, n, slab);
    assert_eq!(snap.dropped, 0, "threads={threads}: dropped events");
    assert_eq!(snap.open_spans, 0, "threads={threads}: unbalanced spans");

    // Slab geometry: exactly one SlabEmit instant per slab, slab indices
    // 0..n_slabs, each emitted exactly once.
    assert_eq!(
        args_of(&snap, SpanKind::SlabEmit),
        (0..n_slabs as u64).collect::<Vec<_>>(),
        "threads={threads}: slab emission must replay the slab geometry"
    );

    // Transform spans: one per slab (arg = slab index) plus the table
    // build on the coordinating thread (arg = n).
    let mut expected: Vec<u64> = (0..n_slabs as u64).collect();
    expected.push(n as u64);
    expected.sort_unstable();
    assert_eq!(
        args_of(&snap, SpanKind::Transform),
        expected,
        "threads={threads}: transform spans must cover every slab + setup"
    );

    // Scheduler chunks: grain == slab, so the loop hands out exactly
    // n_slabs chunks; their args decode to distinct chunk indices.
    let chunk_ids: Vec<u64> = args_of(&snap, SpanKind::Chunk)
        .iter()
        .map(|a| a >> 1)
        .collect();
    assert_eq!(
        chunk_ids,
        (0..n_slabs as u64).collect::<Vec<_>>(),
        "threads={threads}: one scheduler chunk per slab"
    );

    // Allocation spans: the packed output triangle + the scratch pool.
    let allocs = args_of(&snap, SpanKind::Alloc);
    assert_eq!(allocs.len(), 2, "threads={threads}: triangle + scratch");
    assert!(
        allocs.contains(&((n * (n + 1) / 2 * 8) as u64)),
        "threads={threads}: the packed-triangle alloc span carries its size"
    );

    // Every slab runs the blocked SYRK/GEMM sweep, so the pack and
    // kernel layers must each record at least one span per slab.
    for kind in [SpanKind::PackA, SpanKind::PackB, SpanKind::KernelBatch] {
        assert!(
            snap.count(kind) >= n_slabs,
            "threads={threads}: {} spans ({}) must cover every slab ({n_slabs})",
            kind.name(),
            snap.count(kind)
        );
    }

    // Tree shape: every pack/kernel leaf nests inside a scheduler chunk
    // on the same worker (the five-loop sweep runs only inside chunks).
    let chunks: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Chunk)
        .collect();
    for e in snap.events.iter().filter(|e| {
        matches!(
            e.kind,
            SpanKind::PackA | SpanKind::PackB | SpanKind::KernelBatch
        )
    }) {
        let contained = chunks.iter().any(|c| {
            c.worker == e.worker
                && c.start_ns <= e.start_ns
                && e.start_ns + e.dur_ns <= c.start_ns + c.dur_ns
        });
        assert!(
            contained,
            "threads={threads}: {} span at {}ns (worker {}) outside every chunk",
            e.kind.name(),
            e.start_ns,
            e.worker
        );
    }

    // Workers stay within the configured ring count, and with one thread
    // the whole timeline lives on worker 0.
    assert!(snap
        .events
        .iter()
        .all(|e| (e.worker as usize) < snap.workers));
    if threads == 1 {
        assert!(snap.events.iter().all(|e| e.worker == 0));
    }
}

#[test]
fn fused_span_tree_matches_slab_geometry_t1() {
    let _g = lock();
    assert_replay(1);
}

#[test]
fn fused_span_tree_matches_slab_geometry_t2() {
    let _g = lock();
    assert_replay(2);
}

#[test]
fn fused_span_tree_matches_slab_geometry_t7() {
    let _g = lock();
    assert_replay(7);
}
