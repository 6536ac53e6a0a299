//! Flight-recorder invariants, exercised through the public API only.

use ld_trace::recorder::{
    instant, is_active, set_worker, start, stop, RecorderConfig, Span, SpanKind, TraceSnapshot,
};
use ld_trace::{Counter, MetricsReport};

/// Recorder state is process-global: serialize every test in this binary.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Asserts the per-worker timeline invariants every snapshot must hold:
/// sorted by start within a worker, outer-before-inner at ties, spans
/// fully inside the snapshot horizon, worker ids within the ring count.
fn assert_timeline_invariants(snap: &TraceSnapshot) {
    assert_eq!(snap.open_spans, 0, "every begin must have an end");
    for w in 0..snap.workers as u32 {
        let evs: Vec<_> = snap.worker_events(w).collect();
        for pair in evs.windows(2) {
            assert!(
                pair[0].start_ns <= pair[1].start_ns,
                "worker {w} timeline must be start-monotonic: {pair:?}"
            );
            if pair[0].start_ns == pair[1].start_ns {
                assert!(
                    pair[0].dur_ns >= pair[1].dur_ns,
                    "ties must read outer-before-inner: {pair:?}"
                );
            }
        }
    }
    for e in &snap.events {
        assert!(
            (e.worker as usize) < snap.workers,
            "worker id {} outside the {} rings",
            e.worker,
            snap.workers
        );
    }
}

#[test]
fn multithreaded_spans_balance_and_stay_monotonic() {
    let _g = lock();
    while stop().is_some() {}
    ld_trace::reset();
    start(RecorderConfig::for_threads(4));
    assert!(is_active());
    let spans_per_worker = 50usize;
    std::thread::scope(|s| {
        for w in 0..4usize {
            s.spawn(move || {
                set_worker(w);
                for i in 0..spans_per_worker {
                    // Nested: a Chunk span containing a PackA span, plus
                    // an instant, the way the fused driver nests them.
                    let outer = Span::begin(SpanKind::Chunk);
                    let inner = Span::begin(SpanKind::PackA);
                    inner.end(i as u64);
                    instant(SpanKind::SlabEmit, i as u64);
                    outer.end((i as u64) << 1);
                }
            });
        }
    });
    let snap = stop().expect("recorder was active");
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.workers, 4);
    assert_timeline_invariants(&snap);
    // Every worker recorded exactly its own events: 3 per iteration.
    for w in 0..4u32 {
        assert_eq!(
            snap.worker_events(w).count(),
            3 * spans_per_worker,
            "worker {w} event count"
        );
    }
    assert_eq!(snap.count(SpanKind::Chunk), 4 * spans_per_worker);
    assert_eq!(snap.count(SpanKind::PackA), 4 * spans_per_worker);
    assert_eq!(snap.count(SpanKind::SlabEmit), 4 * spans_per_worker);
    // Instants are zero-duration; spans carry their end() payload.
    for e in &snap.events {
        match e.kind {
            SpanKind::SlabEmit => assert_eq!(e.dur_ns, 0),
            SpanKind::Chunk => assert_eq!(e.arg & 1, 0, "payload must survive: {e:?}"),
            _ => {}
        }
    }
}

#[test]
fn overflow_fills_and_drops_and_counts() {
    let _g = lock();
    while stop().is_some() {}
    ld_trace::reset();
    let capacity = 8usize;
    start(RecorderConfig {
        capacity_per_worker: capacity,
        workers: 1,
        kernel_sample: 1,
    });
    let total = 30usize;
    for i in 0..total {
        let s = Span::begin(SpanKind::Transform);
        s.end(i as u64);
    }
    let snap = stop().expect("recorder was active");
    // Fill-and-drop: the FIRST `capacity` events survive, the rest are
    // counted, never wrapped over the old ones.
    assert_eq!(snap.events.len(), capacity);
    assert_eq!(snap.dropped, (total - capacity) as u64);
    let args: Vec<u64> = snap.events.iter().map(|e| e.arg).collect();
    assert_eq!(
        args,
        (0..capacity as u64).collect::<Vec<_>>(),
        "survivors must be the oldest events, in order"
    );
    // The drop count is mirrored into the metrics counter so
    // `MetricsReport` (and the CI zero-drop assertion) can see it.
    let report = MetricsReport::capture();
    assert_eq!(report.get(Counter::TraceEventsDropped), snap.dropped);
    // Balance holds even under overflow: dropped spans still end.
    assert_eq!(snap.open_spans, 0);
}

#[test]
fn kernel_batches_are_sampled_other_kinds_are_not() {
    let _g = lock();
    while stop().is_some() {}
    ld_trace::reset();
    start(RecorderConfig {
        capacity_per_worker: 1024,
        workers: 1,
        kernel_sample: 4,
    });
    for i in 0..16u64 {
        let k = Span::begin(SpanKind::KernelBatch);
        k.end(i);
        let p = Span::begin(SpanKind::PackB);
        p.end(i);
    }
    let snap = stop().expect("recorder was active");
    assert_eq!(
        snap.count(SpanKind::KernelBatch),
        4,
        "1-in-4 sampling must keep 4 of 16 kernel batches"
    );
    assert_eq!(
        snap.count(SpanKind::PackB),
        16,
        "sampling must not touch non-kernel kinds"
    );
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.open_spans, 0);
}

#[test]
fn out_of_range_worker_ids_fold_into_the_last_ring() {
    let _g = lock();
    while stop().is_some() {}
    ld_trace::reset();
    start(RecorderConfig {
        capacity_per_worker: 64,
        workers: 2,
        kernel_sample: 1,
    });
    set_worker(17); // way past the ring count: folds to ring 1
    let s = Span::begin(SpanKind::Transform);
    s.end(7);
    set_worker(0); // restore the default binding for later tests
    let snap = stop().expect("recorder was active");
    assert_eq!(snap.events.len(), 1);
    assert_eq!(snap.events[0].worker, 1, "folded into the last ring");
    assert_timeline_invariants(&snap);
}

#[test]
fn dropped_guard_records_with_zero_payload() {
    let _g = lock();
    while stop().is_some() {}
    ld_trace::reset();
    start(RecorderConfig::for_threads(1));
    {
        let _span = Span::begin(SpanKind::CheckpointFlush);
        // dropped here without end(): the Drop impl must still close it
    }
    let snap = stop().expect("recorder was active");
    assert_eq!(snap.count(SpanKind::CheckpointFlush), 1);
    assert_eq!(snap.events[0].arg, 0);
    assert_eq!(snap.open_spans, 0);
}
