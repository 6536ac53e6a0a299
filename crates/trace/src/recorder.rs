//! Flight recorder: fixed-capacity, per-worker ring buffers of span events,
//! and [`Span`] — the one layer timer of the workspace.
//!
//! The counters in the crate root say *how much* work each GotoBLAS layer
//! did; the recorder says *when* and *on which worker*. Both read the same
//! clock: a [`Span`] reads `Instant::now()` at each end, charges the
//! elapsed nanoseconds to the timer counter its kind maps to
//! ([`SpanKind::counter`]) and, only while a recorder is armed, pushes the
//! same start and duration as an event. So a timer counter is exactly the
//! sum of its kinds' event durations on a complete timeline. Each worker
//! owns a pre-allocated ring of [`SpanEvent`] slots; recording an event is
//! four relaxed atomic stores into a reserved slot — **zero allocation on
//! the hot path** — and with no recorder installed the arming check is one
//! relaxed atomic load.
//!
//! ## Lifecycle contract
//!
//! [`start`] installs a recorder, [`stop`] uninstalls it and returns a
//! [`TraceSnapshot`]. Both must be called from the coordinating thread
//! while **no spans are in flight** — the drivers guarantee this by
//! starting before they spawn workers and stopping after the join. A span
//! whose guard outlives `stop` does not corrupt memory (the recorder's
//! storage is retired only by the *next* [`start`]), it just records into
//! a buffer nobody will snapshot.
//!
//! ## Overflow policy: fill-and-drop
//!
//! When a worker's ring fills, later events are **dropped and counted**
//! (never wrapped — wrapping would silently destroy the oldest events and
//! break the monotonic-timeline invariant). Every drop increments
//! [`Counter::TraceEventsDropped`] so `MetricsReport` and CI can assert a
//! complete timeline; [`TraceSnapshot::dropped`] carries the same total.
//! Micro-kernel batch spans ([`SpanKind::KernelBatch`]) cover a whole
//! `jr/ir` tile sweep per `(jc, pc, ic)` block, so every kind is recorded
//! 1:1 within the [`CAPACITY`] of a ring.

use crate::Counter;
use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a span measures. Mirrors the layer map in the crate root plus the
/// scheduler and driver events the counters cannot localize.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Packing Ã micro-panels (MR-interleaved).
    PackA = 0,
    /// Packing B̃ micro-panels (NR-interleaved).
    PackB = 1,
    /// One micro-kernel tile batch: the `jr/ir` register-tile sweep of a
    /// `(jc, pc, ic)` block, or the zero-fill / mirror of a counts buffer.
    KernelBatch = 2,
    /// The batched `D = H − p pᵀ` statistic transform (setup, per-slab,
    /// and the allele counts a store chunk adds to its tables).
    Transform = 3,
    /// Large-buffer allocation/zeroing in the driver (scratch pool,
    /// packed output).
    Alloc = 4,
    /// One dynamic-scheduler chunk executed by a worker. `arg` is the
    /// chunk index.
    Chunk = 5,
    /// A checkpoint snapshot being serialized and flushed to its sink.
    CheckpointFlush = 6,
    /// Instant marker: a row slab was completed and published. `arg` is
    /// the slab index.
    SlabEmit = 7,
}

impl SpanKind {
    /// Number of kinds (array sizing).
    pub const COUNT: usize = 8;

    /// All kinds, in stable order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::PackA,
        SpanKind::PackB,
        SpanKind::KernelBatch,
        SpanKind::Transform,
        SpanKind::Alloc,
        SpanKind::Chunk,
        SpanKind::CheckpointFlush,
        SpanKind::SlabEmit,
    ];

    /// Stable snake_case name (trace/report key).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::PackA => "pack_a",
            SpanKind::PackB => "pack_b",
            SpanKind::KernelBatch => "kernel",
            SpanKind::Transform => "transform",
            SpanKind::Alloc => "alloc",
            SpanKind::Chunk => "chunk",
            SpanKind::CheckpointFlush => "checkpoint_flush",
            SpanKind::SlabEmit => "slab_emit",
        }
    }

    /// The timer counter a span of this kind charges — the one table that
    /// ties the timeline to the counters. Allocation and zeroing of the
    /// packed output and the scratch pool are part of producing the
    /// statistic, so `Alloc` charges `transform_ns`; the scheduler chunk,
    /// the checkpoint flush and the slab marker structure the timeline
    /// and charge nothing.
    pub fn counter(self) -> Option<Counter> {
        match self {
            SpanKind::PackA => Some(Counter::PackANs),
            SpanKind::PackB => Some(Counter::PackBNs),
            SpanKind::KernelBatch => Some(Counter::KernelNs),
            SpanKind::Transform | SpanKind::Alloc => Some(Counter::TransformNs),
            SpanKind::Chunk | SpanKind::CheckpointFlush | SpanKind::SlabEmit => None,
        }
    }

    /// True for zero-duration marker events.
    pub fn is_instant(self) -> bool {
        matches!(self, SpanKind::SlabEmit)
    }

    /// True for the *leaf* layers whose durations never contain one
    /// another (they may nest inside [`SpanKind::Chunk`]); the analyzer
    /// sums exactly these into the per-layer wall shares.
    pub fn is_leaf_layer(self) -> bool {
        matches!(
            self,
            SpanKind::PackA
                | SpanKind::PackB
                | SpanKind::KernelBatch
                | SpanKind::Transform
                | SpanKind::Alloc
                | SpanKind::CheckpointFlush
        )
    }

    fn from_u8(v: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(v as usize).copied()
    }
}

/// One recorded event. Timestamps are nanoseconds since the recorder's
/// epoch ([`start`]); instants have `dur_ns == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// What was measured.
    pub kind: SpanKind,
    /// Logical worker id (ring index) that recorded the event.
    pub worker: u32,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Kind-specific payload (bytes packed, word-pairs, slab index,
    /// chunk index, …).
    pub arg: u64,
}

/// Ring capacity per worker, in events (≈ 512 KiB per worker): absorbs
/// every span the slab driver emits for matrices far past the bench sizes;
/// overflow is counted, never wrapped.
pub const CAPACITY: usize = 16384;

/// Everything [`stop`] extracts from the rings: the events (sorted by
/// `(worker, start_ns)`), the drop count, and the balance diagnostics the
/// invariant tests pin.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// All recorded events, sorted by `(worker, start_ns, dur_ns desc)` so
    /// each worker's timeline reads outer-before-inner.
    pub events: Vec<SpanEvent>,
    /// Events dropped because a ring filled (fill-and-drop policy).
    pub dropped: u64,
    /// Spans begun but never ended at snapshot time (must be 0 after a
    /// clean driver run — every begin has an end).
    pub open_spans: u64,
    /// Ring capacity the recorder ran with.
    pub capacity_per_worker: usize,
    /// Number of per-worker rings.
    pub workers: usize,
}

impl TraceSnapshot {
    /// Events recorded by logical worker `w`, in timeline order.
    pub fn worker_events(&self, w: u32) -> impl Iterator<Item = &SpanEvent> {
        self.events.iter().filter(move |e| e.worker == w)
    }

    /// Count of events of one kind.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

/// One event slot. Plain atomics so slot writes are race-free even if
/// two OS threads share a logical worker id (each still owns a unique
/// reserved index, and folding ids past the ring count is safe).
struct Slot {
    kind: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    arg: AtomicU64,
}

struct Ring {
    /// Next slot to reserve; values past the capacity mean drops.
    head: AtomicUsize,
    /// Begin/end balance: +1 per span begin, −1 per span end.
    open: AtomicU64,
    slots: Box<[Slot]>,
}

struct Recorder {
    epoch: Instant,
    rings: Box<[Ring]>,
}

impl Recorder {
    fn new(workers: usize) -> Self {
        let ring = || Ring {
            head: AtomicUsize::new(0),
            open: AtomicU64::new(0),
            slots: (0..CAPACITY)
                .map(|_| Slot {
                    kind: AtomicU64::new(0),
                    start_ns: AtomicU64::new(0),
                    dur_ns: AtomicU64::new(0),
                    arg: AtomicU64::new(0),
                })
                .collect(),
        };
        Recorder {
            epoch: Instant::now(),
            rings: (0..workers.clamp(1, crate::MAX_WORKERS))
                .map(|_| ring())
                .collect(),
        }
    }

    /// Nanoseconds from the recorder epoch to `t` (0 before it).
    #[inline]
    fn since_epoch(&self, t: Instant) -> u64 {
        nanos(t.saturating_duration_since(self.epoch))
    }

    #[inline]
    fn ring(&self, worker: usize) -> &Ring {
        let w = worker.min(self.rings.len() - 1);
        &self.rings[w]
    }

    /// Reserve a slot and store the event; count a drop when full.
    #[inline]
    fn push(&self, worker: usize, kind: SpanKind, start_ns: u64, dur_ns: u64, arg: u64) {
        let ring = self.ring(worker);
        let idx = ring.head.fetch_add(1, Ordering::Relaxed);
        if idx < ring.slots.len() {
            let s = &ring.slots[idx];
            s.kind.store(kind as u64, Ordering::Relaxed);
            s.start_ns.store(start_ns, Ordering::Relaxed);
            s.dur_ns.store(dur_ns, Ordering::Relaxed);
            s.arg.store(arg, Ordering::Relaxed);
        } else {
            crate::add(Counter::TraceEventsDropped, 1);
        }
    }

    fn snapshot(&self) -> TraceSnapshot {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        let mut open = 0i64;
        for (w, ring) in self.rings.iter().enumerate() {
            let head = ring.head.load(Ordering::Relaxed);
            let filled = head.min(ring.slots.len());
            dropped += (head - filled) as u64;
            open += ring.open.load(Ordering::Relaxed) as i64;
            for s in &ring.slots[..filled] {
                let kind = match SpanKind::from_u8(s.kind.load(Ordering::Relaxed) as u8) {
                    Some(k) => k,
                    None => continue, // torn slot: skip, never panic
                };
                events.push(SpanEvent {
                    kind,
                    worker: w as u32,
                    start_ns: s.start_ns.load(Ordering::Relaxed),
                    dur_ns: s.dur_ns.load(Ordering::Relaxed),
                    arg: s.arg.load(Ordering::Relaxed),
                });
            }
        }
        events.sort_by(|a, b| {
            (a.worker, a.start_ns, std::cmp::Reverse(a.dur_ns)).cmp(&(
                b.worker,
                b.start_ns,
                std::cmp::Reverse(b.dur_ns),
            ))
        });
        TraceSnapshot {
            events,
            dropped,
            open_spans: u64::try_from(open.max(0)).unwrap_or(0),
            capacity_per_worker: CAPACITY,
            workers: self.rings.len(),
        }
    }
}

/// The active recorder, or null. Retirement rule: [`stop`] nulls this
/// pointer but keeps the box alive in [`STORE`]; only the *next*
/// [`start`] drops the previous recorder. A straggler span guard that
/// outlives `stop` therefore writes into live (dead-to-snapshots)
/// memory instead of freed memory.
static ACTIVE: AtomicPtr<Recorder> = AtomicPtr::new(std::ptr::null_mut());
static STORE: Mutex<Option<Box<Recorder>>> = Mutex::new(None);

thread_local! {
    static WORKER: Cell<usize> = const { Cell::new(0) };
}

/// Binds the calling OS thread to logical worker `worker` (its ring
/// index). Schedulers call this once per spawned worker; unbound threads
/// record into ring 0.
pub fn set_worker(worker: usize) {
    WORKER.with(|w| w.set(worker));
}

fn worker() -> usize {
    WORKER.with(Cell::get)
}

/// Installs a fresh recorder with one ring per worker (`workers` clamped
/// to `1..=MAX_WORKERS`; worker ids past the last ring fold into it, and
/// the coordinating thread shares ring 0 — both safe, slots are reserved
/// atomically). Call from the coordinating thread before spawning
/// workers; replaces (and retires) any previous recorder.
pub fn start(workers: usize) {
    let mut store = STORE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Uninstall first so nothing records into the recorder we are
    // about to drop, then install the replacement.
    ACTIVE.store(std::ptr::null_mut(), Ordering::Release);
    let mut boxed = Box::new(Recorder::new(workers));
    let ptr: *mut Recorder = &mut *boxed;
    *store = Some(boxed);
    ACTIVE.store(ptr, Ordering::Release);
}

/// Uninstalls the active recorder and returns its snapshot. Call after
/// joining workers. `None` when no recorder was active.
pub fn stop() -> Option<TraceSnapshot> {
    let store = STORE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let was = ACTIVE.swap(std::ptr::null_mut(), Ordering::AcqRel);
    if was.is_null() {
        return None;
    }
    // The box outlives the snapshot (it stays in STORE until the next
    // start), so reading through the raw pointer is sound while we
    // hold the lock.
    let rec = store.as_deref()?;
    Some(rec.snapshot())
}

/// True while a recorder is installed. One relaxed atomic load.
#[inline]
pub fn is_active() -> bool {
    !ACTIVE.load(Ordering::Relaxed).is_null()
}

/// Snapshots the active recorder **without uninstalling it** — the
/// continuously-armed daemon dump path (SIGUSR1 / `dump-trace`). Holding
/// the STORE lock keeps the box alive while the rings are read; workers
/// keep recording throughout (relaxed ring reads), so the snapshot is the
/// same point-in-time approximation [`stop`] produces. `None` when no
/// recorder is armed.
pub fn snapshot_live() -> Option<TraceSnapshot> {
    let store = STORE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if ACTIVE.load(Ordering::Acquire).is_null() {
        return None;
    }
    let rec = store.as_deref()?;
    Some(rec.snapshot())
}

/// Active recorder, if any. SAFETY: callers only use the reference
/// transiently (no storage across calls); the pointed-to recorder is
/// kept alive by STORE until the next `start`, per the module
/// lifecycle contract.
#[inline]
fn active() -> Option<&'static Recorder> {
    let p = ACTIVE.load(Ordering::Acquire);
    if p.is_null() {
        None
    } else {
        // SAFETY: see above — non-null ACTIVE points into the boxed
        // recorder held by STORE, which is retired only by the next
        // start(); the reference does not escape the recording call.
        Some(unsafe { &*p })
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Records a zero-duration marker event (e.g. [`SpanKind::SlabEmit`]).
#[inline]
pub fn instant(kind: SpanKind, arg: u64) {
    if let Some(rec) = active() {
        rec.push(worker(), kind, rec.since_epoch(Instant::now()), 0, arg);
    }
}

/// A scoped layer timer: the elapsed time from [`Span::begin`] to
/// [`Span::end`] (or drop) is charged to the kind's timer counter
/// ([`SpanKind::counter`]) and, when a recorder was armed at `begin`,
/// recorded as an event with that same start and duration.
///
/// ```
/// use ld_trace::recorder::{Span, SpanKind};
/// let before = ld_trace::get(ld_trace::Counter::PackANs);
/// let span = Span::begin(SpanKind::PackA);
/// // ... pack a panel ...
/// let ns = span.end(512); // payload: bytes packed
/// assert!(ld_trace::get(ld_trace::Counter::PackANs) >= before + ns);
/// ```
#[derive(Debug)]
#[must_use = "a span times until end/drop; binding to _ ends it immediately"]
pub struct Span {
    kind: SpanKind,
    start: Instant,
    /// A recorder was armed at `begin` (its ring counted the span open).
    armed: bool,
}

impl Span {
    /// Begins a span of `kind` on the current worker's timeline.
    #[inline]
    pub fn begin(kind: SpanKind) -> Self {
        let armed = active().is_some_and(|rec| {
            rec.ring(worker()).open.fetch_add(1, Ordering::Relaxed);
            true
        });
        Span {
            kind,
            start: Instant::now(),
            armed,
        }
    }

    /// Ends the span with `arg` as its event payload; returns its
    /// duration in nanoseconds (what the counter was charged).
    #[inline]
    pub fn end(self, arg: u64) -> u64 {
        let ns = self.close(arg);
        std::mem::forget(self);
        ns
    }

    #[inline]
    fn close(&self, arg: u64) -> u64 {
        let ns = nanos(self.start.elapsed());
        if let Some(c) = self.kind.counter() {
            crate::add(c, ns);
        }
        if let Some(rec) = active().filter(|_| self.armed) {
            let w = worker();
            rec.push(w, self.kind, rec.since_epoch(self.start), ns, arg);
            // a balance read back as i64 in snapshot(): an end without a
            // begin shows up as a negative balance, never as corruption
            rec.ring(w).open.fetch_sub(1, Ordering::Relaxed);
        }
        ns
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        self.close(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as lock;

    #[test]
    fn inactive_recorder_is_inert() {
        let _g = lock();
        while stop().is_some() {}
        assert!(!is_active());
        let s = Span::begin(SpanKind::PackA);
        s.end(1);
        instant(SpanKind::SlabEmit, 0);
        assert!(stop().is_none());
    }

    #[test]
    fn records_and_snapshots_spans() {
        let _g = lock();
        crate::reset();
        start(2);
        assert!(is_active());
        set_worker(0);
        let s = Span::begin(SpanKind::PackB);
        std::thread::sleep(std::time::Duration::from_millis(1));
        s.end(64);
        instant(SpanKind::SlabEmit, 3);
        let snap = stop().expect("snapshot");
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.open_spans, 0);
        let span = &snap.events[0];
        assert_eq!(span.kind, SpanKind::PackB);
        assert_eq!(span.arg, 64);
        assert!(span.dur_ns >= 1_000_000);
        assert_eq!(snap.events[1].kind, SpanKind::SlabEmit);
        assert_eq!(snap.events[1].dur_ns, 0);
        assert!(snap.events[1].start_ns >= span.start_ns + span.dur_ns);
        assert!(stop().is_none(), "stop is one-shot");
    }

    #[test]
    fn span_end_charges_its_counter() {
        let _g = lock();
        while stop().is_some() {}
        crate::reset();
        // unarmed: the counter is charged all the same
        let s = Span::begin(SpanKind::KernelBatch);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ns = s.end(0);
        assert!(ns >= 2_000_000);
        assert_eq!(crate::get(Counter::KernelNs), ns);
        // armed: the event carries exactly what the counter was charged,
        // for an explicit end and for a dropped guard alike
        start(1);
        let ns = Span::begin(SpanKind::PackA).end(8);
        drop(Span::begin(SpanKind::Alloc));
        Span::begin(SpanKind::Chunk).end(0);
        let snap = stop().expect("snapshot");
        let dur = |k| snap.events.iter().find(|e| e.kind == k).map(|e| e.dur_ns);
        assert_eq!(dur(SpanKind::PackA), Some(ns));
        assert_eq!(crate::get(Counter::PackANs), ns);
        assert_eq!(dur(SpanKind::Alloc), Some(crate::get(Counter::TransformNs)));
        assert_eq!(
            snap.events.len(),
            3,
            "a chunk is recorded, charging nothing"
        );
    }

    #[test]
    fn overflow_fills_and_drops_with_accounting() {
        let _g = lock();
        crate::reset();
        start(1);
        for i in 0..CAPACITY as u64 + 6 {
            instant(SpanKind::SlabEmit, i);
        }
        let snap = stop().expect("snapshot");
        assert_eq!(
            snap.events.len(),
            CAPACITY,
            "ring keeps the first `CAPACITY` events"
        );
        let args: Vec<u64> = snap.events.iter().map(|e| e.arg).collect();
        assert_eq!(
            args,
            (0..CAPACITY as u64).collect::<Vec<_>>(),
            "fill-and-drop, never wrap"
        );
        assert_eq!(snap.dropped, 6);
        assert_eq!(crate::get(Counter::TraceEventsDropped), 6);
    }

    #[test]
    fn drop_guard_ends_the_span() {
        let _g = lock();
        crate::reset();
        start(1);
        {
            let _s = Span::begin(SpanKind::Transform);
            // dropped without an explicit end
        }
        let snap = stop().expect("snapshot");
        assert_eq!(snap.count(SpanKind::Transform), 1);
        assert_eq!(snap.open_spans, 0);
    }

    #[test]
    fn worker_ids_fold_into_last_ring() {
        let _g = lock();
        crate::reset();
        start(2);
        set_worker(57);
        instant(SpanKind::SlabEmit, 9);
        set_worker(0);
        let snap = stop().expect("snapshot");
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].worker, 1, "folds into the last ring");
    }
}
