//! Lock-free log₂-bucketed latency histograms, cumulative and rolling.
//!
//! Two shapes share one bucket layout (the [`BUCKETS`] log₂ partition):
//!
//! * [`Histogram`] — a cumulative-since-boot histogram: `BUCKETS` relaxed
//!   atomic counters plus a running count and nanosecond sum. This is the
//!   Prometheus-native shape (`_bucket`/`_sum`/`_count`).
//! * [`RollingHistogram`] — a ring of [`SLICES`] fixed 5-second
//!   [`SLICE_SECS`] slices, each itself a small histogram. A write lands
//!   in the slice owning the current wall-clock slice index; a window
//!   query sums every slice young enough to intersect the window. Old
//!   slices are never swept by a background thread — the *next writer*
//!   that lands on a stale slice recycles it in place (CAS on the slice
//!   epoch, zero, publish), so the type stays allocation-free and
//!   thread-free like every other `ld-trace` hot-path facility.
//!
//! ## Window semantics
//!
//! Windows are quantized to slice boundaries: a nominal `W`-second window
//! covers the current (partial) slice plus the `W / SLICE_SECS` whole
//! slices before it, i.e. **at least `W` and at most `W + SLICE_SECS`
//! seconds** of data. Readers skip a slice mid-recycle (its `ready` tag
//! lags its epoch for the ~40 stores of the zeroing loop), so a rotation
//! can transiently hide one slice — bounded, and only at slice edges.
//!
//! ## Memory model
//!
//! Everything is static-friendly: `const fn new()`, no heap, no locks.
//! One `Histogram` is `(BUCKETS + 2) × 8 = 336` bytes; one
//! `RollingHistogram` is `SLICES × (BUCKETS + 4) × 8 ≈ 22` KiB. Writers
//! use relaxed adds; the only stronger orderings are the acquire/release
//! pair that publishes a recycled slice.
//!
//! All clock-taking entry points come in `*_at(now_ns, ..)` form taking
//! an explicit monotonic timestamp, so tests drive a mocked clock; the
//! convenience wrappers use a process-global monotonic epoch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of log₂ buckets: bucket `i` counts samples with
/// `⌊log₂ ns⌋ = i`; bucket 0 also takes `ns ≤ 1`, and the last bucket
/// absorbs everything from `2^39` ns (≈ 9 min) up.
pub const BUCKETS: usize = 40;

/// Width of one rolling-histogram slice, seconds.
pub const SLICE_SECS: u64 = 5;

/// Slices in a [`RollingHistogram`] ring: covers `64 × 5 s = 320 s`,
/// enough for the largest supported window (5 min) plus its partial
/// leading slice.
pub const SLICES: usize = 64;

/// The rolling windows the serve telemetry plane exposes, as
/// `(label, seconds)` pairs in exposition order.
pub const WINDOWS: [(&str, u64); 3] = [("10s", 10), ("1m", 60), ("5m", 300)];

const SLICE_NS: u64 = SLICE_SECS * 1_000_000_000;

/// The log₂ bucket a nanosecond value falls into.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound (ns) of bucket `i` — what the conservative
/// quantile estimator reports for samples landing in that bucket.
#[inline]
pub fn bucket_ceiling_ns(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// Nanoseconds since the process-global monotonic epoch (first call).
/// All rolling-histogram convenience wrappers share this clock so their
/// slice indices agree.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[allow(clippy::declare_interior_mutable_const)] // array-init pattern
const ZERO: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------------
// Cumulative histogram
// ---------------------------------------------------------------------------

/// A cumulative log₂ histogram on relaxed atomics: `BUCKETS` counters
/// plus a running sample count and nanosecond sum (the Prometheus
/// `_bucket`/`_count`/`_sum` triple).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Histogram {
    /// An empty histogram (usable in `static` position).
    pub const fn new() -> Self {
        Self {
            buckets: [ZERO; BUCKETS],
            count: ZERO,
            sum_ns: ZERO,
        }
    }

    /// Records one sample of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buckets/count/sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every bucket (tests and [`crate::reset`] only; concurrent
    /// writers may interleave).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of a [`Histogram`] (or of a rolling window),
/// with conservative bucket-quantile estimation: a sample is reported at
/// its bucket's inclusive upper bound, so quantiles never under-state
/// what a client saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`buckets[i]` ⇔ `⌊log₂ ns⌋ = i`).
    pub buckets: [u64; BUCKETS],
    /// Total samples (the sum of `buckets`).
    pub count: u64,
    /// Sum of all recorded nanosecond values.
    pub sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The `q`-quantile in nanoseconds (bucket upper bound), or `None`
    /// when empty. `q` is clamped to `(0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_ceiling_ns(i));
            }
        }
        Some(bucket_ceiling_ns(BUCKETS - 1))
    }

    /// Median (ns), when any sample was recorded.
    pub fn p50_ns(&self) -> Option<u64> {
        self.quantile_ns(0.50)
    }

    /// 99th percentile (ns), when any sample was recorded.
    pub fn p99_ns(&self) -> Option<u64> {
        self.quantile_ns(0.99)
    }

    /// Adds another snapshot's samples into this one (window summation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }
}

// ---------------------------------------------------------------------------
// Rolling histogram
// ---------------------------------------------------------------------------

/// One ring slot. `epoch` holds `slice_index + 1` (0 = never written);
/// `ready` trails `epoch` while a recycling writer zeroes the buckets and
/// equals it once the slice is publishable.
struct Slice {
    epoch: AtomicU64,
    ready: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-init pattern
const EMPTY_SLICE: Slice = Slice {
    epoch: ZERO,
    ready: ZERO,
    buckets: [ZERO; BUCKETS],
    count: ZERO,
    sum_ns: ZERO,
};

/// A log₂ histogram with rolling time windows: a ring of [`SLICES`]
/// 5-second slices recycled in place by writers (see the module docs for
/// the window and memory model).
pub struct RollingHistogram {
    slices: [Slice; SLICES],
}

impl RollingHistogram {
    /// An empty rolling histogram (usable in `static` position).
    pub const fn new() -> Self {
        Self {
            slices: [EMPTY_SLICE; SLICES],
        }
    }

    /// Records one sample of `ns` nanoseconds at the current wall clock.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.record_at(now_ns(), ns);
    }

    /// Records one sample of `ns` nanoseconds as of monotonic timestamp
    /// `now_ns` (mocked-clock entry point; timestamps must be
    /// non-decreasing per writer for windows to make sense).
    pub fn record_at(&self, now_ns: u64, ns: u64) {
        let e = now_ns / SLICE_NS + 1; // +1: epoch 0 means "never written"
        let slice = &self.slices[(e % SLICES as u64) as usize];
        loop {
            let cur = slice.epoch.load(Ordering::Acquire);
            if cur == e {
                if slice.ready.load(Ordering::Acquire) == e {
                    break; // live slice, ready to take samples
                }
                // another writer is zeroing it; the wait is ~40 stores
                std::hint::spin_loop();
                continue;
            }
            if cur > e {
                // a writer with a newer clock already recycled this slot;
                // our sample belongs to a slice that no longer exists
                return;
            }
            if slice
                .epoch
                .compare_exchange(cur, e, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                for b in &slice.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                slice.count.store(0, Ordering::Relaxed);
                slice.sum_ns.store(0, Ordering::Relaxed);
                slice.ready.store(e, Ordering::Release);
                break;
            }
        }
        slice.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        slice.count.fetch_add(1, Ordering::Relaxed);
        slice.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Sums every slice intersecting the trailing `window_secs` window at
    /// the current wall clock.
    pub fn window(&self, window_secs: u64) -> HistogramSnapshot {
        self.window_at(now_ns(), window_secs)
    }

    /// Sums every slice intersecting the trailing `window_secs` window as
    /// of monotonic timestamp `now_ns` (mocked-clock entry point).
    pub fn window_at(&self, now_ns: u64, window_secs: u64) -> HistogramSnapshot {
        let cur = now_ns / SLICE_NS + 1;
        // current partial slice + window/SLICE whole slices before it
        let span = (window_secs / SLICE_SECS + 1).min(SLICES as u64);
        let oldest = cur.saturating_sub(span - 1);
        let mut out = HistogramSnapshot::default();
        for slice in &self.slices {
            let e = slice.epoch.load(Ordering::Acquire);
            if e < oldest || e > cur || slice.ready.load(Ordering::Acquire) != e {
                continue; // stale, future, or mid-recycle
            }
            for (slot, b) in out.buckets.iter_mut().zip(&slice.buckets) {
                *slot += b.load(Ordering::Relaxed);
            }
            out.count += slice.count.load(Ordering::Relaxed);
            out.sum_ns += slice.sum_ns.load(Ordering::Relaxed);
        }
        out
    }

    /// Empties every slice (tests and [`crate::reset`] only).
    pub fn reset(&self) {
        for slice in &self.slices {
            slice.ready.store(0, Ordering::Relaxed);
            slice.epoch.store(0, Ordering::Relaxed);
            for b in &slice.buckets {
                b.store(0, Ordering::Relaxed);
            }
            slice.count.store(0, Ordering::Relaxed);
            slice.sum_ns.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for RollingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // ceilings are inclusive upper bounds of their bucket
        assert_eq!(bucket_ceiling_ns(0), 1);
        assert_eq!(bucket_ceiling_ns(10), 2047);
        assert_eq!(bucket_index(bucket_ceiling_ns(10)), 10);
    }

    #[test]
    fn quantiles_from_buckets() {
        let mut s = HistogramSnapshot::default();
        assert_eq!(s.p50_ns(), None);
        assert_eq!(s.p99_ns(), None);
        // 90 fast requests (~1µs bucket) and 10 slow (~1ms bucket)
        s.buckets[10] = 90;
        s.buckets[20] = 10;
        s.count = 100;
        assert_eq!(s.p50_ns(), Some(bucket_ceiling_ns(10)));
        assert_eq!(s.quantile_ns(0.90), Some(bucket_ceiling_ns(10)));
        assert_eq!(s.p99_ns(), Some(bucket_ceiling_ns(20)));
        assert_eq!(s.quantile_ns(1.0), Some(bucket_ceiling_ns(20)));
    }

    #[test]
    fn cumulative_histogram_counts_and_sums() {
        let h = Histogram::new();
        h.record(1_500);
        h.record(1_500);
        h.record(3_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 3_003_000);
        assert_eq!(s.buckets[10], 2);
        assert_eq!(s.buckets[21], 1);
        assert_eq!(s.p50_ns(), Some(bucket_ceiling_ns(10)));
        h.reset();
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn rolling_slices_rotate_and_expire() {
        let r = RollingHistogram::new();
        let t0 = 1_000_000_000; // 1 s
        r.record_at(t0, 500);
        assert_eq!(r.window_at(t0, 10).count, 1);
        // still visible one slice later, gone after the window passes
        assert_eq!(r.window_at(t0 + 6 * 1_000_000_000, 10).count, 1);
        assert_eq!(r.window_at(t0 + 400 * 1_000_000_000, 10).count, 0);
        // but the 5m window still sees it at +60 s
        assert_eq!(r.window_at(t0 + 60 * 1_000_000_000, 300).count, 1);
    }

    #[test]
    fn ring_reuse_recycles_stale_slices() {
        let r = RollingHistogram::new();
        r.record_at(0, 100);
        // SLICES slices later the same slot is reused for a new epoch
        let later = SLICES as u64 * SLICE_NS + 1;
        r.record_at(later, 200);
        let w = r.window_at(later, 10);
        assert_eq!(w.count, 1);
        assert_eq!(w.sum_ns, 200);
    }
}
