//! Allocation accounting for the fused pipeline's memory bound.
//!
//! A counting global allocator tracks live and peak heap bytes; the test
//! verifies the tentpole claim: `stat_matrix`'s transient peak is the
//! packed output plus `O(threads × slab × n)` u32 scratch — *not* the
//! `4n²`-byte counts matrix the two-pass oracle allocates.
//!
//! This file is its own integration-test binary so the allocator hooks see
//! only this test's traffic (cargo builds each `tests/*.rs` separately).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the tests: `LIVE`/`PEAK` are process-global, so a sibling
/// test allocating concurrently would bill its buffers to whichever
/// section is being measured.
fn lock_heap() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` and returns its peak heap growth in bytes over the level at
/// entry (allocations made before and freed after `f` don't count against
/// it; thread-stack memory is not heap and is excluded by construction).
/// Callers hold [`lock_heap`] for the whole test.
fn peak_heap_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (peak.saturating_sub(base), r)
}

#[test]
fn fused_peak_memory_is_slab_bounded() {
    let _heap = lock_heap();
    use ld_bitmat::BitMatrix;
    use ld_core::{LdEngine, LdStats, NanPolicy};
    use ld_rng::SmallRng;

    let (n_samples, n) = (256usize, 600usize);
    let (threads, slab) = (2usize, 8usize);
    let mut rng = SmallRng::seed_from_u64(0x3e3);
    let mut g = BitMatrix::zeros(n_samples, n);
    for j in 0..n {
        for s in 0..n_samples {
            if rng.gen_bool(0.4) {
                g.set(s, j, true);
            }
        }
    }
    let e = LdEngine::new()
        .threads(threads)
        .slab_rows(slab)
        .nan_policy(NanPolicy::Zero);

    // Warm up once so lazily-initialized runtime structures don't bill
    // either measured section.
    let _ = e.r2_matrix(&g);

    let packed_bytes = n * (n + 1) / 2 * 8;
    let counts_bytes = n * n * 4;
    let scratch_bytes = threads * slab * n * 4;
    // transform tables (3 vecs of n), pack buffers, thread plumbing, slack
    let overhead = 512 * 1024;

    let (fused_peak, fused) = peak_heap_during(|| e.stat_matrix(&g, LdStats::RSquared));
    let (twopass_peak, oracle) = peak_heap_during(|| e.stat_matrix_twopass(&g, LdStats::RSquared));

    // Sanity: both computed the same thing (and the matrices stay alive
    // until here so their storage counts inside the measured sections).
    for (a, b) in fused.packed().iter().zip(oracle.packed()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    assert!(
        fused_peak >= packed_bytes,
        "fused peak {fused_peak} cannot be below its own output ({packed_bytes})"
    );
    assert!(
        fused_peak <= packed_bytes + scratch_bytes + overhead,
        "fused peak {fused_peak} exceeds packed {packed_bytes} + slab scratch \
         {scratch_bytes} + overhead {overhead} — the O(threads × slab × n) bound is broken"
    );
    // The oracle really does pay for the full counts matrix…
    assert!(
        twopass_peak >= packed_bytes + counts_bytes,
        "two-pass peak {twopass_peak} below packed {packed_bytes} + counts {counts_bytes}"
    );
    // …and the fused path avoids it with room to spare.
    assert!(
        fused_peak + counts_bytes / 2 < twopass_peak,
        "fused peak {fused_peak} not clearly below two-pass peak {twopass_peak}"
    );
}

#[test]
fn streaming_rows_never_materialize_the_triangle() {
    let _heap = lock_heap();
    use ld_bitmat::BitMatrix;
    use ld_core::{LdEngine, LdStats, NanPolicy, RunControl};

    let (n_samples, n) = (128usize, 600usize);
    let (threads, slab) = (2usize, 8usize);
    let mut g = BitMatrix::zeros(n_samples, n);
    for j in 0..n {
        for s in 0..n_samples {
            if (s * 31 + j * 17) % 5 == 0 {
                g.set(s, j, true);
            }
        }
    }
    let e = LdEngine::new()
        .threads(threads)
        .slab_rows(slab)
        .nan_policy(NanPolicy::Zero);
    let _ = e.r2_matrix(&g); // warm-up (see above)

    let (peak, sum) = peak_heap_during(|| {
        let mut acc = 0.0f64;
        let visit = |s: &ld_core::RowSlabVisit<'_>| {
            for (_, row) in s.rows() {
                acc += row.iter().copied().filter(|v| !v.is_nan()).sum::<f64>();
            }
        };
        e.try_stat_rows_with(&g, LdStats::RSquared, visit, &RunControl::new())
            .unwrap();
        acc
    });
    assert!(sum.is_finite() && sum > 0.0);

    let packed_bytes = n * (n + 1) / 2 * 8;
    // counts (u32) + values (f64) scratch per worker, plus slack
    let scratch_bytes = threads * slab * n * (4 + 8);
    let overhead = 512 * 1024;
    assert!(
        peak <= scratch_bytes + overhead,
        "streaming peak {peak} exceeds scratch bound {scratch_bytes} + {overhead}"
    );
    assert!(
        peak < packed_bytes / 2,
        "streaming peak {peak} is in the same class as the packed triangle ({packed_bytes})"
    );
}

/// A top-k listing over the shared row visitor — per slab, the unlocked
/// phase keeps at most `K` candidates; the ordered phase folds them into
/// `K` — peaks at the driver's scratch whatever `n` is: doubling `n`
/// doubles the peak (a triangle, or a list of kept pairs, would
/// quadruple it), and no request comes near `n(n+1)/2` values.
#[test]
fn streamed_top_k_peak_is_linear_in_n() {
    let _heap = lock_heap();
    use ld_bitmat::BitMatrix;
    use ld_core::{in_row_order, LdEngine, LdStats, NanPolicy, RowSlabVisit, RunControl};

    const K: usize = 20;
    let (n_samples, threads, slab) = (64usize, 2usize, 8usize);
    let e = LdEngine::new()
        .threads(threads)
        .slab_rows(slab)
        .nan_policy(NanPolicy::Zero);
    let top_k = |pairs: &mut Vec<(usize, usize, f64)>| {
        pairs.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        pairs.truncate(K);
    };
    let peak_at = |n: usize| {
        let mut g = BitMatrix::zeros(n_samples, n);
        for j in 0..n {
            for s in 0..n_samples {
                if (s * 31 + j * 17 + s * j) % 5 == 0 {
                    g.set(s, j, true);
                }
            }
        }
        let _ = e.try_stat_rows_with(&g, LdStats::RSquared, |_| {}, &RunControl::new()); // warm-up
        let (peak, best) = peak_heap_during(|| {
            let mut best = Vec::with_capacity(2 * K);
            let strongest_of = |s: &RowSlabVisit<'_>| {
                let mut kept = Vec::with_capacity(2 * K);
                for (i, row) in s.rows() {
                    for (t, &v) in row[1..].iter().enumerate() {
                        kept.push((i, i + 1 + t, v));
                        if kept.len() == 2 * K {
                            top_k(&mut kept);
                        }
                    }
                }
                top_k(&mut kept);
                kept
            };
            let fold = |slab_best: Vec<(usize, usize, f64)>| {
                best.extend(slab_best);
                top_k(&mut best);
            };
            let visit = in_row_order(strongest_of, fold);
            e.try_stat_rows_shared_with(&g, LdStats::RSquared, visit, &RunControl::new())
                .unwrap();
            best
        });
        assert_eq!(best.len(), K);
        assert!(best.windows(2).all(|w| w[0].2 >= w[1].2));
        peak
    };
    let (n, overhead) = (1000usize, 256 * 1024);
    let (small, large) = (peak_at(n), peak_at(2 * n));
    // counts (u32) + values (f64) scratch per worker
    let scratch = |n: usize| threads * slab * n * (4 + 8);
    assert!(small <= scratch(n) + overhead, "{small} at {n} SNPs");
    assert!(
        large <= scratch(2 * n) + overhead,
        "{large} at {} SNPs",
        2 * n
    );
    assert!(
        large < 3 * small,
        "peak grew {small} -> {large} for 2x the SNPs: not linear"
    );
    let triangle = 2 * n * (2 * n + 1) / 2 * 8;
    assert!(
        large < triangle / 20,
        "{large} vs a {triangle}-byte triangle"
    );
}

/// The banded consumers hold what their band needs: `haplotype_blocks` the
/// `n × 127` values its searcher reads plus one strip of scratch per
/// worker — not the `D'` triangle (36 MB here) — and `DecayProfile` the
/// driver's `slab × (slab + max_dist)` strip plus the one slab being
/// folded, not a `max_dist²`-class block.
#[test]
fn banded_consumers_follow_the_band_not_the_triangle() {
    let _heap = lock_heap();
    use ld_bitmat::BitMatrix;
    use ld_core::{haplotype_blocks, DecayProfile, LdEngine, NanPolicy};
    use ld_rng::SmallRng;

    let (n_samples, n) = (128usize, 3000usize);
    let mut rng = SmallRng::seed_from_u64(0xb10c);
    let mut g = BitMatrix::zeros(n_samples, n);
    for j in 0..n {
        for s in 0..n_samples {
            if rng.gen_bool(0.4) {
                g.set(s, j, true);
            }
        }
    }
    let slab = 64usize; // the engine default
    let overhead = 512 * 1024; // tables, pack buffers, thread plumbing
    let warm = g.view(0, 200);

    let threads = 2usize;
    let e = LdEngine::new().threads(threads).nan_policy(NanPolicy::Zero);
    haplotype_blocks(&e, warm, 0.8).unwrap();
    let (peak, blocks) = peak_heap_during(|| haplotype_blocks(&e, &g, 0.8).unwrap());
    assert!(blocks.iter().all(|b| b.len() >= 2 && b.end <= n));
    let band = 127usize;
    let stored = n * band * 8;
    let scratch = threads * slab * (slab + band) * (4 + 8);
    assert!(
        peak <= stored + scratch + overhead,
        "blocks peak {peak} exceeds band storage {stored} + scratch {scratch} + {overhead}"
    );

    // One worker: slabs arrive in order, so the reorder buffer holds only
    // the slab just copied and the bound is exact rather than likely.
    let max_dist = 2000usize;
    let e = LdEngine::new().threads(1).nan_policy(NanPolicy::Zero);
    DecayProfile::compute(&e, warm, max_dist, 100).unwrap();
    let (peak, profile) =
        peak_heap_during(|| DecayProfile::compute(&e, &g, max_dist, 100).unwrap());
    assert_eq!(profile.bins().len(), 20);
    let scratch = slab * (slab + max_dist) * (4 + 8);
    let held = slab * max_dist * 8;
    assert!(
        peak <= scratch + held + overhead,
        "decay peak {peak} exceeds scratch {scratch} + one held slab {held} + {overhead}"
    );
}

/// The out-of-core rows driver's peak heap is the slab panel, the chunk
/// double-buffers and the per-slab values strip — it never materializes
/// the full genotype matrix (which lives only in the tile store) nor the
/// packed triangle. Doubling the SNP count must grow the peak at most
/// linearly (the values strip and transform tables), never with the
/// full-`G` or `n²` classes.
#[test]
fn outofcore_rows_peak_is_slab_panel_bounded() {
    let _heap = lock_heap();
    use ld_bitmat::{words_for, BitMatrix};
    use ld_core::{LdEngine, LdStats, MemoryTileStore, NanPolicy, RunControl};

    let n_samples = 16_384usize; // multiple of 64: no tail-word padding
    let (slab, chunk) = (8usize, 16usize);
    let wps = words_for(n_samples);

    let build = |n: usize| {
        let mut words = ld_bitmat::AlignedWords::zeroed(n * wps);
        for (i, w) in words.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        }
        BitMatrix::from_words(n_samples, n, words).unwrap()
    };
    let e = LdEngine::new()
        .threads(2)
        .slab_rows(slab)
        .nan_policy(NanPolicy::Zero);

    // Warm up the streamed path once (thread plumbing, lazy runtime
    // structures) so they don't bill the measured sections.
    let warm = MemoryTileStore::from_matrix(&build(40), chunk).unwrap();
    e.try_stat_rows_outofcore_with(&warm, LdStats::RSquared, |_| {}, &RunControl::new())
        .unwrap();

    let run = |n: usize| {
        // The store (the full encoded G) is allocated *outside* the
        // measured section — that's the point of out-of-core: it could
        // as well be a directory on disk.
        let store = MemoryTileStore::from_matrix(&build(n), chunk).unwrap();
        let (peak, sum) = peak_heap_during(|| {
            let mut acc = 0.0f64;
            e.try_stat_rows_outofcore_with(
                &store,
                LdStats::RSquared,
                |s| {
                    for (_, row) in s.rows() {
                        acc += row.iter().copied().filter(|v| !v.is_nan()).sum::<f64>();
                    }
                },
                &RunControl::new(),
            )
            .unwrap();
            acc
        });
        assert!(sum.is_finite() && sum > 0.0);
        peak
    };

    let (n1, n2) = (600usize, 1200usize);
    let peak1 = run(n1);
    let peak2 = run(n2);

    let full_g_bytes = n2 * wps * 8;
    let packed_bytes = n2 * (n2 + 1) / 2 * 8;
    // values strip + counts scratch + panel assembly (chunk-aligned, with
    // the BitMatrix copy) + prefetch double-buffers + transform tables
    let values = slab * n2 * 8;
    let counts = slab * chunk * 4;
    let panel = 4 * (slab + 2 * chunk) * wps * 8;
    let buffers = 4 * chunk * wps * 8;
    let tables = 64 * n2;
    let overhead = 512 * 1024;
    let bound = values + counts + panel + buffers + tables + overhead;
    assert!(
        peak2 <= bound,
        "out-of-core peak {peak2} exceeds the slab×panel bound {bound} \
         (values {values} + panel {panel} + buffers {buffers} + tables {tables} \
         + overhead {overhead})"
    );
    assert!(
        peak2 < full_g_bytes / 2,
        "out-of-core peak {peak2} is in the same class as the full matrix ({full_g_bytes})"
    );
    assert!(
        peak2 < packed_bytes / 4,
        "out-of-core peak {peak2} is in the same class as the packed triangle ({packed_bytes})"
    );
    // Doubling n may at most double the linear terms — a quadratic or
    // full-G dependence would show up as ≳4×.
    assert!(
        peak2 <= 2 * peak1 + 128 * 1024,
        "peak grew superlinearly with n: {peak1} → {peak2}"
    );
}
