//! Allocation accounting for masked `r²` on the engine: its peak heap is
//! the packed triangle, the interleaved `[s ∧ c, c]` panel and one slab of
//! plane counts per worker — `threads × (2·slab) × (2·n) × 4` bytes — not
//! the three `n²` u32 products (`12 n²` bytes) of a per-product GEMM.
//!
//! Its own integration-test binary, so the counting allocator sees only
//! this test's traffic (as in `ld-core`'s `memory_bound.rs`).

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

#[test]
fn masked_r2_peak_is_the_triangle_the_panel_and_one_slab_per_worker() {
    use ld_bitmat::{words_for, BitMatrix, ValidityMask};
    use ld_core::{LdEngine, NanPolicy};
    use ld_ext::gaps_blocked::masked_r2_matrix_blocked;

    let (n_samples, n, threads, slab) = (256usize, 1500usize, 2usize, 64usize);
    let mut g = BitMatrix::zeros(n_samples, n);
    let mut mask = ValidityMask::all_valid(n_samples, n);
    for j in 0..n {
        for s in 0..n_samples {
            g.set(s, j, (s * 31 + j * 17 + s * j) % 5 == 0);
            if (s * 7 + j * 13) % 11 == 0 {
                mask.set_missing(s, j);
            }
        }
    }
    let e = LdEngine::new()
        .threads(threads)
        .slab_rows(slab)
        .nan_policy(NanPolicy::Zero);
    // warm up the worker plumbing outside the measured section
    masked_r2_matrix_blocked(&e, &g.view(0, 100), &mask).unwrap();

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let m = masked_r2_matrix_blocked(&e, &g.full_view(), &mask).unwrap();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    assert_eq!(m.n_snps(), n);

    let triangle = n * (n + 1) / 2 * 8;
    let panel = 2 * n * words_for(n_samples) * 8;
    let scratch = threads * (2 * slab) * (2 * n) * 4;
    let overhead = 512 * 1024;
    assert!(
        peak >= triangle,
        "peak {peak} cannot be below its own output ({triangle})"
    );
    assert!(
        peak <= triangle + panel + scratch + overhead,
        "peak {peak} exceeds triangle {triangle} + panel {panel} + slab counts {scratch} \
         + {overhead}"
    );
    assert!(
        peak < 12 * n * n,
        "peak {peak} is in the class of three n² u32 products"
    );
}
