//! Allocation accounting for text ingestion.
//!
//! A counting global allocator tracks live and peak heap bytes while an
//! `n × k` file is parsed; the peak must stay within two packed copies of
//! the matrix (sample-major words, then their SNP-major transpose) plus
//! the read buffer and one line. A byte-per-genotype intermediate — eight
//! packed copies — cannot come back without failing this.
//!
//! Its own integration-test binary so the allocator hooks see only this
//! file's traffic (the `crates/core/tests/memory_bound.rs` pattern).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s contract is the caller's; the counters are
// plain atomics and never touch the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for its alignment.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its peak heap growth over the level at entry.
fn peak_heap_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = f();
    (PEAK.load(Ordering::Relaxed).saturating_sub(base), r)
}

/// One test, so nothing else allocates while a section is measured.
#[test]
fn peak_heap_of_text_ingestion_is_two_packed_copies() {
    use ld_bitmat::{words_for, BitMatrix};
    use ld_io::{ms, text, MatrixFormat};
    use std::io::BufReader;

    // neither dimension a power of two: the row vector's growth slack and
    // both word paddings are in play
    let (n_samples, n_snps) = (3000usize, 1000usize);
    let g = ld_data::HaplotypeSimulator::new(n_samples, n_snps)
        .seed(5)
        .generate();
    let packed = 8 * (n_samples * words_for(n_snps)).max(n_snps * words_for(n_samples));
    let buffer = 64 << 10;
    let line = n_snps + 1;
    // the `positions:` line as text and as `f64`s, and allocator rounding
    let slack = 48 << 10;

    type Parse = fn(BufReader<&[u8]>) -> BitMatrix;
    let cases: [(MatrixFormat, Parse); 2] = [
        (MatrixFormat::Ms, |r| ms::read_ms_first(r).unwrap().matrix),
        (MatrixFormat::Text, |r| text::read_matrix(r).unwrap()),
    ];
    for (format, parse) in cases {
        let mut bytes = Vec::new();
        format.write(&mut bytes, &g).unwrap();
        assert!(bytes.len() >= n_samples * n_snps, "one byte per genotype");
        // warm up once so lazily-initialised runtime state is not billed
        assert_eq!(parse(BufReader::with_capacity(buffer, &bytes)), g);

        let (peak, parsed) = peak_heap_during(|| parse(BufReader::with_capacity(buffer, &bytes)));
        assert_eq!(parsed, g);
        let bound = 2 * packed + buffer + line + slack;
        assert!(
            peak <= bound,
            "{format:?}: peak heap {peak} B exceeds 2 x {packed} B packed + {buffer} B buffer \
             + one line + slack = {bound} B (the text is {} B)",
            bytes.len()
        );
        // and the bound has teeth: it is far below a byte per genotype
        assert!(bound < n_samples * n_snps / 2);
    }
}
