//! Work of an ω scan, by the deterministic `kernel_words` counter: a scan
//! computes every pair of its band once — the same words as one banded
//! run — however far consecutive windows overlap, where one `r²` matrix
//! per window computes an overlap again with every window that holds it.
//!
//! The counters are process-global, so this file is its own test binary
//! and holds one test.

use ld_bitmat::BitMatrix;
use ld_core::{BandedLdMatrix, LdEngine, LdStats, NanPolicy};
use ld_omega::OmegaScan;
use ld_rng::SmallRng;
use ld_trace::Counter;

fn words_of(run: impl FnOnce()) -> u64 {
    ld_trace::reset();
    run();
    ld_trace::get(Counter::KernelWords)
}

#[test]
fn a_scan_computes_each_pair_of_its_band_once() {
    let (n, window) = (3000, 64);
    let mut rng = SmallRng::seed_from_u64(42);
    let mut g = BitMatrix::zeros(400, n);
    for j in 0..n {
        (0..400).for_each(|s| g.set(s, j, rng.gen_bool(0.3)));
    }
    let engine = LdEngine::new().threads(2).nan_policy(NanPolicy::Zero);
    let scan = OmegaScan::new(window, 1).engine(engine.clone());
    let points = scan.scan(&g).unwrap();
    assert_eq!(points.len(), n - window + 1);

    let scanned = words_of(|| drop(scan.scan(&g)));
    let banded = words_of(|| {
        BandedLdMatrix::compute(&engine, &g, window - 1, LdStats::RSquared).unwrap();
    });
    let per_window = words_of(|| {
        for p in &points {
            engine.r2_matrix(g.view(p.window_start, p.window_end));
        }
    });
    assert!(banded > 0);
    assert_eq!(scanned, banded, "the scan ran more than its one band");
    assert!(
        scanned * 10 < per_window,
        "scan {scanned} words, one matrix per window {per_window}"
    );
}
