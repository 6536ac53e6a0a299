//! GWAS-style LD pruning — the `plink --indep-pairwise` workflow.
//!
//! Association studies thin their SNP panels so that no retained pair
//! exceeds an r² threshold; every removal decision needs pairwise LD, which
//! is why PLINK's r² kernel is hot (paper §I, GWAS motivation).
//!
//! This example prunes greedily in sliding windows with
//! `ld_core::prune_pairwise` — one banded run of the engine, each pair
//! within a window computed once — and checks the result with a banded
//! row stream, so the full r² matrix is never materialized.
//!
//! ```sh
//! cargo run --release --example ld_pruning
//! ```

use gemm_ld::prelude::*;
use ld_core::{prune_pairwise, NanPolicy, RowSlabVisit, RunControl};
use std::sync::atomic::{AtomicUsize, Ordering};

fn main() {
    let g = HaplotypeSimulator::new(800, 1_000)
        .seed(31)
        .founders(12) // small panel -> heavy redundancy to prune
        .switch_rate(0.01)
        .generate();
    println!("panel: {} SNPs x {} haplotypes", g.n_snps(), g.n_samples());

    let engine = LdEngine::new().nan_policy(NanPolicy::Zero);
    for threshold in [0.8, 0.5, 0.2] {
        let t0 = std::time::Instant::now();
        // within each window, drop the later SNP of any pair with
        // r² > threshold (keeping earlier = keeping the first tag)
        let kept =
            prune_pairwise(&engine, &g, 100, 50, threshold).expect("a valid window and step");
        let dt = t0.elapsed();
        println!(
            "threshold r² > {threshold}: kept {} / {} SNPs ({:.1}%) in {dt:?}",
            kept.len(),
            g.n_snps(),
            100.0 * kept.len() as f64 / g.n_snps() as f64,
        );

        // Verify the pruning contract on the kept set (spot check within
        // the window range): no kept pair within a window exceeds the cut.
        let pruned = g.select_snps(&kept).expect("indices are valid");
        let violations = AtomicUsize::new(0);
        let count = |s: &RowSlabVisit<'_>| {
            for (gi, row) in s.rows() {
                // row[d] is the pair (gi, gi + d); row[0] the diagonal.
                // Pairs closer than one step are guaranteed to have
                // shared a window, so pruning must have separated them.
                let above = (1..row.len())
                    .filter(|&d| kept[gi + d] - kept[gi] < 50 && row[d] > threshold + 1e-9);
                violations.fetch_add(above.count(), Ordering::Relaxed);
            }
        };
        // kept indices ascend, so a pair 50 apart in the pruned panel is
        // at least 50 apart in the original: a band of 49 sees them all
        let ctl = RunControl::new().with_band(49);
        engine
            .try_stat_rows_with(&pruned, LdStats::RSquared, count, &ctl)
            .expect("the pruned panel is non-empty");
        let violations = violations.into_inner();
        println!("  window-local pairs above threshold after pruning: {violations}");
    }
}
