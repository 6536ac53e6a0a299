//! GWAS-style LD pruning — the `plink --indep-pairwise` workflow.
//!
//! Association studies thin their SNP panels so that no retained pair
//! exceeds an r² threshold; every removal decision needs pairwise LD, which
//! is why PLINK's r² kernel is hot (paper §I, GWAS motivation).
//!
//! This example prunes greedily in sliding windows with
//! `ld_core::prune_pairwise` — one banded run of the engine, each pair
//! within a window computed once — and checks the result with the tiled
//! API, so the full r² matrix is never materialized.
//!
//! ```sh
//! cargo run --release --example ld_pruning
//! ```

use gemm_ld::prelude::*;
use ld_core::{prune_pairwise, NanPolicy, RunControl, TileVisit};

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
        let mut violations = 0;
        let count = |t: &TileVisit<'_>| {
            for r in 0..t.rows {
                for c in 0..t.cols {
                    let (gi, gj) = (t.row_start + r, t.col_start + c);
                    // Pairs closer than one step are guaranteed to have
                    // shared a window, so pruning must have separated them.
                    if gi < gj
                        && kept[gj] - kept[gi] < 50
                        && t.values[r * t.cols + c] > threshold + 1e-9
                    {
                        violations += 1;
                    }
                }
            }
        };
        engine
            .try_for_each_tile_with(&pruned, LdStats::RSquared, 128, count, &RunControl::new())
            .expect("the pruned panel is non-empty");
        println!("  window-local pairs above threshold after pruning: {violations}");
    }
}
