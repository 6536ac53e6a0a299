//! Quickstart: simulate a cohort, compute all-pairs LD, inspect results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gemm_ld::prelude::*;
use ld_core::NanPolicy;

fn main() {
    // 1. Get data: 1 000 haplotypes × 400 SNPs with human-like LD structure.
    //    (Use ld_io to load real ms/VCF/PLINK files instead.)
    let g = HaplotypeSimulator::new(1_000, 400).seed(7).generate();
    println!(
        "simulated {} samples x {} SNPs, derived-allele density {:.3}",
        g.n_samples(),
        g.n_snps(),
        g.density()
    );

    // 2. Configure the engine. KernelKind::Auto picks the fastest
    //    micro-kernel the CPU supports (AVX-512 VPOPCNTQ > AVX2 > scalar).
    let engine = LdEngine::new()
        .kernel(KernelKind::Auto)
        .nan_policy(NanPolicy::Zero);

    // 3. All N(N+1)/2 r² values in one blocked GEMM.
    let t0 = std::time::Instant::now();
    let r2 = engine
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("LD matrix");
    let dt = t0.elapsed();
    println!("computed {} LD values in {dt:?}", r2.n_values());

    // 4. Query the triangle-packed result.
    println!(
        "r²(snp 0, snp 1)   = {:.4}  (adjacent: high LD expected)",
        r2.get(0, 1)
    );
    println!(
        "r²(snp 0, snp 399) = {:.4}  (distant: low LD expected)",
        r2.get(0, 399)
    );
    println!("mean off-diagonal  = {:.4}", r2.mean_offdiagonal());

    // 5. Strongest associations above a threshold.
    let mut top: Vec<_> = r2.pairs_at_least(0.8).collect();
    top.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("\n{} pairs with r² >= 0.8; top 5:", top.len());
    for (i, j, v) in top.into_iter().take(5) {
        println!("  snp{i:<4} snp{j:<4} r² = {v:.4}");
    }

    // 6. Full per-pair statistics for one pair, without any matrix.
    let pair = engine.ld_pair(&g, 10, 11);
    println!(
        "\npair (10,11): p_i={:.3} p_j={:.3} P_ij={:.3} D={:+.4} D'={:.3} r²={:.3}",
        pair.p_i, pair.p_j, pair.p_ij, pair.d, pair.d_prime, pair.r2
    );
}
