//! A complete GWAS-style workflow — the application the paper's §I leads
//! with ("LD is deployed to identify SNPs associated with certain traits").
//!
//! simulate cohort → simulate phenotype → association scan (popcounts on
//! the same packed substrate) → genomic-control check → LD clumping of the
//! hits (blocked r² engine) → report index SNPs.
//!
//! ```sh
//! cargo run --release --example gwas_workflow
//! ```

use gemm_ld::prelude::*;
use ld_assoc::{clump, genomic_lambda};

fn main() {
    // 1. Cohort: 4 000 haplotypes × 1 500 SNPs with realistic LD.
    let g = HaplotypeSimulator::new(4_000, 1_500)
        .seed(11)
        .founders(20)
        .generate();
    println!("cohort: {} haplotypes x {} SNPs", g.n_samples(), g.n_snps());

    // 2. Phenotype: two causal loci (choose common SNPs so power is high).
    let common: Vec<usize> = {
        let mut idx: Vec<usize> = (0..g.n_snps()).collect();
        idx.sort_by_key(|&j| {
            let ones = g.ones_in_snp(j);
            std::cmp::Reverse(ones.min(g.n_samples() as u64 - ones))
        });
        idx
    };
    let causal = [(common[0], 1.2), (common[1], 0.9)];
    println!(
        "planted causal SNPs: {} (beta 1.2), {} (beta 0.9)",
        causal[0].0, causal[1].0
    );
    let (_labels, case_mask) = PhenotypeSimulator::new(causal.to_vec())
        .prevalence(0.5)
        .noise_sd(1.0)
        .seed(12)
        .simulate(&g);

    // 3. Association scan: three popcounts per SNP.
    let t0 = std::time::Instant::now();
    let results = allelic_scan(&g.full_view(), &case_mask, 0);
    println!("scanned {} SNPs in {:?}", results.len(), t0.elapsed());

    // 4. Calibration: genomic-control lambda over all test statistics.
    let lambda = genomic_lambda(&results.iter().map(|r| r.chi2).collect::<Vec<_>>());
    println!("genomic-control lambda = {lambda:.3} (≈1 means well calibrated)");

    // 5. Hits at genome-wide-ish significance for this panel size.
    let p_cut = 0.05 / g.n_snps() as f64; // Bonferroni
    let n_hits = results.iter().filter(|r| r.p <= p_cut).count();
    println!("{n_hits} SNPs pass Bonferroni p <= {p_cut:.2e} (LD drags whole clumps under)");

    // 6. Clump the hits with the blocked r² engine.
    let engine = LdEngine::new().nan_policy(NanPolicy::Zero);
    let clumps = clump(&g.full_view(), &results, &engine, p_cut, 0.3, 150)
        .expect("the default engine runs every window");
    println!("\nindex SNPs after clumping (r² >= 0.3, window 150):");
    for c in clumps.iter().take(6) {
        println!(
            "  snp{:<5} p = {:.2e}  absorbed {} neighbours",
            c.index_snp,
            c.p,
            c.members.len()
        );
    }

    // 7. The causal loci must be recovered: each planted SNP should be an
    //    index SNP or inside an index SNP's clump.
    let recovered = causal
        .iter()
        .filter(|(snp, _)| {
            clumps
                .iter()
                .any(|c| c.index_snp == *snp || c.members.contains(snp))
        })
        .count();
    println!("\ncausal loci recovered in clumps: {recovered}/2");
    assert!(
        recovered >= 1,
        "at least the strong causal locus must be found"
    );
    assert!(
        clumps.len() < n_hits.max(1),
        "clumping must compress the hit list ({} clumps vs {} hits)",
        clumps.len(),
        n_hits
    );
}
