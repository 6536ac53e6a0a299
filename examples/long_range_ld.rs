//! Long-range LD between two SNP sets — the Fig. 4 configuration.
//!
//! The paper highlights that the GEMM formulation "can be deployed for
//! association studies between distant genes, as well as long-range LD
//! calculations": when the two SNP sets differ, all `m × n` values are
//! needed (no symmetric triangle). A classic application is detecting
//! coevolving, physically unlinked loci (Rohlfs et al., ref [2]).
//!
//! We simulate two "chromosomes" whose samples are shared, plant an
//! interaction (a group of SNPs on chromosome 2 that mirrors a group on
//! chromosome 1), and find it with one cross GEMM.
//!
//! ```sh
//! cargo run --release --example long_range_ld
//! ```

use gemm_ld::prelude::*;
use ld_core::NanPolicy;

fn main() {
    let n_samples = 600;
    let chr1 = HaplotypeSimulator::new(n_samples, 300).seed(101).generate();
    let mut chr2 = HaplotypeSimulator::new(n_samples, 250).seed(202).generate();

    // Plant coevolution: chr2 SNPs 100..105 copy chr1 SNPs 40..45 with a
    // little noise (an epistatic interaction maintained by selection).
    // ~0.5% mismatches: enough to avoid exact duplicates, small enough
    // that r² stays high even for low-frequency source SNPs.
    for (dst, src) in (100..105).zip(40..45) {
        for s in 0..n_samples {
            let v = chr1.get(s, src) ^ (s % 199 == 0);
            chr2.set(s, dst, v);
        }
    }

    let engine = LdEngine::new()
        .kernel(KernelKind::Auto)
        .nan_policy(NanPolicy::Zero);
    let t0 = std::time::Instant::now();
    let cross = engine
        .try_cross_stat_matrix(&chr1, &chr2, LdStats::RSquared)
        .expect("both panels share the sample set");
    println!(
        "cross-chromosome LD: {} x {} = {} values in {:?}",
        cross.n_rows(),
        cross.n_cols(),
        cross.n_rows() * cross.n_cols(),
        t0.elapsed()
    );

    // Scan for unusually strong inter-chromosomal associations.
    let mut hits: Vec<(usize, usize, f64)> = cross.iter().filter(|&(_, _, v)| v > 0.5).collect();
    hits.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("\ninter-chromosomal pairs with r² > 0.5: {}", hits.len());
    for &(i, j, v) in hits.iter().take(8) {
        println!("  chr1:snp{i:<4} ~ chr2:snp{j:<4}  r² = {v:.4}");
    }

    // The planted block must dominate the hit list.
    let planted = hits
        .iter()
        .filter(|&&(i, j, _)| (40..45).contains(&i) && (100..105).contains(&j))
        .count();
    println!("\nplanted interactions recovered: {planted}/5");
    assert!(planted >= 4, "the coevolving block should be detected");

    // Background check: a random far-apart pair should be near zero.
    println!("background r²(chr1:0, chr2:200) = {:.4}", cross.get(0, 200));
}
