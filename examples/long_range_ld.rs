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

    // Plant coevolution: five chr2 SNPs `i + 60` copy chr1 SNPs `i` with a
    // little noise (an epistatic interaction maintained by selection).
    // The noise flips 4 of the 600 samples (~0.7%): enough to avoid exact
    // duplicates, but it moves a copy's minor-allele count up to 4 from
    // its source's, and allele frequencies alone cap r² at
    // odds(q_min)/odds(q_max) (`ld_core::staircase`) — a source with 4
    // carriers and a copy with 8 cannot reach 0.4966, below the scan's
    // 0.5 cut. So the sources are the first five from SNP 40 on whose
    // minor allele has at least 20 carriers, which keeps r² above 0.79
    // whichever samples the flips hit.
    let minor = |j: usize| {
        let c = chr1.ones_in_snp(j) as usize;
        c.min(n_samples - c)
    };
    let sources: Vec<usize> = (40..190).filter(|&j| minor(j) >= 20).take(5).collect();
    assert_eq!(sources.len(), 5, "chr1 has common SNPs to plant from");
    for &src in &sources {
        let dst = src + 60;
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

    // Every planted pair must be among the hits.
    let planted = sources
        .iter()
        .filter(|&&i| hits.iter().any(|&(a, b, _)| (a, b) == (i, i + 60)))
        .count();
    println!("\nplanted interactions recovered: {planted}/5");
    assert_eq!(planted, 5, "every coevolving pair should be detected");

    // Background check: a random far-apart pair should be near zero.
    println!("background r²(chr1:0, chr2:200) = {:.4}", cross.get(0, 200));
}
