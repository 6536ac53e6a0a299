//! **Cache-hierarchy ablation** — the mechanism behind the paper's
//! OmegaPlus-vs-GEMM gap.
//!
//! The paper's test platform had a 15 MB L3; Datasets B/C (12.5–125 MB
//! packed) did not fit, so the unblocked pairwise kernel paid memory
//! latency on every column re-stream while the GotoBLAS blocking kept its
//! working set cache-resident — that is where the 4–4.7× OmegaPlus gap of
//! Tables II/III comes from. Machines with very large LLCs (or scaled-down
//! benchmarks) hide the effect: both kernels run near 1 word/cycle and the
//! gap shrinks toward the per-pair-overhead ratio.
//!
//! This binary sweeps the packed working-set size across the reported LLC
//! boundary and prints words/cycle for the blocked and unblocked kernels,
//! making the crossover (or its absence) measurable on any machine.
//!
//! Usage: `cache [--threads 1] [--max-mb 512]`

use ld_baselines::OmegaPlusKernel;
use ld_bench::report::Table;
use ld_bench::runner::BenchOpts;
use ld_bench::workloads::random_matrix;
use ld_core::{LdEngine, LdStats, NanPolicy};
use ld_kernels::clock::tsc_hz;
use ld_kernels::KernelKind;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let max_mb: usize = opts
        .get("max-mb")
        .and_then(|s| s.parse().ok())
        .unwrap_or(384);
    let hz = tsc_hz().unwrap_or(2.1e9);
    println!("# Working-set sweep: blocked GEMM vs unblocked pairwise (both scalar POPCNT)");
    println!("# reported caches: see lscpu; TSC {:.2} GHz", hz / 1e9);
    println!("# words/cycle peak = 1.0 for the scalar kernel\n");

    let mut table = Table::new([
        "packed MB",
        "SNPs",
        "samples",
        "GEMM w/c",
        "unblocked w/c",
        "GEMM speedup",
    ]);
    // Fixed SNP count, growing sample dimension: pair count constant, so
    // run time scales linearly and the per-pair overheads stay fixed.
    let n_snps = 1024usize;
    let mut samples = 16_384usize;
    loop {
        let packed_mb = n_snps * samples.div_ceil(64) * 8 / (1 << 20);
        if packed_mb > max_mb {
            break;
        }
        let g = random_matrix(samples, n_snps, 0.3, samples as u64);
        let k_words = g.words_per_snp();
        let word_pairs = (n_snps * (n_snps + 1) / 2) as f64 * k_words as f64;

        let engine = LdEngine::new()
            .kernel(KernelKind::Scalar)
            .threads(1)
            .nan_policy(NanPolicy::Zero);
        let t0 = Instant::now();
        let _ = engine
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        let gemm_s = t0.elapsed().as_secs_f64();

        let omega = OmegaPlusKernel::new().nan_policy(NanPolicy::Zero);
        let t0 = Instant::now();
        let _ = omega.r2_matrix(&g.full_view(), 1);
        let unblocked_s = t0.elapsed().as_secs_f64();

        table.row([
            packed_mb.to_string(),
            n_snps.to_string(),
            samples.to_string(),
            format!("{:.2}", word_pairs / (gemm_s * hz)),
            format!("{:.2}", word_pairs / (unblocked_s * hz)),
            format!("{:.2}x", unblocked_s / gemm_s),
        ]);
        samples *= 2;
    }
    println!("{}", table.render());
    println!("Reading: once the packed matrix outgrows the LLC, the unblocked kernel's");
    println!("words/cycle collapses (every pair re-streams a column from DRAM) while the");
    println!("blocked kernel holds steady — the paper's Tables II/III mechanism.");
}
