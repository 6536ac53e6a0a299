//! **Figure 5** — LD throughput of the three implementations on Dataset C
//! as the thread count grows **beyond the physical cores**.
//!
//! The paper's reading: the GEMM implementation saturates at the physical
//! core count (each thread already runs near per-core peak) and *degrades*
//! with oversubscription, while PLINK 1.9 and OmegaPlus keep gaining from
//! SMT because their per-core utilization is low.
//!
//! Usage: `fig5 [--scale N | --full] [--threads 1,2,...]`
//! (default thread sweep: 1..2× the paper's 12-core platform, i.e. up to 24)

use ld_baselines::{OmegaPlusKernel, PlinkKernel};
use ld_bench::report::Table;
use ld_bench::runner::BenchOpts;
use ld_bench::workloads::triangle_pairs;
use ld_core::{LdEngine, LdStats, NanPolicy};
use ld_data::datasets::{build, genotypes_for, Dataset};
use ld_kernels::KernelKind;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let scale = if opts.full {
        1
    } else {
        opts.get("scale").and_then(|s| s.parse().ok()).unwrap_or(10)
    };
    let threads = opts
        .threads
        .clone()
        .unwrap_or_else(|| vec![1, 2, 4, 6, 8, 10, 12, 16, 20, 24]);

    let hw = ld_parallel::available_threads();
    let (n_snps, n_samples) = Dataset::C.scaled_shape(scale);
    println!("# Figure 5: thread scaling on Dataset C ({n_snps} SNPs x {n_samples} samples, scale {scale})");
    println!(
        "# this machine exposes {hw} hardware thread(s); scaling beyond that is the Figure's point"
    );
    let haps = build(Dataset::C, scale, 42);
    let genos = genotypes_for(&haps);
    let pairs = triangle_pairs(n_snps);

    let mut table = Table::new(["Threads", "PLINK MLD/s", "OmegaPlus MLD/s", "GEMM MLD/s"]);
    for &t in &threads {
        let t0 = Instant::now();
        let _ = PlinkKernel::new()
            .nan_policy(NanPolicy::Zero)
            .r2_matrix(&genos, t);
        let plink_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let _ = OmegaPlusKernel::new()
            .nan_policy(NanPolicy::Zero)
            .r2_matrix(&haps.full_view(), t);
        let omega_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let _ = LdEngine::new()
            .kernel(KernelKind::Scalar)
            .threads(t)
            .nan_policy(NanPolicy::Zero)
            .try_stat_matrix(&haps, LdStats::RSquared)
            .expect("LD matrix");
        let gemm_s = t0.elapsed().as_secs_f64();

        table.row([
            t.to_string(),
            format!("{:.2}", pairs / plink_s / 1e6),
            format!("{:.2}", pairs / omega_s / 1e6),
            format!("{:.2}", pairs / gemm_s / 1e6),
        ]);
    }
    println!("{}", table.render());
}
