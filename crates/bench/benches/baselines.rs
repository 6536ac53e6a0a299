//! Comparison of the four LD implementations on one shared workload — the
//! §VI comparison at micro-benchmark scale.
//!
//! Plain `fn main()` harness (criterion is unavailable offline).

use ld_baselines::{ByteMatrix, OmegaPlusKernel, PlinkKernel};
use ld_bench::report::{fmt_secs, Table};
use ld_bench::runner::{time_best, BenchOpts};
use ld_bench::workloads::random_matrix;
use ld_bitmat::GenotypeMatrix;
use ld_core::{LdEngine, LdStats, NanPolicy};
use ld_kernels::KernelKind;

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let budget = if opts.full { 2.0 } else { 0.2 };
    let n_snps = 256usize;
    let n_samples = 2048usize;
    let haps = random_matrix(n_samples, n_snps, 0.3, 7);
    let genos = GenotypeMatrix::from_haplotypes_as_homozygous(&haps);
    let bytes = ByteMatrix::from_bitmatrix(&haps);
    let pairs = (n_snps * (n_snps + 1) / 2) as f64;

    let mut table = Table::new(["implementation", "best", "Mpair/s"]);
    let mut push = |name: &str, t: f64| {
        table.row([
            name.to_string(),
            fmt_secs(t),
            format!("{:.2}", pairs / t / 1e6),
        ]);
    };

    let gemm_scalar = LdEngine::new()
        .kernel(KernelKind::Scalar)
        .threads(1)
        .nan_policy(NanPolicy::Zero);
    push(
        "gemm-scalar",
        time_best(
            || {
                drop(
                    gemm_scalar
                        .try_stat_matrix(&haps, LdStats::RSquared)
                        .expect("LD matrix"),
                )
            },
            budget,
            10,
        ),
    );

    let gemm_auto = LdEngine::new()
        .kernel(KernelKind::Auto)
        .threads(1)
        .nan_policy(NanPolicy::Zero);
    push(
        "gemm-auto",
        time_best(
            || {
                drop(
                    gemm_auto
                        .try_stat_matrix(&haps, LdStats::RSquared)
                        .expect("LD matrix"),
                )
            },
            budget,
            10,
        ),
    );

    let omega = OmegaPlusKernel::new().nan_policy(NanPolicy::Zero);
    push(
        "omegaplus-style",
        time_best(|| drop(omega.r2_matrix(&haps.full_view(), 1)), budget, 10),
    );

    let plink = PlinkKernel::new().nan_policy(NanPolicy::Zero);
    push(
        "plink-style",
        time_best(|| drop(plink.r2_matrix(&genos, 1)), budget, 10),
    );

    push(
        "naive-bytes",
        time_best(|| drop(bytes.r2_matrix(1, NanPolicy::Zero)), budget, 10),
    );

    println!("{}", table.render());
}
