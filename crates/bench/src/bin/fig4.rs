//! **Figure 4** — performance when the haplotype frequencies are computed
//! between **two different genomic matrices** (the full `m × n` output, no
//! triangle): the long-range LD / distant-gene use case.
//!
//! The paper's observation: despite computing ~2× as many values as the
//! symmetric case, the attained fraction of peak stays in the same
//! 84–90 % band, because the GotoBLAS blocking is shape-agnostic.
//!
//! Usage: `fig4 [--full] [--kernel ...]` (flags as in `fig3`).

use ld_bench::report::Table;
use ld_bench::runner::BenchOpts;
use ld_bench::workloads::{random_matrix, word_pairs};
use ld_kernels::clock::{percent_of_peak, tsc_hz, CycleTimer};
use ld_kernels::{gemm_counts_mt, BlockSizes, Kernel, KernelKind};

fn parse_kernel(name: Option<&str>) -> KernelKind {
    match name {
        None => KernelKind::Scalar, // the paper's kernel
        Some(n) => n.parse().unwrap_or_else(|e| {
            eprintln!("{e}; using scalar");
            KernelKind::Scalar
        }),
    }
}

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let kind = parse_kernel(opts.get("kernel"));
    let kernel = Kernel::resolve(kind).expect("kernel unsupported on this CPU");
    let sizes: &[usize] = if opts.full {
        &[4096, 8192, 16384]
    } else {
        &[1024, 2048, 4096]
    };
    let ks: &[usize] = if opts.full {
        &[512, 1024, 2048, 4096, 8192, 16384, 32768]
    } else {
        &[256, 512, 1024, 2048, 4096, 8192]
    };

    println!("# Figure 4: % of theoretical peak, two different genomic matrices (GEMM)");
    println!("# kernel = {} (lanes={})", kernel.kind(), kernel.lanes());
    println!("# all m*n values computed (no symmetric triangle)");

    let mut table = Table::new([
        "m=n",
        "k (samples)",
        "k_words",
        "time (s)",
        "GLD/s",
        "% peak",
    ]);
    for &n in sizes {
        for &k in ks {
            let a = random_matrix(k, n, 0.3, (n * 7 + k) as u64);
            let b = random_matrix(k, n, 0.3, (n * 13 + k) as u64);
            let k_words = a.words_per_snp();
            let mut c = vec![0u32; n * n];
            gemm_counts_mt(
                &a.full_view(),
                &b.full_view(),
                &mut c,
                n,
                kind,
                BlockSizes::default(),
                1,
            )
            .expect("no worker panics");
            let mut secs = f64::INFINITY;
            let mut cycles = f64::INFINITY;
            for _ in 0..3 {
                let t = CycleTimer::start();
                gemm_counts_mt(
                    &a.full_view(),
                    &b.full_view(),
                    &mut c,
                    n,
                    kind,
                    BlockSizes::default(),
                    1,
                )
                .expect("no worker panics");
                let s = t.seconds();
                if s < secs {
                    secs = s;
                    cycles = t.cycles(tsc_hz().unwrap_or(1e9));
                }
            }
            let useful = word_pairs(n, n, k_words);
            let peak = percent_of_peak(useful, cycles, kernel.lanes());
            let lds = (n as f64) * (n as f64);
            table.row([
                n.to_string(),
                k.to_string(),
                k_words.to_string(),
                format!("{secs:.3}"),
                format!("{:.2}", lds / secs / 1e9),
                format!("{peak:.1}%"),
            ]);
        }
    }
    println!("{}", table.render());
}
