//! **Figure 3** — performance of the haplotype-frequency computation
//! (`H = GᵀG`, one genomic matrix, SYRK path) as a percentage of the
//! scalar theoretical peak, sweeping the `k` dimension (sample count) for
//! several square output sizes `m = n`.
//!
//! Paper setup: Intel Haswell 3.5 GHz, scalar AND+POPCNT+ADD kernel,
//! peak = 3 ops/cycle = 1 word-pair/cycle; observed 84–90 % of peak,
//! flat in both `k` and `n`.
//!
//! Usage: `fig3 [--full] [--kernel scalar|auto|avx512-vpopcnt|avx2-mula]`
//! Default sizes are scaled ~4× down so the sweep finishes in minutes on
//! one core; `--full` uses the paper's 4096/8192/16384 SNPs.

use ld_bench::report::Table;
use ld_bench::runner::BenchOpts;
use ld_bench::workloads::{random_matrix, triangle_pairs};
use ld_kernels::clock::{percent_of_peak, tsc_hz, CycleTimer};
use ld_kernels::{syrk_counts_buf, BlockSizes, Kernel, KernelKind};

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

    println!("# Figure 3: % of theoretical peak vs k (same matrix, SYRK)");
    println!(
        "# kernel = {} (MR={} NR={} lanes={})",
        kernel.kind(),
        kernel.mr(),
        kernel.nr(),
        kernel.lanes()
    );
    match tsc_hz() {
        Some(hz) => println!("# TSC calibrated at {:.2} GHz", hz / 1e9),
        None => println!("# no TSC; falling back to wall-clock at 1 GHz nominal"),
    }
    println!(
        "# peak = {} word-pair(s)/cycle; %peak = useful word-pairs / (cycles * lanes)",
        kernel.lanes()
    );

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
            let g = random_matrix(k, n, 0.3, (n * 31 + k) as u64);
            let k_words = g.words_per_snp();
            let mut c = vec![0u32; n * n];
            // Warm-up pass, then best-of-3 (shared-VM noise easily shifts a
            // single pass by 20%+).
            syrk_counts_buf(&g.full_view(), &mut c, n, kind, BlockSizes::default(), 1)
                .expect("no worker panics");
            let mut secs = f64::INFINITY;
            let mut cycles = f64::INFINITY;
            for _ in 0..3 {
                let t = CycleTimer::start();
                syrk_counts_buf(&g.full_view(), &mut c, n, kind, BlockSizes::default(), 1)
                    .expect("no worker panics");
                let s = t.seconds();
                if s < secs {
                    secs = s;
                    cycles = t.cycles(tsc_hz().unwrap_or(1e9));
                }
            }
            let pairs = triangle_pairs(n);
            let useful = pairs * k_words as f64;
            let peak = percent_of_peak(useful, cycles, kernel.lanes());
            table.row([
                n.to_string(),
                k.to_string(),
                k_words.to_string(),
                format!("{secs:.3}"),
                format!("{:.2}", pairs / secs / 1e9),
                format!("{peak:.1}%"),
            ]);
        }
    }
    println!("{}", table.render());
}
