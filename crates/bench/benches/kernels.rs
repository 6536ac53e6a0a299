//! Micro-benchmarks of the GEMM machinery: packing, micro-kernel tiles,
//! and full SYRK/GEMM drivers per kernel kind.
//!
//! Plain `fn main()` harness (criterion is unavailable offline): best-of-N
//! wall times via `ld_bench::runner::time_best`, rendered as a text table.

use ld_bench::report::{fmt_secs, Table};
use ld_bench::runner::{time_best, BenchOpts};
use ld_bench::workloads::random_matrix;
use ld_bitmat::AlignedWords;
use ld_kernels::micro::supported_kernels;
use ld_kernels::pack::pack_panels;
use ld_kernels::{gemm_counts_mt, syrk_counts_buf, BlockSizes, KernelKind};

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let budget = if opts.full { 1.0 } else { 0.1 };
    let mut table = Table::new(["bench", "case", "best", "rate"]);

    // -- micro-kernel tiles ------------------------------------------------
    let kc = 256usize;
    for k in supported_kernels() {
        let ap: Vec<u64> = (0..kc * k.mr())
            .map(|i| (i as u64).wrapping_mul(0x9e3779b9))
            .collect();
        let bp: Vec<u64> = (0..kc * k.nr())
            .map(|i| (i as u64).wrapping_mul(0x85ebca6b))
            .collect();
        let mut acc = vec![0u64; k.mr() * k.nr()];
        let t = time_best(
            || {
                acc.fill(0);
                k.run(kc, &ap, &bp, &mut acc);
                std::hint::black_box(&acc);
            },
            budget,
            200,
        );
        let elems = (kc * k.mr() * k.nr()) as f64;
        table.row([
            "micro-kernel".to_string(),
            format!("{}", k.kind()),
            fmt_secs(t),
            format!("{:.2} Gelem/s", elems / t / 1e9),
        ]);
    }

    // -- packing -----------------------------------------------------------
    let g = random_matrix(8192, 512, 0.3, 5);
    let v = g.full_view();
    let mut buf = AlignedWords::new();
    for r in [4usize, 8] {
        let t = time_best(|| pack_panels(&v, 0..512, 0..128, r, &mut buf), budget, 100);
        let bytes = (512 * 128 * 8) as f64;
        table.row([
            "pack".to_string(),
            format!("panels r={r}"),
            fmt_secs(t),
            format!("{:.2} GB/s", bytes / t / 1e9),
        ]);
    }

    // -- SYRK --------------------------------------------------------------
    for n in [256usize, 512] {
        let g = random_matrix(4096, n, 0.3, n as u64);
        let mut out = vec![0u32; n * n];
        for kind in [KernelKind::Scalar, KernelKind::Auto] {
            let t = time_best(
                || {
                    syrk_counts_buf(&g.full_view(), &mut out, n, kind, BlockSizes::default(), 1)
                        .expect("no worker panics")
                },
                budget,
                20,
            );
            let pairs = (n * (n + 1) / 2) as f64;
            table.row([
                "syrk".to_string(),
                format!("{kind} n={n}"),
                fmt_secs(t),
                format!("{:.2} Mpair/s", pairs / t / 1e6),
            ]);
        }
    }

    // -- rectangular GEMM --------------------------------------------------
    let (m, n, k) = (384usize, 384usize, 4096usize);
    let a = random_matrix(k, m, 0.3, 11);
    let b_mat = random_matrix(k, n, 0.3, 12);
    let mut out = vec![0u32; m * n];
    let t = time_best(
        || {
            gemm_counts_mt(
                &a.full_view(),
                &b_mat.full_view(),
                &mut out,
                n,
                KernelKind::Auto,
                BlockSizes::default(),
                1,
            )
            .expect("no worker panics")
        },
        budget,
        20,
    );
    table.row([
        "gemm".to_string(),
        format!("auto {m}x{n}xk{k}"),
        fmt_secs(t),
        format!("{:.2} Mpair/s", (m * n) as f64 / t / 1e6),
    ]);

    println!("{}", table.render());
}
