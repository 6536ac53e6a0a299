//! **Ablations** — which parts of the GotoBLAS recipe actually pay, and by
//! how much (the design-choice index of DESIGN.md §5):
//!
//! 1. *blocking on/off*: blocked SYRK vs the unblocked pairwise loop
//!    (OmegaPlus-class) vs the naive byte-vector loop (PopGenome-class);
//! 2. *cache block sizes*: `kc`/`mc`/`nc` sweeps around the defaults;
//! 3. *register tile shape*: 2×4 / 4×4 / 8×4 scalar micro-kernels;
//! 4. *popcount strategy inside the blocked kernel*: `POPCNT` instruction
//!    vs SWAR vs 8/16-bit LUTs vs Harley–Seal (§IV's claim that the
//!    instruction wins).
//!
//! Usage: `ablation [--full]`

use ld_baselines::{ByteMatrix, OmegaPlusKernel};
use ld_bench::report::Table;
use ld_bench::runner::{time_best, BenchOpts};
use ld_bench::workloads::{random_matrix, triangle_pairs};
use ld_core::NanPolicy;
use ld_kernels::{syrk_counts_buf, BlockSizes, KernelKind};
use ld_popcount::PopcountStrategy;

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let (n, k) = if opts.full {
        (4096, 8192)
    } else {
        (1024, 4096)
    };
    let g = random_matrix(k, n, 0.3, 99);
    let pairs = triangle_pairs(n);
    let mut c = vec![0u32; n * n];
    println!("# Ablations on n={n} SNPs x k={k} samples\n");

    // 1. blocking on/off ----------------------------------------------------
    println!("## 1. what blocking buys (same popcount instruction everywhere)");
    let mut t = Table::new(["implementation", "time (s)", "MLD/s", "vs blocked"]);
    let blocked = time_best(
        || {
            syrk_counts_buf(
                &g.full_view(),
                &mut c,
                n,
                KernelKind::Scalar,
                BlockSizes::default(),
                1,
            )
            .expect("no worker panics")
        },
        0.3,
        3,
    );
    let unblocked = time_best(
        || {
            let _ = OmegaPlusKernel::new()
                .nan_policy(NanPolicy::Zero)
                .r2_matrix(&g.full_view(), 1);
        },
        0.3,
        2,
    );
    // naive on a smaller slice (it is orders of magnitude slower)
    let n_naive = (n / 8).max(64);
    let bytes =
        ByteMatrix::from_bitmatrix(&g.select_snps(&(0..n_naive).collect::<Vec<_>>()).unwrap());
    let naive = time_best(
        || {
            let _ = bytes.r2_matrix(1, NanPolicy::Zero);
        },
        0.3,
        2,
    );
    let naive_scaled = naive * (pairs / triangle_pairs(n_naive));
    t.row([
        "blocked GEMM (GotoBLAS)".to_string(),
        format!("{blocked:.3}"),
        format!("{:.1}", pairs / blocked / 1e6),
        "1.00x".into(),
    ]);
    t.row([
        "unblocked popcount pairs".to_string(),
        format!("{unblocked:.3}"),
        format!("{:.1}", pairs / unblocked / 1e6),
        format!("{:.2}x", unblocked / blocked),
    ]);
    t.row([
        format!("naive bytes (extrapolated from {n_naive} SNPs)"),
        format!("{naive_scaled:.1}"),
        format!("{:.1}", pairs / naive_scaled / 1e6),
        format!("{:.0}x", naive_scaled / blocked),
    ]);
    println!("{}", t.render());

    // 2. block-size sweeps ---------------------------------------------------
    println!("## 2. cache block sizes (scalar kernel; default kc=256 mc=512 nc=4096)");
    let mut t = Table::new(["kc", "mc", "nc", "time (s)", "rel"]);
    let base = blocked;
    for kc in [32usize, 128, 256, 512] {
        for (mc, nc) in [(128usize, 1024usize), (512, 4096), (2048, 8192)] {
            let b = BlockSizes { kc, mc, nc };
            let secs = time_best(
                || {
                    syrk_counts_buf(&g.full_view(), &mut c, n, KernelKind::Scalar, b, 1)
                        .expect("no worker panics")
                },
                0.2,
                2,
            );
            t.row([
                kc.to_string(),
                mc.to_string(),
                nc.to_string(),
                format!("{secs:.3}"),
                format!("{:.2}x", secs / base),
            ]);
        }
    }
    println!("{}", t.render());

    // 3. register tile shapes ------------------------------------------------
    println!("## 3. scalar register-tile shape");
    let mut t = Table::new(["kernel", "time (s)", "rel to 4x4"]);
    for kind in [
        KernelKind::Scalar2x4,
        KernelKind::Scalar,
        KernelKind::Scalar8x4,
    ] {
        let secs = time_best(
            || {
                syrk_counts_buf(&g.full_view(), &mut c, n, kind, BlockSizes::default(), 1)
                    .expect("no worker panics")
            },
            0.2,
            2,
        );
        t.row([
            format!("{kind}"),
            format!("{secs:.3}"),
            format!("{:.2}x", secs / base),
        ]);
    }
    println!("{}", t.render());

    // 4. popcount strategies -------------------------------------------------
    println!("## 4. popcount strategy inside the blocked kernel (SectionIV: POPCNT wins)");
    let mut t = Table::new(["strategy", "time (s)", "rel to popcnt-asm"]);
    t.row([
        "popcnt (asm-pinned)".to_string(),
        format!("{base:.3}"),
        "1.00x".into(),
    ]);
    for s in PopcountStrategy::ALL {
        let kind = KernelKind::ScalarStrategy(s);
        let secs = time_best(
            || {
                syrk_counts_buf(&g.full_view(), &mut c, n, kind, BlockSizes::default(), 1)
                    .expect("no worker panics")
            },
            0.2,
            2,
        );
        t.row([
            s.name().to_string(),
            format!("{secs:.3}"),
            format!("{:.2}x", secs / base),
        ]);
    }
    println!("{}", t.render());
}
