//! **§V** — does SIMD help LD? Measured kernel shootout plus the paper's
//! analytical model.
//!
//! The paper's claims, each tied to a row below:
//!
//! 1. *SIMD without a vector popcount cannot beat scalar* (§V-A): the
//!    `avx2-extract-insert` kernel implements exactly the analysed
//!    extract → scalar `POPCNT` → insert sequence.
//! 2. *A hardware vectorized popcount restores the full `v×` speedup*
//!    (§V-B): the `avx512-vpopcnt` kernel uses `VPOPCNTQ` — the very
//!    instruction the paper asked hardware vendors for (it shipped in
//!    Ice Lake, three years after publication).
//! 3. Software vector popcounts (`avx2-mula`) sit in between.
//! 4. `scalar-autovec` shows that modern compilers now reach case 2 from
//!    plain `count_ones()` source when AVX-512 is available.
//!
//! Usage: `simd [--full]`

use ld_bench::report::Table;
use ld_bench::runner::{time_best, BenchOpts};
use ld_bench::workloads::{random_matrix, triangle_pairs};
use ld_kernels::clock::{percent_of_peak, tsc_hz};
use ld_kernels::{syrk_counts_buf, BlockSizes, Kernel, KernelKind};
use ld_popcount::{CpuFeatures, SimdCostModel};

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let (n, k) = if opts.full {
        (4096, 16384)
    } else {
        (1536, 8192)
    };
    let g = random_matrix(k, n, 0.3, 1234);
    let k_words = g.words_per_snp();
    let pairs = triangle_pairs(n);
    let useful = pairs * k_words as f64;
    let hz = tsc_hz().unwrap_or(1e9);

    println!("# SectionV: SIMD benefit for LD — measured");
    println!("# features: {}", CpuFeatures::detect().summary());
    println!("# workload: n={n} SNPs, k={k} samples ({k_words} words/SNP), symmetric GtG\n");

    let kinds = [
        KernelKind::Scalar,
        KernelKind::Avx2ExtractInsert,
        KernelKind::Avx2Mula,
        KernelKind::Avx512Vpopcnt4x8,
        KernelKind::Avx512Vpopcnt,
        KernelKind::ScalarAutoVec,
    ];
    let mut table = Table::new([
        "kernel",
        "lanes",
        "time (s)",
        "GLD/s",
        "%peak(lane)",
        "speedup vs scalar",
    ]);
    let mut scalar_time = None;
    let mut c = vec![0u32; n * n];
    for kind in kinds {
        let Ok(kernel) = Kernel::resolve(kind) else {
            println!("(skipping {kind:?}: unsupported on this CPU)");
            continue;
        };
        let secs = time_best(
            || {
                syrk_counts_buf(&g.full_view(), &mut c, n, kind, BlockSizes::default(), 1)
                    .expect("no worker panics");
            },
            0.3,
            3,
        );
        let cycles = secs * hz;
        if kind == KernelKind::Scalar {
            scalar_time = Some(secs);
        }
        let speedup = scalar_time.map(|s| s / secs).unwrap_or(1.0);
        table.row([
            kernel.kind().to_string(),
            kernel.lanes().to_string(),
            format!("{secs:.3}"),
            format!("{:.2}", pairs / secs / 1e9),
            format!("{:.1}%", percent_of_peak(useful, cycles, kernel.lanes())),
            format!("{speedup:.2}x"),
        ]);
    }
    println!("{}", table.render());

    println!("\n# SectionV: analytical model (paper equations)");
    println!("# T = scalar, T_SIMD = SIMD and/add + scalar popcnt (+lane transfers), T_HW = vector popcnt");
    let elems = (n, n, k_words);
    println!("\n## best case (no transfer penalty, SectionV-A first assumption)");
    for v in [2usize, 4, 8] {
        let m = SimdCostModel::paper_ideal(v);
        println!("{}", m.times(elems.0, elems.1, elems.2));
    }
    println!("\n## practical case (extract/insert contend, SectionV-A 'in practice')");
    for v in [2usize, 4, 8] {
        let m = SimdCostModel::paper_practical(v);
        println!("{}", m.times(elems.0, elems.1, elems.2));
    }
    println!("\nReading: T_SIMD never beats T without hardware support; T_HW/v matches the");
    println!("measured avx512-vpopcnt speedup above — the instruction the paper called for.");
}
