//! Differential test matrix: every micro-kernel × every awkward shape.
//!
//! For each [`KernelKind`] this CPU supports (unsupported kinds are
//! skipped with a log line, never silently), the blocked SYRK and GEMM
//! drivers must be **bit-identical** to the naive reference
//! implementation across SNP counts chosen to hit every fringe path of
//! the micro-tile grid (`n < MR`, `n = MR ± 1`, word-boundary straddles,
//! a multi-block 257) and sample counts that exercise sub-word, exact
//! one-word, and multi-word packed columns.

use ld_bitmat::BitMatrix;
use ld_kernels::micro::Kernel;
use ld_kernels::reference::{gemm_counts_naive, syrk_counts_naive};
use ld_kernels::{
    gemm_counts, gemm_counts_buf, gemm_counts_mt, syrk_counts, BlockSizes, KernelKind,
};
use ld_popcount::PopcountStrategy;
use ld_rng::SmallRng;

/// SNP counts covering fringe tiles: below/at/above the widest MR/NR
/// (16), word-boundary straddles, and a many-block case.
const SNP_COUNTS: [usize; 8] = [1, 3, 4, 5, 63, 64, 65, 257];

/// Sample counts: sub-word, exactly one packed word, multi-word with a
/// ragged tail (1000 = 15 words + 40 bits).
const SAMPLE_COUNTS: [usize; 3] = [1, 64, 1000];

/// Every concrete kernel kind plus `Auto` (the production default).
fn all_kernel_kinds() -> Vec<KernelKind> {
    let mut kinds = vec![
        KernelKind::Auto,
        KernelKind::Scalar,
        KernelKind::Scalar2x4,
        KernelKind::Scalar8x4,
        KernelKind::ScalarAutoVec,
        KernelKind::Avx2ExtractInsert,
        KernelKind::Avx2Mula,
        KernelKind::Avx2HarleySeal,
        KernelKind::Avx512Vpopcnt,
        KernelKind::Avx512Vpopcnt4x8,
    ];
    for s in [
        PopcountStrategy::Hardware,
        PopcountStrategy::Swar,
        PopcountStrategy::Lut8,
        PopcountStrategy::Lut16,
        PopcountStrategy::HarleySeal,
    ] {
        kinds.push(KernelKind::ScalarStrategy(s));
    }
    kinds
}

/// Kinds the current CPU can run; unsupported ones are logged and skipped
/// (the skip is visible with `cargo test -- --nocapture`).
fn testable_kernel_kinds() -> Vec<KernelKind> {
    all_kernel_kinds()
        .into_iter()
        .filter(|&k| match Kernel::resolve(k) {
            Ok(_) => true,
            Err(e) => {
                eprintln!("skipping kernel {k}: {e}");
                false
            }
        })
        .collect()
}

/// A seeded random genotype matrix (ld-rng, deterministic across runs).
fn random_matrix(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = BitMatrix::zeros(n_samples, n_snps);
    for j in 0..n_snps {
        for s in 0..n_samples {
            if rng.gen_bool(0.3) {
                g.set(s, j, true);
            }
        }
    }
    g
}

#[test]
fn syrk_all_kernels_all_shapes_match_reference() {
    let kinds = testable_kernel_kinds();
    assert!(
        kinds.len() >= 2,
        "at least Auto and Scalar must always resolve"
    );
    for &k_samples in &SAMPLE_COUNTS {
        for &n_snps in &SNP_COUNTS {
            let seed = (k_samples as u64) << 32 | n_snps as u64;
            let g = random_matrix(k_samples, n_snps, seed);
            let v = g.full_view();
            let expect = syrk_counts_naive(&v);
            for &kind in &kinds {
                let got = syrk_counts(&v, kind);
                assert_eq!(
                    got, expect,
                    "SYRK mismatch: kernel {kind}, n={n_snps}, k={k_samples}"
                );
            }
        }
    }
}

#[test]
fn gemm_all_kernels_all_shapes_match_reference() {
    let kinds = testable_kernel_kinds();
    for &k_samples in &SAMPLE_COUNTS {
        for &n_snps in &SNP_COUNTS {
            let seed = 0xA5A5 ^ ((k_samples as u64) << 32 | n_snps as u64);
            // Rectangular: m ≠ n so row/column fringe paths differ.
            let m_snps = (n_snps / 2).max(1);
            let a = random_matrix(k_samples, m_snps, seed);
            let b = random_matrix(k_samples, n_snps, seed.wrapping_add(1));
            let (va, vb) = (a.full_view(), b.full_view());
            let expect = gemm_counts_naive(&va, &vb);
            for &kind in &kinds {
                let got = gemm_counts(&va, &vb, kind);
                assert_eq!(
                    got, expect,
                    "GEMM mismatch: kernel {kind}, m={m_snps}, n={n_snps}, k={k_samples}"
                );
            }
        }
    }
}

#[test]
fn gemm_with_a_zero_snp_operand_leaves_c_untouched() {
    let full = random_matrix(100, 5, 7);
    let none = BitMatrix::zeros(100, 0);
    let (vf, vn) = (full.full_view(), none.full_view());
    for kind in all_kernel_kinds() {
        for (a, b) in [(&vf, &vn), (&vn, &vf), (&vn, &vn)] {
            let ldc = b.n_snps();
            let mut c = vec![u32::MAX; 7];
            gemm_counts_buf(a, b, &mut c, ldc, kind, BlockSizes::default());
            assert_eq!(c, [u32::MAX; 7], "gemm_counts_buf, kernel {kind}");
            for threads in [1, 3] {
                gemm_counts_mt(a, b, &mut c, ldc, kind, BlockSizes::default(), threads)
                    .expect("no worker panics");
                assert_eq!(c, [u32::MAX; 7], "gemm_counts_mt, kernel {kind}");
            }
            assert!(gemm_counts(a, b, kind).is_empty());
        }
    }
}

#[test]
fn syrk_fringe_blocks_match_reference() {
    // Degenerate block sizes force every loop boundary through its fringe
    // path on a shape that is itself all fringe.
    let kinds = testable_kernel_kinds();
    let g = random_matrix(65, 65, 0xF12E);
    let v = g.full_view();
    let expect = syrk_counts_naive(&v);
    for &kind in &kinds {
        for blocks in [
            BlockSizes {
                kc: 1,
                mc: 1,
                nc: 1,
            },
            BlockSizes {
                kc: 1,
                mc: 2,
                nc: 3,
            },
        ] {
            let mut c = vec![0u32; 65 * 65];
            ld_kernels::syrk_counts_buf(&v, &mut c, 65, kind, blocks, 1).expect("no worker panics");
            assert_eq!(c, expect, "kernel {kind}, blocks {blocks:?}");
        }
    }
}

#[test]
fn auto_matches_every_supported_concrete_kernel() {
    // Auto must agree bit-for-bit with whichever concrete kernel it picks
    // — and, transitively, with all of them (they all match the naive
    // reference above); this pins the resolution indirectly.
    let g = random_matrix(257, 63, 0xB0B);
    let v = g.full_view();
    let auto = syrk_counts(&v, KernelKind::Auto);
    for &kind in &testable_kernel_kinds() {
        let got = syrk_counts(&v, kind);
        assert_eq!(got, auto, "kernel {kind} disagrees with Auto");
    }
}
