//! Cross-crate consistency: every implementation in the workspace computes
//! the same LD — the blocked GEMM engine, the OmegaPlus-style pairwise
//! kernel, the PLINK-style genotype kernel (on homozygous lifts), and the
//! naive byte loop — across kernels, thread counts and data shapes.

use gemm_ld::prelude::*;
use ld_baselines::{ByteMatrix, OmegaPlusKernel, PlinkKernel};
use ld_bitmat::GenotypeMatrix;
use ld_core::NanPolicy;
use ld_kernels::micro::supported_kernels;

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() < tol || (a.is_nan() && b.is_nan())
}

fn sim(n_samples: usize, n_snps: usize, seed: u64) -> ld_bitmat::BitMatrix {
    HaplotypeSimulator::new(n_samples, n_snps)
        .seed(seed)
        .generate()
}

#[test]
fn four_implementations_agree() {
    let g = sim(320, 40, 1);
    let engine = LdEngine::new().nan_policy(NanPolicy::Zero);
    let gemm = engine.r2_matrix(&g);
    let omega = OmegaPlusKernel::new()
        .nan_policy(NanPolicy::Zero)
        .r2_matrix(&g.full_view(), 2);
    let naive = ByteMatrix::from_bitmatrix(&g).r2_matrix(2, NanPolicy::Zero);
    let plink = PlinkKernel::new()
        .nan_policy(NanPolicy::Zero)
        .r2_matrix(&GenotypeMatrix::from_haplotypes_as_homozygous(&g), 2);
    for i in 0..40 {
        for j in i..40 {
            let a = gemm.get(i, j);
            assert!(close(a, omega.get(i, j), 1e-10), "omega ({i},{j})");
            assert!(close(a, naive.get(i, j), 1e-10), "naive ({i},{j})");
            assert!(close(a, plink.get(i, j), 1e-6), "plink ({i},{j})");
        }
    }
}

#[test]
fn every_kernel_gives_identical_counts() {
    let g = sim(777, 30, 2);
    let reference = LdEngine::new()
        .kernel(KernelKind::Scalar)
        .try_counts_matrix(&g)
        .unwrap();
    for k in supported_kernels() {
        let counts = LdEngine::new()
            .kernel(k.kind())
            .try_counts_matrix(&g)
            .unwrap();
        assert_eq!(counts, reference, "kernel {}", k.kind());
    }
}

#[test]
fn threads_never_change_results() {
    let g = sim(150, 60, 3);
    let one = LdEngine::new()
        .threads(1)
        .nan_policy(NanPolicy::Zero)
        .r2_matrix(&g);
    for t in [2usize, 3, 7, 16] {
        let many = LdEngine::new()
            .threads(t)
            .nan_policy(NanPolicy::Zero)
            .r2_matrix(&g);
        assert_eq!(one.packed(), many.packed(), "threads = {t}");
    }
}

#[test]
fn word_boundary_sample_counts() {
    // 63/64/65 samples cross the packing boundary; every path must agree.
    for n_samples in [63usize, 64, 65, 127, 128, 129] {
        let g = sim(n_samples, 12, n_samples as u64);
        let gemm = LdEngine::new().nan_policy(NanPolicy::Zero).r2_matrix(&g);
        let omega = OmegaPlusKernel::new()
            .nan_policy(NanPolicy::Zero)
            .r2_matrix(&g.full_view(), 1);
        for i in 0..12 {
            for j in i..12 {
                assert!(
                    close(gemm.get(i, j), omega.get(i, j), 1e-10),
                    "samples={n_samples} ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn cross_and_square_engines_consistent() {
    let g = sim(200, 50, 4);
    let engine = LdEngine::new().nan_policy(NanPolicy::Zero);
    let square = engine.r2_matrix(&g);
    let cross = engine
        .try_cross_stat_matrix(g.view(0, 20), g.view(20, 50), LdStats::RSquared)
        .unwrap();
    for i in 0..20 {
        for j in 0..30 {
            assert!(
                close(cross.get(i, j), square.get(i, 20 + j), 1e-12),
                "({i},{j})"
            );
        }
    }
}

#[test]
fn diagonal_r2_is_one_for_polymorphic_sites() {
    let g = sim(500, 80, 5);
    let r2 = LdEngine::new().r2_matrix(&g);
    for j in 0..80 {
        assert!((r2.get(j, j) - 1.0).abs() < 1e-12, "snp {j}");
    }
}

#[test]
fn tanimoto_agrees_with_ld_counts_identity() {
    // Tanimoto and r² both come from the same counts matrix; check the
    // arithmetic relation x/(p+q-x) on real counts.
    let fp = ld_data::fingerprints::random_fingerprints(30, 512, 0.1, 6);
    let counts = LdEngine::new().try_counts_matrix(&fp).unwrap();
    let sim =
        ld_ext::tanimoto::tanimoto_matrix(&LdEngine::new().threads(1), &fp.full_view()).unwrap();
    let n = 30;
    for i in 0..n {
        for j in i..n {
            let (p, q, x) = (
                counts[i * n + i] as f64,
                counts[j * n + j] as f64,
                counts[i * n + j] as f64,
            );
            let want = if p + q - x == 0.0 {
                1.0
            } else {
                x / (p + q - x)
            };
            assert!(close(sim.get(i, j), want, 1e-12), "({i},{j})");
        }
    }
}

#[test]
fn masked_matches_unmasked_when_all_valid() {
    let g = sim(100, 25, 7);
    let mask = ValidityMask::all_valid(100, 25);
    let masked = ld_ext::gaps::masked_r2_matrix(&g.full_view(), &mask, 2, NanPolicy::Zero);
    let plain = LdEngine::new().nan_policy(NanPolicy::Zero).r2_matrix(&g);
    for (i, j, v) in plain.iter_upper() {
        assert!(close(v, masked.get(i, j), 1e-12), "({i},{j})");
    }
}
