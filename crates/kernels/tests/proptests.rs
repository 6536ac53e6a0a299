//! Property tests: the blocked GotoBLAS drivers agree with the naive
//! pairwise oracle on arbitrary shapes, block sizes and kernels.
//!
//! Driven by seeded `ld-rng` randomness (the offline environment has no
//! `proptest`): every case is deterministic and replayable from the case
//! index printed in the failure message.

use ld_bitmat::BitMatrix;
use ld_kernels::micro::supported_kernels;
use ld_kernels::reference::{gemm_counts_naive, syrk_counts_naive};
use ld_kernels::{gemm_counts_mt, syrk_counts_buf, BlockSizes, KernelKind};
use ld_rng::SmallRng;

fn random_matrix(rng: &mut SmallRng, n_samples: usize, n_snps: usize) -> BitMatrix {
    let mut g = BitMatrix::zeros(n_samples, n_snps);
    for j in 0..n_snps {
        for s in 0..n_samples {
            if rng.gen::<bool>() {
                g.set(s, j, true);
            }
        }
    }
    g
}

#[test]
fn gemm_matches_naive() {
    let mut rng = SmallRng::seed_from_u64(0x9e11);
    for case in 0..32 {
        let n_samples = rng.gen_range(1usize..300);
        let m = rng.gen_range(1usize..24);
        let n = rng.gen_range(1usize..24);
        let a = random_matrix(&mut rng, n_samples, m);
        let b = random_matrix(&mut rng, n_samples, n);
        let expect = gemm_counts_naive(&a.full_view(), &b.full_view());
        let blocks = BlockSizes {
            kc: rng.gen_range(1usize..8),
            mc: rng.gen_range(1usize..10),
            nc: rng.gen_range(1usize..10),
        };
        let threads = rng.gen_range(1usize..5);
        let mut c = vec![0u32; m * n];
        gemm_counts_mt(
            &a.full_view(),
            &b.full_view(),
            &mut c,
            n,
            KernelKind::Auto,
            blocks,
            threads,
        )
        .expect("no worker panics");
        assert_eq!(
            c, expect,
            "case {case}: shape ({n_samples},{m},{n}) {blocks:?} threads {threads}"
        );
    }
}

#[test]
fn syrk_matches_naive() {
    let mut rng = SmallRng::seed_from_u64(0x5e11);
    for case in 0..32 {
        let n_samples = rng.gen_range(1usize..300);
        let n = rng.gen_range(1usize..30);
        let g = random_matrix(&mut rng, n_samples, n);
        let expect = syrk_counts_naive(&g.full_view());
        let blocks = BlockSizes {
            kc: rng.gen_range(1usize..8),
            mc: rng.gen_range(1usize..10),
            nc: rng.gen_range(1usize..10),
        };
        let threads = rng.gen_range(1usize..5);
        let mut c = vec![0u32; n * n];
        syrk_counts_buf(&g.full_view(), &mut c, n, KernelKind::Auto, blocks, threads)
            .expect("no worker panics");
        assert_eq!(
            c, expect,
            "case {case}: shape ({n_samples},{n}) {blocks:?} threads {threads}"
        );
    }
}

#[test]
fn every_kernel_agrees() {
    let mut rng = SmallRng::seed_from_u64(0xa11);
    for case in 0..16 {
        let n_samples = rng.gen_range(1usize..200);
        let m = rng.gen_range(1usize..12);
        let n = rng.gen_range(1usize..12);
        let a = random_matrix(&mut rng, n_samples, m);
        let b = random_matrix(&mut rng, n_samples, n);
        let expect = gemm_counts_naive(&a.full_view(), &b.full_view());
        for k in supported_kernels() {
            let mut c = vec![0u32; m * n];
            gemm_counts_mt(
                &a.full_view(),
                &b.full_view(),
                &mut c,
                n,
                k.kind(),
                BlockSizes::default(),
                1,
            )
            .expect("no worker panics");
            assert_eq!(&c, &expect, "case {case}: kernel {}", k.kind());
        }
    }
}

#[test]
fn counts_respect_set_bounds() {
    // C[i,j] ≤ min(C[i,i], C[j,j]) — intersections are bounded by the
    // smaller allele count, an invariant the r² denominators rely on.
    let mut rng = SmallRng::seed_from_u64(0xb0b);
    for case in 0..16 {
        let n_samples = rng.gen_range(1usize..200);
        let n = rng.gen_range(2usize..16);
        let g = random_matrix(&mut rng, n_samples, n);
        let c = ld_kernels::syrk_counts(&g.full_view(), KernelKind::Auto);
        for i in 0..n {
            for j in 0..n {
                assert!(
                    c[i * n + j] <= c[i * n + i].min(c[j * n + j]),
                    "case {case}: ({i},{j})"
                );
            }
        }
    }
}
