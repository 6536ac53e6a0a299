//! The symmetric rank-k driver: `C = GᵀG` counts, upper triangle computed,
//! lower mirrored — the paper's headline configuration (Fig. 3), where only
//! `N(N+1)/2` LD values are distinct.

use crate::gemm::gemm_blocked;
use crate::micro::Kernel;
use crate::{BlockSizes, KernelKind};
use ld_bitmat::BitMatrixView;
use ld_parallel::{try_for_each_part, WorkerPanic};
use ld_trace::recorder::{Span, SpanKind};
use std::ops::Range;

/// Rows of C per claim of [`syrk_counts_buf`]: a multiple of every
/// kernel's `MR` and `NR`, so each block starts on a micro-tile boundary
/// and the tile set is that of one block over all rows, and independent
/// of the thread count. Row `i` of the upper triangle costs `n − i` inner
/// products; claiming fixed blocks dynamically absorbs that skew. A block
/// is the kernel's `a_rows`, so an `mc` above it acts as this height, as
/// an `mc` above the slab height does on the slab driver. Each block
/// packs its own B̃, so short blocks cost repacking: at
/// 3000 × 16 384 and 2 threads on a 2-vCPU x86-64 VM (8 alternating
/// runs), 256 rows took a median 0.133 s against 0.123 s for the static
/// triangle-weight split it replaced (the runs' spreads overlap), 64 rows
/// 0.153 s.
const SYRK_CLAIM_ROWS: usize = 256;

/// Computes the row slab `rows` of the **upper triangle** of `C = GᵀG`
/// counts into `c` (row 0 of `c` = global row `rows.start`, leading
/// dimension `ldc ≥ n`). Entries with `j < i` in crossing tiles also end up
/// correct; entries in fully-skipped tiles stay zero — call
/// [`mirror_upper_to_lower`] on the assembled matrix to finish.
pub(crate) fn syrk_rows(
    kernel: &Kernel,
    blocks: BlockSizes,
    g: &BitMatrixView<'_>,
    rows: Range<usize>,
    c: &mut [u32],
    ldc: usize,
) {
    let n = g.n_snps();
    debug_assert!(rows.end <= n && ldc >= n);
    // Columns strictly left of rows.start are entirely below the diagonal
    // for this slab; start the jc loop there.
    gemm_blocked(
        kernel,
        blocks,
        g,
        g,
        rows.clone(),
        rows.start..n,
        c,
        ldc,
        0,
        true,
    );
}

/// Computes the upper-triangle co-occurrence counts of the row slab `rows`
/// of `C = GᵀG` into the **slab-local** buffer `c`:
///
/// ```text
/// c[(i − rows.start) · ldc + (j − rows.start)] = s_iᵀ s_j
/// ```
///
/// for `i ∈ rows`, `j ∈ i..n`, with `ldc ≥ n − rows.start`. The buffer only
/// spans the columns `rows.start..n`, so a slab of `h` rows costs
/// `h × (n − rows.start)` u32 — the bounded per-worker scratch of the fused
/// counts→statistic pipeline, independent of how many slabs the full
/// triangle is cut into.
///
/// Entries below the diagonal (`j < i` within the slab's column window) are
/// zero-filled and may receive partial sums from diagonal-crossing
/// micro-tiles; only read `j ≥ i`.
///
/// # Panics
/// If `rows` exceeds the SNP count, `ldc` is too small, or `c` cannot hold
/// the slab.
pub fn syrk_slab_counts(
    g: &BitMatrixView<'_>,
    rows: Range<usize>,
    c: &mut [u32],
    ldc: usize,
    kind: KernelKind,
    blocks: BlockSizes,
) {
    let n = g.n_snps();
    assert!(rows.end <= n, "row slab {rows:?} exceeds SNP count {n}");
    assert!(
        g.n_samples() < u32::MAX as usize,
        "co-occurrence counts are stored as u32; sample count must fit"
    );
    let width = n - rows.start;
    let h = rows.len();
    assert!(ldc >= width, "ldc {ldc} must cover the slab width {width}");
    assert!(
        h == 0 || c.len() >= (h - 1) * ldc + width,
        "slab buffer too small for {h} x {width} output with ldc {ldc}"
    );
    if h == 0 {
        return;
    }
    let kernel = Kernel::resolve(kind).expect("requested kernel not supported on this CPU");
    // The scratch zero-fill is part of producing the counts layer; time
    // it as a kernel span so the profile's layer sum covers the whole SYRK.
    let span = Span::begin(SpanKind::KernelBatch);
    for row in c.chunks_mut(ldc).take(h) {
        row[..width].fill(0);
    }
    span.end(0);
    gemm_blocked(
        &kernel,
        blocks,
        g,
        g,
        rows.clone(),
        rows.start..n,
        c,
        ldc,
        rows.start,
        true,
    );
}

/// Copies the upper triangle of the `n × n` row-major matrix `c` onto the
/// lower triangle.
///
/// Processed in `64 × 64` blocks: a row-wise mirror is a transposed copy,
/// and the naive double loop strides `ldc` words per read, thrashing the
/// TLB/caches on large matrices (it measurably dominated the SYRK time at
/// `n = 4096` before blocking). Each block's source and destination both
/// fit in L1.
pub fn mirror_upper_to_lower(c: &mut [u32], n: usize, ldc: usize) {
    assert!(ldc >= n && c.len() >= n.saturating_sub(1) * ldc + n.min(1) * n.min(ldc));
    const TB: usize = 64;
    let mut bi = 0;
    while bi < n {
        let iend = (bi + TB).min(n);
        // diagonal block: triangular copy in place
        for i in bi + 1..iend {
            for j in bi..i {
                c[i * ldc + j] = c[j * ldc + i];
            }
        }
        // off-diagonal blocks of this block-row, fully below the diagonal
        let mut bj = 0;
        while bj < bi {
            let jend = bj + TB; // bj + TB <= bi <= n, full block
            for i in bi..iend {
                for j in bj..jend {
                    c[i * ldc + j] = c[j * ldc + i];
                }
            }
            bj += TB;
        }
        bi += TB;
    }
}

/// Computes the full symmetric co-occurrence counts matrix `C = GᵀG`
/// (row-major `n × n`, `ldc = n`), doing only the triangle's worth of
/// kernel work and mirroring.
pub fn syrk_counts(g: &BitMatrixView<'_>, kind: KernelKind) -> Vec<u32> {
    let n = g.n_snps();
    let mut c = vec![0u32; n * n];
    if let Err(p) = syrk_counts_buf(g, &mut c, n, kind, BlockSizes::default(), 1) {
        panic!("{}", p.message);
    }
    c
}

/// In-buffer symmetric counts with explicit blocking and thread count.
///
/// The upper triangle is computed in row blocks of 256 (`SYRK_CLAIM_ROWS`),
/// each one claim of [`ld_parallel::try_for_each_part`] — dynamic claims
/// of fixed blocks balance the triangle's skew (early rows hold the most
/// pairs) — and then mirrored. The first worker panic comes back as a
/// [`WorkerPanic`] once the team has drained (and `c` is then partial);
/// the shape checks panic on the caller.
pub fn syrk_counts_buf(
    g: &BitMatrixView<'_>,
    c: &mut [u32],
    ldc: usize,
    kind: KernelKind,
    blocks: BlockSizes,
    threads: usize,
) -> Result<(), WorkerPanic> {
    let n = g.n_snps();
    assert!(
        g.n_samples() < u32::MAX as usize,
        "co-occurrence counts are stored as u32; sample count must fit"
    );
    assert!(ldc >= n, "ldc must be at least n");
    assert!(
        c.len() >= n.saturating_sub(1) * ldc + n,
        "C buffer too small"
    );
    if n == 0 {
        return Ok(());
    }
    let kernel = Kernel::resolve(kind).expect("requested kernel not supported on this CPU");
    let span = Span::begin(SpanKind::KernelBatch);
    for row in c.chunks_mut(ldc).take(n) {
        row[..n].fill(0);
    }
    span.end(0);
    let kernel = &kernel;
    let parts = c
        .chunks_mut(SYRK_CLAIM_ROWS * ldc)
        .take(n.div_ceil(SYRK_CLAIM_ROWS));
    try_for_each_part(threads, 1, parts, |p, slab| {
        let r0 = p * SYRK_CLAIM_ROWS;
        syrk_rows(
            kernel,
            blocks,
            g,
            r0..(r0 + SYRK_CLAIM_ROWS).min(n),
            slab,
            ldc,
        );
    })?;
    let span = Span::begin(SpanKind::KernelBatch);
    mirror_upper_to_lower(c, n, ldc);
    span.end(0);
    Ok(())
}

/// Multithreaded convenience wrapper returning the full mirrored matrix.
/// Kept for `benchmark/`; see ROADMAP 8a.
pub fn syrk_counts_mt(
    g: &BitMatrixView<'_>,
    kind: KernelKind,
    threads: usize,
) -> Result<Vec<u32>, WorkerPanic> {
    let n = g.n_snps();
    let mut c = vec![0u32; n * n];
    syrk_counts_buf(g, &mut c, n, kind, BlockSizes::default(), threads)?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    // explicit `row * stride + col` index arithmetic reads better than
    // pre-folded literals in these layout tests
    #![allow(clippy::identity_op, clippy::erasing_op)]
    use super::*;
    use crate::micro::supported_kernels;
    use crate::reference::syrk_counts_naive;
    use ld_bitmat::BitMatrix;

    fn pseudo(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut g = BitMatrix::zeros(n_samples, n_snps);
        for j in 0..n_snps {
            for smp in 0..n_samples {
                if next() % 4 == 0 {
                    g.set(smp, j, true);
                }
            }
        }
        g
    }

    #[test]
    fn syrk_matches_naive_all_kernels() {
        let g = pseudo(130, 21, 3);
        let expect = syrk_counts_naive(&g.full_view());
        for k in supported_kernels() {
            let got = syrk_counts(&g.full_view(), k.kind());
            assert_eq!(got, expect, "kernel {}", k.kind());
        }
    }

    #[test]
    fn syrk_matches_naive_odd_shapes() {
        for (ns, n) in [(1usize, 1usize), (64, 2), (65, 9), (100, 16), (33, 40)] {
            let g = pseudo(ns, n, ns as u64 * 7 + n as u64);
            let expect = syrk_counts_naive(&g.full_view());
            let got = syrk_counts(&g.full_view(), KernelKind::Auto);
            assert_eq!(got, expect, "shape ({ns},{n})");
        }
    }

    #[test]
    fn syrk_with_tiny_blocks() {
        let g = pseudo(200, 17, 8);
        let expect = syrk_counts_naive(&g.full_view());
        let mut c = vec![0u32; 17 * 17];
        syrk_counts_buf(
            &g.full_view(),
            &mut c,
            17,
            KernelKind::Auto,
            BlockSizes {
                kc: 1,
                mc: 2,
                nc: 3,
            },
            1,
        )
        .expect("no worker panics");
        assert_eq!(c, expect);
    }

    #[test]
    fn syrk_multithreaded_matches() {
        // 33 sites is one claim; 255 through 513 straddle the claim
        // height, so blocks end mid-matrix and the last one is short
        for n in [33usize, 255, 256, 257, 513] {
            let g = pseudo(96, n, 4);
            let expect = syrk_counts_naive(&g.full_view());
            for threads in [1usize, 2, 3, 5, 16, 100] {
                let got = syrk_counts_mt(&g.full_view(), KernelKind::Auto, threads)
                    .expect("no worker panics");
                assert_eq!(got, expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn diagonal_holds_allele_counts() {
        let g = pseudo(70, 12, 5);
        let c = syrk_counts(&g.full_view(), KernelKind::Auto);
        for j in 0..12 {
            assert_eq!(c[j * 12 + j] as u64, g.ones_in_snp(j));
        }
    }

    #[test]
    fn result_is_symmetric() {
        let g = pseudo(88, 15, 6);
        let c = syrk_counts_mt(&g.full_view(), KernelKind::Auto, 4).expect("no worker panics");
        for i in 0..15 {
            for j in 0..15 {
                assert_eq!(c[i * 15 + j], c[j * 15 + i]);
            }
        }
    }

    #[test]
    fn mirror_helper() {
        let n = 3;
        let mut c = vec![0u32; 9];
        c[0 * 3 + 1] = 5;
        c[0 * 3 + 2] = 7;
        c[1 * 3 + 2] = 9;
        mirror_upper_to_lower(&mut c, n, n);
        assert_eq!(c[1 * 3 + 0], 5);
        assert_eq!(c[2 * 3 + 0], 7);
        assert_eq!(c[2 * 3 + 1], 9);
    }

    #[test]
    fn slab_counts_match_naive_triangle() {
        let g = pseudo(110, 23, 9);
        let v = g.full_view();
        let expect = syrk_counts_naive(&v);
        let n = 23usize;
        // arbitrary slab cuts, including 1-row and full-matrix slabs
        for (r0, r1) in [
            (0usize, 23usize),
            (0, 1),
            (5, 6),
            (3, 11),
            (17, 23),
            (22, 23),
        ] {
            let width = n - r0;
            let h = r1 - r0;
            let mut c = vec![u32::MAX; h * width];
            syrk_slab_counts(
                &v,
                r0..r1,
                &mut c,
                width,
                KernelKind::Auto,
                BlockSizes::default(),
            );
            for i in r0..r1 {
                for j in i..n {
                    assert_eq!(
                        c[(i - r0) * width + (j - r0)],
                        expect[i * n + j],
                        "slab {r0}..{r1}: ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn slab_counts_with_padded_ldc_and_tiny_blocks() {
        let g = pseudo(77, 15, 10);
        let v = g.full_view();
        let expect = syrk_counts_naive(&v);
        let (r0, r1, n) = (4usize, 9usize, 15usize);
        let width = n - r0;
        let ldc = width + 3;
        let mut c = vec![7u32; (r1 - r0) * ldc];
        syrk_slab_counts(
            &v,
            r0..r1,
            &mut c,
            ldc,
            KernelKind::Auto,
            BlockSizes {
                kc: 1,
                mc: 2,
                nc: 3,
            },
        );
        for i in r0..r1 {
            for j in i..n {
                assert_eq!(c[(i - r0) * ldc + (j - r0)], expect[i * n + j], "({i},{j})");
            }
            // padding columns untouched
            for pad in width..ldc {
                assert_eq!(c[(i - r0) * ldc + pad], 7);
            }
        }
    }

    #[test]
    fn slab_counts_empty_slab_is_noop() {
        let g = pseudo(40, 6, 11);
        let mut c = vec![3u32; 4];
        syrk_slab_counts(
            &g.full_view(),
            2..2,
            &mut c,
            4,
            KernelKind::Auto,
            BlockSizes::default(),
        );
        assert_eq!(c, vec![3u32; 4]);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let g = BitMatrix::zeros(10, 0);
        let c = syrk_counts(&g.full_view(), KernelKind::Auto);
        assert!(c.is_empty());
    }

    #[test]
    fn syrk_on_view_window() {
        let g = pseudo(80, 20, 7);
        let v = g.view(5, 15);
        let expect = syrk_counts_naive(&v);
        let got = syrk_counts(&v, KernelKind::Auto);
        assert_eq!(got, expect);
    }
}
