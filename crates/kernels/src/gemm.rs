//! The blocked GEMM driver (two distinct SNP sets — Fig. 4 of the paper,
//! long-range and cross-population LD).

use crate::micro::Kernel;
use crate::pack::pack_panels;
use crate::{BlockSizes, KernelKind};
use ld_bitmat::{AlignedWords, BitMatrixView};
use ld_parallel::{try_for_each_part, WorkerPanic};
use ld_trace::recorder::{Span, SpanKind};
use ld_trace::Counter;
use std::ops::Range;

/// Validates the operands against `c` and zeroes the `m × n` output
/// block. `false` when either operand has no SNPs: there is nothing to
/// compute and `c` is left untouched (`ldc` may legitimately be 0 then).
fn prepare_c(a: &BitMatrixView<'_>, b: &BitMatrixView<'_>, c: &mut [u32], ldc: usize) -> bool {
    assert_eq!(
        a.n_samples(),
        b.n_samples(),
        "GEMM operands must have the same number of samples"
    );
    assert!(
        a.n_samples() < u32::MAX as usize,
        "co-occurrence counts are stored as u32; sample count must fit"
    );
    assert!(
        ldc >= b.n_snps(),
        "ldc must be at least the number of B SNPs"
    );
    if a.n_snps() == 0 || b.n_snps() == 0 {
        return false;
    }
    assert!(
        c.len() >= (a.n_snps() - 1) * ldc + b.n_snps(),
        "C buffer too small for {} x {} output with ldc {}",
        a.n_snps(),
        b.n_snps(),
        ldc
    );
    for row in c.chunks_mut(ldc).take(a.n_snps()) {
        row[..b.n_snps()].fill(0);
    }
    true
}

/// The five-loop blocked core. Accumulates `C += AᵀB` counts for the SNP
/// rows `a_rows` of `A` into the row-slab `c` (whose row 0 corresponds to
/// `a_rows.start` and whose column 0 corresponds to global B column
/// `c_col0`; pass `c_col0 = 0` for a full-width output buffer).
///
/// `skip_below_diagonal` implements the SYRK triangle: micro-tiles whose
/// entire row range lies strictly below the diagonal (`i > j` for all
/// covered entries) are skipped. The decision depends only on (i, j), never
/// on `pc`, so partial sums stay consistent across rank-k passes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_blocked(
    kernel: &Kernel,
    blocks: BlockSizes,
    a: &BitMatrixView<'_>,
    b: &BitMatrixView<'_>,
    a_rows: Range<usize>,
    b_cols: Range<usize>,
    c: &mut [u32],
    ldc: usize,
    c_col0: usize,
    skip_below_diagonal: bool,
) {
    debug_assert!(c_col0 <= b_cols.start);
    let k_words = a.words_per_snp();
    debug_assert_eq!(k_words, b.words_per_snp());
    let (mr, nr) = (kernel.mr(), kernel.nr());
    let bs = blocks.clamped(a_rows.len(), b_cols.len(), k_words);
    let mut abuf = AlignedWords::new();
    let mut bbuf = AlignedWords::new();
    // Accumulator tile (heap-free small array; max shape is 8x8).
    let mut acc = [0u64; 64];
    debug_assert!(mr * nr <= acc.len());

    // Per-layer observability: each span charges its layer timer once per
    // (jc, pc[, ic]) block; the work counts accumulate into plain locals
    // and flush once per call, so the tile loops never touch an atomic.
    let mut n_tiles = 0u64;
    let mut n_words = 0u64;
    let mut n_bytes_packed = 0u64;

    let mut jc = b_cols.start;
    while jc < b_cols.end {
        let ncur = bs.nc.min(b_cols.end - jc);
        let mut pc = 0usize;
        while pc < k_words {
            let kcur = bs.kc.min(k_words - pc);
            // A span is two clock reads and one counter add, plus four
            // relaxed stores when a recorder is armed.
            let span = Span::begin(SpanKind::PackB);
            pack_panels(b, jc..jc + ncur, pc..pc + kcur, nr, &mut bbuf);
            let b_bytes = (bbuf.len() * 8) as u64;
            span.end(b_bytes);
            n_bytes_packed += b_bytes;
            let mut ic = a_rows.start;
            while ic < a_rows.end {
                let mcur = bs.mc.min(a_rows.end - ic);
                // SYRK: an entire A block strictly below the diagonal of
                // this B block contributes nothing.
                if skip_below_diagonal && ic > jc + ncur - 1 {
                    ic += mcur;
                    continue;
                }
                let span = Span::begin(SpanKind::PackA);
                pack_panels(a, ic..ic + mcur, pc..pc + kcur, mr, &mut abuf);
                let a_bytes = (abuf.len() * 8) as u64;
                span.end(a_bytes);
                n_bytes_packed += a_bytes;
                // One kernel-batch span covers the whole jr/ir register-
                // tile sweep of this (jc, pc, ic) block — coarse enough
                // that tracing never perturbs the tile loops themselves.
                let span = Span::begin(SpanKind::KernelBatch);
                let words_before = n_words;
                let mut jr = 0usize;
                while jr < ncur {
                    let nrcur = nr.min(ncur - jr);
                    let bp = &bbuf[(jr / nr) * kcur * nr..(jr / nr + 1) * kcur * nr];
                    let gj1 = jc + jr + nrcur - 1;
                    let mut ir = 0usize;
                    while ir < mcur {
                        let mrcur = mr.min(mcur - ir);
                        let gi0 = ic + ir;
                        if skip_below_diagonal && gi0 > gj1 {
                            ir += mr;
                            continue;
                        }
                        // A micro-tile is counted once, on its first rank-k
                        // pass: the (i, j) skip decision never depends on
                        // `pc`, so the pc == 0 pass visits exactly the set
                        // of distinct tiles.
                        if pc == 0 {
                            n_tiles += 1;
                        }
                        n_words += (kcur * mr * nr) as u64;
                        let ap = &abuf[(ir / mr) * kcur * mr..(ir / mr + 1) * kcur * mr];
                        acc[..mr * nr].fill(0);
                        kernel.run(kcur, ap, bp, &mut acc[..mr * nr]);
                        // Scatter the valid region into C.
                        for i in 0..mrcur {
                            let row = gi0 + i - a_rows.start;
                            let base = row * ldc + (jc + jr - c_col0);
                            for j in 0..nrcur {
                                c[base + j] += acc[i * nr + j] as u32;
                            }
                        }
                        ir += mr;
                    }
                    jr += nr;
                }
                span.end(n_words - words_before);
                ic += mcur;
            }
            pc += kcur;
        }
        jc += ncur;
    }

    ld_trace::add(Counter::KernelTiles, n_tiles);
    ld_trace::add(Counter::KernelWords, n_words);
    ld_trace::add(Counter::BytesPacked, n_bytes_packed);
}

/// Computes all `m × n` co-occurrence counts `C[i,j] = s_iᵀ s_j` between
/// the SNPs of `a` and `b` into `c` (row-major with leading dimension
/// `ldc`), overwriting previous contents. An operand with no SNPs leaves
/// `c` untouched.
///
/// This is the integer core of `H = (1/N) GᵀG` for two different genomic
/// matrices (Fig. 4): divide by `n_samples` to get haplotype frequencies.
///
/// # Panics
/// If the sample counts differ or `c` is too small.
pub fn gemm_counts_buf(
    a: &BitMatrixView<'_>,
    b: &BitMatrixView<'_>,
    c: &mut [u32],
    ldc: usize,
    kind: KernelKind,
    blocks: BlockSizes,
) {
    if !prepare_c(a, b, c, ldc) {
        return;
    }
    let kernel = Kernel::resolve(kind).expect("requested kernel not supported on this CPU");
    gemm_blocked(
        &kernel,
        blocks,
        a,
        b,
        0..a.n_snps(),
        0..b.n_snps(),
        c,
        ldc,
        0,
        false,
    );
}

/// Convenience wrapper: allocates and returns the `m × n` counts matrix.
pub fn gemm_counts(a: &BitMatrixView<'_>, b: &BitMatrixView<'_>, kind: KernelKind) -> Vec<u32> {
    let mut c = vec![0u32; a.n_snps() * b.n_snps()];
    gemm_counts_buf(a, b, &mut c, b.n_snps(), kind, BlockSizes::default());
    c
}

/// Multithreaded [`gemm_counts_buf`]: the `m` (A-SNP) rows of C are cut
/// into at most `threads` contiguous blocks, each a multiple of the
/// kernel's `MR` rows, and each block is one claim of
/// [`ld_parallel::try_for_each_part`] — the BLIS loop-around-the-macro-
/// kernel parallelization the paper uses for Tables I–III. GEMM rows cost
/// the same, so one block per thread balances, and each block packs B̃
/// once; `MR`-aligned blocks keep the micro-tile grid (and `kernel_tiles`)
/// that of one thread. Kept for `benchmark/`; see ROADMAP 8a.
///
/// The first worker panic comes back as a [`WorkerPanic`] once the team
/// has drained; the operand checks panic on the caller, as in
/// [`gemm_counts_buf`].
pub fn gemm_counts_mt(
    a: &BitMatrixView<'_>,
    b: &BitMatrixView<'_>,
    c: &mut [u32],
    ldc: usize,
    kind: KernelKind,
    blocks: BlockSizes,
    threads: usize,
) -> Result<(), WorkerPanic> {
    if !prepare_c(a, b, c, ldc) {
        return Ok(());
    }
    let kernel = Kernel::resolve(kind).expect("requested kernel not supported on this CPU");
    let m = a.n_snps();
    let rows = m.div_ceil(threads.max(1)).next_multiple_of(kernel.mr());
    let kernel = &kernel;
    let parts = c.chunks_mut(rows * ldc).take(m.div_ceil(rows));
    try_for_each_part(threads, 1, parts, |p, slab| {
        let r0 = p * rows;
        let rows = r0..(r0 + rows).min(m);
        gemm_blocked(
            kernel,
            blocks,
            a,
            b,
            rows,
            0..b.n_snps(),
            slab,
            ldc,
            0,
            false,
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::supported_kernels;
    use crate::reference::gemm_counts_naive;
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
                if next() % 5 < 2 {
                    g.set(smp, j, true);
                }
            }
        }
        g
    }

    #[test]
    fn blocked_matches_naive_all_kernels() {
        let a = pseudo(100, 13, 1);
        let b = pseudo(100, 9, 2);
        let expect = gemm_counts_naive(&a.full_view(), &b.full_view());
        for k in supported_kernels() {
            let got = gemm_counts(&a.full_view(), &b.full_view(), k.kind());
            assert_eq!(got, expect, "kernel {}", k.kind());
        }
    }

    #[test]
    fn blocked_matches_naive_odd_shapes() {
        // Shapes chosen to hit every fringe path: single SNP, non-multiples
        // of MR/NR, sample counts straddling word boundaries.
        for (ns, ma, nb) in [
            (1usize, 1usize, 1usize),
            (63, 5, 7),
            (64, 4, 8),
            (65, 17, 3),
            (200, 33, 31),
        ] {
            let a = pseudo(ns, ma, ns as u64);
            let b = pseudo(ns, nb, ns as u64 + 17);
            let expect = gemm_counts_naive(&a.full_view(), &b.full_view());
            let got = gemm_counts(&a.full_view(), &b.full_view(), KernelKind::Auto);
            assert_eq!(got, expect, "shape ({ns},{ma},{nb})");
        }
    }

    #[test]
    fn tiny_blocks_stress_the_loop_structure() {
        let a = pseudo(300, 23, 5);
        let b = pseudo(300, 19, 6);
        let expect = gemm_counts_naive(&a.full_view(), &b.full_view());
        let blocks = BlockSizes {
            kc: 2,
            mc: 3,
            nc: 5,
        };
        let mut c = vec![0u32; 23 * 19];
        gemm_counts_buf(
            &a.full_view(),
            &b.full_view(),
            &mut c,
            19,
            KernelKind::Auto,
            blocks,
        );
        assert_eq!(c, expect);
    }

    #[test]
    fn ldc_larger_than_n_leaves_gaps_untouched() {
        let a = pseudo(64, 4, 9);
        let b = pseudo(64, 3, 10);
        let ldc = 5;
        let mut c = vec![u32::MAX; 4 * ldc];
        gemm_counts_buf(
            &a.full_view(),
            &b.full_view(),
            &mut c,
            ldc,
            KernelKind::Auto,
            BlockSizes::default(),
        );
        let expect = gemm_counts_naive(&a.full_view(), &b.full_view());
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(c[i * ldc + j], expect[i * 3 + j]);
            }
            // padding columns untouched
            assert_eq!(c[i * ldc + 3], u32::MAX);
            assert_eq!(c[i * ldc + 4], u32::MAX);
        }
    }

    #[test]
    fn multithreaded_matches_single() {
        let a = pseudo(150, 40, 11);
        let b = pseudo(150, 37, 12);
        let expect = gemm_counts(&a.full_view(), &b.full_view(), KernelKind::Auto);
        for threads in [1usize, 2, 3, 7, 64] {
            let mut c = vec![0u32; 40 * 37];
            gemm_counts_mt(
                &a.full_view(),
                &b.full_view(),
                &mut c,
                37,
                KernelKind::Auto,
                BlockSizes::default(),
                threads,
            )
            .expect("no worker panics");
            assert_eq!(c, expect, "threads={threads}");
        }
    }

    #[test]
    fn buf_overwrites_stale_contents() {
        let a = pseudo(64, 3, 13);
        let b = pseudo(64, 3, 14);
        let mut c = vec![99u32; 9];
        gemm_counts_buf(
            &a.full_view(),
            &b.full_view(),
            &mut c,
            3,
            KernelKind::Auto,
            BlockSizes::default(),
        );
        assert_eq!(c, gemm_counts_naive(&a.full_view(), &b.full_view()));
    }

    #[test]
    #[should_panic(expected = "same number of samples")]
    fn sample_mismatch_panics() {
        let a = BitMatrix::zeros(10, 2);
        let b = BitMatrix::zeros(11, 2);
        gemm_counts(&a.full_view(), &b.full_view(), KernelKind::Auto);
    }

    #[test]
    #[should_panic(expected = "C buffer too small")]
    fn short_c_panics() {
        let a = BitMatrix::zeros(10, 2);
        let b = BitMatrix::zeros(10, 2);
        let mut c = vec![0u32; 3];
        gemm_counts_buf(
            &a.full_view(),
            &b.full_view(),
            &mut c,
            2,
            KernelKind::Auto,
            BlockSizes::default(),
        );
    }

    #[test]
    fn views_restrict_the_computation() {
        let a = pseudo(90, 10, 20);
        let expect_full = gemm_counts_naive(&a.full_view(), &a.full_view());
        let va = a.view(2, 6); // 4 snps
        let vb = a.view(5, 10); // 5 snps
        let got = gemm_counts(&va, &vb, KernelKind::Auto);
        for i in 0..4 {
            for j in 0..5 {
                assert_eq!(got[i * 5 + j], expect_full[(i + 2) * 10 + (j + 5)]);
            }
        }
    }
}
