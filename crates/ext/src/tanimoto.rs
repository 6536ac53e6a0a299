//! Tanimoto fingerprint similarity on the GEMM engine (paper §VII,
//! "Adapting for other domains", Eq. 7).
//!
//! For compounds `A`, `B` with `p`, `q` set bits and `x` shared set bits:
//!
//! ```text
//! Tanimoto(A, B) = x / (p + q − x)
//! ```
//!
//! `x` for all pairs is exactly the co-occurrence counts matrix the LD
//! SYRK produces, and `p`, `q` are its diagonal — so an all-pairs
//! similarity screen is one blocked AND/POPCNT GEMM plus an `O(n²)`
//! elementwise transform. The same cache/register blocking that gives LD
//! its 84–95 % of peak carries over verbatim, which is the paper's point
//! about domain transfer.

use ld_bitmat::BitMatrixView;
use ld_core::{CrossLdMatrix, LdMatrix};
use ld_kernels::{gemm_counts_mt, syrk_counts_buf, BlockSizes, KernelKind};
use ld_popcount::and_popcount;

/// Tanimoto similarity of one fingerprint pair (columns `i`, `j`).
pub fn tanimoto_pair(fp: &BitMatrixView<'_>, i: usize, j: usize) -> f64 {
    let p = ld_popcount::popcount_slice(fp.snp_words(i));
    let q = ld_popcount::popcount_slice(fp.snp_words(j));
    let x = and_popcount(fp.snp_words(i), fp.snp_words(j));
    tanimoto_from_counts(p, q, x)
}

/// Eq. 7 with the empty-∪-empty convention `Tanimoto(∅, ∅) = 1`.
#[inline]
pub fn tanimoto_from_counts(p: u64, q: u64, x: u64) -> f64 {
    let denom = p + q - x;
    if denom == 0 {
        1.0
    } else {
        x as f64 / denom as f64
    }
}

/// All-pairs Tanimoto matrix over the fingerprint set (columns are
/// compounds), computed with the blocked SYRK engine — half the kernel
/// work of [`tanimoto_cross`] of the set with itself, and the same values
/// (Eq. 7 is symmetric in `p`, `q`).
pub fn tanimoto_matrix(
    fp: &BitMatrixView<'_>,
    kind: KernelKind,
    blocks: BlockSizes,
    threads: usize,
) -> LdMatrix {
    let n = fp.n_snps();
    let mut counts = vec![0u32; n * n];
    syrk_counts_buf(fp, &mut counts, n, kind, blocks, threads);
    let mut out = LdMatrix::zeros(n);
    for i in 0..n {
        let p = counts[i * n + i] as u64;
        for j in i..n {
            let q = counts[j * n + j] as u64;
            let x = counts[i * n + j] as u64;
            out.set(i, j, tanimoto_from_counts(p, q, x));
        }
    }
    out
}

/// Cross-set Tanimoto (query set × library set) with the GEMM driver —
/// the shape of a virtual-screening run.
pub fn tanimoto_cross(
    queries: &BitMatrixView<'_>,
    library: &BitMatrixView<'_>,
    kind: KernelKind,
    threads: usize,
) -> CrossLdMatrix {
    assert_eq!(
        queries.n_samples(),
        library.n_samples(),
        "fingerprint widths must match"
    );
    let (m, n) = (queries.n_snps(), library.n_snps());
    let mut counts = vec![0u32; m * n];
    gemm_counts_mt(
        queries,
        library,
        &mut counts,
        n,
        kind,
        BlockSizes::default(),
        threads,
    );
    let p: Vec<u64> = (0..m).map(|i| queries.ones_in_snp(i)).collect();
    let q: Vec<u64> = (0..n).map(|j| library.ones_in_snp(j)).collect();
    let mut values = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            values[i * n + j] = tanimoto_from_counts(p[i], q[j], counts[i * n + j] as u64);
        }
    }
    CrossLdMatrix::from_dense(m, n, values)
}

/// Returns the `k` most similar library compounds for each query
/// (indices + similarity, descending) — the classic screening output.
pub fn top_k_neighbors(sim: &CrossLdMatrix, k: usize) -> Vec<Vec<(usize, f64)>> {
    (0..sim.n_rows())
        .map(|i| {
            let mut row: Vec<(usize, f64)> =
                (0..sim.n_cols()).map(|j| (j, sim.get(i, j))).collect();
            row.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            row.truncate(k);
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_bitmat::BitMatrix;

    fn fp_from_cols(cols: &[&[u8]]) -> BitMatrix {
        BitMatrix::from_columns(cols[0].len(), cols.iter().map(|c| c.to_vec())).unwrap()
    }

    #[test]
    fn hand_computed_values() {
        // A = {0,1,2}, B = {1,2,3}: x=2, p=q=3 -> 2/4 = 0.5
        let fp = fp_from_cols(&[&[1, 1, 1, 0, 0, 0], &[0, 1, 1, 1, 0, 0]]);
        let t = tanimoto_pair(&fp.full_view(), 0, 1);
        assert!((t - 0.5).abs() < 1e-12);
        // identical -> 1, disjoint -> 0
        let fp2 = fp_from_cols(&[&[1, 1, 0, 0], &[1, 1, 0, 0], &[0, 0, 1, 1]]);
        let v = fp2.full_view();
        assert_eq!(tanimoto_pair(&v, 0, 1), 1.0);
        assert_eq!(tanimoto_pair(&v, 0, 2), 0.0);
    }

    #[test]
    fn empty_convention() {
        assert_eq!(tanimoto_from_counts(0, 0, 0), 1.0);
        assert_eq!(tanimoto_from_counts(3, 0, 0), 0.0);
    }

    #[test]
    fn matrix_matches_pairs_and_is_bounded() {
        let fp = ld_data_like(24, 128);
        let v = fp.full_view();
        let m = tanimoto_matrix(&v, KernelKind::Auto, BlockSizes::default(), 2);
        for i in 0..24 {
            assert!((m.get(i, i) - 1.0).abs() < 1e-12, "self-similarity");
            for j in i..24 {
                let want = tanimoto_pair(&v, i, j);
                let got = m.get(i, j);
                assert!((got - want).abs() < 1e-12, "({i},{j})");
                assert!((0.0..=1.0).contains(&got));
            }
        }
    }

    #[test]
    fn cross_matches_square_blocks() {
        let fp = ld_data_like(20, 256);
        let v = fp.full_view();
        let full = tanimoto_matrix(&v, KernelKind::Auto, BlockSizes::default(), 1);
        let cross = tanimoto_cross(&fp.view(0, 8), &fp.view(8, 20), KernelKind::Auto, 1);
        for i in 0..8 {
            for j in 0..12 {
                assert!((cross.get(i, j) - full.get(i, 8 + j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn top_k_is_sorted_and_truncated() {
        let fp = ld_data_like(10, 64);
        let cross = tanimoto_cross(&fp.view(0, 3), &fp.view(3, 10), KernelKind::Auto, 1);
        let nn = top_k_neighbors(&cross, 4);
        assert_eq!(nn.len(), 3);
        for row in &nn {
            assert_eq!(row.len(), 4);
            for w in row.windows(2) {
                assert!(w[0].1 >= w[1].1, "descending order");
            }
        }
    }

    /// Small deterministic pseudo-random fingerprint set.
    fn ld_data_like(count: usize, bits: usize) -> BitMatrix {
        let mut g = BitMatrix::zeros(bits, count);
        let mut s = 0x5eed_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for j in 0..count {
            for b in 0..bits {
                if next() % 10 < 2 {
                    g.set(b, j, true);
                }
            }
        }
        g
    }
}
