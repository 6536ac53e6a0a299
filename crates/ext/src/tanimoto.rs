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
pub use ld_core::tanimoto_from_counts;
use ld_core::{CrossLdMatrix, LdEngine, LdError, LdMatrix, Statistic};
use ld_popcount::and_popcount;

/// Tanimoto similarity of one fingerprint pair (columns `i`, `j`).
pub fn tanimoto_pair(fp: &BitMatrixView<'_>, i: usize, j: usize) -> f64 {
    let p = ld_popcount::popcount_slice(fp.snp_words(i));
    let q = ld_popcount::popcount_slice(fp.snp_words(j));
    let x = and_popcount(fp.snp_words(i), fp.snp_words(j));
    tanimoto_from_counts(p, q, x)
}

/// All-pairs Tanimoto matrix over the fingerprint set (columns are
/// compounds): one engine run of [`Statistic::Tanimoto`] — the blocked
/// SYRK's half of the kernel work of [`tanimoto_cross`] of the set with
/// itself, and the same values (Eq. 7 is symmetric in `p`, `q`).
pub fn tanimoto_matrix(engine: &LdEngine, fp: &BitMatrixView<'_>) -> Result<LdMatrix, LdError> {
    engine.try_stat_matrix(*fp, Statistic::Tanimoto)
}

/// Cross-set Tanimoto (query set × library set) with the GEMM driver —
/// the shape of a virtual-screening run. Fingerprint widths that differ
/// are [`LdError::DimensionMismatch`].
pub fn tanimoto_cross(
    engine: &LdEngine,
    queries: &BitMatrixView<'_>,
    library: &BitMatrixView<'_>,
) -> Result<CrossLdMatrix, LdError> {
    engine.try_cross_stat_matrix(*queries, *library, Statistic::Tanimoto)
}

/// The `k` most similar other compounds of each compound (index and
/// similarity): most similar first, equals by ascending index — the
/// classic screening output.
pub fn top_k_neighbors(sim: &LdMatrix, k: usize) -> Vec<Vec<(usize, f64)>> {
    let n = sim.n_snps();
    (0..n)
        .map(|i| {
            let mut row: Vec<(usize, f64)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (j, sim.get(i, j)))
                .collect();
            // stable, so ties keep ascending `j`
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
        let m = tanimoto_matrix(&LdEngine::new().threads(2), &v).unwrap();
        for i in 0..24 {
            assert!((m.get(i, i) - 1.0).abs() < 1e-12, "self-similarity");
            for j in i..24 {
                let want = tanimoto_pair(&v, i, j);
                let got = m.get(i, j);
                assert!(got.to_bits() == want.to_bits(), "({i},{j})");
                assert!((0.0..=1.0).contains(&got));
            }
        }
    }

    #[test]
    fn cross_matches_square_blocks() {
        let fp = ld_data_like(20, 256);
        let v = fp.full_view();
        let engine = LdEngine::new().threads(1);
        let full = tanimoto_matrix(&engine, &v).unwrap();
        let cross = tanimoto_cross(&engine, &fp.view(0, 8), &fp.view(8, 20)).unwrap();
        for i in 0..8 {
            for j in 0..12 {
                assert!(cross.get(i, j).to_bits() == full.get(i, 8 + j).to_bits());
            }
        }
    }

    #[test]
    fn cross_of_other_widths_is_a_dimension_mismatch() {
        let (a, b) = (ld_data_like(4, 64), ld_data_like(4, 65));
        let err = tanimoto_cross(&LdEngine::new(), &a.full_view(), &b.full_view()).unwrap_err();
        assert!(
            matches!(
                err,
                LdError::DimensionMismatch {
                    left: 64,
                    right: 65,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn top_k_is_sorted_and_truncated() {
        let fp = ld_data_like(10, 64);
        let sim = tanimoto_matrix(&LdEngine::new().threads(1), &fp.full_view()).unwrap();
        let nn = top_k_neighbors(&sim, 4);
        assert_eq!(nn.len(), 10);
        for (i, row) in nn.iter().enumerate() {
            assert_eq!(row.len(), 4);
            assert!(row.iter().all(|&(j, _)| j != i), "self is not a neighbour");
            for w in row.windows(2) {
                assert!(w[0].1 >= w[1].1, "descending order");
                assert!(
                    w[0].1 > w[1].1 || w[0].0 < w[1].0,
                    "ties by ascending index"
                );
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
