//! Missing-data LD as **pure blocked DLA** — finishing §VII with the
//! paper's own recipe.
//!
//! [`crate::gaps::masked_r2_matrix`] walks pairs one at a time because the
//! per-pair validity mask seems to break the shared-`N` factorization. It
//! doesn't: give each SNP two bit planes,
//!
//! ```text
//! D = S ∧ V               (bit = valid derived allele)
//! V = validity            (bit = call present)
//! ```
//!
//! and every §VII count is an inner product between them:
//!
//! ```text
//! N_ij      = v_iᵀ v_j        (jointly valid)
//! n_ij      = d_iᵀ d_j        (derived at both)
//! n_i|ij    = d_iᵀ v_j        (derived at i among valid)
//! n_j|ij    = v_iᵀ d_j
//! ```
//!
//! Stored as adjacent columns `[d_j, v_j]`, the two planes make one panel
//! of `2n` columns, and **one SYRK over it** yields all four products —
//! `½(2n)² = ½n² + ½n² + n²`, the work of `VᵀV`, `DᵀD` and `DᵀV` as three
//! products, with no `n²` buffer at all: the engine's slab driver reads
//! each SNP pair's 2 × 2 block ([`ld_core::Statistic::MaskedR2`]).

use crate::interleave;
use ld_bitmat::{BitMatrix, BitMatrixView, ValidityMask};
use ld_core::{LdEngine, LdError, LdMatrix, Statistic};

/// The panel `[d_j, v_j]` per viewed SNP `j`; a mask with another sample
/// count, or one that does not cover the viewed SNPs, is
/// [`LdError::DimensionMismatch`].
fn masked_panel(g: &BitMatrixView<'_>, mask: &ValidityMask) -> Result<BitMatrix, LdError> {
    if g.n_samples() != mask.n_samples() {
        return Err(LdError::DimensionMismatch {
            context: "mask sample count must match the panel's",
            left: g.n_samples(),
            right: mask.n_samples(),
        });
    }
    if mask.n_snps() < g.end() {
        return Err(LdError::DimensionMismatch {
            context: "mask must cover the viewed SNPs",
            left: g.end(),
            right: mask.n_snps(),
        });
    }
    Ok(interleave(g.n_samples(), g.n_snps(), 2, |j, p, out| {
        // `j` is view-local; the mask is indexed in parent coordinates
        let (s, c) = (g.snp_words(j), mask.snp_words(g.start() + j));
        for ((o, &s), &c) in out.iter_mut().zip(s).zip(c) {
            *o = if p == 0 { s & c } else { c };
        }
    }))
}

/// All-pairs `r²` under missing data: the `[d, v]` panel and one engine
/// run, under the engine's threads, kernel, blocks, budget and NaN policy.
/// `to_bits`-equal to [`crate::gaps::masked_r2_matrix`].
pub fn masked_r2_matrix_blocked(
    engine: &LdEngine,
    g: &BitMatrixView<'_>,
    mask: &ValidityMask,
) -> Result<LdMatrix, LdError> {
    engine.try_stat_matrix(&masked_panel(g, mask)?, Statistic::MaskedR2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaps::masked_r2_matrix;
    use ld_core::NanPolicy;

    fn fixture(n_samples: usize, n_snps: usize, seed: u64) -> (BitMatrix, ValidityMask) {
        let mut g = BitMatrix::zeros(n_samples, n_snps);
        let mut mask = ValidityMask::all_valid(n_samples, n_snps);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for j in 0..n_snps {
            for smp in 0..n_samples {
                if next() % 3 == 0 {
                    g.set(smp, j, true);
                }
                if next() % 12 == 0 {
                    mask.set_missing(smp, j);
                }
            }
        }
        (g, mask)
    }

    fn engine(threads: usize, policy: NanPolicy) -> LdEngine {
        LdEngine::new().threads(threads).nan_policy(policy)
    }

    #[test]
    fn blocked_equals_pairwise() {
        let (g, mask) = fixture(150, 24, 1);
        let pairwise = masked_r2_matrix(&g.full_view(), &mask, 1, NanPolicy::Propagate);
        let blocked =
            masked_r2_matrix_blocked(&engine(2, NanPolicy::Propagate), &g.full_view(), &mask)
                .unwrap();
        for i in 0..24 {
            for j in i..24 {
                let (a, b) = (pairwise.get(i, j), blocked.get(i, j));
                assert!(a.to_bits() == b.to_bits(), "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn derived_planes_are_correct() {
        let (g, mask) = fixture(70, 5, 2);
        let panel = masked_panel(&g.full_view(), &mask).unwrap();
        assert_eq!(panel.n_snps(), 10);
        for j in 0..5 {
            for s in 0..70 {
                assert_eq!(panel.get(s, 2 * j), g.get(s, j) && mask.is_valid(s, j));
                assert_eq!(panel.get(s, 2 * j + 1), mask.is_valid(s, j));
            }
        }
        panel.check_padding().unwrap();
    }

    #[test]
    fn all_valid_reduces_to_plain_r2() {
        let (g, _) = fixture(90, 10, 3);
        let mask = ValidityMask::all_valid(90, 10);
        let blocked =
            masked_r2_matrix_blocked(&engine(1, NanPolicy::Zero), &g.full_view(), &mask).unwrap();
        let plain = ld_core::LdEngine::new()
            .nan_policy(NanPolicy::Zero)
            .r2_matrix(&g);
        for (i, j, v) in plain.iter_upper() {
            assert!((blocked.get(i, j) - v).abs() < 1e-12, "({i},{j})");
        }
    }

    #[test]
    fn empty_intersections_respect_policy() {
        let mut mask = ValidityMask::all_valid(4, 2);
        // SNP 0 valid only in samples {0,1}, SNP 1 only in {2,3}
        mask.set_missing(2, 0);
        mask.set_missing(3, 0);
        mask.set_missing(0, 1);
        mask.set_missing(1, 1);
        let g = BitMatrix::from_rows(4, 2, [[1u8, 0], [0, 1], [1, 0], [0, 1]]).unwrap();
        let nan = masked_r2_matrix_blocked(&engine(1, NanPolicy::Propagate), &g.full_view(), &mask)
            .unwrap();
        assert!(nan.get(0, 1).is_nan());
        let zero =
            masked_r2_matrix_blocked(&engine(1, NanPolicy::Zero), &g.full_view(), &mask).unwrap();
        assert_eq!(zero.get(0, 1), 0.0);
    }

    #[test]
    fn works_on_views() {
        let (g, mask) = fixture(100, 20, 4);
        let view = g.view(5, 15);
        let blocked = masked_r2_matrix_blocked(&engine(1, NanPolicy::Zero), &view, &mask).unwrap();
        let pairwise = masked_r2_matrix(&view, &mask, 1, NanPolicy::Zero);
        for i in 0..10 {
            for j in i..10 {
                assert!(
                    (blocked.get(i, j) - pairwise.get(i, j)).abs() < 1e-12,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn a_mask_of_another_sample_count_is_a_dimension_mismatch() {
        let (g, _) = fixture(40, 6, 5);
        let mask = ValidityMask::all_valid(41, 6);
        let err = masked_r2_matrix_blocked(&LdEngine::new(), &g.full_view(), &mask).unwrap_err();
        assert!(
            matches!(
                err,
                LdError::DimensionMismatch {
                    left: 40,
                    right: 41,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn a_mask_short_of_the_view_is_a_dimension_mismatch() {
        let (g, _) = fixture(40, 6, 6);
        let mask = ValidityMask::all_valid(40, 4);
        let err = masked_r2_matrix_blocked(&LdEngine::new(), &g.view(2, 5), &mask).unwrap_err();
        assert!(
            matches!(
                err,
                LdError::DimensionMismatch {
                    left: 5,
                    right: 4,
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
