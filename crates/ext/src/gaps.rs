//! Missing-data-aware LD (paper §VII, "Considering alignment gaps").
//!
//! Every pair gets its own effective sample set: the samples with valid
//! calls at *both* SNPs. The three §VII inner products become four
//! popcounts per packed word:
//!
//! ```text
//! c_ij      = c_i & c_j                  (valid pairs)
//! n_i|ij    = POPCNT(c_ij & s_i)         (derived at i among valid)
//! n_j|ij    = POPCNT(c_ij & s_j)
//! n_ij      = POPCNT(c_ij & s_i & s_j)   (derived at both)
//! ```
//!
//! and the LD statistics use `N_ij = POPCNT(c_ij)` as the sample size.

use ld_bitmat::{BitMatrix, BitMatrixView, ValidityMask};
use ld_core::fused::SyncSlice;
use ld_core::{ld_pair_from_counts, LdMatrix, LdPair, NanPolicy};
use ld_parallel::parallel_for_dynamic;

/// The four masked counts of one SNP pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaskedCounts {
    /// Jointly valid samples `N_ij`.
    pub valid: u64,
    /// Derived at SNP i among the valid set.
    pub ones_i: u64,
    /// Derived at SNP j among the valid set.
    pub ones_j: u64,
    /// Derived at both SNPs among the valid set.
    pub both: u64,
}

/// Computes the masked counts of pair `(i, j)` in one fused pass.
pub fn masked_counts(
    g: &BitMatrixView<'_>,
    mask: &ValidityMask,
    i: usize,
    j: usize,
) -> MaskedCounts {
    let si = g.snp_words(i);
    let sj = g.snp_words(j);
    // `i`/`j` are view-local; the mask is indexed in parent coordinates
    let ci = mask.snp_words(g.start() + i);
    let cj = mask.snp_words(g.start() + j);
    let mut out = MaskedCounts::default();
    for w in 0..si.len() {
        let c = ci[w] & cj[w];
        let a = c & si[w];
        let b = c & sj[w];
        out.valid += c.count_ones() as u64;
        out.ones_i += a.count_ones() as u64;
        out.ones_j += b.count_ones() as u64;
        out.both += (a & b).count_ones() as u64;
    }
    out
}

/// LD statistics for one pair under missing data.
pub fn masked_ld_pair(
    g: &BitMatrix,
    mask: &ValidityMask,
    i: usize,
    j: usize,
    policy: NanPolicy,
) -> LdPair {
    check_shapes(&g.full_view(), mask);
    let c = masked_counts(&g.full_view(), mask, i, j);
    if c.valid == 0 {
        // no jointly-valid sample: everything is undefined
        return ld_pair_from_counts(0, 0, 0, 1, policy);
    }
    ld_pair_from_counts(c.ones_i, c.ones_j, c.both, c.valid, policy)
}

/// All-pairs `r²` under missing data. Pairwise (the per-pair mask breaks
/// the shared-`N` factorization the GEMM exploits), dynamically scheduled.
pub fn masked_r2_matrix(
    g: &BitMatrixView<'_>,
    mask: &ValidityMask,
    threads: usize,
    policy: NanPolicy,
) -> LdMatrix {
    check_shapes(g, mask);
    let n = g.n_snps();
    let mut out = LdMatrix::zeros(n);
    {
        let packed = out.packed_mut();
        let ptr = SyncSlice::new(packed);
        parallel_for_dynamic(threads, n, 4, |rows| {
            for i in rows.clone() {
                let off = i * n - (i * i - i) / 2;
                // SAFETY: disjoint packed row ranges per worker.
                let dst = unsafe { ptr.slice(off, n - i) };
                for (t, j) in (i..n).enumerate() {
                    let c = masked_counts(g, mask, i, j);
                    dst[t] = if c.valid == 0 {
                        policy.undefined()
                    } else {
                        ld_pair_from_counts(c.ones_i, c.ones_j, c.both, c.valid, policy).r2
                    };
                }
            }
        });
    }
    out
}

fn check_shapes(g: &BitMatrixView<'_>, mask: &ValidityMask) {
    assert_eq!(
        g.n_samples(),
        mask.n_samples(),
        "mask sample count mismatch"
    );
    assert!(mask.n_snps() >= g.end(), "mask must cover the viewed SNPs");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::LdEngine;

    #[test]
    fn all_valid_mask_reproduces_plain_ld() {
        let g = BitMatrix::from_rows(
            6,
            3,
            [
                [1u8, 0, 1],
                [1, 1, 0],
                [0, 1, 1],
                [0, 0, 0],
                [1, 1, 1],
                [0, 1, 0],
            ],
        )
        .unwrap();
        let mask = ValidityMask::all_valid(6, 3);
        let masked = masked_r2_matrix(&g.full_view(), &mask, 1, NanPolicy::Propagate);
        let plain = LdEngine::new().r2_matrix(&g);
        for i in 0..3 {
            for j in i..3 {
                let (a, b) = (masked.get(i, j), plain.get(i, j));
                assert!(
                    (a - b).abs() < 1e-12 || (a.is_nan() && b.is_nan()),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn masking_excludes_samples() {
        // 4 samples; sample 3 is missing at SNP 1. Pair (0,1) must be
        // computed over samples {0,1,2} only.
        let g = BitMatrix::from_rows(4, 2, [[1u8, 1], [1, 1], [0, 0], [1, 0]]).unwrap();
        let mut mask = ValidityMask::all_valid(4, 2);
        mask.set_missing(3, 1);
        let c = masked_counts(&g.full_view(), &mask, 0, 1);
        assert_eq!(c.valid, 3);
        assert_eq!(c.ones_i, 2); // samples 0,1 derived at snp0 within valid set
        assert_eq!(c.ones_j, 2);
        assert_eq!(c.both, 2);
        // within the valid subset the two SNPs are identical -> r² = 1
        let p = masked_ld_pair(&g, &mask, 0, 1, NanPolicy::Propagate);
        assert!((p.r2 - 1.0).abs() < 1e-12);
        // unmasked they are not identical
        let q = LdEngine::new().ld_pair(&g, 0, 1);
        assert!(q.r2 < 1.0);
    }

    #[test]
    fn empty_intersection_is_undefined() {
        let g = BitMatrix::from_rows(2, 2, [[1u8, 0], [0, 1]]).unwrap();
        let mut mask = ValidityMask::all_valid(2, 2);
        mask.set_missing(0, 0);
        mask.set_missing(1, 1);
        let p = masked_ld_pair(&g, &mask, 0, 1, NanPolicy::Propagate);
        assert!(p.r2.is_nan());
        let m = masked_r2_matrix(&g.full_view(), &mask, 1, NanPolicy::Zero);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn threaded_matches_single() {
        let mut g = BitMatrix::zeros(100, 12);
        let mut mask = ValidityMask::all_valid(100, 12);
        let mut s = 77u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for j in 0..12 {
            for smp in 0..100 {
                if next() % 3 == 0 {
                    g.set(smp, j, true);
                }
                if next() % 10 == 0 {
                    mask.set_missing(smp, j);
                }
            }
        }
        let one = masked_r2_matrix(&g.full_view(), &mask, 1, NanPolicy::Zero);
        let many = masked_r2_matrix(&g.full_view(), &mask, 5, NanPolicy::Zero);
        assert_eq!(one.packed(), many.packed());
    }

    #[test]
    #[should_panic(expected = "mask sample count")]
    fn shape_mismatch_panics() {
        let g = BitMatrix::zeros(4, 2);
        let mask = ValidityMask::all_valid(5, 2);
        masked_ld_pair(&g, &mask, 0, 1, NanPolicy::Propagate);
    }
}
