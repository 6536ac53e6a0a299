//! Allelic association scans via popcounts.
//!
//! For each SNP `s` and case mask `y` (one bit per sample), the 2×2
//! allelic table is three popcounts:
//!
//! ```text
//! case_alt = POPCNT(s ∧ y)      ctrl_alt = POPCNT(s) − case_alt
//! n_case   = POPCNT(y)          n_ctrl   = N − n_case
//! ```
//!
//! — the matrix-vector sibling of the paper's LD GEMM, running on the
//! identical packed substrate. A whole-matrix scan touches every word
//! once, so it is bandwidth-trivial next to LD itself.

use crate::stats::{chi2_sf_1df, odds_ratio};
use ld_bitmat::BitMatrixView;
use ld_parallel::try_for_each_part;

/// The association result of one SNP.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AssocResult {
    /// SNP index.
    pub snp: usize,
    /// Derived-allele count in cases.
    pub case_alt: u64,
    /// Derived-allele count in controls.
    pub ctrl_alt: u64,
    /// Allelic χ² statistic (1 df).
    pub chi2: f64,
    /// Asymptotic p-value.
    pub p: f64,
    /// Allelic odds ratio (Haldane-corrected).
    pub odds_ratio: f64,
}

/// Runs the allelic χ² scan over every SNP.
///
/// `case_mask` packs one bit per sample (`words_for(n_samples)` words,
/// padding zero) — see `PhenotypeSimulator::simulate`.
pub fn allelic_scan(g: &BitMatrixView<'_>, case_mask: &[u64], threads: usize) -> Vec<AssocResult> {
    let n_samples = g.n_samples() as u64;
    assert_eq!(
        case_mask.len(),
        g.words_per_snp(),
        "case mask must have one bit per sample (padded like a SNP column)"
    );
    let n_case: u64 = case_mask.iter().map(|w| w.count_ones() as u64).sum();
    let n_ctrl = n_samples - n_case;
    let n = g.n_snps();
    let mut out = vec![
        AssocResult {
            snp: 0,
            case_alt: 0,
            ctrl_alt: 0,
            chi2: 0.0,
            p: 1.0,
            odds_ratio: 1.0
        };
        n
    ];
    // uniform work per SNP: one claim per worker, as an even split
    let grain = n.div_ceil(threads.max(1));
    try_for_each_part(threads, grain, out.iter_mut(), |j, slot| {
        let col = g.snp_words(j);
        let alt: u64 = col.iter().map(|w| w.count_ones() as u64).sum();
        let case_alt: u64 = col
            .iter()
            .zip(case_mask)
            .map(|(&s, &y)| (s & y).count_ones() as u64)
            .sum();
        let ctrl_alt = alt - case_alt;
        let chi2 = allelic_chi2(case_alt, n_case, ctrl_alt, n_ctrl);
        *slot = AssocResult {
            snp: j,
            case_alt,
            ctrl_alt,
            chi2,
            p: chi2_sf_1df(chi2),
            odds_ratio: odds_ratio(case_alt, n_case - case_alt, ctrl_alt, n_ctrl - ctrl_alt),
        };
    })
    .unwrap_or_else(|p| panic!("{}", p.message));
    out
}

/// 2×2 allelic χ² with one observation per haplotype.
fn allelic_chi2(case_alt: u64, n_case: u64, ctrl_alt: u64, n_ctrl: u64) -> f64 {
    let n = (n_case + n_ctrl) as f64;
    if n == 0.0 {
        return 0.0;
    }
    let a = case_alt as f64; // case, alt
    let b = (n_case - case_alt) as f64; // case, ref
    let c = ctrl_alt as f64; // control, alt
    let d = (n_ctrl - ctrl_alt) as f64; // control, ref
    let row1 = a + b;
    let row2 = c + d;
    let col1 = a + c;
    let col2 = b + d;
    let denom = row1 * row2 * col1 * col2;
    if denom == 0.0 {
        return 0.0;
    }
    let det = a * d - b * c;
    n * det * det / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_bitmat::BitMatrix;

    /// 8 samples; samples 0..4 are cases.
    fn mask_first_half() -> Vec<u64> {
        vec![0b0000_1111u64]
    }

    #[test]
    fn counts_by_hand() {
        // SNP 0 carried by samples 0,1,5 -> case_alt 2, ctrl_alt 1
        let g = BitMatrix::from_columns(8, [[1u8, 1, 0, 0, 0, 1, 0, 0]]).unwrap();
        let r = allelic_scan(&g.full_view(), &mask_first_half(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].case_alt, 2);
        assert_eq!(r[0].ctrl_alt, 1);
        assert!(r[0].odds_ratio > 1.0);
    }

    #[test]
    fn perfect_association_has_tiny_p() {
        // allele present in every case, absent in every control
        let g = BitMatrix::from_columns(8, [[1u8, 1, 1, 1, 0, 0, 0, 0]]).unwrap();
        let r = allelic_scan(&g.full_view(), &mask_first_half(), 1);
        assert!(r[0].chi2 > 7.5, "chi2 = {}", r[0].chi2);
        assert!(r[0].p < 0.01);
    }

    #[test]
    fn balanced_allele_has_no_association() {
        // 2 carriers in each group
        let g = BitMatrix::from_columns(8, [[1u8, 1, 0, 0, 1, 1, 0, 0]]).unwrap();
        let r = allelic_scan(&g.full_view(), &mask_first_half(), 1);
        assert!(r[0].chi2 < 1e-12);
        assert!((r[0].p - 1.0).abs() < 1e-9);
        assert!((r[0].odds_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chi2_matches_textbook_formula() {
        // classic 2x2: a=30 b=20 c=10 d=40 -> chi2 = 100*(30*40-20*10)^2/(50*50*40*60)
        let got = allelic_chi2(30, 50, 10, 50);
        let expect = 100.0 * (1200.0f64 - 200.0).powi(2) / (50.0 * 50.0 * 40.0 * 60.0);
        assert!((got - expect).abs() < 1e-9);
    }

    #[test]
    fn threads_do_not_change_results() {
        let mut g = BitMatrix::zeros(128, 40);
        let mut s = 5u64;
        for j in 0..40 {
            for smp in 0..128 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s.is_multiple_of(3) {
                    g.set(smp, j, true);
                }
            }
        }
        let mask = vec![0xAAAA_AAAA_AAAA_AAAAu64, 0x5555_5555_5555_5555];
        let one = allelic_scan(&g.full_view(), &mask, 1);
        let many = allelic_scan(&g.full_view(), &mask, 8);
        assert_eq!(one, many);
    }

    #[test]
    #[should_panic(expected = "case mask")]
    fn short_mask_panics() {
        let g = BitMatrix::zeros(128, 2);
        allelic_scan(&g.full_view(), &[0u64], 1);
    }
}
