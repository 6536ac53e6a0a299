//! LD clumping — PLINK's `--clump` on the blocked engine.
//!
//! A GWAS scan reports correlated hits in clumps: one causal signal drags
//! every SNP in LD with it below the significance line. Clumping reduces
//! the hit list to *index SNPs*: repeatedly take the most significant
//! remaining SNP, assign every SNP within `window` whose `r²` with it
//! exceeds `r2_threshold` to its clump, and continue.

use crate::scan::AssocResult;
use ld_bitmat::BitMatrixView;
use ld_core::{LdEngine, LdError, LdStats, NanPolicy};

/// One clump: an index SNP and its absorbed members.
#[derive(Clone, Debug, PartialEq)]
pub struct Clump {
    /// The index (most significant) SNP.
    pub index_snp: usize,
    /// Index SNP's p-value.
    pub p: f64,
    /// Members absorbed into this clump (excluding the index SNP),
    /// ascending.
    pub members: Vec<usize>,
}

/// Clumps the significant results (`p ≤ p_threshold`).
///
/// `window` bounds the clumping radius in SNP indices; `r²` queries run
/// through `engine` on the window view around each index SNP, so only
/// `O(window)` LD values are computed per clump. An engine error (an
/// invalid configuration, a budget one window's values exceed) is
/// returned as it is.
pub fn clump(
    g: &BitMatrixView<'_>,
    results: &[AssocResult],
    engine: &LdEngine,
    p_threshold: f64,
    r2_threshold: f64,
    window: usize,
) -> Result<Vec<Clump>, LdError> {
    let engine = engine.clone().nan_policy(NanPolicy::Zero);
    let mut candidates: Vec<&AssocResult> = results.iter().filter(|r| r.p <= p_threshold).collect();
    candidates.sort_by(|a, b| a.p.partial_cmp(&b.p).unwrap_or(std::cmp::Ordering::Equal));
    let mut taken = vec![false; g.n_snps()];
    let mut out = Vec::new();
    for r in candidates {
        if taken[r.snp] {
            continue;
        }
        taken[r.snp] = true;
        let lo = r.snp.saturating_sub(window);
        let hi = (r.snp + window + 1).min(g.n_snps());
        // r² between the index SNP and its window, one thin cross-GEMM
        let index_view = g.subview(r.snp, r.snp + 1);
        let win_view = g.subview(lo, hi);
        let cross = engine.try_cross_stat_matrix(index_view, win_view, LdStats::RSquared)?;
        let mut members = Vec::new();
        for (j, taken_j) in taken.iter_mut().enumerate().take(hi).skip(lo) {
            if j != r.snp && !*taken_j && cross.get(0, j - lo) >= r2_threshold {
                *taken_j = true;
                members.push(j);
            }
        }
        out.push(Clump {
            index_snp: r.snp,
            p: r.p,
            members,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allelic_scan;
    use ld_bitmat::BitMatrix;

    /// Three LD groups of 4 identical SNPs; group 0 and 2 associated.
    fn fixture() -> (BitMatrix, Vec<u64>) {
        let n_samples = 64usize;
        let mut g = BitMatrix::zeros(n_samples, 12);
        // cases = samples 0..32
        let case_mask = vec![0x0000_0000_FFFF_FFFFu64];
        // group 0 (snps 0..4): carried by samples 0..24 — enriched in cases
        for j in 0..4 {
            for s in 0..24 {
                g.set(s, j, true);
            }
        }
        // group 1 (snps 4..8): half-and-half — null
        for j in 4..8 {
            for s in (0..n_samples).step_by(2) {
                g.set(s, j, true);
            }
        }
        // group 2 (snps 8..12): carried by samples 40..64 — enriched in controls
        for j in 8..12 {
            for s in 40..64 {
                g.set(s, j, true);
            }
        }
        (g, case_mask)
    }

    #[test]
    fn clumps_collapse_ld_groups() {
        let (g, mask) = fixture();
        let results = allelic_scan(&g.full_view(), &mask, 1);
        let engine = LdEngine::new();
        let clumps = clump(&g.full_view(), &results, &engine, 0.05, 0.5, 12).unwrap();
        assert_eq!(clumps.len(), 2, "two independent signals: {clumps:?}");
        for c in &clumps {
            assert_eq!(c.members.len(), 3, "each group of 4 collapses to index + 3");
            // members are from the same group as the index
            let group = c.index_snp / 4;
            assert!(c.members.iter().all(|&m| m / 4 == group));
        }
        // clumps are ordered by significance
        assert!(clumps[0].p <= clumps[1].p);
    }

    #[test]
    fn null_snps_do_not_clump() {
        let (g, mask) = fixture();
        let results = allelic_scan(&g.full_view(), &mask, 1);
        let clumps = clump(&g.full_view(), &results, &LdEngine::new(), 0.05, 0.5, 12).unwrap();
        for c in &clumps {
            assert!(!(4..8).contains(&c.index_snp), "null group became an index");
            assert!(c.members.iter().all(|m| !(4..8).contains(m)));
        }
    }

    #[test]
    fn threshold_one_keeps_everything_separate() {
        let (g, mask) = fixture();
        let results = allelic_scan(&g.full_view(), &mask, 1);
        // r² must exceed 1.0 -> nothing absorbs, every significant SNP is
        // its own clump... except identical SNPs have r² == 1 ≥ 1.0.
        let clumps = clump(
            &g.full_view(),
            &results,
            &LdEngine::new(),
            0.05,
            1.0 + 1e-9,
            12,
        )
        .unwrap();
        let n_sig = results.iter().filter(|r| r.p <= 0.05).count();
        assert_eq!(clumps.len(), n_sig);
        assert!(clumps.iter().all(|c| c.members.is_empty()));
    }

    #[test]
    fn window_bounds_absorption() {
        let (g, mask) = fixture();
        let results = allelic_scan(&g.full_view(), &mask, 1);
        // window 0: nothing beyond the index itself can be absorbed
        let clumps = clump(&g.full_view(), &results, &LdEngine::new(), 0.05, 0.5, 0).unwrap();
        assert!(clumps.iter().all(|c| c.members.is_empty()));
    }

    #[test]
    fn no_significant_results_no_clumps() {
        let (g, mask) = fixture();
        let results = allelic_scan(&g.full_view(), &mask, 1);
        let clumps = clump(&g.full_view(), &results, &LdEngine::new(), 1e-30, 0.5, 12).unwrap();
        assert!(clumps.is_empty());
    }

    /// An engine error is the caller's: blocks the kernel cannot run
    /// (`kc = 0`) come back as `InvalidConfig`, with no clump and no panic.
    #[test]
    fn engine_error_is_returned() {
        let (g, mask) = fixture();
        let results = allelic_scan(&g.full_view(), &mask, 1);
        let blocks = ld_kernels::BlockSizes {
            kc: 0,
            ..Default::default()
        };
        let engine = LdEngine::new().blocks(blocks);
        let got = clump(&g.full_view(), &results, &engine, 0.05, 0.5, 12);
        assert!(matches!(got, Err(LdError::InvalidConfig { .. })), "{got:?}");
    }
}
