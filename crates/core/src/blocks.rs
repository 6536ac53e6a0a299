//! Haplotype-block detection ("solid spine of LD", Haploview-style).
//!
//! A haplotype block is a run of SNPs inherited together — the structure
//! GWAS tag-SNP selection exploits. The *solid spine* definition
//! (Barrett et al., Haploview): `[a, b]` is a block when the first and
//! last SNPs are in strong LD with every SNP between them,
//!
//! ```text
//! D'(a, k) ≥ t  and  D'(k, b) ≥ t     for all a < k < b,
//! ```
//!
//! which tolerates historical recombination *within* the block while the
//! spine holds it together. Finding all maximal blocks needs the `D'`
//! band — another consumer of the GEMM engine's batched statistics.

use crate::{BandedLdMatrix, LdEngine, LdError, LdMatrix, LdStats, Source};
use std::ops::Range;

/// Maximum block extent the default searcher considers (Haploview bounds
/// block size for the same O(n·maxblock²) reason).
pub const DEFAULT_MAX_BLOCK: usize = 128;

/// Finds maximal solid-spine blocks in a `D'` matrix, blocks bounded by
/// [`DEFAULT_MAX_BLOCK`] SNPs.
pub fn solid_spine_blocks(dprime: &LdMatrix, threshold: f64) -> Vec<Range<usize>> {
    solid_spine_blocks_bounded(dprime, threshold, DEFAULT_MAX_BLOCK)
}

/// Finds maximal solid-spine blocks with an explicit block-size bound.
///
/// Greedy left-to-right: from each start `a`, every candidate end up to
/// `a + max_block` is validated in full — a spine that fails at one end
/// can hold at a larger one (internal pairs are unconstrained), so no
/// early exit is sound. The longest valid block wins; search resumes after
/// it. Singletons are not reported; NaN `D'` never satisfies the spine.
pub fn solid_spine_blocks_bounded(
    dprime: &LdMatrix,
    threshold: f64,
    max_block: usize,
) -> Vec<Range<usize>> {
    spine_blocks(dprime.n_snps(), threshold, max_block, |i, j| {
        dprime.get(i, j)
    })
}

/// The searcher over a pair lookup: `dprime(i, j)` is asked only for
/// `i < j < i + max_block`.
fn spine_blocks(
    n: usize,
    threshold: f64,
    max_block: usize,
    dprime: impl Fn(usize, usize) -> f64,
) -> Vec<Range<usize>> {
    let max_block = max_block.max(2);
    let mut out = Vec::new();
    let mut a = 0usize;
    while a + 1 < n {
        let mut best_end = a; // inclusive end of the best block found
        let e_cap = (a + max_block).min(n);
        for e in a + 1..e_cap {
            // spine for [a, e]: left edge to every interior + right edge
            // from every interior, plus the edge pair itself. NaN edges
            // (monomorphic SNPs under `NanPolicy::Propagate`) never extend
            // a block, hence the explicit is_nan arm.
            let edge = dprime(a, e);
            if edge.is_nan() || edge < threshold {
                continue;
            }
            let ok = (a + 1..e).all(|k| dprime(a, k) >= threshold && dprime(k, e) >= threshold);
            if ok {
                best_end = e;
            }
        }
        if best_end > a {
            out.push(a..best_end + 1);
            a = best_end + 1;
        } else {
            a += 1;
        }
    }
    out
}

/// Convenience: computes `D'` with `engine` and returns the solid-spine
/// blocks of `src` at `threshold` (0.8 is the conventional cut). The
/// searcher never looks past [`DEFAULT_MAX_BLOCK`], so only that band of
/// `D'` is computed and held — `n × 127` values, not the triangle.
pub fn haplotype_blocks<'a>(
    engine: &LdEngine,
    src: impl Into<Source<'a>>,
    threshold: f64,
) -> Result<Vec<Range<usize>>, LdError> {
    let dp = BandedLdMatrix::compute(engine, src, DEFAULT_MAX_BLOCK - 1, LdStats::DPrime)?;
    let lookup = |i, j| dp.get(i, j).unwrap_or(f64::NAN);
    Ok(spine_blocks(
        dp.n_snps(),
        threshold,
        DEFAULT_MAX_BLOCK,
        lookup,
    ))
}

/// Picks one tag SNP per block (the SNP with the highest mean `r²` to the
/// rest of its block) plus every SNP outside any block — a minimal panel
/// that still "sees" every block.
pub fn tag_snps(r2: &LdMatrix, blocks: &[Range<usize>]) -> Vec<usize> {
    let n = r2.n_snps();
    let mut in_block = vec![false; n];
    let mut tags = Vec::new();
    for b in blocks {
        for i in b.clone() {
            in_block[i] = true;
        }
        let best = b.clone().max_by(|&x, &y| {
            let score = |i: usize| -> f64 {
                b.clone()
                    .filter(|&j| j != i)
                    .map(|j| {
                        let v = r2.get(i, j);
                        if v.is_nan() {
                            0.0
                        } else {
                            v
                        }
                    })
                    .sum()
            };
            score(x)
                .partial_cmp(&score(y))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // an empty block contributes no tag (max_by of an empty range)
        if let Some(best) = best {
            tags.push(best);
        }
    }
    for (i, covered) in in_block.iter().enumerate() {
        if !covered {
            tags.push(i);
        }
    }
    tags.sort_unstable();
    tags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NanPolicy;
    use ld_bitmat::BitMatrix;

    fn dp(n: usize, entries: &[(usize, usize, f64)]) -> LdMatrix {
        let mut m = LdMatrix::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        for &(i, j, v) in entries {
            m.set(i, j, v);
        }
        m
    }

    #[test]
    fn single_clean_block() {
        // SNPs 1..=3 fully connected at D' = 1
        let m = dp(6, &[(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]);
        let blocks = solid_spine_blocks(&m, 0.8);
        assert_eq!(blocks, vec![1..4]);
    }

    #[test]
    fn spine_tolerates_internal_weakness() {
        // edge pairs strong; the internal pair (2,3) weak — still a block,
        // because the spine only constrains pairs touching the edges.
        let m = dp(
            5,
            &[
                (1, 2, 0.9),
                (1, 3, 0.9),
                (1, 4, 0.9),
                (2, 4, 0.9),
                (3, 4, 0.9),
                (2, 3, 0.1),
            ],
        );
        let blocks = solid_spine_blocks(&m, 0.8);
        assert_eq!(blocks, vec![1..5]);
    }

    #[test]
    fn broken_spine_splits_blocks() {
        let m = dp(
            6,
            &[
                (0, 1, 0.9),
                (1, 2, 0.9),
                (0, 2, 0.2),
                (3, 4, 0.9),
                (4, 5, 0.9),
                (3, 5, 0.9),
            ],
        );
        let blocks = solid_spine_blocks(&m, 0.8);
        // 0..2 can't extend to 2 (D'(0,2) low) -> block {0,1}; then {3,4,5}
        assert_eq!(blocks, vec![0..2, 3..6]);
    }

    #[test]
    fn nan_never_joins() {
        let m = dp(3, &[(0, 1, f64::NAN), (1, 2, 0.9), (0, 2, 0.9)]);
        let blocks = solid_spine_blocks(&m, 0.8);
        assert_eq!(blocks, vec![1..3]);
    }

    #[test]
    fn end_to_end_on_simulated_blocks() {
        // 3 blocks of 6 identical SNPs each, decorrelated across blocks
        let n_samples = 96;
        let mut g = BitMatrix::zeros(n_samples, 18);
        let mut s = 31u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for block in 0..3 {
            let pattern: Vec<bool> = (0..n_samples).map(|_| next() % 2 == 0).collect();
            for j in block * 6..(block + 1) * 6 {
                for (smp, &bit) in pattern.iter().enumerate() {
                    g.set(smp, j, bit);
                }
            }
        }
        let engine = LdEngine::new().nan_policy(NanPolicy::Zero);
        let blocks = haplotype_blocks(&engine, &g, 0.8).unwrap();
        assert_eq!(blocks, vec![0..6, 6..12, 12..18]);

        // tagging: one SNP per block
        let r2 = engine
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        let tags = tag_snps(&r2, &blocks);
        assert_eq!(tags.len(), 3);
        for (t, b) in tags.iter().zip(&blocks) {
            assert!(b.contains(t));
        }
    }

    #[test]
    fn no_blocks_in_equilibrium_data() {
        let m = dp(5, &[(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.1), (3, 4, 0.3)]);
        assert!(solid_spine_blocks(&m, 0.8).is_empty());
        // tag set = every SNP
        let r2 = dp(5, &[]);
        assert_eq!(tag_snps(&r2, &[]), vec![0, 1, 2, 3, 4]);
    }
}
