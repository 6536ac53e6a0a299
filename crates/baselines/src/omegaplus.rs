//! The OmegaPlus-style baseline: bit-packed alleles, 64-bit `POPCNT`,
//! **no** cache blocking.
//!
//! OmegaPlus (Alachiotis et al., Bioinformatics 2012) computes LD values on
//! demand for the ω statistic. Its inner product is the same
//! `Σ POPCNT(s_i & s_j)` as the GEMM micro-kernel — the paper's authors
//! even upgraded it to the 64-bit intrinsic for the §VI comparison
//! (footnote 5). What it lacks is everything GotoBLAS adds: packing,
//! register tiling and cache blocking. Each pair re-streams both SNP
//! columns from wherever they happen to live, which is exactly why the
//! GEMM formulation beats it ~4–6.7× in Tables I–III.

use ld_bitmat::{BitMatrix, BitMatrixView};
use ld_core::{ld_pair_from_counts, LdMatrix, LdPair, NanPolicy};
use ld_parallel::try_for_each_part;
use ld_popcount::strategies::and_popcount_pinned;

/// Pairwise popcount LD kernel without blocking.
#[derive(Clone, Copy, Debug, Default)]
pub struct OmegaPlusKernel {
    policy: NanPolicy,
}

impl OmegaPlusKernel {
    /// A kernel with the default NaN policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the monomorphic-pair policy.
    pub fn nan_policy(mut self, policy: NanPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Per-pair statistics straight off the packed columns.
    pub fn ld_pair(&self, g: &BitMatrix, i: usize, j: usize) -> LdPair {
        let c_ij = and_popcount_pinned(g.snp_words(i), g.snp_words(j));
        ld_pair_from_counts(
            g.ones_in_snp(i),
            g.ones_in_snp(j),
            c_ij,
            g.n_samples() as u64,
            self.policy,
        )
    }

    /// All-pairs `r²` with plain pairwise loops, parallelized over rows
    /// with dynamic chunks (the triangular workload is skewed).
    pub fn r2_matrix(&self, g: &BitMatrixView<'_>, threads: usize) -> LdMatrix {
        let n = g.n_snps();
        let n_samples = g.n_samples() as u64;
        let counts: Vec<u64> = (0..n).map(|j| g.ones_in_snp(j)).collect();
        let mut out = LdMatrix::zeros(n);
        let policy = self.policy;
        try_for_each_part(threads, 4, out.rows_mut(), |i, dst| {
            let a = g.snp_words(i);
            for (t, j) in (i..n).enumerate() {
                let c_ij = and_popcount_pinned(a, g.snp_words(j));
                dst[t] = ld_pair_from_counts(counts[i], counts[j], c_ij, n_samples, policy).r2;
            }
        })
        .unwrap_or_else(|p| panic!("{}", p.message));
        out
    }

    /// Sum of `r²` over all pairs `i < j` in a window — the access pattern
    /// the ω statistic actually needs, kept allocation-free (this is the
    /// OmegaPlus-like path `ld-omega` uses as its no-GEMM reference).
    pub fn r2_window_sum(&self, g: &BitMatrixView<'_>) -> f64 {
        let n = g.n_snps();
        let n_samples = g.n_samples() as u64;
        let counts: Vec<u64> = (0..n).map(|j| g.ones_in_snp(j)).collect();
        let mut sum = 0.0;
        for i in 0..n {
            let a = g.snp_words(i);
            for j in i + 1..n {
                let c_ij = and_popcount_pinned(a, g.snp_words(j));
                let r2 =
                    ld_pair_from_counts(counts[i], counts[j], c_ij, n_samples, NanPolicy::Zero).r2;
                sum += r2;
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::{LdEngine, LdStats};

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
                if next() % 3 == 0 {
                    g.set(smp, j, true);
                }
            }
        }
        g
    }

    #[test]
    fn matches_engine() {
        let g = pseudo(200, 18, 7);
        let base = OmegaPlusKernel::new().r2_matrix(&g.full_view(), 1);
        let engine = LdEngine::new()
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        for i in 0..18 {
            for j in i..18 {
                let (a, b) = (base.get(i, j), engine.get(i, j));
                assert!(
                    (a - b).abs() < 1e-10 || (a.is_nan() && b.is_nan()),
                    "({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn threads_do_not_change_results() {
        let g = pseudo(90, 25, 8);
        let one = OmegaPlusKernel::new().r2_matrix(&g.full_view(), 1);
        let many = OmegaPlusKernel::new().r2_matrix(&g.full_view(), 8);
        assert_eq!(one.packed(), many.packed());
    }

    #[test]
    fn window_sum_equals_matrix_sum() {
        let g = pseudo(80, 12, 9);
        let k = OmegaPlusKernel::new().nan_policy(NanPolicy::Zero);
        let m = k.r2_matrix(&g.full_view(), 1);
        let by_matrix: f64 = m.iter_pairs().map(|(_, _, v)| v).sum();
        let by_window = k.r2_window_sum(&g.full_view());
        assert!((by_matrix - by_window).abs() < 1e-9);
    }

    #[test]
    fn pair_matches_matrix() {
        let g = pseudo(100, 6, 10);
        let k = OmegaPlusKernel::new();
        let m = k.r2_matrix(&g.full_view(), 1);
        let p = k.ld_pair(&g, 1, 4);
        assert!((m.get(1, 4) - p.r2).abs() < 1e-12 || (m.get(1, 4).is_nan() && p.r2.is_nan()));
    }
}
