//! The naive byte-per-allele baseline.
//!
//! One `u8` per allele, one multiply-accumulate per sample per pair —
//! the formulation of the paper's §II-B pseudocode before any of the
//! bit-packing/popcount/blocking machinery. This is the performance class
//! of straightforward scripting-language or R implementations
//! (PopGenome et al.), and the zero-optimization anchor of the ablation.

use ld_bitmat::BitMatrix;
use ld_core::{ld_pair_from_counts, LdMatrix, LdPair, NanPolicy};
use ld_parallel::try_for_each_part;

/// A sample-major byte matrix: SNP `j` is a contiguous `Vec<u8>` of 0/1.
#[derive(Clone, Debug)]
pub struct ByteMatrix {
    cols: Vec<Vec<u8>>,
    n_samples: usize,
}

impl ByteMatrix {
    /// Expands a packed [`BitMatrix`] into bytes.
    pub fn from_bitmatrix(g: &BitMatrix) -> Self {
        let cols = (0..g.n_snps()).map(|j| g.snp_to_bytes(j)).collect();
        Self {
            cols,
            n_samples: g.n_samples(),
        }
    }

    /// Number of samples.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Number of SNPs.
    pub fn n_snps(&self) -> usize {
        self.cols.len()
    }

    /// The byte column of SNP `j`.
    pub fn column(&self, j: usize) -> &[u8] {
        &self.cols[j]
    }

    /// Per-pair LD statistics via byte dot products.
    pub fn ld_pair(&self, i: usize, j: usize, policy: NanPolicy) -> LdPair {
        let (a, b) = (&self.cols[i], &self.cols[j]);
        let mut c_ii = 0u64;
        let mut c_jj = 0u64;
        let mut c_ij = 0u64;
        for (&x, &y) in a.iter().zip(b) {
            c_ii += x as u64;
            c_jj += y as u64;
            c_ij += (x * y) as u64;
        }
        ld_pair_from_counts(c_ii, c_jj, c_ij, self.n_samples as u64, policy)
    }

    /// All-pairs `r²`, the naive way. `threads` parallelizes over rows with
    /// dynamic scheduling (the triangular workload is skewed).
    pub fn r2_matrix(&self, threads: usize, policy: NanPolicy) -> LdMatrix {
        let n = self.n_snps();
        let mut out = LdMatrix::zeros(n);
        // Precompute per-SNP counts once (the naive tools do this too).
        let counts: Vec<u64> = self
            .cols
            .iter()
            .map(|c| c.iter().map(|&x| x as u64).sum())
            .collect();
        try_for_each_part(threads, 8, out.rows_mut(), |i, dst| {
            let a = &self.cols[i];
            for (t, j) in (i..n).enumerate() {
                let b = &self.cols[j];
                let mut c_ij = 0u64;
                for (&x, &y) in a.iter().zip(b) {
                    c_ij += (x * y) as u64;
                }
                dst[t] =
                    ld_pair_from_counts(counts[i], counts[j], c_ij, self.n_samples as u64, policy)
                        .r2;
            }
        })
        .unwrap_or_else(|p| panic!("{}", p.message));
        out
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
    fn matches_engine_r2() {
        let g = pseudo(120, 15, 1);
        let bytes = ByteMatrix::from_bitmatrix(&g);
        let naive = bytes.r2_matrix(1, NanPolicy::Propagate);
        let engine = LdEngine::new()
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        for i in 0..15 {
            for j in i..15 {
                let (a, b) = (naive.get(i, j), engine.get(i, j));
                assert!(
                    (a - b).abs() < 1e-10 || (a.is_nan() && b.is_nan()),
                    "({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn threaded_matches_single() {
        let g = pseudo(64, 20, 2);
        let bytes = ByteMatrix::from_bitmatrix(&g);
        let one = bytes.r2_matrix(1, NanPolicy::Zero);
        let four = bytes.r2_matrix(4, NanPolicy::Zero);
        assert_eq!(one.packed(), four.packed());
    }

    #[test]
    fn pair_accessors() {
        let g = pseudo(50, 4, 3);
        let bytes = ByteMatrix::from_bitmatrix(&g);
        assert_eq!(bytes.n_samples(), 50);
        assert_eq!(bytes.n_snps(), 4);
        assert_eq!(bytes.column(2).len(), 50);
        let p = bytes.ld_pair(0, 1, NanPolicy::Propagate);
        let q = LdEngine::new().ld_pair(&g, 0, 1);
        assert!((p.r2 - q.r2).abs() < 1e-12 || (p.r2.is_nan() && q.r2.is_nan()));
    }
}
