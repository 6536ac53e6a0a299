//! Banded LD matrices — chromosome-scale windowed computation.
//!
//! Whole-chromosome panels (10⁵–10⁷ SNPs) cannot afford `O(n²)` storage,
//! and biology rarely needs it: LD decays with distance, so production
//! pipelines (PLINK's `--ld-window`, OmegaPlus's max-window) compute only
//! pairs within a *band* `|i − j| ≤ w`. [`BandedLdMatrix`] stores exactly
//! those `n·w` values, and [`BandedLdMatrix::compute`] fills them from the
//! one slab driver under [`RunControl::with_band`] — `O(slab · (slab + w))`
//! transient memory per worker, from either [`Source`].

use crate::control::RunControl;
use crate::engine::LdEngine;
use crate::error::{checked_mul, try_filled_vec, LdError};
use crate::source::Source;
use crate::stats::LdStats;

/// A symmetric matrix restricted to the band `1 ≤ j − i ≤ band`.
///
/// Storage is row-major: slot `(i, d)` holds the value for pair
/// `(i, i + d + 1)`; slots that would cross the right edge are NaN.
#[derive(Clone, Debug)]
pub struct BandedLdMatrix {
    n: usize,
    band: usize,
    values: Vec<f64>,
}

impl BandedLdMatrix {
    /// Computes the banded statistic of `src` with the given engine.
    ///
    /// A row visitor over [`LdEngine::try_stat_rows_with`] with the band as
    /// the run's column window: each finished row's `≤ band` off-diagonal
    /// values are copied into the `n × band` storage. Banded values are
    /// bit-identical to the full matrix (it is the same run with fewer
    /// columns), and everything the driver does for a run — validation,
    /// fallible allocation, the engine's [`crate::MemoryBudget`], trace
    /// spans, a store source streaming only the chunks the band touches —
    /// holds here. Callers that need a token or deadline run the row
    /// stream themselves.
    pub fn compute<'a>(
        engine: &LdEngine,
        src: impl Into<Source<'a>>,
        band: usize,
        stat: LdStats,
    ) -> Result<Self, LdError> {
        let src = src.into();
        let n = src.n_snps();
        let band = band.max(1).min(n.saturating_sub(1).max(1));
        let len = checked_mul(n, band, "n × band values")?;
        let mut values = try_filled_vec(len, f64::NAN, "n × band values")?;
        let fill = |s: &crate::RowSlabVisit<'_>| {
            for (i, row) in s.rows() {
                // row[0] is the diagonal, which the band does not store
                values[i * band..][..row.len() - 1].copy_from_slice(&row[1..]);
            }
        };
        engine.try_stat_rows_with(src, stat, fill, &RunControl::new().with_band(band))?;
        Ok(Self { n, band, values })
    }

    /// Number of SNPs.
    pub fn n_snps(&self) -> usize {
        self.n
    }

    /// Band width (maximum stored `j − i`).
    pub fn band(&self) -> usize {
        self.band
    }

    /// The value for `(i, j)` if the pair is inside the band (either
    /// argument order); `None` outside. The diagonal is not stored.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        if i == j || j - i > self.band || j >= self.n {
            return None;
        }
        Some(self.values[i * self.band + (j - i - 1)])
    }

    /// Row `i` as a slice: `row(i)[d]` is the value for `(i, i + d + 1)`,
    /// for every such pair inside the band and the matrix (so the last
    /// rows are shorter). What a reader that sums many pairs indexes,
    /// instead of paying [`BandedLdMatrix::get`]'s `Option` per pair.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.band..][..self.band.min(self.n - 1 - i)]
    }

    /// Iterates stored pairs `(i, j, value)` with `i < j`, skipping NaN
    /// edge slots.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            let row = self.row(i).iter().enumerate();
            row.map(move |(d, &v)| (i, i + d + 1, v))
        })
    }

    /// Number of stored (in-range) pairs.
    pub fn n_pairs(&self) -> usize {
        self.iter_pairs().count()
    }

    /// Bytes of storage — `n·band·8`, vs `4(n²+n)` for the full triangle.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NanPolicy;
    use ld_bitmat::BitMatrix;

    fn pseudo(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
        let mut g = BitMatrix::zeros(n_samples, n_snps);
        let mut s = seed | 1;
        for j in 0..n_snps {
            for smp in 0..n_samples {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s.is_multiple_of(3) {
                    g.set(smp, j, true);
                }
            }
        }
        g
    }

    fn engine() -> LdEngine {
        LdEngine::new().nan_policy(NanPolicy::Zero)
    }

    #[test]
    fn band_matches_full_matrix() {
        let g = pseudo(128, 50, 1);
        for stat in [LdStats::RSquared, LdStats::D, LdStats::DPrime] {
            let full = engine().stat_matrix(&g, stat);
            let banded = BandedLdMatrix::compute(&engine(), &g, 7, stat).unwrap();
            for i in 0..50 {
                for j in 0..50 {
                    match banded.get(i, j) {
                        Some(v) => {
                            // one transform body ⇒ the same bits
                            assert_eq!(v.to_bits(), full.get(i, j).to_bits(), "{stat:?} ({i},{j})");
                            assert!(i.abs_diff(j) <= 7 && i != j);
                        }
                        None => assert!(i == j || i.abs_diff(j) > 7),
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_boundaries_are_seamless() {
        // n > chunk forces multiple chunks; compare against one-shot full
        let g = pseudo(64, 2100, 2);
        let banded = BandedLdMatrix::compute(&engine(), &g, 5, LdStats::RSquared).unwrap();
        // probe pairs straddling the 1024-row chunk boundary
        for i in 1020..1030 {
            for d in 1..=5 {
                let j = i + d;
                let direct = engine().ld_pair(&g, i, j).r2;
                let got = banded.get(i, j).unwrap();
                assert!(
                    (got - direct).abs() < 1e-12 || (got.is_nan() && direct.is_nan()),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn pair_count_and_storage() {
        let g = pseudo(32, 20, 3);
        let banded = BandedLdMatrix::compute(&engine(), &g, 4, LdStats::RSquared).unwrap();
        // pairs: Σ_i min(band, n-1-i) = 4*16 + 3+2+1 = 70
        assert_eq!(banded.n_pairs(), 70);
        assert_eq!(banded.band(), 4);
        assert_eq!(banded.n_snps(), 20);
        assert_eq!(banded.storage_bytes(), 20 * 4 * 8);
    }

    #[test]
    fn band_wider_than_matrix_clamps() {
        let g = pseudo(32, 6, 4);
        let banded = BandedLdMatrix::compute(&engine(), &g, 100, LdStats::RSquared).unwrap();
        assert_eq!(banded.band(), 5);
        assert_eq!(banded.n_pairs(), 15); // all C(6,2) pairs
        let full = engine().r2_matrix(&g);
        for (i, j, v) in banded.iter_pairs() {
            assert_eq!(v.to_bits(), full.get(i, j).to_bits(), "({i},{j})");
        }
    }

    #[test]
    fn other_stats_work() {
        let g = pseudo(64, 15, 5);
        let banded = BandedLdMatrix::compute(&engine(), &g, 3, LdStats::DPrime).unwrap();
        let full = engine().stat_matrix(&g, LdStats::DPrime);
        for (i, j, v) in banded.iter_pairs() {
            assert_eq!(v.to_bits(), full.get(i, j).to_bits(), "({i},{j})");
        }
    }
}
