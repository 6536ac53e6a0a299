//! LD decay profiles — mean `r²` as a function of SNP distance.
//!
//! The canonical population-genetics summary of an LD matrix: with
//! recombination, `E[r²]` falls with distance (≈ `1/(1 + 4Nc)` under
//! neutrality). Computing it needs only a *band* of the pair matrix, so
//! this module folds the rows of a banded run of the slab driver
//! ([`RunControl::with_band`]) rather than materializing all `N(N+1)/2`
//! values — the `O(n·band)` counterpart of the full engine.

use crate::{in_row_order, LdEngine, LdError, LdStats, RowSlabVisit, RunControl, Source};

/// One distance bin of a decay profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecayBin {
    /// Smallest SNP-index distance in this bin (inclusive).
    pub min_dist: usize,
    /// Largest distance in this bin (inclusive).
    pub max_dist: usize,
    /// Mean of the defined `r²` values.
    pub mean_r2: f64,
    /// Number of pairs aggregated.
    pub count: u64,
}

/// Mean `r²` by SNP distance, out to `max_dist`.
#[derive(Clone, Debug)]
pub struct DecayProfile {
    bins: Vec<DecayBin>,
    bin_width: usize,
}

impl DecayProfile {
    /// Computes the profile for distances `1..=max_dist`, aggregated into
    /// bins of `bin_width` distances each.
    ///
    /// A row visitor over [`LdEngine::try_stat_rows_with`] with `max_dist`
    /// as the run's column band, so memory is the driver's
    /// `O(threads · slab · (slab + max_dist))` scratch regardless of `n`
    /// (plus, under threading, the few early slabs held for reordering).
    /// Rows are folded in ascending `(i, distance)` order whatever order
    /// the slabs finish in, which makes the running sums — and hence the
    /// bins — bit-identical across thread counts, slab heights and
    /// sources. `max_dist == 0` is [`LdError::InvalidConfig`].
    pub fn compute<'a>(
        engine: &LdEngine,
        src: impl Into<Source<'a>>,
        max_dist: usize,
        bin_width: usize,
    ) -> Result<Self, LdError> {
        if max_dist == 0 {
            return Err(LdError::InvalidConfig {
                message: "a decay profile needs max_dist >= 1",
            });
        }
        let bin_width = bin_width.max(1);
        let n_bins = max_dist.div_ceil(bin_width);
        let mut sums = vec![0.0f64; n_bins];
        let mut counts = vec![0u64; n_bins];
        // A slab's payload: each row's off-diagonal band (`row[0]` is the
        // diagonal), so `row[d]` below is distance `d + 1`.
        let copy = |s: &RowSlabVisit<'_>| -> Vec<Vec<f64>> {
            s.rows().map(|(_, row)| row[1..].to_vec()).collect()
        };
        let fold = |rows: Vec<Vec<f64>>| {
            for row in rows {
                for (d, v) in row.into_iter().enumerate() {
                    if !v.is_nan() {
                        let b = d / bin_width;
                        sums[b] += v;
                        counts[b] += 1;
                    }
                }
            }
        };
        let ctl = RunControl::new().with_band(max_dist);
        engine.try_stat_rows_with(src, LdStats::RSquared, in_row_order(copy, fold), &ctl)?;

        let bins = (0..n_bins)
            .map(|b| DecayBin {
                min_dist: b * bin_width + 1,
                max_dist: ((b + 1) * bin_width).min(max_dist),
                mean_r2: if counts[b] > 0 {
                    sums[b] / counts[b] as f64
                } else {
                    f64::NAN
                },
                count: counts[b],
            })
            .collect();
        Ok(Self { bins, bin_width })
    }

    /// The distance bins, nearest first.
    pub fn bins(&self) -> &[DecayBin] {
        &self.bins
    }

    /// Bin width used.
    pub fn bin_width(&self) -> usize {
        self.bin_width
    }

    /// Mean `r²` of the nearest bin (the short-range LD level).
    pub fn near_r2(&self) -> f64 {
        self.bins.first().map(|b| b.mean_r2).unwrap_or(f64::NAN)
    }

    /// The first distance (bin midpoint) at which mean `r²` drops to half
    /// the nearest bin's level; `None` if it never does within the band.
    pub fn half_distance(&self) -> Option<usize> {
        let target = self.near_r2() / 2.0;
        if !target.is_finite() {
            return None;
        }
        self.bins
            .iter()
            .find(|b| !b.mean_r2.is_nan() && b.mean_r2 <= target)
            .map(|b| (b.min_dist + b.max_dist) / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NanPolicy;
    use ld_bitmat::BitMatrix;

    /// Blocks of 8 identical SNPs: r² = 1 inside a block, ~0 across.
    fn blocky(n_samples: usize, n_snps: usize) -> BitMatrix {
        let mut g = BitMatrix::zeros(n_samples, n_snps);
        let mut s = 777u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut pattern: Vec<bool> = (0..n_samples).map(|_| next() % 2 == 0).collect();
        for j in 0..n_snps {
            if j % 8 == 0 {
                pattern = (0..n_samples).map(|_| next() % 2 == 0).collect();
            }
            for (smp, &bit) in pattern.iter().enumerate() {
                g.set(smp, j, bit);
            }
        }
        g
    }

    fn engine() -> LdEngine {
        LdEngine::new().nan_policy(NanPolicy::Zero)
    }

    #[test]
    fn decay_profile_matches_brute_force() {
        let g = blocky(96, 64);
        let profile = DecayProfile::compute(&engine(), &g, 16, 1).unwrap();
        let full = engine()
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        for bin in profile.bins() {
            let d = bin.min_dist;
            let mut sum = 0.0;
            let mut count = 0u64;
            for i in 0..64 {
                if i + d < 64 {
                    let v = full.get(i, i + d);
                    if !v.is_nan() {
                        sum += v;
                        count += 1;
                    }
                }
            }
            assert_eq!(bin.count, count, "bin d={d}");
            if count > 0 {
                assert!(
                    (bin.mean_r2 - sum / count as f64).abs() < 1e-10,
                    "bin d={d}"
                );
            }
        }
    }

    #[test]
    fn blocky_data_decays() {
        let g = blocky(128, 120);
        let profile = DecayProfile::compute(&engine(), &g, 20, 1).unwrap();
        // distance 1 pairs are mostly within blocks -> high; distance 10+
        // pairs straddle blocks -> low
        assert!(profile.near_r2() > 0.5, "near r² = {}", profile.near_r2());
        let far = profile.bins()[14].mean_r2;
        assert!(far < 0.3, "far r² = {far}");
        assert!(profile.half_distance().is_some());
    }

    #[test]
    fn chunking_is_invisible() {
        // force multiple chunks by n > chunk floor — compare two band widths
        let g = blocky(64, 2000);
        let a = DecayProfile::compute(&engine(), &g, 12, 3).unwrap();
        for bin in a.bins() {
            assert!(bin.count > 0);
            assert_eq!(a.bin_width(), 3);
        }
        // distance binning covers exactly 1..=12
        assert_eq!(a.bins().first().unwrap().min_dist, 1);
        assert_eq!(a.bins().last().unwrap().max_dist, 12);
    }

    #[test]
    fn band_larger_than_matrix_is_fine() {
        let g = blocky(32, 10);
        let profile = DecayProfile::compute(&engine(), &g, 50, 10).unwrap();
        let total: u64 = profile.bins().iter().map(|b| b.count).sum();
        assert_eq!(total, (10 * 9 / 2) as u64); // all strict pairs counted once
    }
}
