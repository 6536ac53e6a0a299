//! The SNP-major bit-packed genomic matrix.

use crate::{pack_bits, tail_mask, words_for, AlignedWords, BitMatError, BitMatrixView};

/// Number of samples stored per `u64` word.
pub const WORD_BITS: usize = 64;

/// A binary genomic matrix `G` with `n_samples` rows (sequences) and
/// `n_snps` columns (variable sites), stored SNP-major and bit-packed.
///
/// This is the layout of Figure 2 in the paper: every SNP is a contiguous
/// run of `words_per_snp` little-endian `u64` words, padded with zero bits
/// up to the next multiple of 64 samples. A set bit is the *derived* state
/// (a mutation), a clear bit the *ancestral* state, following the infinite
/// sites model.
///
/// ```
/// use ld_bitmat::BitMatrix;
/// // 3 samples × 2 SNPs from sample-major rows:
/// let g = BitMatrix::from_rows(3, 2, [[1u8, 0], [1, 1], [0, 1]]).unwrap();
/// assert_eq!(g.ones_in_snp(0), 2);
/// assert_eq!(g.ones_in_snp(1), 2);
/// assert!(g.get(0, 0) && !g.get(0, 1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    words: AlignedWords,
    n_samples: usize,
    n_snps: usize,
    words_per_snp: usize,
}

impl BitMatrix {
    /// An all-zero (all-ancestral) matrix.
    pub fn zeros(n_samples: usize, n_snps: usize) -> Self {
        let words_per_snp = words_for(n_samples);
        Self {
            words: AlignedWords::zeroed(words_per_snp * n_snps),
            n_samples,
            n_snps,
            words_per_snp,
        }
    }

    /// Builds a matrix from sample-major rows. Each row must have
    /// `n_snps` entries, each `0` or `1`.
    ///
    /// Rows go through the ingestion core ([`pack_bits`] with `0x00` as
    /// the zero byte) into sample-major words, which are then transposed;
    /// a row the core reports as not clean is re-scanned, alone, to name
    /// the first offending allele.
    pub fn from_rows<R, I>(n_samples: usize, n_snps: usize, rows: I) -> Result<Self, BitMatError>
    where
        R: AsRef<[u8]>,
        I: IntoIterator<Item = R>,
    {
        let wpr = words_for(n_snps);
        let mut packed = vec![0u64; n_samples * wpr];
        let mut count = 0usize;
        for (s, row) in rows.into_iter().enumerate() {
            let row = row.as_ref();
            if s >= n_samples {
                return Err(BitMatError::DimensionMismatch {
                    expected: n_samples,
                    got: s + 1,
                    what: "samples",
                });
            }
            if row.len() != n_snps {
                return Err(BitMatError::DimensionMismatch {
                    expected: n_snps,
                    got: row.len(),
                    what: "snps",
                });
            }
            if !pack_bits(row, 0, &mut packed[s * wpr..(s + 1) * wpr]) {
                let snp = row.iter().position(|&a| a > 1).unwrap_or_default();
                return Err(BitMatError::InvalidAllele {
                    value: row[snp],
                    sample: s,
                    snp,
                });
            }
            count += 1;
        }
        if count != n_samples {
            return Err(BitMatError::DimensionMismatch {
                expected: n_samples,
                got: count,
                what: "samples",
            });
        }
        Self::from_sample_major_words(n_samples, n_snps, &packed)
    }

    /// Builds a matrix from SNP-major columns of `0`/`1` bytes.
    pub fn from_columns<C, I>(n_samples: usize, cols: I) -> Result<Self, BitMatError>
    where
        C: AsRef<[u8]>,
        I: IntoIterator<Item = C>,
    {
        let cols: Vec<C> = cols.into_iter().collect();
        let mut m = Self::zeros(n_samples, cols.len());
        for (j, col) in cols.iter().enumerate() {
            let col = col.as_ref();
            if col.len() != n_samples {
                return Err(BitMatError::DimensionMismatch {
                    expected: n_samples,
                    got: col.len(),
                    what: "samples",
                });
            }
            for (s, &a) in col.iter().enumerate() {
                match a {
                    0 => {}
                    1 => m.set(s, j, true),
                    v => {
                        return Err(BitMatError::InvalidAllele {
                            value: v,
                            sample: s,
                            snp: j,
                        })
                    }
                }
            }
        }
        Ok(m)
    }

    /// Builds a matrix directly from packed words. `words.len()` must equal
    /// `words_for(n_samples) * n_snps` and padding bits must be zero.
    pub fn from_words(
        n_samples: usize,
        n_snps: usize,
        words: AlignedWords,
    ) -> Result<Self, BitMatError> {
        let wps = words_for(n_samples);
        if words.len() != wps * n_snps {
            return Err(BitMatError::DimensionMismatch {
                expected: wps * n_snps,
                got: words.len(),
                what: "words",
            });
        }
        let m = Self {
            words,
            n_samples,
            n_snps,
            words_per_snp: wps,
        };
        m.check_padding()?;
        Ok(m)
    }

    /// Number of samples (rows, the `k` dimension of the paper).
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Number of SNPs (columns, the `m`/`n` dimension of the paper).
    #[inline]
    pub fn n_snps(&self) -> usize {
        self.n_snps
    }

    /// Words per SNP column (`N_int` in the paper).
    #[inline]
    pub fn words_per_snp(&self) -> usize {
        self.words_per_snp
    }

    /// The raw packed words, SNP-major.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed words of SNP `j`.
    #[inline]
    pub fn snp_words(&self, j: usize) -> &[u64] {
        debug_assert!(j < self.n_snps);
        &self.words[j * self.words_per_snp..(j + 1) * self.words_per_snp]
    }

    /// Mutable packed words of SNP `j`. The caller must keep padding bits
    /// zero; use [`BitMatrix::check_padding`] in tests.
    #[inline]
    pub fn snp_words_mut(&mut self, j: usize) -> &mut [u64] {
        debug_assert!(j < self.n_snps);
        &mut self.words[j * self.words_per_snp..(j + 1) * self.words_per_snp]
    }

    /// Reads the allele of `sample` at SNP `snp`.
    #[inline]
    pub fn get(&self, sample: usize, snp: usize) -> bool {
        debug_assert!(sample < self.n_samples && snp < self.n_snps);
        let w = self.words[snp * self.words_per_snp + sample / WORD_BITS];
        (w >> (sample % WORD_BITS)) & 1 == 1
    }

    /// Sets the allele of `sample` at SNP `snp`.
    #[inline]
    pub fn set(&mut self, sample: usize, snp: usize, derived: bool) {
        debug_assert!(sample < self.n_samples && snp < self.n_snps);
        let idx = snp * self.words_per_snp + sample / WORD_BITS;
        let bit = 1u64 << (sample % WORD_BITS);
        if derived {
            self.words[idx] |= bit;
        } else {
            self.words[idx] &= !bit;
        }
    }

    /// Number of derived alleles (set bits) in SNP `j` — the numerator of
    /// the allele frequency `p_j` (Eq. 3 of the paper).
    pub fn ones_in_snp(&self, j: usize) -> u64 {
        self.snp_words(j)
            .iter()
            .map(|w| w.count_ones() as u64)
            .sum()
    }

    /// Per-SNP derived-allele counts for the whole matrix.
    pub fn allele_counts(&self) -> Vec<u64> {
        (0..self.n_snps).map(|j| self.ones_in_snp(j)).collect()
    }

    /// Per-SNP derived-allele *frequencies* `p_j = count_j / n_samples`.
    pub fn allele_frequencies(&self) -> Vec<f64> {
        let n = self.n_samples as f64;
        (0..self.n_snps)
            .map(|j| self.ones_in_snp(j) as f64 / n)
            .collect()
    }

    /// Fraction of set bits over all (non-padding) positions.
    pub fn density(&self) -> f64 {
        if self.n_samples == 0 || self.n_snps == 0 {
            return 0.0;
        }
        let ones: u64 = self.words.iter().map(|w| w.count_ones() as u64).sum();
        ones as f64 / (self.n_samples as f64 * self.n_snps as f64)
    }

    /// Verifies the zero-padding invariant on every column.
    pub fn check_padding(&self) -> Result<(), BitMatError> {
        if self.n_samples.is_multiple_of(WORD_BITS) || self.words_per_snp == 0 {
            return Ok(());
        }
        let mask = tail_mask(self.n_samples);
        for j in 0..self.n_snps {
            let last = self.snp_words(j)[self.words_per_snp - 1];
            if last & !mask != 0 {
                return Err(BitMatError::PaddingViolation { snp: j });
            }
        }
        Ok(())
    }

    /// A borrowed view of SNP columns `range.start..range.end`.
    pub fn view(&self, start: usize, end: usize) -> BitMatrixView<'_> {
        assert!(
            start <= end && end <= self.n_snps,
            "view range out of bounds"
        );
        BitMatrixView::new(self, start, end)
    }

    /// A view over all columns.
    pub fn full_view(&self) -> BitMatrixView<'_> {
        self.view(0, self.n_snps)
    }

    /// Extracts SNP `j` as a `Vec<u8>` of 0/1 alleles (mostly for tests and
    /// text export).
    pub fn snp_to_bytes(&self, j: usize) -> Vec<u8> {
        (0..self.n_samples)
            .map(|s| u8::from(self.get(s, j)))
            .collect()
    }

    /// Extracts sample `s` as a `Vec<u8>` of 0/1 alleles across all SNPs.
    pub fn sample_to_bytes(&self, s: usize) -> Vec<u8> {
        (0..self.n_snps).map(|j| u8::from(self.get(s, j))).collect()
    }

    /// Returns a new matrix containing the given SNP columns, in order.
    pub fn select_snps(&self, indices: &[usize]) -> Result<Self, BitMatError> {
        let mut out = Self::zeros(self.n_samples, indices.len());
        for (dst, &src) in indices.iter().enumerate() {
            if src >= self.n_snps {
                return Err(BitMatError::IndexOutOfBounds {
                    index: src,
                    bound: self.n_snps,
                    what: "snp",
                });
            }
            let wps = self.words_per_snp;
            out.words[dst * wps..(dst + 1) * wps].copy_from_slice(self.snp_words(src));
        }
        Ok(out)
    }

    /// Concatenates the SNP columns of `other` after `self`'s.
    /// Both matrices must have the same number of samples.
    pub fn hstack(&self, other: &Self) -> Result<Self, BitMatError> {
        if self.n_samples != other.n_samples {
            return Err(BitMatError::DimensionMismatch {
                expected: self.n_samples,
                got: other.n_samples,
                what: "samples",
            });
        }
        let mut out = Self::zeros(self.n_samples, self.n_snps + other.n_snps);
        let wps = self.words_per_snp;
        out.words[..self.n_snps * wps].copy_from_slice(&self.words);
        out.words[self.n_snps * wps..].copy_from_slice(&other.words);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BitMatrix {
        // 5 samples × 3 SNPs
        BitMatrix::from_rows(
            5,
            3,
            [[1u8, 0, 1], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1]],
        )
        .unwrap()
    }

    #[test]
    fn shape_and_counts() {
        let g = toy();
        assert_eq!(g.n_samples(), 5);
        assert_eq!(g.n_snps(), 3);
        assert_eq!(g.words_per_snp(), 1);
        assert_eq!(g.allele_counts(), vec![3, 2, 3]);
    }

    #[test]
    fn get_matches_rows() {
        let g = toy();
        assert!(g.get(0, 0));
        assert!(!g.get(0, 1));
        assert!(g.get(4, 2));
        assert!(!g.get(3, 0));
    }

    #[test]
    fn frequencies() {
        let g = toy();
        let p = g.allele_frequencies();
        assert!((p[0] - 0.6).abs() < 1e-12);
        assert!((p[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn set_clear_round_trip() {
        let mut g = BitMatrix::zeros(130, 4);
        g.set(129, 3, true);
        assert!(g.get(129, 3));
        g.set(129, 3, false);
        assert!(!g.get(129, 3));
        g.check_padding().unwrap();
    }

    #[test]
    fn from_rows_rejects_bad_allele() {
        let err = BitMatrix::from_rows(1, 2, [[0u8, 2]]).unwrap_err();
        assert!(matches!(err, BitMatError::InvalidAllele { value: 2, .. }));
        // the first offender of the first offending row is the one named,
        // wherever it sits relative to the 8- and 64-byte packing steps
        for snp in [0usize, 7, 8, 63, 64, 70, 129] {
            let mut rows = vec![vec![1u8; 130]; 3];
            rows[1][snp] = b'1';
            rows[1][129] = 9;
            rows[2][0] = 5;
            let err = BitMatrix::from_rows(3, 130, &rows).unwrap_err();
            let (value, snp) = if snp == 129 { (9, 129) } else { (b'1', snp) };
            assert_eq!(
                err,
                BitMatError::InvalidAllele {
                    value,
                    sample: 1,
                    snp
                }
            );
        }
    }

    #[test]
    fn from_rows_rejects_short_row() {
        let err = BitMatrix::from_rows(1, 3, [[0u8, 1]]).unwrap_err();
        assert!(matches!(
            err,
            BitMatError::DimensionMismatch { what: "snps", .. }
        ));
    }

    #[test]
    fn from_rows_rejects_row_count_mismatch() {
        let err = BitMatrix::from_rows(3, 1, [[0u8], [1]]).unwrap_err();
        assert!(matches!(
            err,
            BitMatError::DimensionMismatch {
                what: "samples",
                ..
            }
        ));
        let err = BitMatrix::from_rows(1, 1, [[0u8], [1]]).unwrap_err();
        assert!(matches!(
            err,
            BitMatError::DimensionMismatch {
                what: "samples",
                ..
            }
        ));
    }

    #[test]
    fn columns_equal_rows_construction() {
        let by_rows = toy();
        let by_cols = BitMatrix::from_columns(
            5,
            [
                [1u8, 1, 0, 0, 1], // SNP 0
                [0, 1, 1, 0, 0],   // SNP 1
                [1, 0, 0, 1, 1],   // SNP 2
            ],
        )
        .unwrap();
        assert_eq!(by_rows, by_cols);
    }

    #[test]
    fn padding_is_zero_and_detected() {
        let g = BitMatrix::from_rows(65, 1, (0..65).map(|_| [1u8])).unwrap();
        g.check_padding().unwrap();
        assert_eq!(g.words_per_snp(), 2);
        assert_eq!(g.ones_in_snp(0), 65);

        // Deliberately violate the invariant through the raw accessor.
        let mut g = g;
        g.snp_words_mut(0)[1] |= 1 << 63;
        assert!(matches!(
            g.check_padding(),
            Err(BitMatError::PaddingViolation { snp: 0 })
        ));
    }

    #[test]
    fn from_words_validates() {
        let words = AlignedWords::from_slice(&[0b1011]);
        let m = BitMatrix::from_words(4, 1, words).unwrap();
        assert_eq!(m.ones_in_snp(0), 3);

        let words = AlignedWords::from_slice(&[0b1_0000]); // bit 4 set but only 4 samples
        assert!(BitMatrix::from_words(4, 1, words).is_err());

        let words = AlignedWords::from_slice(&[1, 2, 3]);
        assert!(BitMatrix::from_words(64, 2, words).is_err()); // wrong word count
    }

    #[test]
    fn select_and_hstack() {
        let g = toy();
        let sel = g.select_snps(&[2, 0]).unwrap();
        assert_eq!(sel.n_snps(), 2);
        assert_eq!(sel.snp_to_bytes(0), g.snp_to_bytes(2));
        assert_eq!(sel.snp_to_bytes(1), g.snp_to_bytes(0));
        assert!(g.select_snps(&[5]).is_err());

        let h = g.hstack(&sel).unwrap();
        assert_eq!(h.n_snps(), 5);
        assert_eq!(h.snp_to_bytes(3), g.snp_to_bytes(2));

        let other = BitMatrix::zeros(4, 1);
        assert!(g.hstack(&other).is_err());
    }

    #[test]
    fn density_of_known_matrix() {
        let g = toy();
        assert!((g.density() - 8.0 / 15.0).abs() < 1e-12);
        assert_eq!(BitMatrix::zeros(0, 0).density(), 0.0);
    }

    #[test]
    fn sample_extraction() {
        let g = toy();
        assert_eq!(g.sample_to_bytes(1), vec![1, 1, 0]);
    }
}
