//! Result containers: triangle-packed and rectangular LD matrices.

use crate::error::{checked_triangle_len, try_zeroed_vec, LdError};
use crate::fused::packed_row_offset;
use std::fmt;

/// A symmetric `n × n` LD matrix stored as the packed upper triangle
/// (including the diagonal): `n(n+1)/2` values instead of `n²`.
///
/// Index layout (row-major upper triangle): for `i ≤ j`,
/// `idx(i, j) = i·n − i(i−1)/2 + (j − i)`.
#[derive(Clone, PartialEq)]
pub struct LdMatrix {
    n: usize,
    values: Vec<f64>,
}

impl LdMatrix {
    /// An all-zero matrix for `n` SNPs.
    pub fn zeros(n: usize) -> Self {
        match Self::try_zeros(n) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`LdMatrix::zeros`]: the packed length `n(n+1)/2` is
    /// computed with checked arithmetic ([`LdError::SizeOverflow`]) and
    /// the buffer is allocated via `try_reserve`
    /// ([`LdError::AllocationFailed`]).
    pub fn try_zeros(n: usize) -> Result<Self, LdError> {
        let len = checked_triangle_len(n)?;
        Ok(Self {
            n,
            values: try_zeroed_vec(len, "packed LD triangle")?,
        })
    }

    /// Builds from a packed triangle (length must be `n(n+1)/2`, computed
    /// without overflow).
    pub fn from_packed(n: usize, values: Vec<f64>) -> Self {
        assert!(
            checked_triangle_len(n).is_ok_and(|len| len == values.len()),
            "packed length mismatch"
        );
        Self { n, values }
    }

    /// Number of SNPs.
    #[inline]
    pub fn n_snps(&self) -> usize {
        self.n
    }

    /// Number of stored (distinct) values, `n(n+1)/2`.
    #[inline]
    pub fn n_values(&self) -> usize {
        self.values.len()
    }

    /// Packed index of `(i, j)` with either argument order.
    #[inline]
    pub fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n && j < self.n);
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        packed_row_offset(self.n, i) + (j - i)
    }

    /// Value at `(i, j)` (symmetric access).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[self.index(i, j)]
    }

    /// Sets the value at `(i, j)` (both orders map to the same slot).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let idx = self.index(i, j);
        self.values[idx] = v;
    }

    /// The packed storage, row-major upper triangle.
    pub fn packed(&self) -> &[f64] {
        &self.values
    }

    /// Mutable packed storage (used by the slab driver's fill and by
    /// callers transforming values in place, e.g. Fisher-z or thresholding).
    pub fn packed_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The packed triangle split into its `n` rows: row `i` holds the
    /// values `(i, i..n)`, `n − i` of them. The rows are disjoint `&mut`
    /// borrows, so a worker team can fill them in parallel without
    /// `unsafe` (see `ld_parallel::try_for_each_part`).
    pub fn rows_mut(&mut self) -> impl ExactSizeIterator<Item = &mut [f64]> + '_ {
        let n = self.n;
        let mut rest = self.values.as_mut_slice();
        (0..n).map(move |i| {
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(n - i);
            rest = tail;
            row
        })
    }

    /// Iterates `(i, j, value)` over the upper triangle with `i ≤ j`.
    pub fn iter_upper(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n)
            .flat_map(move |i| (i..self.n).map(move |j| (i, j, self.values[self.index(i, j)])))
    }

    /// Iterates strictly-off-diagonal pairs `(i, j, value)`, `i < j`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.iter_upper().filter(|&(i, j, _)| i != j)
    }

    /// Pairs whose value meets `threshold` (NaNs never match) — the core of
    /// LD pruning and association screens.
    pub fn pairs_at_least(&self, threshold: f64) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.iter_pairs().filter(move |&(_, _, v)| v >= threshold)
    }

    /// Mean of the defined (non-NaN) off-diagonal values.
    pub fn mean_offdiagonal(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (_, _, v) in self.iter_pairs() {
            if !v.is_nan() {
                sum += v;
                count += 1;
            }
        }
        if count == 0 {
            f64::NAN
        } else {
            sum / count as f64
        }
    }

    /// Expands to a dense row-major `n × n` matrix (tests, export).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.n * self.n];
        for i in 0..self.n {
            for j in 0..self.n {
                out[i * self.n + j] = self.get(i, j);
            }
        }
        out
    }
}

impl fmt::Debug for LdMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LdMatrix")
            .field("n_snps", &self.n)
            .field("n_values", &self.values.len())
            .finish()
    }
}

/// A rectangular `m × n` LD matrix between two SNP sets (Fig. 4:
/// long-range LD, distant genes, two cohorts).
#[derive(Clone, PartialEq)]
pub struct CrossLdMatrix {
    m: usize,
    n: usize,
    values: Vec<f64>,
}

impl CrossLdMatrix {
    /// Builds from a row-major buffer of length `m·n`.
    pub fn from_dense(m: usize, n: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), m * n, "dense length mismatch");
        Self { m, n, values }
    }

    /// Rows (SNPs of the first set).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.m
    }

    /// Columns (SNPs of the second set).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n
    }

    /// Value for `(row SNP i, column SNP j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.m && j < self.n);
        self.values[i * self.n + j]
    }

    /// Row-major raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates `(i, j, value)` over all cells.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.m).flat_map(move |i| (0..self.n).map(move |j| (i, j, self.values[i * self.n + j])))
    }
}

impl fmt::Debug for CrossLdMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrossLdMatrix")
            .field("m", &self.m)
            .field("n", &self.n)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_index_is_bijective() {
        let n = 7;
        let m = LdMatrix::zeros(n);
        let mut seen = vec![false; n * (n + 1) / 2];
        for i in 0..n {
            for j in i..n {
                let idx = m.index(i, j);
                assert!(!seen[idx], "duplicate index for ({i},{j})");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rows_mut_splits_the_packed_layout() {
        for n in [0usize, 1, 2, 7] {
            let mut m = LdMatrix::zeros(n);
            assert_eq!(m.rows_mut().len(), n);
            for (i, row) in m.rows_mut().enumerate() {
                assert_eq!(row.len(), n - i, "row {i} of {n}");
                for (t, v) in row.iter_mut().enumerate() {
                    *v = (i * 100 + i + t) as f64;
                }
            }
            for i in 0..n {
                for j in i..n {
                    assert_eq!(m.get(i, j), (i * 100 + j) as f64, "({i},{j}) of {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "packed length mismatch")]
    fn overflowing_packed_length_panics() {
        // n(n+1)/2 wraps to 0 in unchecked arithmetic
        LdMatrix::from_packed(usize::MAX, Vec::new());
    }

    #[test]
    fn symmetric_set_get() {
        let mut m = LdMatrix::zeros(5);
        m.set(1, 3, 0.5);
        assert_eq!(m.get(1, 3), 0.5);
        assert_eq!(m.get(3, 1), 0.5);
        m.set(4, 2, 0.25);
        assert_eq!(m.get(2, 4), 0.25);
        assert_eq!(m.n_snps(), 5);
        assert_eq!(m.n_values(), 15);
    }

    #[test]
    fn iteration_counts() {
        let n = 6;
        let m = LdMatrix::zeros(n);
        assert_eq!(m.iter_upper().count(), n * (n + 1) / 2);
        assert_eq!(m.iter_pairs().count(), n * (n - 1) / 2);
    }

    #[test]
    fn threshold_filter_skips_nan() {
        let mut m = LdMatrix::zeros(3);
        m.set(0, 1, 0.9);
        m.set(0, 2, f64::NAN);
        m.set(1, 2, 0.3);
        let hits: Vec<_> = m.pairs_at_least(0.5).collect();
        assert_eq!(hits, vec![(0, 1, 0.9)]);
    }

    #[test]
    fn mean_ignores_nan() {
        let mut m = LdMatrix::zeros(3);
        m.set(0, 1, 1.0);
        m.set(0, 2, f64::NAN);
        m.set(1, 2, 0.0);
        assert!((m.mean_offdiagonal() - 0.5).abs() < 1e-12);
        assert!(LdMatrix::zeros(1).mean_offdiagonal().is_nan());
    }

    #[test]
    fn dense_round_trip() {
        let mut m = LdMatrix::zeros(3);
        m.set(0, 0, 1.0);
        m.set(0, 1, 0.5);
        m.set(1, 2, 0.25);
        let d = m.to_dense();
        assert_eq!(d[1], 0.5); // (0, 1)
        assert_eq!(d[3], 0.5); // (1, 0), mirrored
        assert_eq!(d[2 * 3 + 1], 0.25); // (2, 1), mirrored
    }

    #[test]
    #[should_panic(expected = "packed length mismatch")]
    fn bad_packed_length_panics() {
        LdMatrix::from_packed(3, vec![0.0; 5]);
    }

    #[test]
    fn cross_matrix_access() {
        let c = CrossLdMatrix::from_dense(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(c.get(0, 2), 3.0);
        assert_eq!(c.get(1, 0), 4.0);
        assert_eq!(c.n_rows(), 2);
        assert_eq!(c.n_cols(), 3);
        assert_eq!(c.iter().count(), 6);
    }
}
