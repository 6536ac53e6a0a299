//! O(S) split evaluation via prefix sums over the window's r² matrix.

use ld_core::LdMatrix;

/// Precomputed pair-sum prefixes of one window.
///
/// For a window of `S` SNPs, stores for every split `l`:
/// * `left[l]`  = Σ r² over pairs with both SNPs `< l`,
/// * `right[l]` = Σ r² over pairs with both SNPs `≥ l`,
///
/// each built in `O(S²)` total (one pass over the matrix) so that all
/// `S − 1` candidate splits evaluate in constant time — the trick that
/// makes a grid scan with ω-maximizing splits affordable.
#[derive(Clone, Debug)]
pub struct WindowSums {
    s: usize,
    left: Vec<f64>,
    right: Vec<f64>,
    total: f64,
}

impl WindowSums {
    /// Builds the prefixes from a window r² matrix. NaN entries count as 0.
    pub fn new(r2: &LdMatrix) -> Self {
        Self::from_pairs(r2.n_snps(), |i, j| r2.get(i, j))
    }

    /// Builds the prefixes of an `s`-SNP window from a pair lookup (local
    /// `i < j < s`), adding column `l − 1` ascending `i` and row `l`
    /// ascending `j`: one order, so equal values give equal bits.
    pub(crate) fn from_pairs(s: usize, r2: impl Fn(usize, usize) -> f64) -> Self {
        let val = |i: usize, j: usize| {
            let v = r2(i, j);
            if v.is_nan() {
                0.0
            } else {
                v
            }
        };
        // left[l] = left[l-1] + Σ_{i<l-1} r²(i, l-1)
        let mut left = vec![0.0; s + 1];
        for l in 1..=s {
            let new_col = l - 1;
            let mut add = 0.0;
            for i in 0..new_col {
                add += val(i, new_col);
            }
            left[l] = left[l - 1] + add;
        }
        // right[l] = right[l+1] + Σ_{j>l} r²(l, j)
        let mut right = vec![0.0; s + 1];
        for l in (0..s).rev() {
            let mut add = 0.0;
            for j in l + 1..s {
                add += val(l, j);
            }
            right[l] = right[l + 1] + add;
        }
        let total = left[s];
        Self {
            s,
            left,
            right,
            total,
        }
    }

    /// Window size `S`.
    pub fn len(&self) -> usize {
        self.s
    }

    /// True for an empty window.
    pub fn is_empty(&self) -> bool {
        self.s == 0
    }

    /// Sum of r² over pairs entirely in the left region of split `l`.
    pub fn left_sum(&self, l: usize) -> f64 {
        self.left[l]
    }

    /// Sum of r² over pairs entirely in the right region of split `l`.
    pub fn right_sum(&self, l: usize) -> f64 {
        self.right[l]
    }

    /// Sum of r² over cross pairs (one SNP each side) of split `l`.
    pub fn cross_sum(&self, l: usize) -> f64 {
        (self.total - self.left[l] - self.right[l]).max(0.0)
    }

    /// ω at split `l` (left region size `l`, right `S − l`).
    ///
    /// Degenerate cases follow OmegaPlus's conventions: zero within-region
    /// pair count → 0; zero cross-LD with positive within-LD → `+∞`
    /// (a perfect sweep signature); 0/0 → 0.
    pub fn omega_at(&self, l: usize) -> f64 {
        let s = self.s;
        if l == 0 || l >= s {
            return 0.0;
        }
        let c = |k: usize| (k * k.saturating_sub(1)) as f64 / 2.0;
        let within_pairs = c(l) + c(s - l);
        if within_pairs == 0.0 {
            return 0.0;
        }
        let within = self.left_sum(l) + self.right_sum(l);
        let cross = self.cross_sum(l);
        let cross_pairs = (l * (s - l)) as f64;
        omega_ratio(within / within_pairs, cross / cross_pairs)
    }
}

/// `numerator / denominator`, by [`WindowSums::omega_at`]'s conventions.
pub(crate) fn omega_ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else if numerator > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(n: usize) -> LdMatrix {
        let mut m = LdMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                m.set(i, j, ((i * 31 + j * 7) % 10) as f64 / 10.0);
            }
        }
        m
    }

    #[test]
    fn sums_partition_the_total() {
        let m = fixture(8);
        let w = WindowSums::new(&m);
        let total: f64 = m.iter_pairs().map(|(_, _, v)| v).sum();
        for l in 0..=8 {
            let sum = w.left_sum(l) + w.right_sum(l) + w.cross_sum(l);
            assert!((sum - total).abs() < 1e-9, "l={l}: {sum} vs {total}");
        }
        assert_eq!(w.len(), 8);
        assert!(!w.is_empty());
    }

    #[test]
    fn left_and_right_sums_brute_force() {
        let m = fixture(7);
        let w = WindowSums::new(&m);
        for l in 0..=7 {
            let mut ll = 0.0;
            let mut rr = 0.0;
            for i in 0..7 {
                for j in i + 1..7 {
                    if j < l {
                        ll += m.get(i, j);
                    }
                    if i >= l {
                        rr += m.get(i, j);
                    }
                }
            }
            assert!((w.left_sum(l) - ll).abs() < 1e-9, "left l={l}");
            assert!((w.right_sum(l) - rr).abs() < 1e-9, "right l={l}");
        }
    }

    #[test]
    fn nan_counts_as_zero() {
        let mut m = LdMatrix::zeros(4);
        m.set(0, 1, f64::NAN);
        m.set(0, 2, 0.5);
        m.set(2, 3, 0.25);
        let w = WindowSums::new(&m);
        assert!((w.left_sum(4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_splits() {
        let m = fixture(5);
        let w = WindowSums::new(&m);
        assert_eq!(w.omega_at(0), 0.0);
        assert_eq!(w.omega_at(5), 0.0);
        // l=1: within_pairs = C(1,2)+C(4,2) = 6 > 0, finite
        assert!(w.omega_at(1).is_finite());
    }

    #[test]
    fn infinite_omega_for_zero_cross() {
        let mut m = LdMatrix::zeros(4);
        // within-halves LD, zero across
        m.set(0, 1, 0.9);
        m.set(2, 3, 0.9);
        let w = WindowSums::new(&m);
        assert!(w.omega_at(2).is_infinite());
    }

    #[test]
    fn zero_matrix_gives_zero_omega() {
        let m = LdMatrix::zeros(6);
        let w = WindowSums::new(&m);
        for l in 0..=6 {
            assert_eq!(w.omega_at(l), 0.0);
        }
    }
}
