//! Third-order linkage disequilibrium (paper §VIII: "more specialized
//! use-cases such as higher-order LD").
//!
//! The three-locus disequilibrium coefficient (Bennett 1954; reviewed in
//! Slatkin's ref. \[28\] of the paper) for loci A, B, C:
//!
//! ```text
//! D_ABC = P_ABC − p_A·D_BC − p_B·D_AC − p_C·D_AB − p_A p_B p_C
//! ```
//!
//! `D_ABC = 0` when no three-way interaction exists beyond the pairwise
//! structure. Every term is a popcount on the packed substrate — the
//! three-way haplotype frequency is `POPCNT(s_A & s_B & s_C)/N`, one extra
//! AND deeper than the pairwise kernel — so windowed triple scans reuse
//! the same machinery (the `O(n³)` triple count confines them to windows).

use ld_bitmat::BitMatrixView;
use ld_popcount::and_popcount;

/// All frequencies entering the three-locus coefficient.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TripleFreqs {
    /// Single-locus derived frequencies.
    pub p: [f64; 3],
    /// Pairwise derived-derived haplotype frequencies (AB, AC, BC).
    pub p2: [f64; 3],
    /// Three-way derived haplotype frequency.
    pub p3: f64,
}

impl TripleFreqs {
    /// Pairwise `D` coefficients (AB, AC, BC).
    pub fn pairwise_d(&self) -> [f64; 3] {
        [
            self.p2[0] - self.p[0] * self.p[1],
            self.p2[1] - self.p[0] * self.p[2],
            self.p2[2] - self.p[1] * self.p[2],
        ]
    }

    /// The three-locus coefficient `D_ABC`.
    pub fn d3(&self) -> f64 {
        let d = self.pairwise_d();
        self.p3
            - self.p[0] * d[2]  // p_A · D_BC
            - self.p[1] * d[1]  // p_B · D_AC
            - self.p[2] * d[0]  // p_C · D_AB
            - self.p[0] * self.p[1] * self.p[2]
    }
}

/// Counts all frequencies for the SNP triple `(i, j, k)` in one pass.
pub fn triple_freqs(g: &BitMatrixView<'_>, i: usize, j: usize, k: usize) -> TripleFreqs {
    let n = g.n_samples() as f64;
    let (a, b, c) = (g.snp_words(i), g.snp_words(j), g.snp_words(k));
    let mut n_ab = 0u64;
    let mut n_ac = 0u64;
    let mut n_bc = 0u64;
    let mut n_abc = 0u64;
    for w in 0..a.len() {
        let ab = a[w] & b[w];
        n_ab += ab.count_ones() as u64;
        n_ac += (a[w] & c[w]).count_ones() as u64;
        n_bc += (b[w] & c[w]).count_ones() as u64;
        n_abc += (ab & c[w]).count_ones() as u64;
    }
    TripleFreqs {
        p: [
            g.ones_in_snp(i) as f64 / n,
            g.ones_in_snp(j) as f64 / n,
            g.ones_in_snp(k) as f64 / n,
        ],
        p2: [n_ab as f64 / n, n_ac as f64 / n, n_bc as f64 / n],
        p3: n_abc as f64 / n,
    }
}

/// `D_ABC` for one triple.
pub fn third_order_d(g: &BitMatrixView<'_>, i: usize, j: usize, k: usize) -> f64 {
    triple_freqs(g, i, j, k).d3()
}

/// All `C(w, 3)` third-order coefficients of a window, as
/// `(i, j, k, D_ABC)` with `i < j < k` (window-local indices).
pub fn third_order_window(g: &BitMatrixView<'_>) -> Vec<(usize, usize, usize, f64)> {
    let w = g.n_snps();
    let mut out = Vec::with_capacity(w * (w.saturating_sub(1)) * (w.saturating_sub(2)) / 6);
    for i in 0..w {
        for j in i + 1..w {
            for k in j + 1..w {
                out.push((i, j, k, third_order_d(g, i, j, k)));
            }
        }
    }
    out
}

/// The triples whose |D_ABC| meets `threshold`, strongest first — an
/// epistasis-style screen.
pub fn strongest_triples(g: &BitMatrixView<'_>, threshold: f64) -> Vec<(usize, usize, usize, f64)> {
    let mut v: Vec<_> = third_order_window(g)
        .into_iter()
        .filter(|&(_, _, _, d)| d.abs() >= threshold)
        .collect();
    v.sort_by(|a, b| {
        b.3.abs()
            .partial_cmp(&a.3.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    v
}

/// Consistency helper used by tests: the pairwise counts embedded in a
/// [`TripleFreqs`] must match the direct pairwise kernel.
pub fn pairwise_count(g: &BitMatrixView<'_>, i: usize, j: usize) -> u64 {
    and_popcount(g.snp_words(i), g.snp_words(j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_bitmat::BitMatrix;

    #[test]
    fn independent_loci_give_zero_d3() {
        // 8 samples = full factorial over 3 loci: perfectly independent
        let mut g = BitMatrix::zeros(8, 3);
        for s in 0..8 {
            g.set(s, 0, s & 1 != 0);
            g.set(s, 1, s & 2 != 0);
            g.set(s, 2, s & 4 != 0);
        }
        let f = triple_freqs(&g.full_view(), 0, 1, 2);
        assert_eq!(f.p, [0.5, 0.5, 0.5]);
        assert_eq!(f.p2, [0.25, 0.25, 0.25]);
        assert_eq!(f.p3, 0.125);
        assert!(f.d3().abs() < 1e-12);
        assert!(f.pairwise_d().iter().all(|d| d.abs() < 1e-12));
    }

    #[test]
    fn pure_three_way_interaction_detected() {
        // XOR structure: every pair independent, but the triple is not —
        // the signature case D_ABC must flag.
        // samples: all (a,b) combos twice; c = a XOR b
        let rows: Vec<[u8; 3]> = (0..8)
            .map(|s| {
                let a = (s >> 1) & 1;
                let b = s & 1;
                [a as u8, b as u8, (a ^ b) as u8]
            })
            .collect();
        let g = BitMatrix::from_rows(8, 3, rows).unwrap();
        let f = triple_freqs(&g.full_view(), 0, 1, 2);
        // pairwise: all D = 0
        assert!(f.pairwise_d().iter().all(|d| d.abs() < 1e-12));
        // but P_ABC = 0 (a=b=1 -> c=0) while independence predicts 1/8
        assert_eq!(f.p3, 0.0);
        assert!((f.d3() + 0.125).abs() < 1e-12, "D3 = {}", f.d3());
    }

    #[test]
    fn d3_is_symmetric_under_locus_permutation() {
        let mut g = BitMatrix::zeros(32, 3);
        let mut s = 9u64;
        for j in 0..3 {
            for smp in 0..32 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s.is_multiple_of(3) {
                    g.set(smp, j, true);
                }
            }
        }
        let v = g.full_view();
        let base = third_order_d(&v, 0, 1, 2);
        for (i, j, k) in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)] {
            assert!(
                (third_order_d(&v, i, j, k) - base).abs() < 1e-12,
                "permutation ({i},{j},{k})"
            );
        }
    }

    #[test]
    fn window_scan_counts_triples() {
        let g = BitMatrix::zeros(16, 6);
        let all = third_order_window(&g.full_view());
        assert_eq!(all.len(), 20); // C(6,3)
                                   // ordering invariant
        for &(i, j, k, _) in &all {
            assert!(i < j && j < k);
        }
    }

    #[test]
    fn screen_finds_planted_xor() {
        // plant an XOR triple inside random noise
        let n_samples = 64;
        let mut g = BitMatrix::zeros(n_samples, 8);
        let mut s = 77u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for j in 0..8 {
            for smp in 0..n_samples {
                if next() % 2 == 0 {
                    g.set(smp, j, true);
                }
            }
        }
        // loci 2,5: random; locus 7 = xor of them
        for smp in 0..n_samples {
            g.set(smp, 7, g.get(smp, 2) ^ g.get(smp, 5));
        }
        let hits = strongest_triples(&g.full_view(), 0.08);
        assert!(
            hits.iter().any(|&(i, j, k, _)| (i, j, k) == (2, 5, 7)),
            "planted XOR triple not found: {hits:?}"
        );
    }

    #[test]
    fn embedded_pairwise_counts_agree() {
        let mut g = BitMatrix::zeros(100, 3);
        for smp in (0..100).step_by(3) {
            g.set(smp, 0, true);
        }
        for smp in (0..100).step_by(4) {
            g.set(smp, 1, true);
        }
        for smp in (0..100).step_by(5) {
            g.set(smp, 2, true);
        }
        let v = g.full_view();
        let f = triple_freqs(&v, 0, 1, 2);
        assert_eq!(f.p2[0], pairwise_count(&v, 0, 1) as f64 / 100.0);
        assert_eq!(f.p2[1], pairwise_count(&v, 0, 2) as f64 / 100.0);
        assert_eq!(f.p2[2], pairwise_count(&v, 1, 2) as f64 / 100.0);
    }
}
