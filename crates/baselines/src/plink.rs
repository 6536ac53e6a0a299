//! The PLINK-1.9-style baseline: 2-bit genotypes, masked-popcount
//! contingency tables, dosage-correlation or EM-haplotype `r²`.
//!
//! PLINK 1.9's `--r2` kernel works on the `.bed` 2-bit encoding directly:
//! for every variant pair it derives per-genotype lane masks with a handful
//! of logic ops and reduces them with `POPCNT`, building the 3×3 genotype
//! contingency table; `r²` then comes either from the correlation of
//! dosage vectors or (PLINK's default for unphased data) from
//! maximum-likelihood haplotype frequencies via EM over the double-het
//! ambiguity. The kernel is vector-friendly but has **no GotoBLAS-style
//! blocking**, and genotypes carry half the density per bit (2 bits per
//! individual vs 1 per haplotype) — both facts the paper's Tables I–III
//! speedups rest on.

use ld_bitmat::{GenotypeMatrix, WORD_BITS};
use ld_core::fused::SyncSlice;
use ld_core::{LdMatrix, NanPolicy};
use ld_parallel::parallel_for_dynamic;

/// Bit 0 of every 2-bit lane.
const LANES: u64 = 0x5555_5555_5555_5555;

/// How the PLINK-style kernel turns a contingency table into `r²`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlinkR2Mode {
    /// Pearson correlation of allele dosages (0/1/2); missing excluded.
    #[default]
    Dosage,
    /// Maximum-likelihood haplotype frequencies via EM (PLINK's default
    /// for unphased genotype data), then Eq. 2 on the estimated
    /// frequencies.
    Em,
}

/// The 3×3 (+missing-excluded) genotype contingency table of one pair.
/// Index 0 = homA2 (dosage 0), 1 = het, 2 = homA1 (dosage 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairTable {
    /// `cells[dx][dy]` = individuals with dosage `dx` at x and `dy` at y.
    pub cells: [[u64; 3]; 3],
}

impl PairTable {
    /// Total individuals with both calls present.
    pub fn n(&self) -> u64 {
        self.cells.iter().flatten().sum()
    }
}

/// Builds the contingency table from two packed 2-bit SNP columns.
/// Padding lanes are missing-coded and therefore never counted.
pub fn pair_table(x: &[u64], y: &[u64]) -> PairTable {
    debug_assert_eq!(x.len(), y.len());
    let mut t = PairTable::default();
    for (&wx, &wy) in x.iter().zip(y) {
        let xl = wx & LANES;
        let xh = (wx >> 1) & LANES;
        let yl = wy & LANES;
        let yh = (wy >> 1) & LANES;
        // bed codes: 00 homA1, 01 missing, 10 het, 11 homA2 — one indicator
        // bit per lane, at the even positions.
        let xm = [
            xl & xh,           // 11: homA2, dosage 0
            !xl & xh & LANES,  // 10: het, dosage 1
            !xl & !xh & LANES, // 00: homA1, dosage 2
        ];
        let ym = [yl & yh, !yl & yh & LANES, !yl & !yh & LANES];
        for (dx, mx) in xm.iter().enumerate() {
            for (dy, my) in ym.iter().enumerate() {
                t.cells[dx][dy] += ld_popcount::strategies::popcount_pinned(mx & my);
            }
        }
    }
    t
}

/// Dosage-correlation `r²` from a contingency table.
pub fn r2_dosage(t: &PairTable, policy: NanPolicy) -> f64 {
    let n = t.n() as f64;
    if n == 0.0 {
        return policy.undefined();
    }
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for dx in 0..3 {
        for dy in 0..3 {
            let c = t.cells[dx][dy] as f64;
            let (x, y) = (dx as f64, dy as f64);
            sx += c * x;
            sy += c * y;
            sxx += c * x * x;
            syy += c * y * y;
            sxy += c * x * y;
        }
    }
    let cov = n * sxy - sx * sy;
    let vx = n * sxx - sx * sx;
    let vy = n * syy - sy * sy;
    if vx > 0.0 && vy > 0.0 {
        (cov * cov) / (vx * vy)
    } else {
        policy.undefined()
    }
}

/// EM-estimated haplotype frequencies (pAB, pAb, paB, pab) from a table.
/// Returns `None` when no called individuals exist.
pub fn em_haplotype_freqs(t: &PairTable) -> Option<(f64, f64, f64, f64)> {
    let n = t.n();
    if n == 0 {
        return None;
    }
    let c = &t.cells;
    let two_n = (2 * n) as f64;
    // Unambiguous haplotype contributions; indices are dosages of the
    // A1/"A" allele, so dx=2 means genotype AA.
    let fixed_ab = (2 * c[2][2] + c[2][1] + c[1][2]) as f64; // AB
    let fixed_a_b = (2 * c[2][0] + c[2][1] + c[1][0]) as f64; // Ab
    let fixed_b_a = (2 * c[0][2] + c[0][1] + c[1][2]) as f64; // aB
    let fixed_ab_low = (2 * c[0][0] + c[0][1] + c[1][0]) as f64; // ab
    let dh = c[1][1] as f64; // double hets: AB/ab or Ab/aB

    // Start from linkage equilibrium.
    let p_a = (fixed_ab + fixed_a_b + dh) / two_n;
    let p_b = (fixed_ab + fixed_b_a + dh) / two_n;
    let mut p_ab = (p_a * p_b).clamp(1e-12, 1.0);
    let mut p_a_b = (p_a * (1.0 - p_b)).max(0.0);
    let mut p_b_a = ((1.0 - p_a) * p_b).max(0.0);
    let mut p_ab_low = ((1.0 - p_a) * (1.0 - p_b)).max(0.0);

    for _ in 0..100 {
        // E: split double hets by relative phase likelihood.
        let num = p_ab * p_ab_low;
        let den = num + p_a_b * p_b_a;
        let w = if den > 0.0 { num / den } else { 0.5 };
        // M: update frequencies.
        let n_ab = fixed_ab + dh * w;
        let n_a_b = fixed_a_b + dh * (1.0 - w);
        let n_b_a = fixed_b_a + dh * (1.0 - w);
        let n_ab_low = fixed_ab_low + dh * w;
        let (q_ab, q_a_b, q_b_a, q_ab_low) =
            (n_ab / two_n, n_a_b / two_n, n_b_a / two_n, n_ab_low / two_n);
        let delta = (q_ab - p_ab).abs();
        p_ab = q_ab;
        p_a_b = q_a_b;
        p_b_a = q_b_a;
        p_ab_low = q_ab_low;
        if delta < 1e-13 {
            break;
        }
    }
    Some((p_ab, p_a_b, p_b_a, p_ab_low))
}

/// EM-based `r²` from a contingency table.
pub fn r2_em(t: &PairTable, policy: NanPolicy) -> f64 {
    let Some((p_ab, p_a_b, p_b_a, _)) = em_haplotype_freqs(t) else {
        return policy.undefined();
    };
    let p_a = p_ab + p_a_b;
    let p_b = p_ab + p_b_a;
    let d = p_ab - p_a * p_b;
    let denom = p_a * (1.0 - p_a) * p_b * (1.0 - p_b);
    if denom > 0.0 {
        d * d / denom
    } else {
        policy.undefined()
    }
}

/// The PLINK-style all-pairs driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlinkKernel {
    mode: PlinkR2Mode,
    policy: NanPolicy,
}

impl PlinkKernel {
    /// Dosage-mode kernel with NaN propagation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the `r²` estimator.
    pub fn mode(mut self, mode: PlinkR2Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the undefined-pair policy.
    pub fn nan_policy(mut self, policy: NanPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// `r²` of one variant pair.
    pub fn r2_pair(&self, g: &GenotypeMatrix, i: usize, j: usize) -> f64 {
        let t = pair_table(g.snp_words(i), g.snp_words(j));
        match self.mode {
            PlinkR2Mode::Dosage => r2_dosage(&t, self.policy),
            PlinkR2Mode::Em => r2_em(&t, self.policy),
        }
    }

    /// All-pairs `r²`, dynamically scheduled over rows.
    pub fn r2_matrix(&self, g: &GenotypeMatrix, threads: usize) -> LdMatrix {
        let n = g.n_snps();
        let mut out = LdMatrix::zeros(n);
        let kernel = *self;
        {
            let packed = out.packed_mut();
            let ptr = SyncSlice::new(packed);
            parallel_for_dynamic(threads, n, 4, |rows| {
                for i in rows.clone() {
                    let off = i * n - (i * i - i) / 2;
                    // SAFETY: disjoint packed row ranges.
                    let dst = unsafe { ptr.slice(off, n - i) };
                    let a = g.snp_words(i);
                    for (t_idx, j) in (i..n).enumerate() {
                        let t = pair_table(a, g.snp_words(j));
                        dst[t_idx] = match kernel.mode {
                            PlinkR2Mode::Dosage => r2_dosage(&t, kernel.policy),
                            PlinkR2Mode::Em => r2_em(&t, kernel.policy),
                        };
                    }
                }
            });
        }
        out
    }
}

/// Words per genotype SNP for sanity checks (32 genotypes per u64 vs 64
/// haplotypes per u64 — genotypes need twice the words per individual).
pub fn genotype_words(n_individuals: usize) -> usize {
    n_individuals.div_ceil(WORD_BITS / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_bitmat::{BitMatrix, Genotype};
    use ld_core::LdEngine;

    fn pseudo_haps(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
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
    fn table_counts_by_hand() {
        use Genotype::*;
        let cols = [
            vec![HomA1, HomA1, Het, HomA2, Missing],
            vec![HomA1, Het, Het, HomA2, HomA1],
        ];
        let g = GenotypeMatrix::from_columns(5, cols).unwrap();
        let t = pair_table(g.snp_words(0), g.snp_words(1));
        assert_eq!(t.cells[2][2], 1); // (HomA1, HomA1)
        assert_eq!(t.cells[2][1], 1); // (HomA1, Het)
        assert_eq!(t.cells[1][1], 1); // (Het, Het)
        assert_eq!(t.cells[0][0], 1); // (HomA2, HomA2)
        assert_eq!(t.n(), 4); // missing excluded
    }

    #[test]
    fn homozygous_lift_matches_haplotype_r2() {
        // On haploid data lifted to homozygous diploids, genotypic r²
        // equals haplotypic r² — the oracle linking PLINK to the engine.
        let haps = pseudo_haps(150, 12, 21);
        let genos = GenotypeMatrix::from_haplotypes_as_homozygous(&haps);
        let engine = LdEngine::new().r2_matrix(&haps);
        for mode in [PlinkR2Mode::Dosage, PlinkR2Mode::Em] {
            let plink = PlinkKernel::new().mode(mode).r2_matrix(&genos, 1);
            for i in 0..12 {
                for j in i..12 {
                    let (a, b) = (plink.get(i, j), engine.get(i, j));
                    assert!(
                        (a - b).abs() < 1e-6 || (a.is_nan() && b.is_nan()),
                        "{mode:?} ({i},{j}): {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn em_equals_dosage_without_double_hets() {
        let haps = pseudo_haps(100, 8, 22);
        let genos = GenotypeMatrix::from_haplotypes_as_homozygous(&haps);
        let d = PlinkKernel::new()
            .mode(PlinkR2Mode::Dosage)
            .r2_matrix(&genos, 1);
        let e = PlinkKernel::new()
            .mode(PlinkR2Mode::Em)
            .r2_matrix(&genos, 1);
        for (i, j, v) in d.iter_upper() {
            let w = e.get(i, j);
            assert!(
                (v - w).abs() < 1e-6 || (v.is_nan() && w.is_nan()),
                "({i},{j})"
            );
        }
    }

    #[test]
    fn diploid_pairing_runs_and_is_bounded() {
        let haps = pseudo_haps(200, 10, 23);
        let genos = GenotypeMatrix::from_haplotype_pairs(&haps).unwrap();
        for mode in [PlinkR2Mode::Dosage, PlinkR2Mode::Em] {
            let m = PlinkKernel::new().mode(mode).r2_matrix(&genos, 2);
            for (_, _, v) in m.iter_upper() {
                assert!(
                    v.is_nan() || (-1e-9..=1.0 + 1e-9).contains(&v),
                    "{mode:?}: {v}"
                );
            }
        }
    }

    #[test]
    fn em_recovers_known_frequencies() {
        use Genotype::*;
        // Construct genotypes from known phased haplotypes:
        // hap pool: AB x 5, Ab x 2, aB x 1, ab x 2 -> pair them up
        let haps_x = [1u8, 1, 1, 1, 1, 1, 1, 0, 0, 0]; // A allele
        let haps_y = [1u8, 1, 1, 1, 1, 0, 0, 1, 0, 0]; // B allele
        let n_ind = 5;
        let mut col_x = Vec::new();
        let mut col_y = Vec::new();
        for i in 0..n_ind {
            let (a1, a2) = (haps_x[2 * i] == 1, haps_x[2 * i + 1] == 1);
            let (b1, b2) = (haps_y[2 * i] == 1, haps_y[2 * i + 1] == 1);
            col_x.push(Genotype::from_haplotypes(a1, a2));
            col_y.push(Genotype::from_haplotypes(b1, b2));
        }
        let g = GenotypeMatrix::from_columns(n_ind, [col_x, col_y]).unwrap();
        let t = pair_table(g.snp_words(0), g.snp_words(1));
        let (p_ab, ..) = em_haplotype_freqs(&t).unwrap();
        // True pAB = 5/10; EM on 5 individuals should land close.
        assert!((p_ab - 0.5).abs() < 0.12, "pAB = {p_ab}");
        let _ = [HomA1, Het, HomA2]; // silence unused-import lint paths
    }

    #[test]
    fn all_missing_column_policy() {
        let g = GenotypeMatrix::all_missing(10, 2);
        let k = PlinkKernel::new();
        assert!(k.r2_pair(&g, 0, 1).is_nan());
        let z = PlinkKernel::new().nan_policy(NanPolicy::Zero);
        assert_eq!(z.r2_pair(&g, 0, 1), 0.0);
    }

    #[test]
    fn words_math() {
        assert_eq!(genotype_words(32), 1);
        assert_eq!(genotype_words(33), 2);
        assert_eq!(genotype_words(64), 2);
    }

    #[test]
    fn threaded_matches_single() {
        let haps = pseudo_haps(64, 16, 25);
        let genos = GenotypeMatrix::from_haplotypes_as_homozygous(&haps);
        let one = PlinkKernel::new().r2_matrix(&genos, 1);
        let many = PlinkKernel::new().r2_matrix(&genos, 6);
        for (a, b) in one.packed().iter().zip(many.packed()) {
            assert!((a == b) || (a.is_nan() && b.is_nan()));
        }
    }
}
