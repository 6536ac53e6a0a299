//! Finite-sites-model LD (paper §VII, "Facilitating finite sites models").
//!
//! Under the FSM a site carries up to four states (A/C/G/T) plus gaps and
//! ambiguity codes, so each SNP becomes **four bit-planes** — one presence
//! vector per nucleotide — and LD generalizes to Zaykin's coefficient-based
//! statistic (the paper's Eq. 6):
//!
//! ```text
//! T_ij = ((v_i − 1)(v_j − 1) v_ij / (v_i v_j)) · Σ_{s_i, s_j ∈ {A,C,G,T}} r²_{s_i s_j}
//! ```
//!
//! where `v_i` is the number of states present at SNP `i`, `v_ij` the
//! number of jointly-valid samples, and each `r²_{s_i s_j}` is the ordinary
//! Eq. 2 applied to the indicator vectors of state `s_i` at SNP `i` and
//! state `s_j` at SNP `j`, restricted to the valid-pair mask. The worst
//! case costs 16 plane popcount products per pair — the 16× factor the
//! paper quotes. Since a nucleotide plane lies inside the validity plane,
//! every masked count is a product of two planes, so
//! [`NucleotideMatrix::t_matrix`] stores each site as five adjacent
//! columns `[A, C, G, T, valid]` and runs one SYRK over them.

use crate::interleave;
use ld_bitmat::{BitMatrix, BitMatrixBuilder, ValidityMask};
use ld_core::{ld_pair_from_counts, LdEngine, LdError, LdMatrix, NanPolicy, Statistic};

/// The four DNA states.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Nucleotide {
    /// Adenine.
    A,
    /// Cytosine.
    C,
    /// Guanine.
    G,
    /// Thymine.
    T,
}

impl Nucleotide {
    /// All four states, plane order.
    pub const ALL: [Nucleotide; 4] = [Nucleotide::A, Nucleotide::C, Nucleotide::G, Nucleotide::T];

    /// Parses an (upper- or lower-case) base; gaps/ambiguity return `None`.
    pub fn from_char(c: char) -> Option<Self> {
        match c.to_ascii_uppercase() {
            'A' => Some(Nucleotide::A),
            'C' => Some(Nucleotide::C),
            'G' => Some(Nucleotide::G),
            'T' | 'U' => Some(Nucleotide::T),
            _ => None,
        }
    }

    /// Plane index 0..4.
    pub fn index(self) -> usize {
        match self {
            Nucleotide::A => 0,
            Nucleotide::C => 1,
            Nucleotide::G => 2,
            Nucleotide::T => 3,
        }
    }
}

/// A multi-state site matrix: four presence bit-planes plus validity.
///
/// Plane `p` is a [`BitMatrix`] whose bit `(s, j)` says "sample `s` carries
/// nucleotide `p` at site `j`". Gaps and ambiguity codes set no plane and
/// are invalid in the mask.
#[derive(Clone, Debug)]
pub struct NucleotideMatrix {
    planes: [BitMatrix; 4],
    mask: ValidityMask,
    n_samples: usize,
    n_sites: usize,
}

impl NucleotideMatrix {
    /// Builds from site-major character columns (`'A' 'C' 'G' 'T'`, with
    /// `'-'`, `'N'`, etc. treated as invalid).
    pub fn from_site_columns<C, I>(n_samples: usize, cols: I) -> Self
    where
        C: AsRef<[char]>,
        I: IntoIterator<Item = C>,
    {
        let cols: Vec<C> = cols.into_iter().collect();
        let mut plane_builders: Vec<BitMatrixBuilder> =
            (0..4).map(|_| BitMatrixBuilder::new(n_samples)).collect();
        let mut valid_builder = BitMatrixBuilder::new(n_samples);
        for col in &cols {
            let col = col.as_ref();
            assert_eq!(col.len(), n_samples, "site column length mismatch");
            let states: Vec<Option<Nucleotide>> =
                col.iter().map(|&c| Nucleotide::from_char(c)).collect();
            for (p, b) in plane_builders.iter_mut().enumerate() {
                b.push_snp_bits(states.iter().map(|s| s.map(Nucleotide::index) == Some(p)))
                    .expect("fixed length");
            }
            valid_builder
                .push_snp_bits(states.iter().map(Option::is_some))
                .expect("fixed length");
        }
        let mut planes = plane_builders.into_iter().map(BitMatrixBuilder::finish);
        let planes = [
            planes.next().unwrap(),
            planes.next().unwrap(),
            planes.next().unwrap(),
            planes.next().unwrap(),
        ];
        let mask = ValidityMask::from_bitmatrix(&valid_builder.finish());
        Self {
            planes,
            mask,
            n_samples,
            n_sites: cols.len(),
        }
    }

    /// Builds from site-major strings (one string per site).
    pub fn from_site_strings<S: AsRef<str>, I: IntoIterator<Item = S>>(
        n_samples: usize,
        cols: I,
    ) -> Self {
        let char_cols: Vec<Vec<char>> = cols
            .into_iter()
            .map(|s| s.as_ref().chars().collect())
            .collect();
        Self::from_site_columns(n_samples, char_cols)
    }

    /// Number of samples.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// The presence plane of one nucleotide.
    pub fn plane(&self, n: Nucleotide) -> &BitMatrix {
        &self.planes[n.index()]
    }

    /// The validity mask (invalid = gap/ambiguous).
    pub fn mask(&self) -> &ValidityMask {
        &self.mask
    }

    /// Number of distinct states present at site `j` (`v_j ≤ 4`).
    pub fn states_present(&self, j: usize) -> usize {
        self.planes.iter().filter(|p| p.ones_in_snp(j) > 0).count()
    }

    /// Zaykin's `T` statistic for one site pair (the paper's Eq. 6).
    /// Returns NaN (or 0 per policy) when either site is monomorphic
    /// (`v ≤ 1`) or no jointly-valid samples exist.
    pub fn t_statistic(&self, i: usize, j: usize, policy: NanPolicy) -> f64 {
        let v_i = self.states_present(i);
        let v_j = self.states_present(j);
        let v_ij = self.mask.pair_valid_count(i, j);
        if v_i <= 1 || v_j <= 1 || v_ij == 0 {
            return policy.undefined();
        }
        let mut sum_r2 = 0.0;
        for si in Nucleotide::ALL {
            let pi = self.planes[si.index()].snp_words(i);
            for sj in Nucleotide::ALL {
                let pj = self.planes[sj.index()].snp_words(j);
                // masked counts for the two indicator vectors
                let ci = self.mask.snp_words(i);
                let cj = self.mask.snp_words(j);
                let mut ones_i = 0u64;
                let mut ones_j = 0u64;
                let mut both = 0u64;
                for w in 0..pi.len() {
                    let c = ci[w] & cj[w];
                    let a = c & pi[w];
                    let b = c & pj[w];
                    ones_i += a.count_ones() as u64;
                    ones_j += b.count_ones() as u64;
                    both += (a & b).count_ones() as u64;
                }
                let r2 = ld_pair_from_counts(ones_i, ones_j, both, v_ij, NanPolicy::Zero).r2;
                sum_r2 += r2;
            }
        }
        let (v_i, v_j, v_ij) = (v_i as f64, v_j as f64, v_ij as f64);
        ((v_i - 1.0) * (v_j - 1.0) * v_ij / (v_i * v_j)) * sum_r2
    }

    /// All-pairs `T` matrix: the panel of planes `[A, C, G, T, valid]` per
    /// site and one engine run of [`Statistic::ZaykinT`], under the
    /// engine's threads, kernel, blocks, budget and NaN policy — the 16
    /// state products of every pair come out of one SYRK.
    /// `to_bits`-equal to [`NucleotideMatrix::t_statistic`].
    pub fn t_matrix(&self, engine: &LdEngine) -> Result<LdMatrix, LdError> {
        let panel = interleave(self.n_samples, self.n_sites, 5, |j, p, out| {
            out.copy_from_slice(match p {
                4 => self.mask.snp_words(j),
                p => self.planes[p].snp_words(j),
            })
        });
        engine.try_stat_matrix(&panel, Statistic::ZaykinT)
    }

    /// Reduces a *biallelic* nucleotide matrix back to a 0/1 matrix
    /// (derived = the rarer of the two present states), for consistency
    /// checks against the ISM pipeline.
    pub fn to_biallelic(&self) -> Option<BitMatrix> {
        let mut b = BitMatrixBuilder::new(self.n_samples);
        for j in 0..self.n_sites {
            let present: Vec<&BitMatrix> = self
                .planes
                .iter()
                .filter(|p| p.ones_in_snp(j) > 0)
                .collect();
            if present.len() != 2 {
                return None;
            }
            let (a, c) = (present[0], present[1]);
            let derived = if a.ones_in_snp(j) <= c.ones_in_snp(j) {
                a
            } else {
                c
            };
            b.push_snp_bits((0..self.n_samples).map(|s| derived.get(s, j)))
                .ok()?;
        }
        Some(b.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::LdEngine;

    #[test]
    fn planes_partition_valid_samples() {
        let m = NucleotideMatrix::from_site_strings(5, ["ACGT-", "AAccN"]);
        assert_eq!(m.n_sites(), 2);
        assert_eq!(m.n_samples(), 5);
        // site 0: one of each + gap
        assert_eq!(m.states_present(0), 4);
        assert_eq!(m.mask().valid_count(0), 4);
        // site 1: A,A,C,C,N
        assert_eq!(m.states_present(1), 2);
        assert_eq!(m.mask().valid_count(1), 4);
        assert_eq!(m.plane(Nucleotide::A).ones_in_snp(1), 2);
        assert_eq!(m.plane(Nucleotide::C).ones_in_snp(1), 2);
    }

    #[test]
    fn nucleotide_parsing() {
        assert_eq!(Nucleotide::from_char('a'), Some(Nucleotide::A));
        assert_eq!(Nucleotide::from_char('U'), Some(Nucleotide::T));
        assert_eq!(Nucleotide::from_char('-'), None);
        assert_eq!(Nucleotide::from_char('N'), None);
    }

    #[test]
    fn biallelic_t_tracks_r2() {
        // Perfectly linked biallelic sites: T should be maximal relative to
        // the same sites shuffled into equilibrium.
        let linked = NucleotideMatrix::from_site_strings(8, ["AAAACCCC", "GGGGTTTT"]);
        let equil = NucleotideMatrix::from_site_strings(8, ["AAAACCCC", "GGTTGGTT"]);
        let t_linked = linked.t_statistic(0, 1, NanPolicy::Propagate);
        let t_equil = equil.t_statistic(0, 1, NanPolicy::Propagate);
        assert!(
            t_linked > 5.0 * t_equil.max(1e-9),
            "linked {t_linked} equil {t_equil}"
        );
    }

    #[test]
    fn eq6_value_on_biallelic_pair() {
        // For biallelic sites, Σ r² over the 2×2 present state pairs is
        // 4·r² of the 0/1 encoding, so
        // T = (1·1·n / 4) · 4 r² = n · r².
        let m = NucleotideMatrix::from_site_strings(6, ["AACCAC", "GGTTGT"]);
        let bi = m.to_biallelic().unwrap();
        let r2 = LdEngine::new().ld_pair(&bi, 0, 1).r2;
        let t = m.t_statistic(0, 1, NanPolicy::Propagate);
        assert!((t - 6.0 * r2).abs() < 1e-9, "t {t} vs n·r² {}", 6.0 * r2);
    }

    #[test]
    fn monomorphic_site_is_undefined() {
        let m = NucleotideMatrix::from_site_strings(4, ["AAAA", "ACAC"]);
        assert!(m.t_statistic(0, 1, NanPolicy::Propagate).is_nan());
        assert_eq!(m.t_statistic(0, 1, NanPolicy::Zero), 0.0);
    }

    #[test]
    fn gaps_reduce_v_ij() {
        let with_gap = NucleotideMatrix::from_site_strings(4, ["ACAC", "GT-G"]);
        assert_eq!(with_gap.mask().pair_valid_count(0, 1), 3);
    }

    #[test]
    fn t_matrix_matches_pairwise() {
        let m = NucleotideMatrix::from_site_strings(
            10,
            ["ACGTACGTAC", "AACCGGTTAA", "ACACACACAC", "TTTTTAAAAA"],
        );
        let engine = LdEngine::new().threads(3).nan_policy(NanPolicy::Zero);
        let mat = m.t_matrix(&engine).unwrap();
        for i in 0..4 {
            for j in i..4 {
                let want = m.t_statistic(i, j, NanPolicy::Zero);
                assert!(mat.get(i, j).to_bits() == want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn to_biallelic_rejects_multiallelic() {
        let m = NucleotideMatrix::from_site_strings(4, ["ACGT"]);
        assert!(m.to_biallelic().is_none());
    }
}
