//! Per-pair LD statistics (the paper's §II equations).

/// How to report LD when a SNP is monomorphic in the sample
/// (`p ∈ {0, 1}`), which makes the `r²` denominator zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NanPolicy {
    /// Report `NaN` (the statistically honest choice; default).
    #[default]
    Propagate,
    /// Report `0.0` (what several pipelines, including PLINK table output
    /// consumers, expect so downstream sums stay finite).
    Zero,
}

/// Which pairwise statistic a matrix-level computation should produce.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LdStats {
    /// Squared Pearson correlation `r²` (Eq. 2). The common choice.
    #[default]
    RSquared,
    /// Raw disequilibrium coefficient `D` (Eq. 1/5).
    D,
    /// Lewontin's `D' = D / D_max`.
    DPrime,
}

/// What a run computes per site pair: the slab driver's epilogue, and the
/// number of bit planes it reads per site.
///
/// The driver's grid, windows, ledger and sinks are in *sites*; the panel
/// stores each site's `k` planes as `k` adjacent columns, so one SYRK over
/// it yields every plane product, and the epilogue reads a site pair's
/// `k × k` count block (paper §VII: gaps, the finite-sites model and
/// Tanimoto are the same GEMM with a different pack and a different tail).
/// Checkpoints, shards and tile stores carry [`LdStats`] only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Statistic {
    /// An LD statistic; one allele plane per SNP.
    Ld(LdStats),
    /// Tanimoto similarity (Eq. 7); one fingerprint plane per compound.
    Tanimoto,
    /// `r²` over each pair's jointly valid samples (§VII, alignment gaps);
    /// planes `[s ∧ c, c]` per SNP, `c` the validity bits.
    MaskedR2,
    /// Zaykin's `T` (Eq. 6); planes `[A, C, G, T, valid]` per site.
    ZaykinT,
}

impl Statistic {
    /// Bit planes per site: adjacent panel columns `k·j .. k·j + k`.
    pub fn planes(self) -> usize {
        match self {
            Self::Ld(_) | Self::Tanimoto => 1,
            Self::MaskedR2 => 2,
            Self::ZaykinT => 5,
        }
    }
}

impl From<LdStats> for Statistic {
    fn from(stat: LdStats) -> Self {
        Self::Ld(stat)
    }
}

impl NanPolicy {
    /// The value reported where a statistic is undefined: `NaN` or `0.0`.
    pub fn undefined(self) -> f64 {
        match self {
            Self::Propagate => f64::NAN,
            Self::Zero => 0.0,
        }
    }
}

/// The complete set of statistics for one SNP pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LdPair {
    /// Derived-allele frequency of the first SNP (`P(A)`).
    pub p_i: f64,
    /// Derived-allele frequency of the second SNP (`P(B)`).
    pub p_j: f64,
    /// Haplotype frequency of the derived-derived haplotype (`P(AB)`).
    pub p_ij: f64,
    /// `D = P(AB) − P(A)P(B)`.
    pub d: f64,
    /// Lewontin's normalized `D' = D / D_max` (NaN if monomorphic).
    pub d_prime: f64,
    /// `r² = D² / (p_i(1−p_i) p_j(1−p_j))` (subject to [`NanPolicy`]).
    pub r2: f64,
}

/// Computes an [`LdPair`] from raw co-occurrence counts:
/// `c_ii = |s_i|`, `c_jj = |s_j|`, `c_ij = |s_i ∧ s_j|`, over `n` samples.
///
/// These are exactly the three popcounts the GEMM produces (diagonal,
/// diagonal, off-diagonal), so matrix-level code funnels through here.
pub fn ld_pair_from_counts(c_ii: u64, c_jj: u64, c_ij: u64, n: u64, policy: NanPolicy) -> LdPair {
    debug_assert!(
        c_ij <= c_ii.min(c_jj),
        "intersection exceeds operand counts"
    );
    debug_assert!(c_ii <= n && c_jj <= n, "counts exceed sample size");
    let nf = n as f64;
    ld_pair_from_freqs(c_ii as f64 / nf, c_jj as f64 / nf, c_ij as f64 / nf, policy)
}

/// Computes an [`LdPair`] from frequencies (Eq. 1, 2 and `D'`).
pub fn ld_pair_from_freqs(p_i: f64, p_j: f64, p_ij: f64, policy: NanPolicy) -> LdPair {
    let d = p_ij - p_i * p_j;
    let denom = p_i * (1.0 - p_i) * p_j * (1.0 - p_j);
    let r2 = if denom > 0.0 {
        (d * d) / denom
    } else {
        policy.undefined()
    };
    let d_max = if d >= 0.0 {
        (p_i * (1.0 - p_j)).min(p_j * (1.0 - p_i))
    } else {
        (p_i * p_j).min((1.0 - p_i) * (1.0 - p_j))
    };
    let d_prime = if d_max > 0.0 {
        (d / d_max).abs()
    } else {
        policy.undefined()
    };
    LdPair {
        p_i,
        p_j,
        p_ij,
        d,
        d_prime,
        r2,
    }
}

/// Tanimoto similarity `x / (p + q − x)` (Eq. 7) of two fingerprints with
/// `p` and `q` set bits, `x` of them shared, with the empty-∪-empty
/// convention `Tanimoto(∅, ∅) = 1`.
#[inline]
pub fn tanimoto_from_counts(p: u64, q: u64, x: u64) -> f64 {
    let denom = p + q - x;
    if denom == 0 {
        1.0
    } else {
        x as f64 / denom as f64
    }
}

/// Scalar transform used by the matrix paths: counts → the selected
/// statistic, with the division-free early-outs inlined.
#[inline]
pub(crate) fn stat_from_counts(
    stat: LdStats,
    c_ii: u32,
    c_jj: u32,
    c_ij: u32,
    inv_n: f64,
    policy: NanPolicy,
) -> f64 {
    let p_i = c_ii as f64 * inv_n;
    let p_j = c_jj as f64 * inv_n;
    let p_ij = c_ij as f64 * inv_n;
    let d = p_ij - p_i * p_j;
    match stat {
        LdStats::D => d,
        LdStats::RSquared => {
            let denom = p_i * (1.0 - p_i) * p_j * (1.0 - p_j);
            if denom > 0.0 {
                (d * d) / denom
            } else {
                policy.undefined()
            }
        }
        LdStats::DPrime => {
            let d_max = if d >= 0.0 {
                (p_i * (1.0 - p_j)).min(p_j * (1.0 - p_i))
            } else {
                (p_i * p_j).min((1.0 - p_i) * (1.0 - p_j))
            };
            if d_max > 0.0 {
                (d / d_max).abs()
            } else {
                policy.undefined()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ld() {
        // identical SNPs: p=0.5, P(AB)=0.5 -> D=0.25, r2=1, D'=1
        let p = ld_pair_from_counts(2, 2, 2, 4, NanPolicy::Propagate);
        assert!((p.d - 0.25).abs() < 1e-12);
        assert!((p.r2 - 1.0).abs() < 1e-12);
        assert!((p.d_prime - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_repulsion() {
        // complementary SNPs: never co-occur
        let p = ld_pair_from_counts(2, 2, 0, 4, NanPolicy::Propagate);
        assert!((p.d + 0.25).abs() < 1e-12);
        assert!((p.r2 - 1.0).abs() < 1e-12);
        assert!((p.d_prime - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linkage_equilibrium() {
        // p_i = p_j = 0.5, P(AB) = 0.25 = p_i p_j -> D = 0
        let p = ld_pair_from_counts(4, 4, 2, 8, NanPolicy::Propagate);
        assert_eq!(p.d, 0.0);
        assert_eq!(p.r2, 0.0);
        assert_eq!(p.d_prime, 0.0);
    }

    #[test]
    fn monomorphic_policies() {
        let nan = ld_pair_from_counts(0, 2, 0, 4, NanPolicy::Propagate);
        assert!(nan.r2.is_nan());
        assert!(nan.d_prime.is_nan());
        let zero = ld_pair_from_counts(0, 2, 0, 4, NanPolicy::Zero);
        assert_eq!(zero.r2, 0.0);
        assert_eq!(zero.d_prime, 0.0);
        // fixed SNP at frequency 1 is also monomorphic
        let fixed = ld_pair_from_counts(4, 2, 2, 4, NanPolicy::Propagate);
        assert!(fixed.r2.is_nan());
    }

    #[test]
    fn r2_is_bounded() {
        // exhaustive small-sample sweep: r² ∈ [0,1] whenever defined
        let n = 8u64;
        for c_ii in 0..=n {
            for c_jj in 0..=n {
                let lo = (c_ii + c_jj).saturating_sub(n);
                for c_ij in lo..=c_ii.min(c_jj) {
                    let p = ld_pair_from_counts(c_ii, c_jj, c_ij, n, NanPolicy::Propagate);
                    if !p.r2.is_nan() {
                        assert!(
                            (-1e-12..=1.0 + 1e-12).contains(&p.r2),
                            "r2={} for ({c_ii},{c_jj},{c_ij})",
                            p.r2
                        );
                    }
                    if !p.d_prime.is_nan() {
                        assert!(p.d_prime <= 1.0 + 1e-9, "D'={}", p.d_prime);
                    }
                }
            }
        }
    }

    #[test]
    fn symmetry_in_arguments() {
        let a = ld_pair_from_counts(3, 5, 2, 10, NanPolicy::Propagate);
        let b = ld_pair_from_counts(5, 3, 2, 10, NanPolicy::Propagate);
        assert_eq!(a.r2, b.r2);
        assert_eq!(a.d, b.d);
        assert_eq!(a.d_prime, b.d_prime);
    }

    #[test]
    fn stat_selector_consistency() {
        let (c_ii, c_jj, c_ij, n) = (30u32, 45u32, 25u32, 100u64);
        let pair = ld_pair_from_counts(
            c_ii as u64,
            c_jj as u64,
            c_ij as u64,
            n,
            NanPolicy::Propagate,
        );
        let inv_n = 1.0 / n as f64;
        assert_eq!(
            stat_from_counts(LdStats::D, c_ii, c_jj, c_ij, inv_n, NanPolicy::Propagate),
            pair.d
        );
        assert_eq!(
            stat_from_counts(
                LdStats::RSquared,
                c_ii,
                c_jj,
                c_ij,
                inv_n,
                NanPolicy::Propagate
            ),
            pair.r2
        );
        assert_eq!(
            stat_from_counts(
                LdStats::DPrime,
                c_ii,
                c_jj,
                c_ij,
                inv_n,
                NanPolicy::Propagate
            ),
            pair.d_prime
        );
    }

    #[test]
    fn known_textbook_example() {
        // Haplotype counts: AB=5, Ab=1, aB=1, ab=3 over n=10
        // p_A = 0.6, p_B = 0.6, P(AB) = 0.5, D = 0.5 - 0.36 = 0.14
        let p = ld_pair_from_freqs(0.6, 0.6, 0.5, NanPolicy::Propagate);
        assert!((p.d - 0.14).abs() < 1e-12);
        assert!((p.r2 - 0.14 * 0.14 / (0.24 * 0.24)).abs() < 1e-12);
        // D_max = min(0.6*0.4, 0.6*0.4) = 0.24 -> D' = 0.5833..
        assert!((p.d_prime - 0.14 / 0.24).abs() < 1e-12);
    }
}
