//! # ld-ext — the paper's §VII "Discussion" extensions, implemented
//!
//! The paper sketches three adaptations of the GEMM-LD framework and
//! leaves them as directions; this crate builds all three, plus §VIII's
//! higher-order LD, in five modules:
//!
//! * [`gaps`] — **alignment gaps / missing data**, pairwise: one validity
//!   bit-vector `c_j` per SNP; for every pair the valid-pair mask
//!   `c_ij = c_i & c_j` restricts all inner products, giving per-pair
//!   effective sample sizes (`(c_ij & s_i)ᵀ(c_ij & s_j) =
//!   POPCNT(c_ij & s_i & s_j)` — §VII's exact formulas).
//! * [`gaps_blocked`] — the same statistic on the engine: every masked
//!   count is a product of the planes `s ∧ c` and `c`.
//! * [`fsm`] — **finite-sites model**: four bit-planes per SNP (A/C/G/T),
//!   Zaykin's coefficient-based statistic `T_ij` (the paper's Eq. 6)
//!   summing `r²` over present state pairs, with gap handling built in.
//! * [`tanimoto`] — **other domains**: Tanimoto 2-D fingerprint similarity
//!   (Eq. 7) computed with the *same* blocked AND/POPCNT SYRK engine —
//!   `Tanimoto(A,B) = x / (p + q − x)` needs exactly the co-occurrence
//!   counts matrix plus its diagonal.
//! * [`higher_order`] — three-locus disequilibrium `D_ABC` over windows.
//!
//! Every all-pairs form here is an interleave of bit planes (where a site
//! has more than one) plus one [`ld_core::LdEngine`] call: the statistic is
//! the slab driver's epilogue ([`ld_core::Statistic`]), so threads, the
//! tuned kernel and blocks, the memory budget, typed errors and the trace
//! are the engine's. The pairwise functions ([`tanimoto_pair`],
//! [`masked_ld_pair`], [`masked_r2_matrix`],
//! [`NucleotideMatrix::t_statistic`]) are the oracles the engine forms are
//! held `to_bits`-equal to.

#![warn(missing_docs)]

pub mod fsm;
pub mod gaps;
pub mod gaps_blocked;
pub mod higher_order;
pub mod tanimoto;

pub use fsm::{Nucleotide, NucleotideMatrix};
pub use gaps::{masked_ld_pair, masked_r2_matrix, MaskedCounts};
pub use gaps_blocked::masked_r2_matrix_blocked;
pub use higher_order::{third_order_d, triple_freqs, TripleFreqs};
pub use tanimoto::{tanimoto_cross, tanimoto_matrix, tanimoto_pair};

use ld_bitmat::{words_for, AlignedWords, BitMatrix};

/// A panel of `k` bit planes per site: column `k·j + p` holds the packed
/// words `plane(j, p, words)` writes for plane `p` of site `j`, so one
/// SYRK over the panel yields every plane product a statistic reads.
fn interleave(
    n_samples: usize,
    sites: usize,
    k: usize,
    plane: impl Fn(usize, usize, &mut [u64]),
) -> BitMatrix {
    let wps = words_for(n_samples);
    let mut words = AlignedWords::zeroed(k * sites * wps);
    for (c, col) in words.chunks_mut(wps.max(1)).enumerate() {
        plane(c / k, c % k, col);
    }
    BitMatrix::from_words(n_samples, k * sites, words).expect("planes keep the padding invariant")
}
