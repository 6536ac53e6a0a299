//! # ld-bitmat — bit-packed genomic matrices
//!
//! Storage substrate for the GEMM-based linkage-disequilibrium engine.
//!
//! The central type is [`BitMatrix`]: a binary matrix holding one **SNP per
//! column** and one **sample (sequence/haplotype) per row**, packed 64
//! samples per `u64` word exactly as described in Figure 2 of the paper
//! (the layout introduced by Alachiotis & Weisz, FPGA'16):
//!
//! * each SNP column occupies `words_per_snp = ceil(n_samples / 64)`
//!   consecutive `u64` words,
//! * sample `s` of SNP `j` is bit `s % 64` of word `j * words_per_snp + s/64`,
//! * when `n_samples` is not a multiple of 64 the trailing *padding bits are
//!   zero* — an invariant every kernel relies on, because a stray set bit
//!   would silently corrupt every popcount that touches the last word.
//!
//! The crate also provides:
//!
//! * [`AlignedWords`] — a cache-line (64-byte) aligned `u64` buffer, so that
//!   packed panels used by the BLIS-style kernels never straddle cache lines
//!   unnecessarily;
//! * [`BitMatrixView`] — a borrowed window of consecutive SNP columns (used
//!   by the ω-statistic scan and tiled drivers);
//! * [`ValidityMask`] — per-SNP validity bit-vectors for alignment gaps /
//!   missing data (paper §VII, "Considering alignment gaps");
//! * [`GenotypeMatrix`] — a 2-bit-per-genotype SNP-major matrix in PLINK
//!   `.bed` encoding, the substrate for the PLINK-1.9-style baseline;
//! * [`pack_bits`] / [`unpack_bits`] — the byte→bit ingestion core (64
//!   allele bytes ↔ one word, validated in bulk) behind every text parser
//!   and [`BitMatrix::from_rows`].

#![warn(missing_docs)]

mod aligned;
mod builder;
mod error;
mod genotype;
mod mask;
mod matrix;
mod pack;
mod transpose;
mod view;

pub use aligned::AlignedWords;
pub use builder::BitMatrixBuilder;
pub use error::BitMatError;
pub use genotype::{Genotype, GenotypeMatrix};
pub use mask::ValidityMask;
pub use matrix::{BitMatrix, WORD_BITS};
pub use pack::{pack_bits, unpack_bits};
pub use transpose::transpose_64x64;
pub use view::BitMatrixView;

/// Number of `u64` words needed to hold `bits` bits.
#[inline]
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Mask selecting the valid (non-padding) bits of the **last** word of a
/// column with `bits` logical bits. All 64 bits are valid when
/// `bits % 64 == 0` (and `bits > 0`).
#[inline]
pub const fn tail_mask(bits: usize) -> u64 {
    let r = bits % 64;
    if r == 0 {
        u64::MAX
    } else {
        (1u64 << r) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn tail_mask_covers_remainder() {
        assert_eq!(tail_mask(64), u64::MAX);
        assert_eq!(tail_mask(128), u64::MAX);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(3), 0b111);
        assert_eq!(tail_mask(63), u64::MAX >> 1);
    }
}
