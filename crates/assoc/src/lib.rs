//! # ld-assoc — association testing and LD clumping
//!
//! The paper's §I motivates fast LD with genome-wide association studies:
//! LD links the genotyped markers to the unobserved causal variants, and
//! every post-GWAS step (clumping, fine-mapping, tag selection) consumes
//! pairwise LD wholesale. This crate closes that loop on the gemm-ld
//! substrate:
//!
//! * [`phenotype`] — case/control simulation on haplotype matrices
//!   (liability-threshold model over chosen causal SNPs);
//! * [`scan`] — allelic association scans. The 2×2 test's counts are
//!   popcounts of `snp ∧ case_mask`: a whole-matrix scan is one pass of
//!   the same AND+POPCNT machinery the LD kernels run (a matrix-vector
//!   sibling of the paper's matrix-matrix formulation);
//! * [`clump`](mod@clump) — LD clumping (PLINK `--clump`): keep the best-p SNP per
//!   LD neighbourhood, using the blocked engine for the `r²` queries;
//! * [`stats`] — χ² tails, odds ratios, genomic-control λ.

#![warn(missing_docs)]

pub mod clump;
pub mod phenotype;
pub mod scan;
pub mod stats;

pub use clump::{clump, Clump};
pub use phenotype::PhenotypeSimulator;
pub use scan::{allelic_scan, AssocResult};
pub use stats::{chi2_sf_1df, genomic_lambda};
