//! # ld-io — genomic file formats
//!
//! Parsers and writers for the formats the compared tools consume
//! (§VI of the paper):
//!
//! * [`ms`] — Hudson's `ms` coalescent-simulator output (what the paper's
//!   Datasets B and C were generated as): `segsites:`/`positions:` blocks
//!   of 0/1 haplotype rows, multiple replicates per stream.
//! * [`vcf`] — a minimal VCF subset: `GT`-first FORMAT, haploid or phased/
//!   unphased diploid genotypes, biallelic SNVs (what an LD tool needs
//!   from 1000-Genomes-style files).
//! * [`bed`] — PLINK binary triples `.bed`/`.bim`/`.fam` in SNP-major
//!   2-bit encoding (the input PLINK 1.9 benchmarks on).
//! * [`text`] — plain 0/1 matrices and the PLINK-style `--r2` pair-table
//!   output format.
//!
//! All readers take `io::Read`/`io::BufRead`, writers take `io::Write`;
//! path helpers wrap them with buffered files. Which whole-matrix format a
//! path's extension names is decided once, by [`MatrixFormat`].
//!
//! Durable artifacts are written **atomically**: [`atomic::write_atomic`]
//! stages to a temp sibling, fsyncs, then renames — a crashed or cancelled
//! writer never leaves a truncated file under the final name. The same
//! helper backs [`checkpoint::AtomicFileSink`], the filesystem
//! implementation of `ld-core`'s checkpoint persistence for interruptible
//! runs.
//!
//! ## Hardened against bad input
//!
//! Every text parser enforces hard input limits ([`Limits`]: line length,
//! site count, sample count) through a byte-capped line reader, detects
//! duplicate sample identifiers, and reports binary short-reads as typed
//! truncation errors — malformed or hostile inputs fail with a located
//! [`IoError`], never an OOM or panic. The `read_*_with` variants accept
//! caller-tuned limits; the plain `read_*` forms use permissive defaults.

#![warn(missing_docs)]

pub mod atomic;
pub mod bed;
pub mod checkpoint;
mod error;
pub mod fasta;
mod format;
pub mod ldmatrix;
mod limits;
pub mod ms;
#[cfg(test)]
mod oracle;
pub mod ped;
mod rows;
pub mod text;
pub mod tilestore;
pub mod vcf;

pub use error::IoError;
pub use format::MatrixFormat;
pub use limits::Limits;
