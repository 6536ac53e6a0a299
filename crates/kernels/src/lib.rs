//! # ld-kernels — GotoBLAS/BLIS-layered GEMM over the AND/POPCNT semiring
//!
//! This crate is the paper's core contribution: computing the pairwise
//! *co-occurrence count matrix*
//!
//! ```text
//! C[i, j] = Σ_p POPCNT( A_p[i] & B_p[j] )        (p over packed words)
//! ```
//!
//! — the integer numerator of the haplotype-frequency matrix
//! `H = (1/N) GᵀG` — using the layered blocking scheme of GotoBLAS/BLIS
//! (paper §III–IV, Figure 1):
//!
//! ```text
//! for jc in 0..n  step NC      (columns of B/C)          — L3-sized B̃
//!   for pc in 0..k step KC     (packed words)            — rank-k update
//!     pack B̃: KC × NC words, interleaved in NR-wide micro-panels
//!     for ic in 0..m step MC   (rows of C)               — L2-sized Ã
//!       pack Ã: MC × KC words, interleaved in MR-wide micro-panels
//!       for jr in 0..nc step NR
//!         for ir in 0..mc step MR
//!           micro-kernel: MR×NR accumulators over KC words
//! ```
//!
//! The "multiply" of the classical GEMM becomes a bitwise AND, the "add" a
//! population count plus integer accumulate; everything else — packing for
//! contiguity, cache blocking, register tiling, loop parallelism — carries
//! over from the dense-linear-algebra playbook untouched, which is exactly
//! the paper's point.
//!
//! Micro-kernels ([`KernelKind`]):
//!
//! * `Scalar` — `MR×NR` unrolled AND+`POPCNT`+ADD (the paper's §IV kernel;
//!   theoretical peak 3 ops/cycle ⇒ 1 word-pair/cycle);
//! * `Avx2ExtractInsert` — the §V-A anti-pattern (SIMD AND, lane extract →
//!   scalar `POPCNT` → insert, SIMD add): implemented to *measure* the
//!   paper's claim that it cannot beat scalar;
//! * `Avx2Mula` — software vector popcount (`PSHUFB` nibble LUT + `PSADBW`);
//! * `Avx512Vpopcnt` — hardware vector popcount (`VPOPCNTQ`), the §V-B
//!   instruction the paper calls for.
//!
//! Drivers: [`gemm_counts`] (two matrices, all `m×n` outputs — Fig. 4,
//! long-range LD), [`syrk_counts`] (one matrix, upper triangle + mirror —
//! Fig. 3, the usual all-pairs case), and their threaded forms
//! ([`gemm_counts_mt`], [`syrk_counts_buf`], [`syrk_counts_mt`]),
//! partitioned the BLIS way over rows of C (Tables I–III, Fig. 5). This
//! crate spawns no thread: the threaded forms hand their row blocks to
//! `ld_parallel`'s one claim loop and return its first worker panic as
//! an `ld_parallel::WorkerPanic`.

#![warn(missing_docs)]

pub mod clock;
pub mod gemm;
pub mod micro;
pub mod pack;
pub mod params;
pub mod profile;
pub mod reference;
pub mod syrk;

pub use gemm::{gemm_counts, gemm_counts_buf, gemm_counts_mt};
pub use micro::{Kernel, KernelKind, UnsupportedKernel};
pub use params::{BlockSizes, InvalidBlockSizes};
pub use profile::{CpuProfile, ProfileError, TunedParams, PROFILE_SCHEMA_VERSION};
pub use syrk::{
    mirror_upper_to_lower, syrk_counts, syrk_counts_buf, syrk_counts_mt, syrk_slab_counts,
};
