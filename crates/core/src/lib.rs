//! # ld-core — linkage disequilibrium as dense linear algebra
//!
//! The public API of the GEMM-LD system. Everything the paper's §II derives
//! lives here:
//!
//! * allele frequencies `p_i = (s_iᵀ s_i)/N`                     (Eq. 3)
//! * haplotype frequencies `P_ij = (s_iᵀ s_j)/N`                 (Eq. 4)
//! * `D_ij = P_ij − p_i p_j`                                     (Eq. 5)
//! * `r²_ij = D² / (p_i(1−p_i) p_j(1−p_j))`                      (Eq. 2)
//! * `D'` (Lewontin's normalized D), as the standard companion measure
//!
//! computed for **all pairs at once** through the blocked AND/POPCNT GEMM
//! of `ld-kernels` (`H = (1/N) GᵀG`, then the rank-1 allele-frequency
//! correction — §II-B).
//!
//! Entry point: [`LdEngine`] (kernel/threads/blocking configuration) with
//!
//! * [`LdEngine::try_stat_matrix`] — all `N(N+1)/2` values, triangle-packed
//!   ([`LdMatrix`]; transient memory bounded by `threads × slab × N` u32 —
//!   never the `N × N` counts matrix);
//! * [`LdEngine::try_cross_stat_matrix`] — all `m × n` values between two
//!   SNP sets (long-range LD / distant genes, Fig. 4);
//! * [`LdEngine::try_stat_rows_with`] — streaming row slabs
//!   ([`RowSlabVisit`]) to a visitor the worker team shares, for matrices
//!   too large to materialize at all, optionally under a column band ([`RunControl::with_band`]: only pairs within a
//!   window, the shape [`BandedLdMatrix`], [`DecayProfile`],
//!   [`haplotype_blocks`] and [`prune_pairwise`] are visitors of);
//! * [`LdEngine::r2_staircase`] + [`LdEngine::try_r2_pairs_with`] — the
//!   pairs with `r² ≥ t` only, computed on a frequency-sorted staircase
//!   that skips every pair whose allele frequencies cap it below `t`
//!   ([`staircase`]);
//! * [`LdEngine::ld_pair`] / [`ld_pair_from_counts`] — single-pair
//!   statistics ([`LdPair`]) for spot checks and downstream tools.
//!
//! Every all-pairs form is the **one slab driver** of [`driver`] —
//! `run(source, sink, control)` — with a different pair of ends: the
//! [`Source`] says where the genotypes live (a matrix in RAM, borrowed
//! zero-copy, or a chunked [`tilestore`] read in windows sized to the
//! budget so the input never has to fit in memory — once, when the
//! budget holds it) and with that the parallel axis,
//! budget model, read schedule and slab order ([`source`]); the sink
//! (packed triangle, row visitor, shard) says where a
//! row's span goes and what "slab complete" means; the control carries
//! the two windows on the grid (shard rows, band columns). The statistic bytes
//! are identical across all of them ([`fused`] holds the one transform
//! body). The statistic is the driver's epilogue: besides the [`LdStats`],
//! a [`Statistic`] can be Tanimoto similarity, masked `r²` or Zaykin's `T`
//! (§VII), read from a panel of `k` bit planes per site with the same one
//! SYRK per slab.
//!
//! Long batch scans are **interruptible and resumable**: the `_with`
//! entry points ([`LdEngine::try_stat_matrix_with`] and friends) take a
//! [`RunControl`] bundling a shared [`CancelToken`], a monotonic
//! [`Deadline`] and a [`CheckpointPlan`] (periodic persistence via any
//! [`CheckpointSink`], plus validated resume). Cancellation lands on slab
//! boundaries — never mid-kernel — and surfaces as [`LdError::Cancelled`]
//! with the completed-slab count; a resumed run is bit-identical to an
//! uninterrupted one (see [`checkpoint`]), also across sources. Runs
//! split across processes by slab range and merge back bit-identically
//! ([`shard`]).

#![warn(missing_docs)]

pub mod banded;
pub mod blocks;
pub mod checkpoint;
pub mod control;
pub mod decay;
pub mod driver;
mod engine;
pub mod error;
pub mod fused;
mod matrix;
pub mod prune;
pub mod shard;
pub mod source;
pub mod staircase;
mod stats;
pub mod tilestore;

pub use banded::BandedLdMatrix;
pub use blocks::{haplotype_blocks, solid_spine_blocks, tag_snps};
pub use checkpoint::{
    crc32, matrix_fingerprint, CheckpointSink, CheckpointState, Fingerprinter, MemorySink,
    SlabRecord,
};
pub use control::{CancelToken, CheckpointPlan, Deadline, RunControl};
pub use decay::{DecayBin, DecayProfile};
pub use engine::LdEngine;
pub use error::{LdError, MemoryBudget, WorkerPanic};
pub use fused::{in_row_order, RowSlabVisit};
pub use matrix::{CrossLdMatrix, LdMatrix};
pub use prune::prune_pairwise;
pub use shard::{merge_shard_states, plan_shards, state_to_matrix, SlabRange};
pub use source::Source;
pub use staircase::{r2_keeps, KeptPair, R2Staircase};
pub use stats::{
    ld_pair_from_counts, ld_pair_from_freqs, tanimoto_from_counts, LdPair, LdStats, NanPolicy,
    Statistic,
};
pub use tilestore::{
    ChunkEntry, MemoryTileStore, TileManifest, TileSink, TileSource, TileStoreMeta,
};
