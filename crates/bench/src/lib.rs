//! # ld-bench — benchmark harness reproducing the paper's tables & figures
//!
//! One binary per experiment (see DESIGN.md §5 for the index):
//!
//! | bin        | reproduces |
//! |------------|------------|
//! | `fig3`     | Fig. 3 — % of theoretical peak vs `k`, `GᵀG` (SYRK)    |
//! | `fig4`     | Fig. 4 — same, two distinct genomic matrices (GEMM)    |
//! | `tables`   | Tables I–III — PLINK 1.9 vs OmegaPlus vs GEMM          |
//! | `fig5`     | Fig. 5 — thread scaling beyond physical cores          |
//! | `simd`     | §V — scalar vs SIMD-extract vs software/hardware vector popcount, with the analytical model |
//! | `ablation` | blocking / kernel-shape / popcount-strategy sweeps     |
//! | `cache`    | working-set sweep — the Tables II/III memory-hierarchy mechanism |
//!
//! The library part holds shared plumbing: workload construction, timing
//! loops, and plain-text table rendering, so the binaries stay declarative.

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod workloads;
