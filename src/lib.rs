//! # gemm-ld — linkage disequilibrium as dense linear algebra
//!
//! Facade crate re-exporting the whole workspace. See the README for the
//! architecture and `DESIGN.md` for the paper-reproduction map.
//!
//! ```
//! use gemm_ld::prelude::*;
//!
//! // 4 haplotypes × 3 SNPs
//! let g = BitMatrix::from_rows(4, 3, [
//!     [1u8, 1, 0],
//!     [1, 1, 0],
//!     [0, 0, 1],
//!     [0, 1, 1],
//! ]).unwrap();
//! let engine = LdEngine::new();
//! let r2 = engine.try_stat_matrix(&g, LdStats::RSquared)?;
//! // SNPs 0 and 1 are strongly associated:
//! assert!(r2.get(0, 1) > 0.3);
//! # Ok::<(), gemm_ld::core::LdError>(())
//! ```

pub use ld_assoc as assoc;
pub use ld_baselines as baselines;
pub use ld_bitmat as bitmat;
pub use ld_core as core;
pub use ld_data as data;
pub use ld_ext as ext;
pub use ld_io as io;
pub use ld_kernels as kernels;
pub use ld_omega as omega;
pub use ld_parallel as parallel;
pub use ld_popcount as popcount;

/// Convenience re-exports of the most common types.
pub mod prelude {
    pub use ld_assoc::{allelic_scan, PhenotypeSimulator};
    pub use ld_bitmat::{BitMatrix, BitMatrixBuilder, BitMatrixView, GenotypeMatrix, ValidityMask};
    pub use ld_core::{DecayProfile, LdEngine, LdMatrix, LdPair, LdStats, NanPolicy};
    pub use ld_data::HaplotypeSimulator;
    pub use ld_kernels::{BlockSizes, KernelKind};
    pub use ld_omega::{GridScan, OmegaScan};
}
