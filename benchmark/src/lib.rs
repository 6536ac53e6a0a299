//! `ldbench` — one benchmark for gemm-ld's three user paths.
//!
//! * file → pair table: `gemm-ld r2 -i X.ms [-o out.tsv]`
//! * store → pair table: `gemm-ld import` then `gemm-ld r2 --store DIR`
//! * served query: `gemm-ld serve` answering LDS1 `Pair` / `Region`
//!
//! Two binaries share this library. `ldbench` drives only the shipped
//! surfaces (the `gemm-ld` process and the wire protocol) and prints the
//! end-to-end metrics. `ldbench-layers` replays each path from outside,
//! one timed call per public library function, and prints the per-layer
//! metrics. This library holds what both need — workloads, inputs, child
//! accounting, the daemon handle, the load generators, the oracle — and
//! uses only `ld-data`, `ld-baselines` and `ld-serve`'s client (plus the
//! `BitMatrix` / `LdMatrix` types), so a change to a layer's entry point
//! can break the replay without breaking the end-to-end numbers.

pub mod args;
pub mod child;
pub mod daemon;
pub mod inputs;
pub mod loadgen;
pub mod metrics;
pub mod oracle;
pub mod scratch;
pub mod stats;
pub mod workload;

/// Compute threads handed to every `gemm-ld` process and replayed engine,
/// and the cap on generator threads and connections: the box has 2 vCPUs.
pub const THREADS: usize = 2;
