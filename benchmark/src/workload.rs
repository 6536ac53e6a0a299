//! The six workloads: what each runs and why it was chosen.
//!
//! Shapes are sized so one `gemm-ld` process takes 0.3–0.8 s: a 10 s
//! run then holds 12–30 processes and its median is steady on a shared
//! 2-vCPU host with a disk-backed checkout.

use std::ffi::OsString;
use std::path::Path;

/// How a workload is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Whole `gemm-ld r2` processes, back to back.
    Batch,
    /// Daemon; open loop: a fresh connection per `Pair` at a fixed rate.
    ServeOpen,
    /// Daemon; closed loop: persistent connections issuing `Region`s.
    ServeClosed,
}

/// One workload.
#[derive(Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// SNP count (columns of the genomic matrix).
    pub snps: usize,
    /// Sample count (the reduction dimension `k`).
    pub samples: usize,
    /// Input file name; the extension selects `gemm-ld`'s parser.
    pub input: &'static str,
    /// How it is driven.
    pub kind: Kind,
    /// Set-up imports the input into a tile store and the run streams it
    /// (`r2 --store`) instead of parsing the text (`r2 -i`).
    pub store: bool,
    /// The run writes a pair table (`-o out.tsv`); otherwise it prints
    /// the "top pairs" listing, which materialises the packed triangle.
    pub table: bool,
    /// `--min-r2` threshold, if any.
    pub min_r2: Option<&'static str>,
}

/// Arrival rate of the open-loop workload, requests per second: each of
/// the two generator threads has 25 ms per request, above the ~10 ms a
/// fresh-connection request takes today, so the generator is never late.
pub const OPEN_RATE: f64 = 80.0;
/// Rows of one `Region` request: 400 rows are 79 800 pairs, ~2 MB of text.
pub const REGION_ROWS: usize = 400;
/// `gemm-ld import --chunk-snps`.
pub const STORE_CHUNK_SNPS: usize = 256;
/// `gemm-ld r2 --store --memory-budget-mb`: small enough to bind.
pub const STORE_BUDGET_MB: usize = 16;
/// Panel name the daemon registers the input under.
pub const PANEL: &str = "bench";

/// Every workload, in `BENCHMARK.json` order.
pub static WORKLOADS: [Workload; 6] = [
    // The paper's Table I path as a user runs it: most of the wall is
    // `{v:.6}` formatting and the atomic write, little is the engine, so
    // output-side work shows here and kernel work does not.
    Workload {
        name: "r2_dense_pairs",
        snps: 2000,
        samples: 2504,
        input: "A.ms",
        kind: Kind::Batch,
        store: false,
        table: true,
        min_r2: None,
    },
    // The mirror image: deep samples (Dataset C's regime), 49 MB of text
    // in and a few KB out — parse and kernel + pack dominate, emit is nil.
    Workload {
        name: "r2_deep_thresh",
        snps: 1500,
        samples: 32768,
        input: "C.ms",
        kind: Kind::Batch,
        store: false,
        table: true,
        min_r2: Some("0.5"),
    },
    // The low-k regime: transform + first touch of the 256 MB f64
    // triangle outweigh the kernel, and peak RSS is the triangle. Same
    // engine, used through the packed sink instead of the row sink.
    Workload {
        name: "r2_lowk_top",
        snps: 8000,
        samples: 512,
        input: "L.ms",
        kind: Kind::Batch,
        store: false,
        table: false,
        min_r2: Some("0.8"),
    },
    // No text parse and no emit: the wall is the out-of-core driver,
    // chunk read + CRC, and the kernel under a binding memory budget.
    Workload {
        name: "store_stream",
        snps: 3000,
        samples: 16384,
        input: "S.ms",
        kind: Kind::Batch,
        store: true,
        table: true,
        min_r2: Some("0.5"),
    },
    // Independent analysts hitting a daemon: isolates accept and
    // connection set-up, does almost no formatting.
    Workload {
        name: "serve_connect_pair",
        snps: 2000,
        samples: 2504,
        input: "P.txt",
        kind: Kind::ServeOpen,
        store: false,
        table: true,
        min_r2: None,
    },
    // A pipeline walking a chromosome: no accepts, heavy region
    // formatting and socket writes — the serve layer used the other way.
    Workload {
        name: "serve_persist_region",
        snps: 2000,
        samples: 2504,
        input: "P.txt",
        kind: Kind::ServeClosed,
        store: false,
        table: true,
        min_r2: None,
    },
];

impl Workload {
    /// `(snps, samples)`, divided by 8 under `--quick`.
    pub fn shape(&self, quick: bool) -> (usize, usize) {
        if quick {
            (self.snps / 8, self.samples / 8)
        } else {
            (self.snps, self.samples)
        }
    }

    /// The threshold as a number (0 when there is none).
    pub fn min_r2_value(&self) -> f64 {
        self.min_r2.map_or(0.0, |s| {
            s.parse().expect("workload thresholds are numeric literals")
        })
    }

    /// LD values one `r2` run computes: the upper triangle with diagonal.
    pub fn ld_values(&self, quick: bool) -> f64 {
        let n = self.shape(quick).0 as f64;
        n * (n + 1.0) / 2.0
    }

    /// Arguments of the `gemm-ld r2` process over files in `dir`, with
    /// `min_r2` as the threshold (normally `self.min_r2`). A serve
    /// workload has a batch twin too (the table a whole-panel `Region`
    /// returns); only the layer replay runs it.
    pub fn r2_args(&self, dir: &Path, min_r2: Option<&str>) -> Vec<OsString> {
        let mut a: Vec<OsString> = vec!["r2".into()];
        if self.store {
            a.extend(["--store".into(), dir.join(STORE_DIR).into()]);
            a.extend([
                "--memory-budget-mb".into(),
                STORE_BUDGET_MB.to_string().into(),
            ]);
        } else {
            a.extend(["-i".into(), dir.join(self.input).into()]);
        }
        if self.table {
            a.extend(["-o".into(), dir.join(TABLE).into()]);
        }
        if let Some(t) = min_r2 {
            a.extend(["--min-r2".into(), t.into()]);
        }
        a.extend(["--threads".into(), crate::THREADS.to_string().into()]);
        a
    }
}

/// Tile-store directory name inside the scratch directory.
pub const STORE_DIR: &str = "S.store";
/// Pair-table file name inside the scratch directory.
pub const TABLE: &str = "out.tsv";
/// Where the stdout of a run without `-o` goes.
pub const LISTING: &str = "top.txt";
