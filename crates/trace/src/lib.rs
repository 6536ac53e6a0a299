//! # ld-trace — the observability layer of the GEMM-LD stack
//!
//! The paper's argument is quantitative: Figs. 3–5 and Tables I–III all
//! hinge on knowing where cycles go in each GotoBLAS layer (pack-Ã /
//! pack-B̃, micro-kernel, statistic transform). This crate gives every
//! compute crate a shared, dependency-free set of **monotonic counters**
//! and one **scoped layer timer** ([`recorder::Span`]), plus
//! [`MetricsReport`] — the one run report, a stable-schema snapshot with
//! JSON export that `ld-cli --profile` emits and CI validates against
//! `schemas/metrics.schema.json`.
//!
//! ## Always compiled in
//!
//! There is one build of the instrumented stack. Counters are relaxed
//! atomic adds on static storage, flushed from locals once per slab or
//! parser call — no allocation, ever, on the hot path (the
//! fault-injection harness in `ld-core` runs against them) — and a
//! [`recorder::Span`] is one monotonic clock read at each end of a region
//! that is at least a pack or kernel batch long, charged to the timer
//! counter its kind names ([`recorder::SpanKind::counter`]) and, with a
//! recorder armed, pushed as the same event. Measured against a build with
//! every entry point compiled to nothing, the shipped CLI's file → table
//! wall was indistinguishable (DESIGN.md §8), so the second build and the
//! cargo feature that selected it are gone.
//!
//! ## Counter semantics (the layer map)
//!
//! | counter | layer | meaning |
//! |---|---|---|
//! | `pack_a_ns` | pack | time packing Ã micro-panels (MR-interleaved) |
//! | `pack_b_ns` | pack | time packing B̃ micro-panels (NR-interleaved) |
//! | `kernel_ns` | micro-kernel | time in the register-tile loops (AND+POPCNT+accumulate and the C scatter) |
//! | `kernel_tiles` | micro-kernel | distinct `MR×NR` micro-tiles computed (counted once per tile, not per rank-k pass) |
//! | `kernel_words` | micro-kernel | AND+POPCNT word-pair operations: `Σ kc·MR·NR` over every kernel invocation |
//! | `transform_ns` | transform | time in the batched `D = H − p pᵀ` statistic transform |
//! | `bytes_packed` | pack | bytes written into pack buffers (`8 ×` packed words) |
//! | `slabs_emitted` | driver | row slabs completed by the fused pipeline |
//! | `budget_shrinks` | driver | times the memory budget shrank the slab height |
//! | `alloc_peak_bytes` | driver | high-water mark of the *modeled* transient footprint (scratch + output) |
//! | `tiles_claimed` | parallel | claim-loop chunks claimed (also per worker): one per slab on the slab driver (a windowed store run: one per slab of each window pass) and the cross matrix |
//! | `io_lines_read` | io | text lines parsed (also per format) |
//! | `io_bytes_read` | io | input bytes consumed (also per format) |
//! | `cancel_polls` | driver | cancellation-token polls (one per *computed* slab; slab-granular, never per-tile) |
//! | `checkpoints_written` | driver | checkpoint snapshots flushed (periodic + final; wall-clock dependent) |
//! | `resume_slabs_skipped` | driver | slabs restored from a checkpoint instead of recomputed |
//! | `trace_events_dropped` | trace | flight-recorder span events dropped because a per-worker ring filled |
//! | `shards_launched` | supervisor | shard child processes spawned by `run-sharded` (incl. retries) |
//! | `shard_retries` | supervisor | shard attempts re-dispatched after a failure classification |
//! | `merge_spans_validated` | merge | shard slab spans that passed fingerprint/geometry validation during merge |
//! | `chunks_read` | store | tile-store chunks decoded by the out-of-core driver |
//! | `store_bytes_read` | store | bytes streamed out of a tile store (decoded chunk payload + header) |
//! | `requests_accepted` | serve | queries the `ld-serve` admission controller enqueued |
//! | `requests_shed` | serve | queries rejected by admission control (queue full, memory budget, queue-deadline expiry) |
//! | `requests_failed` | serve | accepted queries that failed (worker panic, internal error) |
//! | `panels_evicted` | serve | resident `LdMatrix` panels evicted from the LRU cache under memory pressure |
//! | `pairs_transformed` | transform | statistic values the slab driver's epilogue computed from counts (the diagonal included where a sink keeps it): `n(n+1)/2` on an all-pairs run, the staircase's pairs on a thresholded `r²` run |
//!
//! Counts (`kernel_tiles`, `kernel_words`, `bytes_packed`,
//! `slabs_emitted`, `io_*`, `cancel_polls`, `resume_slabs_skipped`,
//! `merge_spans_validated`, `chunks_read`, `store_bytes_read`,
//! `pairs_transformed`) are
//! **deterministic** — independent of thread
//! count and wall time; the `*_ns` timers,
//! `checkpoints_written` (its periodic trigger is wall-clock based),
//! the supervisor counters (`shards_launched`, `shard_retries` — retries
//! depend on fault timing) and the serving counters
//! (`requests_*`, `panels_evicted` — functions of client arrival timing
//! and queue/budget pressure) are not.
//!
//! Request latencies are not counters: the serving layer records them in
//! the outcome-labelled histograms and rolling windows of [`telemetry`],
//! the one source behind the `ld-serve` health endpoint's p50/p99,
//! `/metrics` and `gemm-ld monitor`.
//!
//! `kernel_words` against elapsed cycles gives the §IV ops/cycle metric:
//! the scalar peak is 3 ops/cycle = 1 word-pair/cycle (AND ∥ POPCNT ∥
//! ADD), so `words/cycle × 3` is directly comparable to that peak.

#![warn(missing_docs)]

pub mod analyze;
pub mod export;
pub mod histogram;
pub mod json;
pub mod prometheus;
pub mod recorder;
pub mod telemetry;

use analyze::Timeline;
pub use json::escape_json;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Schema version of the JSON produced by [`MetricsReport::to_json`].
/// Bump only when a field is removed or its meaning changes; adding
/// fields is backward-compatible.
pub const SCHEMA_VERSION: u32 = 4;

/// Maximum workers tracked individually; higher worker ids fold into the
/// last slot.
pub const MAX_WORKERS: usize = 64;

/// The global counters. Each is a monotonic `u64`; see the crate docs for
/// the layer map and determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Nanoseconds packing Ã (MR-wide micro-panels).
    PackANs,
    /// Nanoseconds packing B̃ (NR-wide micro-panels).
    PackBNs,
    /// Nanoseconds in the micro-kernel register-tile loops (incl. the C scatter).
    KernelNs,
    /// Nanoseconds in the batched statistic transform.
    TransformNs,
    /// Distinct `MR×NR` micro-tiles computed (once per tile across rank-k passes).
    KernelTiles,
    /// AND+POPCNT word-pair operations (`Σ kc·MR·NR` over kernel calls).
    KernelWords,
    /// Bytes written into pack buffers.
    BytesPacked,
    /// Row slabs completed by the fused pipeline.
    SlabsEmitted,
    /// Times a memory budget shrank the configured slab height.
    BudgetShrinks,
    /// High-water mark of the modeled transient footprint, bytes (gauge: use [`record_peak`]).
    AllocPeakBytes,
    /// Dynamic-scheduler chunks claimed (all workers).
    TilesClaimed,
    /// Text lines parsed by `ld-io`.
    IoLinesRead,
    /// Input bytes consumed by `ld-io`.
    IoBytesRead,
    /// Cancellation-token polls issued by the fused driver (one per
    /// *computed* slab — polling is slab-granular, never per-tile).
    CancelPolls,
    /// Checkpoint snapshots flushed to the sink (periodic + final).
    CheckpointsWritten,
    /// Slabs restored from a checkpoint and skipped by the resumed driver.
    ResumeSlabsSkipped,
    /// Flight-recorder span events dropped because a per-worker ring
    /// buffer filled (see [`recorder`]). Nonzero means the timeline in a
    /// `--trace-out` export is incomplete; raise the ring capacity.
    TraceEventsDropped,
    /// Shard child processes spawned by the `run-sharded` supervisor
    /// (first attempts and retries both count).
    ShardsLaunched,
    /// Shard attempts re-dispatched after a failure classification
    /// (crash, corrupt output, resumable interrupt).
    ShardRetries,
    /// Shard slab spans that passed fingerprint/header/geometry
    /// validation during a shard merge.
    MergeSpansValidated,
    /// Tile-store chunks decoded (CRC-checked) by the out-of-core driver.
    ChunksRead,
    /// Bytes streamed out of a tile store (encoded chunk bytes, header
    /// and CRC trailer included).
    StoreBytesRead,
    /// Queries the `ld-serve` admission controller accepted into the
    /// bounded request queue.
    RequestsAccepted,
    /// Queries rejected by admission control — queue full, panel memory
    /// budget exhausted after eviction, or queue-deadline expiry.
    RequestsShed,
    /// Accepted queries that failed with an internal error (worker
    /// panic, panel load failure).
    RequestsFailed,
    /// Resident `LdMatrix` panels evicted from the serve LRU cache to
    /// make room under the memory budget.
    PanelsEvicted,
    /// Statistic values the slab driver's epilogue computed from counts
    /// (the work ledger of the transform layer).
    PairsTransformed,
}

impl Counter {
    /// Number of counters (array sizing).
    pub const COUNT: usize = 27;

    /// All counters, in stable report order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::PackANs,
        Counter::PackBNs,
        Counter::KernelNs,
        Counter::TransformNs,
        Counter::KernelTiles,
        Counter::KernelWords,
        Counter::BytesPacked,
        Counter::SlabsEmitted,
        Counter::BudgetShrinks,
        Counter::AllocPeakBytes,
        Counter::TilesClaimed,
        Counter::IoLinesRead,
        Counter::IoBytesRead,
        Counter::CancelPolls,
        Counter::CheckpointsWritten,
        Counter::ResumeSlabsSkipped,
        Counter::TraceEventsDropped,
        Counter::ShardsLaunched,
        Counter::ShardRetries,
        Counter::MergeSpansValidated,
        Counter::ChunksRead,
        Counter::StoreBytesRead,
        Counter::RequestsAccepted,
        Counter::RequestsShed,
        Counter::RequestsFailed,
        Counter::PanelsEvicted,
        Counter::PairsTransformed,
    ];

    /// Stable snake_case name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PackANs => "pack_a_ns",
            Counter::PackBNs => "pack_b_ns",
            Counter::KernelNs => "kernel_ns",
            Counter::TransformNs => "transform_ns",
            Counter::KernelTiles => "kernel_tiles",
            Counter::KernelWords => "kernel_words",
            Counter::BytesPacked => "bytes_packed",
            Counter::SlabsEmitted => "slabs_emitted",
            Counter::BudgetShrinks => "budget_shrinks",
            Counter::AllocPeakBytes => "alloc_peak_bytes",
            Counter::TilesClaimed => "tiles_claimed",
            Counter::IoLinesRead => "io_lines_read",
            Counter::IoBytesRead => "io_bytes_read",
            Counter::CancelPolls => "cancel_polls",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::ResumeSlabsSkipped => "resume_slabs_skipped",
            Counter::TraceEventsDropped => "trace_events_dropped",
            Counter::ShardsLaunched => "shards_launched",
            Counter::ShardRetries => "shard_retries",
            Counter::MergeSpansValidated => "merge_spans_validated",
            Counter::ChunksRead => "chunks_read",
            Counter::StoreBytesRead => "store_bytes_read",
            Counter::RequestsAccepted => "requests_accepted",
            Counter::RequestsShed => "requests_shed",
            Counter::RequestsFailed => "requests_failed",
            Counter::PanelsEvicted => "panels_evicted",
            Counter::PairsTransformed => "pairs_transformed",
        }
    }

    /// True when the counter's value is a pure function of the input and
    /// engine configuration — independent of thread count, scheduling and
    /// wall time. The counter-invariant tests pin exactly these.
    pub fn is_deterministic(self) -> bool {
        !matches!(
            self,
            Counter::PackANs
                | Counter::PackBNs
                | Counter::KernelNs
                | Counter::TransformNs
                | Counter::AllocPeakBytes
                // periodic checkpoints also fire on a wall-clock cadence
                | Counter::CheckpointsWritten
                // drops depend on event volume, which is timing/sampling dependent
                | Counter::TraceEventsDropped
                // launches/retries depend on fault timing and the retry budget
                | Counter::ShardsLaunched
                | Counter::ShardRetries
                // serving counters depend on client arrival timing and
                // queue/budget pressure
                | Counter::RequestsAccepted
                | Counter::RequestsShed
                | Counter::RequestsFailed
                | Counter::PanelsEvicted
        )
    }
}

/// The fixed set of per-format I/O slots ([`io_record`] folds unknown
/// format names into `"other"`).
pub const IO_FORMATS: [&str; 10] = [
    "ms", "vcf", "matrix", "bed", "bim", "fam", "ped", "map", "fasta", "other",
];

fn io_slot(format: &str) -> usize {
    IO_FORMATS
        .iter()
        .position(|&f| f == format)
        .unwrap_or(IO_FORMATS.len() - 1)
}

// ---------------------------------------------------------------------------
// Storage: static atomics, relaxed ordering.
// ---------------------------------------------------------------------------

#[allow(clippy::declare_interior_mutable_const)] // array-init pattern
const ZERO: AtomicU64 = AtomicU64::new(0);

static COUNTERS: [AtomicU64; Counter::COUNT] = [ZERO; Counter::COUNT];
static WORKER_TILES: [AtomicU64; MAX_WORKERS] = [ZERO; MAX_WORKERS];
static IO_LINES: [AtomicU64; IO_FORMATS.len()] = [ZERO; IO_FORMATS.len()];
static IO_BYTES: [AtomicU64; IO_FORMATS.len()] = [ZERO; IO_FORMATS.len()];
static KERNEL_NAME: Mutex<Option<&'static str>> = Mutex::new(None);

/// Adds `v` to counter `c` (relaxed atomic add).
#[inline]
pub fn add(c: Counter, v: u64) {
    if v != 0 {
        COUNTERS[c as usize].fetch_add(v, Ordering::Relaxed);
    }
}

/// Raises gauge `c` to at least `v` (atomic max).
#[inline]
pub fn record_peak(c: Counter, v: u64) {
    COUNTERS[c as usize].fetch_max(v, Ordering::Relaxed);
}

/// Current value of counter `c`.
#[inline]
pub fn get(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

/// Every counter's current value, in [`Counter::ALL`] order.
pub fn counters() -> [u64; Counter::COUNT] {
    Counter::ALL.map(get)
}

/// Records one dynamic-scheduler chunk claimed by `worker`.
#[inline]
pub fn worker_claim(worker: usize) {
    WORKER_TILES[worker.min(MAX_WORKERS - 1)].fetch_add(1, Ordering::Relaxed);
    add(Counter::TilesClaimed, 1);
}

/// Records `lines`/`bytes` parsed by the reader for `format` (folded into
/// the fixed [`IO_FORMATS`] slots).
#[inline]
pub fn io_record(format: &str, lines: u64, bytes: u64) {
    let s = io_slot(format);
    if lines != 0 {
        IO_LINES[s].fetch_add(lines, Ordering::Relaxed);
        add(Counter::IoLinesRead, lines);
    }
    if bytes != 0 {
        IO_BYTES[s].fetch_add(bytes, Ordering::Relaxed);
        add(Counter::IoBytesRead, bytes);
    }
}

/// Records the concrete micro-kernel the dispatcher resolved (stable
/// name, e.g. `"avx512-vpopcnt"`). Survives [`reset`].
pub fn set_kernel_name(name: &'static str) {
    *KERNEL_NAME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(name);
}

/// The last resolved micro-kernel name, if any was recorded.
pub fn kernel_name() -> Option<&'static str> {
    *KERNEL_NAME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Zeroes every counter, per-worker/per-format slot, and the serve
/// telemetry registry (the resolved kernel name is kept — it is
/// process-lifetime state).
pub fn reset() {
    let slots = COUNTERS.iter().chain(&WORKER_TILES);
    for c in slots.chain(&IO_LINES).chain(&IO_BYTES) {
        c.store(0, Ordering::Relaxed);
    }
    telemetry::reset();
}

// ---------------------------------------------------------------------------
// MetricsReport
// ---------------------------------------------------------------------------

/// Per-worker dynamic-scheduler activity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Worker id (`tid`), 0-based; ids ≥ [`MAX_WORKERS`] fold into the last slot.
    pub worker: usize,
    /// Chunks this worker claimed.
    pub tiles_claimed: u64,
}

/// Per-format parser activity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoMetrics {
    /// Format slot name (one of [`IO_FORMATS`]).
    pub format: &'static str,
    /// Lines parsed.
    pub lines_read: u64,
    /// Bytes consumed.
    pub bytes_read: u64,
}

/// The run report: a point-in-time snapshot of every counter, with
/// optional run context (wall time, thread count, TSC frequency, the
/// resolved kernel and its peak) supplied by the caller, and the span
/// timeline when a recorder was armed. Serializes to the stable JSON
/// validated by `schemas/metrics.schema.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Resolved micro-kernel name, when the dispatcher ran.
    pub kernel: Option<String>,
    /// Worker-thread count of the profiled run (caller-supplied).
    pub threads: Option<u64>,
    /// Wall time of the profiled region, nanoseconds (caller-supplied).
    pub wall_ns: Option<u64>,
    /// Calibrated TSC frequency in Hz (caller-supplied; enables ops/cycle).
    pub tsc_hz: Option<f64>,
    /// Counter values in [`Counter::ALL`] order.
    pub counters: [u64; Counter::COUNT],
    /// Per-worker scheduler activity (only workers that claimed ≥ 1 chunk).
    pub workers: Vec<WorkerMetrics>,
    /// Per-format parser activity (only formats that read ≥ 1 line/byte).
    pub io: Vec<IoMetrics>,
    /// Analytical peak of the resolved kernel, word-pairs/cycle
    /// (caller-supplied; with `tsc_hz` enables the roofline).
    pub peak_words_per_cycle: Option<f64>,
    /// The span-timeline analysis ([`analyze::analyze`]), when a recorder
    /// was armed for the run.
    pub timeline: Option<Timeline>,
}

impl MetricsReport {
    /// Snapshots the current counter state.
    pub fn capture() -> Self {
        let workers = WORKER_TILES
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .enumerate()
            .filter(|&(_, tiles)| tiles != 0)
            .map(|(worker, tiles_claimed)| WorkerMetrics {
                worker,
                tiles_claimed,
            })
            .collect();
        let mut io = Vec::new();
        for (s, name) in IO_FORMATS.iter().enumerate() {
            let lines = IO_LINES[s].load(Ordering::Relaxed);
            let bytes = IO_BYTES[s].load(Ordering::Relaxed);
            if lines != 0 || bytes != 0 {
                io.push(IoMetrics {
                    format: name,
                    lines_read: lines,
                    bytes_read: bytes,
                });
            }
        }
        Self {
            schema_version: SCHEMA_VERSION,
            kernel: kernel_name().map(str::to_owned),
            threads: None,
            wall_ns: None,
            tsc_hz: None,
            counters: counters(),
            workers,
            io,
            peak_words_per_cycle: None,
            timeline: None,
        }
    }

    /// Attaches the wall time of the profiled region.
    pub fn with_wall_ns(mut self, ns: u64) -> Self {
        self.wall_ns = Some(ns);
        self
    }

    /// Attaches the worker-thread count of the profiled run.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads as u64);
        self
    }

    /// Attaches the calibrated TSC frequency (enables ops/cycle output).
    pub fn with_tsc_hz(mut self, hz: Option<f64>) -> Self {
        self.tsc_hz = hz;
        self
    }

    /// Attaches the resolved kernel's analytical peak (word-pairs/cycle).
    pub fn with_peak_words_per_cycle(mut self, peak: Option<f64>) -> Self {
        self.peak_words_per_cycle = peak;
        self
    }

    /// Attaches the run's span-timeline analysis.
    pub fn with_timeline(mut self, timeline: Option<Timeline>) -> Self {
        self.timeline = timeline;
        self
    }

    /// Value of a counter in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Sum of the per-layer timers: `pack_a + pack_b + kernel + transform`.
    pub fn layer_ns_total(&self) -> u64 {
        self.get(Counter::PackANs)
            .saturating_add(self.get(Counter::PackBNs))
            .saturating_add(self.get(Counter::KernelNs))
            .saturating_add(self.get(Counter::TransformNs))
    }

    /// Fraction of `threads × wall` the per-layer timers account for
    /// (`None` without wall/thread context). Timers sum CPU time across
    /// workers, so this is busy-time coverage, not a wall-time ratio.
    pub fn layer_coverage(&self) -> Option<f64> {
        let wall = self.wall_ns? as f64;
        let threads = self.threads?.max(1) as f64;
        if wall <= 0.0 {
            return None;
        }
        Some(self.layer_ns_total() as f64 / (wall * threads))
    }

    /// Word-pair operations per cycle in the micro-kernel (`None` without
    /// a TSC frequency or kernel time). The scalar §IV peak is 1.
    pub fn words_per_cycle(&self) -> Option<f64> {
        let hz = self.tsc_hz?;
        let kns = self.get(Counter::KernelNs);
        if kns == 0 || hz <= 0.0 {
            return None;
        }
        let cycles = kns as f64 * hz / 1e9;
        Some(self.get(Counter::KernelWords) as f64 / cycles)
    }

    /// The roofline: [`MetricsReport::words_per_cycle`] as a fraction of
    /// the resolved kernel's analytical peak (`None` without either).
    pub fn fraction_of_peak(&self) -> Option<f64> {
        let peak = self.peak_words_per_cycle.filter(|&p| p > 0.0)?;
        Some(self.words_per_cycle()? / peak)
    }

    /// Serializes to the stable-schema JSON (hand-rolled; this workspace
    /// builds offline with no external deps).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        match &self.kernel {
            Some(k) => {
                let _ = writeln!(s, "  \"kernel\": \"{}\",", escape_json(k));
            }
            None => s.push_str("  \"kernel\": null,\n"),
        }
        match self.threads {
            Some(t) => {
                let _ = writeln!(s, "  \"threads\": {t},");
            }
            None => s.push_str("  \"threads\": null,\n"),
        }
        match self.wall_ns {
            Some(w) => {
                let _ = writeln!(s, "  \"wall_ns\": {w},");
            }
            None => s.push_str("  \"wall_ns\": null,\n"),
        }
        match self.tsc_hz {
            Some(hz) => {
                let _ = writeln!(s, "  \"tsc_hz\": {hz:.1},");
            }
            None => s.push_str("  \"tsc_hz\": null,\n"),
        }
        s.push_str("  \"counters\": {\n");
        for (i, c) in Counter::ALL.iter().enumerate() {
            let _ = write!(s, "    \"{}\": {}", c.name(), self.counters[i]);
            s.push_str(if i + 1 == Counter::COUNT { "\n" } else { ",\n" });
        }
        s.push_str("  },\n  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"worker\": {}, \"tiles_claimed\": {}}}",
                w.worker, w.tiles_claimed
            );
            s.push_str(if i + 1 == self.workers.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("  ],\n  \"io\": [\n");
        for (i, m) in self.io.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"format\": \"{}\", \"lines_read\": {}, \"bytes_read\": {}}}",
                escape_json(m.format),
                m.lines_read,
                m.bytes_read
            );
            s.push_str(if i + 1 == self.io.len() { "\n" } else { ",\n" });
        }
        s.push_str("  ],\n");
        match (self.fraction_of_peak(), self.words_per_cycle()) {
            (Some(fraction), Some(wpc)) => {
                let _ = writeln!(
                    s,
                    "  \"roofline\": {{\"words_per_cycle\": {wpc:.6}, \
                     \"peak_words_per_cycle\": {:.6}, \"fraction_of_peak\": {fraction:.6}}},",
                    self.peak_words_per_cycle.unwrap_or(0.0)
                );
            }
            _ => s.push_str("  \"roofline\": null,\n"),
        }
        s.push_str("  \"timeline\": ");
        match &self.timeline {
            Some(t) => t.write_json(&mut s),
            None => s.push_str("null"),
        }
        s.push_str("\n}\n");
        s
    }

    /// Renders a human-readable per-layer breakdown (the `--profile=text`
    /// output).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        if let Some(k) = &self.kernel {
            let _ = writeln!(s, "kernel          : {k}");
        }
        if let Some(t) = self.threads {
            let _ = writeln!(s, "threads         : {t}");
        }
        if let Some(w) = self.wall_ns {
            let _ = writeln!(s, "wall            : {}", fmt_ns(w));
        }
        let layers = [
            ("pack_a", Counter::PackANs),
            ("pack_b", Counter::PackBNs),
            ("kernel", Counter::KernelNs),
            ("transform", Counter::TransformNs),
        ];
        let total = self.layer_ns_total().max(1);
        for (name, c) in layers {
            let v = self.get(c);
            let _ = writeln!(
                s,
                "{name:<16}: {:>10}  ({:5.1}% of layer time)",
                fmt_ns(v),
                100.0 * v as f64 / total as f64
            );
        }
        if let Some(cov) = self.layer_coverage() {
            let _ = writeln!(
                s,
                "layer coverage  : {:5.1}% of threads x wall",
                100.0 * cov
            );
        }
        let _ = writeln!(
            s,
            "kernel tiles    : {} ({} word-pair ops)",
            self.get(Counter::KernelTiles),
            self.get(Counter::KernelWords)
        );
        let _ = writeln!(
            s,
            "transformed     : {} values",
            self.get(Counter::PairsTransformed)
        );
        if let Some(wpc) = self.words_per_cycle() {
            let _ = writeln!(
                s,
                "ops/cycle       : {:.2} word-pairs/cycle = {:.2} ops/cycle \
                 (scalar peak: 1 word-pair = 3 ops)",
                wpc,
                3.0 * wpc
            );
        }
        if let (Some(fraction), Some(peak)) = (self.fraction_of_peak(), self.peak_words_per_cycle) {
            let _ = writeln!(
                s,
                "roofline        : {:.1}% of the kernel's {peak:.1} word-pairs/cycle peak",
                100.0 * fraction
            );
        }
        let _ = writeln!(
            s,
            "bytes packed    : {} · slabs: {} · budget shrinks: {} · alloc peak: {} B",
            self.get(Counter::BytesPacked),
            self.get(Counter::SlabsEmitted),
            self.get(Counter::BudgetShrinks),
            self.get(Counter::AllocPeakBytes),
        );
        let (polls, ckpts, skipped) = (
            self.get(Counter::CancelPolls),
            self.get(Counter::CheckpointsWritten),
            self.get(Counter::ResumeSlabsSkipped),
        );
        if polls != 0 || ckpts != 0 || skipped != 0 {
            let _ = writeln!(
                s,
                "interruption    : {polls} cancel polls · {ckpts} checkpoints written · {skipped} slabs resumed",
            );
        }
        let (accepted, shed, failed) = (
            self.get(Counter::RequestsAccepted),
            self.get(Counter::RequestsShed),
            self.get(Counter::RequestsFailed),
        );
        if accepted != 0 || shed != 0 || failed != 0 {
            // a daemon's exit report (`serve --profile`); its latency
            // quantiles are `health` / `/metrics` business
            let _ = writeln!(
                s,
                "requests        : {accepted} accepted / {shed} shed / {failed} failed · {} panels evicted",
                self.get(Counter::PanelsEvicted),
            );
        }
        if !self.workers.is_empty() {
            let _ = writeln!(
                s,
                "scheduler       : {} chunks claimed across {} workers",
                self.get(Counter::TilesClaimed),
                self.workers.len()
            );
            for w in &self.workers {
                let _ = writeln!(
                    s,
                    "  worker {:<3}    : {} claimed",
                    w.worker, w.tiles_claimed
                );
            }
        }
        if !self.io.is_empty() {
            for m in &self.io {
                let _ = writeln!(
                    s,
                    "io [{:<6}]     : {} lines, {} bytes",
                    m.format, m.lines_read, m.bytes_read
                );
            }
        }
        if let Some(t) = &self.timeline {
            t.write_text(&mut s);
        }
        s
    }
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// The counters, the telemetry registry and the flight recorder are
/// process-global and `cargo test` runs this binary's tests on parallel
/// threads: every test that resets or asserts on that state holds this
/// one lock for its whole body.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_stable_and_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let n = names.len();
        assert_eq!(n, Counter::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate counter name");
    }

    #[test]
    fn io_slot_folds_unknown_formats() {
        assert_eq!(io_slot("ms"), 0);
        assert_eq!(io_slot("definitely-not-a-format"), IO_FORMATS.len() - 1);
        assert_eq!(IO_FORMATS[io_slot("nope")], "other");
    }

    #[test]
    fn report_json_is_schema_shaped() {
        let r = MetricsReport::capture()
            .with_wall_ns(123)
            .with_threads(4)
            .with_tsc_hz(Some(3.0e9));
        let j = r.to_json();
        assert!(j.contains("\"schema_version\": 4"));
        assert!(j.contains("\"roofline\": null"));
        assert!(j.contains("\"timeline\": null"));
        assert!(j.contains("\"counters\""));
        assert!(j.contains("\"pack_a_ns\""));
        assert!(j.contains("\"workers\""));
        assert!(j.contains("\"io\""));
        assert!(j.contains("\"wall_ns\": 123"));
        // every counter name appears exactly once
        for c in Counter::ALL {
            assert_eq!(
                j.matches(&format!("\"{}\"", c.name())).count(),
                1,
                "{}",
                c.name()
            );
        }
    }

    #[test]
    fn deterministic_partition_is_fixed() {
        // pin the determinism contract: changing it silently would
        // invalidate the counter-invariant tests
        let det: Vec<&str> = Counter::ALL
            .iter()
            .filter(|c| c.is_deterministic())
            .map(|c| c.name())
            .collect();
        assert_eq!(
            det,
            [
                "kernel_tiles",
                "kernel_words",
                "bytes_packed",
                "slabs_emitted",
                "budget_shrinks",
                "tiles_claimed",
                "io_lines_read",
                "io_bytes_read",
                "cancel_polls",
                "resume_slabs_skipped",
                "merge_spans_validated",
                "chunks_read",
                "store_bytes_read",
                "pairs_transformed",
            ]
        );
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = test_lock();
        reset();
        add(Counter::KernelTiles, 3);
        add(Counter::KernelTiles, 4);
        record_peak(Counter::AllocPeakBytes, 100);
        record_peak(Counter::AllocPeakBytes, 50);
        assert_eq!(get(Counter::KernelTiles), 7);
        assert_eq!(get(Counter::AllocPeakBytes), 100);
        worker_claim(2);
        worker_claim(2);
        io_record("vcf", 5, 80);
        let r = MetricsReport::capture();
        assert_eq!(r.get(Counter::TilesClaimed), 2);
        assert_eq!(
            r.workers,
            vec![WorkerMetrics {
                worker: 2,
                tiles_claimed: 2,
            }]
        );
        assert_eq!(
            r.io,
            vec![IoMetrics {
                format: "vcf",
                lines_read: 5,
                bytes_read: 80
            }]
        );
        reset();
        assert_eq!(get(Counter::KernelTiles), 0);
        assert!(MetricsReport::capture().workers.is_empty());
    }

    #[test]
    fn roofline_needs_context() {
        let mut r = MetricsReport::capture().with_peak_words_per_cycle(Some(1.0));
        r.counters[Counter::KernelNs as usize] = 1_000;
        r.counters[Counter::KernelWords as usize] = 500;
        // no TSC frequency → no roofline
        assert!(r.fraction_of_peak().is_none());
        let r = r.with_tsc_hz(Some(1e9));
        assert!((r.words_per_cycle().unwrap() - 0.5).abs() < 1e-9);
        assert!((r.fraction_of_peak().unwrap() - 0.5).abs() < 1e-9);
        assert!(r.to_json().contains("\"fraction_of_peak\": 0.500000"));
        // no peak → no roofline
        assert!(r
            .with_peak_words_per_cycle(None)
            .fraction_of_peak()
            .is_none());
    }

    #[test]
    fn fmt_ns_ranges() {
        assert!(fmt_ns(500).ends_with("us"));
        assert!(fmt_ns(5_000_000).ends_with("ms"));
        assert!(fmt_ns(5_000_000_000).ends_with('s'));
    }
}
