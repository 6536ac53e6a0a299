//! Timeline analysis: turns a [`TraceSnapshot`] + [`MetricsReport`] into
//! the diagnostics the paper's performance argument needs — per-worker
//! busy/idle fractions, load-imbalance ratio, steal-latency percentiles,
//! per-layer wall shares, and a roofline summary against the §IV/§V
//! analytical POPCNT peak.
//!
//! ## Accounting model
//!
//! All wall-share arithmetic is **span-based**, not counter-based, so the
//! shares tile the `workers × wall` area exactly:
//!
//! * a worker's *busy* time is the union of its span intervals (nested
//!   spans — pack inside a scheduler chunk — count once),
//! * the *leaf layers* (`pack_a`, `pack_b`, `kernel`, `transform`,
//!   `alloc`, `checkpoint_flush`) never contain one another, so their
//!   durations sum without double counting,
//! * `other_busy` is busy time outside any leaf layer (scheduler claim
//!   overhead, loop bookkeeping), and `idle` is the rest of the area.
//!
//! By construction `Σ layer shares + other_busy + idle = 1` (up to u64
//! rounding), which `ld-cli`'s `process_cli.rs` asserts on a real run.

use crate::recorder::{SpanKind, TraceSnapshot};
use crate::MetricsReport;
use std::fmt::Write as _;

/// Schema version of [`TraceReport::to_json`]
/// (`schemas/trace_report.schema.json`).
pub const TRACE_REPORT_SCHEMA_VERSION: u32 = 1;

/// Busy/idle accounting for one worker timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerActivity {
    /// Logical worker id (ring index).
    pub worker: u32,
    /// Union of this worker's span intervals, ns.
    pub busy_ns: u64,
    /// `wall − busy`, ns (clamped at 0).
    pub idle_ns: u64,
    /// `busy / wall`.
    pub busy_fraction: f64,
    /// Events recorded (spans + instants).
    pub spans: u64,
    /// Scheduler chunks executed.
    pub chunks: u64,
    /// Chunks flagged stolen (claimed outside the static share).
    pub steals: u64,
}

/// One row of the per-layer wall-share table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerShare {
    /// Layer name (leaf [`SpanKind`] name, `"other_busy"`, or `"idle"`).
    pub layer: &'static str,
    /// Total nanoseconds attributed to the layer across all workers.
    pub ns: u64,
    /// `ns / (workers × wall)`.
    pub share: f64,
}

/// Distribution of the idle gaps that *precede* stolen chunks — the time a
/// worker waited between finishing one chunk and claiming one outside its
/// static share.
#[derive(Clone, Debug, PartialEq)]
pub struct StealLatency {
    /// Stolen chunks with a measurable preceding gap.
    pub count: u64,
    /// Median gap, ns.
    pub p50_ns: u64,
    /// 90th-percentile gap, ns.
    pub p90_ns: u64,
    /// Largest gap, ns.
    pub max_ns: u64,
}

/// Measured micro-kernel throughput against the analytical peak of the
/// resolved kernel (`lanes` word-pairs/cycle; the scalar §IV peak is 1
/// word-pair = 3 ops per cycle).
#[derive(Clone, Debug, PartialEq)]
pub struct Roofline {
    /// Measured word-pair operations per cycle (from `kernel_words`,
    /// `kernel_ns`, and the calibrated TSC frequency).
    pub words_per_cycle: f64,
    /// Analytical peak for the resolved kernel, word-pairs/cycle.
    pub peak_words_per_cycle: f64,
    /// `words_per_cycle / peak_words_per_cycle`.
    pub fraction_of_peak: f64,
}

/// The full analysis, serializable to the stable JSON of
/// `schemas/trace_report.schema.json` and renderable as text.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// Schema version ([`TRACE_REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Analysis window, ns (caller-measured driver wall time when
    /// available, else the span horizon).
    pub wall_ns: u64,
    /// Worker timelines considered (≥ observed workers).
    pub workers: u64,
    /// Events in the snapshot.
    pub events: u64,
    /// Events dropped by ring overflow (timeline incomplete when ≠ 0).
    pub dropped: u64,
    /// Spans begun but never ended (must be 0 after a clean run).
    pub open_spans: u64,
    /// Partially-overlapping span pairs found on one timeline (must be 0:
    /// spans on a worker either nest or are disjoint).
    pub nesting_violations: u64,
    /// Σ busy over workers, ns.
    pub busy_ns_total: u64,
    /// Σ idle over workers, ns.
    pub idle_ns_total: u64,
    /// `max(busy) / mean(busy)` across workers that recorded anything
    /// (1.0 = perfectly balanced); `None` when nothing was busy.
    pub imbalance_ratio: Option<f64>,
    /// Per-worker busy/idle breakdown.
    pub per_worker: Vec<WorkerActivity>,
    /// Per-layer wall shares; includes `other_busy` and `idle`, so the
    /// shares sum to 1 up to rounding.
    pub layers: Vec<LayerShare>,
    /// Steal-latency percentiles (`None` when no stolen chunk had a
    /// measurable preceding gap).
    pub steal_latency: Option<StealLatency>,
    /// Roofline summary (`None` without TSC/kernel-time context).
    pub roofline: Option<Roofline>,
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() - 1) * p / 100;
    sorted[idx]
}

/// Analyzes a snapshot. `report` supplies run context (wall time, thread
/// count, TSC frequency, kernel counters); `peak_words_per_cycle` is the
/// analytical peak of the resolved kernel (`Kernel::lanes()` — the caller
/// computes it so `ld-trace` stays dependency-free).
pub fn analyze(
    snap: &TraceSnapshot,
    report: &MetricsReport,
    peak_words_per_cycle: Option<f64>,
) -> TraceReport {
    let span_horizon = snap
        .events
        .iter()
        .map(|e| e.start_ns.saturating_add(e.dur_ns))
        .max()
        .unwrap_or(0);
    let wall_ns = report.wall_ns.filter(|&w| w > 0).unwrap_or(span_horizon);

    // --- per-worker pass over the (worker, start)-sorted events ---------
    let mut per_worker: Vec<WorkerActivity> = Vec::new();
    let mut nesting_violations = 0u64;
    let mut layer_ns = [0u64; SpanKind::COUNT];
    let mut steal_gaps: Vec<u64> = Vec::new();

    let mut i = 0;
    while i < snap.events.len() {
        let w = snap.events[i].worker;
        let mut busy = 0u64;
        let mut cur_end = 0u64;
        let mut spans = 0u64;
        let mut chunks = 0u64;
        let mut steals = 0u64;
        let mut prev_chunk_end: Option<u64> = None;
        while i < snap.events.len() && snap.events[i].worker == w {
            let e = &snap.events[i];
            i += 1;
            spans += 1;
            layer_ns[e.kind as usize] = layer_ns[e.kind as usize].saturating_add(e.dur_ns);
            if e.kind == SpanKind::Chunk {
                chunks += 1;
                let stolen = e.arg & 1 == 1;
                if stolen {
                    steals += 1;
                    if let Some(pe) = prev_chunk_end {
                        steal_gaps.push(e.start_ns.saturating_sub(pe));
                    }
                }
                prev_chunk_end = Some(e.start_ns.saturating_add(e.dur_ns));
            }
            if e.kind.is_instant() {
                continue;
            }
            // interval union; events are start-sorted within a worker
            let end = e.start_ns.saturating_add(e.dur_ns);
            if e.start_ns >= cur_end {
                busy = busy.saturating_add(e.dur_ns);
                cur_end = end;
            } else if end > cur_end {
                // overlaps the previous span without nesting inside it
                nesting_violations += 1;
                busy = busy.saturating_add(end - cur_end);
                cur_end = end;
            } // else: fully nested, already counted
        }
        let idle = wall_ns.saturating_sub(busy);
        per_worker.push(WorkerActivity {
            worker: w,
            busy_ns: busy,
            idle_ns: idle,
            busy_fraction: if wall_ns > 0 {
                busy as f64 / wall_ns as f64
            } else {
                0.0
            },
            spans,
            chunks,
            steals,
        });
    }

    let observed = per_worker.len() as u64;
    let workers = report.threads.unwrap_or(0).max(observed).max(1);
    let busy_ns_total: u64 = per_worker.iter().map(|w| w.busy_ns).sum();
    // Workers that never recorded are idle for the whole window.
    let area = wall_ns.saturating_mul(workers).max(busy_ns_total).max(1);
    let idle_ns_total = area - busy_ns_total.min(area);

    let imbalance_ratio = if busy_ns_total > 0 && observed > 0 {
        let max_busy = per_worker.iter().map(|w| w.busy_ns).max().unwrap_or(0);
        let mean = busy_ns_total as f64 / observed as f64;
        Some(max_busy as f64 / mean)
    } else {
        None
    };

    // --- per-layer wall shares (tile the workers × wall area) -----------
    let mut layers: Vec<LayerShare> = Vec::new();
    let mut leaf_sum = 0u64;
    for kind in SpanKind::ALL {
        if !kind.is_leaf_layer() {
            continue;
        }
        let ns = layer_ns[kind as usize];
        leaf_sum = leaf_sum.saturating_add(ns);
        layers.push(LayerShare {
            layer: kind.name(),
            ns,
            share: ns as f64 / area as f64,
        });
    }
    let other_busy = busy_ns_total.saturating_sub(leaf_sum.min(busy_ns_total));
    layers.push(LayerShare {
        layer: "other_busy",
        ns: other_busy,
        share: other_busy as f64 / area as f64,
    });
    layers.push(LayerShare {
        layer: "idle",
        ns: idle_ns_total,
        share: idle_ns_total as f64 / area as f64,
    });

    // --- steal latency ---------------------------------------------------
    steal_gaps.sort_unstable();
    let steal_latency = if steal_gaps.is_empty() {
        None
    } else {
        Some(StealLatency {
            count: steal_gaps.len() as u64,
            p50_ns: percentile(&steal_gaps, 50),
            p90_ns: percentile(&steal_gaps, 90),
            max_ns: *steal_gaps.last().unwrap_or(&0),
        })
    };

    // --- roofline --------------------------------------------------------
    let roofline = match (report.words_per_cycle(), peak_words_per_cycle) {
        (Some(wpc), Some(peak)) if peak > 0.0 => Some(Roofline {
            words_per_cycle: wpc,
            peak_words_per_cycle: peak,
            fraction_of_peak: wpc / peak,
        }),
        _ => None,
    };

    TraceReport {
        schema_version: TRACE_REPORT_SCHEMA_VERSION,
        wall_ns,
        workers,
        events: snap.events.len() as u64,
        dropped: snap.dropped,
        open_spans: snap.open_spans,
        nesting_violations,
        busy_ns_total,
        idle_ns_total,
        imbalance_ratio,
        per_worker,
        layers,
        steal_latency,
        roofline,
    }
}

impl TraceReport {
    /// Sum of the per-layer shares (incl. `other_busy` and `idle`); 1 up
    /// to u64 rounding for a well-formed timeline (`process_cli.rs`
    /// asserts `|1 − Σ| ≤ 0.01` on a real run).
    pub fn share_sum(&self) -> f64 {
        self.layers.iter().map(|l| l.share).sum()
    }

    /// Serializes to the stable JSON validated by
    /// `schemas/trace_report.schema.json` (hand-rolled; offline build).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(s, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"events\": {},", self.events);
        let _ = writeln!(s, "  \"dropped\": {},", self.dropped);
        let _ = writeln!(s, "  \"open_spans\": {},", self.open_spans);
        let _ = writeln!(s, "  \"nesting_violations\": {},", self.nesting_violations);
        let _ = writeln!(s, "  \"busy_ns_total\": {},", self.busy_ns_total);
        let _ = writeln!(s, "  \"idle_ns_total\": {},", self.idle_ns_total);
        match self.imbalance_ratio {
            Some(r) => {
                let _ = writeln!(s, "  \"imbalance_ratio\": {r:.6},");
            }
            None => s.push_str("  \"imbalance_ratio\": null,\n"),
        }
        let _ = writeln!(s, "  \"share_sum\": {:.6},", self.share_sum());
        s.push_str("  \"per_worker\": [\n");
        for (i, w) in self.per_worker.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"worker\": {}, \"busy_ns\": {}, \"idle_ns\": {}, \
                 \"busy_fraction\": {:.6}, \"spans\": {}, \"chunks\": {}, \"steals\": {}}}",
                w.worker, w.busy_ns, w.idle_ns, w.busy_fraction, w.spans, w.chunks, w.steals
            );
            s.push_str(if i + 1 == self.per_worker.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("  ],\n  \"layers\": [\n");
        for (i, l) in self.layers.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"layer\": \"{}\", \"ns\": {}, \"share\": {:.6}}}",
                l.layer, l.ns, l.share
            );
            s.push_str(if i + 1 == self.layers.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("  ],\n");
        match &self.steal_latency {
            Some(sl) => {
                let _ = writeln!(
                    s,
                    "  \"steal_latency\": {{\"count\": {}, \"p50_ns\": {}, \
                     \"p90_ns\": {}, \"max_ns\": {}}},",
                    sl.count, sl.p50_ns, sl.p90_ns, sl.max_ns
                );
            }
            None => s.push_str("  \"steal_latency\": null,\n"),
        }
        match &self.roofline {
            Some(r) => {
                let _ = writeln!(
                    s,
                    "  \"roofline\": {{\"words_per_cycle\": {:.6}, \
                     \"peak_words_per_cycle\": {:.6}, \"fraction_of_peak\": {:.6}}}",
                    r.words_per_cycle, r.peak_words_per_cycle, r.fraction_of_peak
                );
            }
            None => s.push_str("  \"roofline\": null\n"),
        }
        s.push_str("}\n");
        s
    }

    /// Renders the human-readable report (`--trace-report` stderr view).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "trace           : {} events, {} workers, wall {}",
            self.events,
            self.workers,
            crate::fmt_ns(self.wall_ns)
        );
        if self.dropped != 0 {
            let _ = writeln!(
                s,
                "  WARNING       : {} events dropped (ring overflow) — timeline incomplete",
                self.dropped
            );
        }
        if self.open_spans != 0 || self.nesting_violations != 0 {
            let _ = writeln!(
                s,
                "  WARNING       : {} open spans, {} nesting violations",
                self.open_spans, self.nesting_violations
            );
        }
        for w in &self.per_worker {
            let _ = writeln!(
                s,
                "  worker {:<3}    : busy {:>10} ({:5.1}%), {} chunks, {} stolen",
                w.worker,
                crate::fmt_ns(w.busy_ns),
                100.0 * w.busy_fraction,
                w.chunks,
                w.steals
            );
        }
        if let Some(r) = self.imbalance_ratio {
            let _ = writeln!(s, "imbalance       : {r:.3} (max busy / mean busy)");
        }
        let _ = writeln!(s, "layer shares    : (of workers x wall)");
        for l in &self.layers {
            let _ = writeln!(
                s,
                "  {:<14}: {:>10}  ({:5.1}%)",
                l.layer,
                crate::fmt_ns(l.ns),
                100.0 * l.share
            );
        }
        let _ = writeln!(s, "  share sum     : {:.4}", self.share_sum());
        if let Some(sl) = &self.steal_latency {
            let _ = writeln!(
                s,
                "steal latency   : n={} p50={} p90={} max={}",
                sl.count,
                crate::fmt_ns(sl.p50_ns),
                crate::fmt_ns(sl.p90_ns),
                crate::fmt_ns(sl.max_ns)
            );
        }
        if let Some(r) = &self.roofline {
            let _ = writeln!(
                s,
                "roofline        : {:.3} word-pairs/cycle of {:.1} peak ({:.1}% of peak)",
                r.words_per_cycle,
                r.peak_words_per_cycle,
                100.0 * r.fraction_of_peak
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::SpanEvent;

    fn ev(kind: SpanKind, worker: u32, start: u64, dur: u64, arg: u64) -> SpanEvent {
        SpanEvent {
            kind,
            worker,
            start_ns: start,
            dur_ns: dur,
            arg,
        }
    }

    fn snap(events: Vec<SpanEvent>) -> TraceSnapshot {
        TraceSnapshot {
            events,
            dropped: 0,
            open_spans: 0,
            capacity_per_worker: 64,
            workers: 2,
        }
    }

    fn base_report(wall: u64, threads: usize) -> MetricsReport {
        MetricsReport::capture()
            .with_wall_ns(wall)
            .with_threads(threads)
    }

    #[test]
    fn shares_tile_the_area() {
        // worker 0: one chunk [0,100) containing pack_a [10,40) and
        // kernel [40,90); worker 1: chunk [0,50).
        let s = snap(vec![
            ev(SpanKind::Chunk, 0, 0, 100, 0),
            ev(SpanKind::PackA, 0, 10, 30, 0),
            ev(SpanKind::KernelBatch, 0, 40, 50, 0),
            ev(SpanKind::Chunk, 1, 0, 50, 0),
        ]);
        let r = analyze(&s, &base_report(100, 2), None);
        assert_eq!(r.wall_ns, 100);
        assert_eq!(r.workers, 2);
        assert_eq!(r.nesting_violations, 0);
        assert_eq!(r.busy_ns_total, 150, "nested spans count once");
        assert_eq!(r.idle_ns_total, 50);
        let get = |name: &str| r.layers.iter().find(|l| l.layer == name).unwrap();
        assert_eq!(get("pack_a").ns, 30);
        assert_eq!(get("kernel").ns, 50);
        assert_eq!(get("other_busy").ns, 70); // chunk overhead
        assert_eq!(get("idle").ns, 50);
        assert!((r.share_sum() - 1.0).abs() < 1e-9);
        // imbalance: busy 100 vs 50 → max 100 / mean 75
        let imb = r.imbalance_ratio.unwrap();
        assert!((imb - 100.0 / 75.0).abs() < 1e-9);
    }

    #[test]
    fn detects_partial_overlap() {
        let s = snap(vec![
            ev(SpanKind::PackA, 0, 0, 50, 0),
            ev(SpanKind::PackB, 0, 25, 50, 0), // overlaps without nesting
        ]);
        let r = analyze(&s, &base_report(100, 1), None);
        assert_eq!(r.nesting_violations, 1);
        assert_eq!(r.busy_ns_total, 75, "union, not sum");
    }

    #[test]
    fn steal_latency_percentiles() {
        let s = snap(vec![
            ev(SpanKind::Chunk, 0, 0, 10, 0 << 1),
            ev(SpanKind::Chunk, 0, 30, 10, (1 << 1) | 1), // stolen, gap 20
            ev(SpanKind::Chunk, 0, 45, 10, (2 << 1) | 1), // stolen, gap 5
        ]);
        let r = analyze(&s, &base_report(100, 1), None);
        let sl = r.steal_latency.unwrap();
        assert_eq!(sl.count, 2);
        assert_eq!(sl.p50_ns, 5);
        assert_eq!(sl.max_ns, 20);
        assert_eq!(r.per_worker[0].steals, 2);
        assert_eq!(r.per_worker[0].chunks, 3);
    }

    #[test]
    fn roofline_needs_context() {
        let s = snap(vec![ev(SpanKind::KernelBatch, 0, 0, 10, 0)]);
        let r = analyze(&s, &base_report(10, 1), Some(1.0));
        // capture() has no tsc_hz → no roofline
        assert!(r.roofline.is_none());

        let mut rep = base_report(10, 1).with_tsc_hz(Some(1e9));
        rep.counters[crate::Counter::KernelNs as usize] = 1_000;
        rep.counters[crate::Counter::KernelWords as usize] = 500;
        let r = analyze(&s, &rep, Some(1.0));
        let roof = r.roofline.unwrap();
        assert!((roof.words_per_cycle - 0.5).abs() < 1e-9);
        assert!((roof.fraction_of_peak - 0.5).abs() < 1e-9);
    }

    #[test]
    fn json_is_schema_shaped() {
        let s = snap(vec![
            ev(SpanKind::Chunk, 0, 0, 100, 1),
            ev(SpanKind::SlabEmit, 0, 100, 0, 0),
        ]);
        let r = analyze(&s, &base_report(100, 1), None);
        let j = r.to_json();
        for key in [
            "schema_version",
            "wall_ns",
            "workers",
            "events",
            "dropped",
            "open_spans",
            "nesting_violations",
            "busy_ns_total",
            "idle_ns_total",
            "imbalance_ratio",
            "share_sum",
            "per_worker",
            "layers",
            "steal_latency",
            "roofline",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!(j.contains("\"steal_latency\": null"));
        assert!(j.contains("\"roofline\": null"));
        // instants do not contribute busy time
        assert_eq!(r.busy_ns_total, 100);
    }

    #[test]
    fn empty_snapshot_analyzes_cleanly() {
        let r = analyze(&snap(vec![]), &MetricsReport::capture(), None);
        assert_eq!(r.events, 0);
        assert_eq!(r.busy_ns_total, 0);
        assert!(r.imbalance_ratio.is_none());
        assert!((r.share_sum() - 1.0).abs() < 1e-9, "idle fills the area");
        let _ = r.render_text();
    }
}
