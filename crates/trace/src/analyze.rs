//! Timeline analysis: turns a [`TraceSnapshot`] into the `timeline`
//! section of a [`MetricsReport`](crate::MetricsReport) — per-worker
//! busy/idle fractions, load-imbalance ratio and per-layer wall shares.
//!
//! ## Accounting model
//!
//! All wall-share arithmetic is **span-based**, so the shares tile the
//! `workers × wall` area exactly:
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
use std::fmt::Write as _;

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

/// The span-timeline section of a run report.
#[derive(Clone, Debug, PartialEq)]
pub struct Timeline {
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
}

/// Analyzes a snapshot over the window `wall_ns` (the caller-measured run
/// wall; `None` or 0 takes the span horizon) on `threads` worker
/// timelines (at least the workers observed).
pub fn analyze(snap: &TraceSnapshot, wall_ns: Option<u64>, threads: u64) -> Timeline {
    let span_horizon = snap
        .events
        .iter()
        .map(|e| e.start_ns.saturating_add(e.dur_ns))
        .max()
        .unwrap_or(0);
    let wall_ns = wall_ns.filter(|&w| w > 0).unwrap_or(span_horizon);

    // --- per-worker pass over the (worker, start)-sorted events ---------
    let mut per_worker: Vec<WorkerActivity> = Vec::new();
    let mut nesting_violations = 0u64;
    let mut layer_ns = [0u64; SpanKind::COUNT];

    let mut i = 0;
    while i < snap.events.len() {
        let w = snap.events[i].worker;
        let mut busy = 0u64;
        let mut cur_end = 0u64;
        while i < snap.events.len() && snap.events[i].worker == w {
            let e = &snap.events[i];
            i += 1;
            layer_ns[e.kind as usize] = layer_ns[e.kind as usize].saturating_add(e.dur_ns);
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
        per_worker.push(WorkerActivity {
            worker: w,
            busy_ns: busy,
            idle_ns: wall_ns.saturating_sub(busy),
            busy_fraction: if wall_ns > 0 {
                busy as f64 / wall_ns as f64
            } else {
                0.0
            },
        });
    }

    let observed = per_worker.len() as u64;
    let workers = threads.max(observed).max(1);
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
    let share = |layer, ns: u64| LayerShare {
        layer,
        ns,
        share: ns as f64 / area as f64,
    };
    let mut layers: Vec<LayerShare> = SpanKind::ALL
        .into_iter()
        .filter(|k| k.is_leaf_layer())
        .map(|k| share(k.name(), layer_ns[k as usize]))
        .collect();
    let leaf_sum = layers.iter().fold(0u64, |a, l| a.saturating_add(l.ns));
    layers.push(share(
        "other_busy",
        busy_ns_total - leaf_sum.min(busy_ns_total),
    ));
    layers.push(share("idle", idle_ns_total));

    Timeline {
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
    }
}

impl Timeline {
    /// Sum of the per-layer shares (incl. `other_busy` and `idle`); 1 up
    /// to u64 rounding for a well-formed timeline (`process_cli.rs`
    /// asserts `|1 − Σ| ≤ 0.01` on a real run).
    pub fn share_sum(&self) -> f64 {
        self.layers.iter().map(|l| l.share).sum()
    }

    /// Writes the section as the JSON object value of the report's
    /// `timeline` key, indented for its place in the document.
    pub(crate) fn write_json(&self, s: &mut String) {
        s.push_str("{\n");
        let _ = writeln!(s, "    \"workers\": {},", self.workers);
        let _ = writeln!(s, "    \"events\": {},", self.events);
        let _ = writeln!(s, "    \"dropped\": {},", self.dropped);
        let _ = writeln!(s, "    \"open_spans\": {},", self.open_spans);
        let _ = writeln!(
            s,
            "    \"nesting_violations\": {},",
            self.nesting_violations
        );
        let _ = writeln!(s, "    \"busy_ns_total\": {},", self.busy_ns_total);
        let _ = writeln!(s, "    \"idle_ns_total\": {},", self.idle_ns_total);
        match self.imbalance_ratio {
            Some(r) => {
                let _ = writeln!(s, "    \"imbalance_ratio\": {r:.6},");
            }
            None => s.push_str("    \"imbalance_ratio\": null,\n"),
        }
        let _ = writeln!(s, "    \"share_sum\": {:.6},", self.share_sum());
        s.push_str("    \"per_worker\": [");
        for (i, w) in self.per_worker.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "      {{\"worker\": {}, \"busy_ns\": {}, \"idle_ns\": {}, \"busy_fraction\": {:.6}}}",
                w.worker, w.busy_ns, w.idle_ns, w.busy_fraction
            );
        }
        s.push_str("\n    ],\n    \"layers\": [");
        for (i, l) in self.layers.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "      {{\"layer\": \"{}\", \"ns\": {}, \"share\": {:.6}}}",
                l.layer, l.ns, l.share
            );
        }
        s.push_str("\n    ]\n  }");
    }

    /// Writes the section's human-readable lines (the `--profile=text`
    /// view).
    pub(crate) fn write_text(&self, s: &mut String) {
        let _ = writeln!(
            s,
            "timeline        : {} events on {} workers",
            self.events, self.workers
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
                "  worker {:<3}    : busy {:>10} ({:5.1}%)",
                w.worker,
                crate::fmt_ns(w.busy_ns),
                100.0 * w.busy_fraction
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
        let r = analyze(&s, Some(100), 2);
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
        let r = analyze(&s, Some(100), 1);
        assert_eq!(r.nesting_violations, 1);
        assert_eq!(r.busy_ns_total, 75, "union, not sum");
    }

    #[test]
    fn json_is_schema_shaped() {
        let s = snap(vec![
            ev(SpanKind::Chunk, 0, 0, 100, 1),
            ev(SpanKind::SlabEmit, 0, 100, 0, 0),
        ]);
        let r = analyze(&s, Some(100), 1);
        let mut j = String::new();
        r.write_json(&mut j);
        for key in [
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
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}");
        }
        // instants do not contribute busy time
        assert_eq!(r.busy_ns_total, 100);
    }

    #[test]
    fn empty_snapshot_analyzes_cleanly() {
        let r = analyze(&snap(vec![]), None, 0);
        assert_eq!(r.events, 0);
        assert_eq!(r.busy_ns_total, 0);
        assert!(r.imbalance_ratio.is_none());
        assert!((r.share_sum() - 1.0).abs() < 1e-9, "idle fills the area");
        let (mut j, mut t) = (String::new(), String::new());
        r.write_json(&mut j);
        r.write_text(&mut t);
        assert!(j.contains("\"per_worker\": [\n    ]"), "{j}");
    }
}
