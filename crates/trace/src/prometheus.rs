//! Prometheus text-exposition (v0.0.4) encoder over the `ld-trace`
//! counters, the serve-telemetry histograms, and caller-supplied gauges.
//!
//! ## Naming conventions
//!
//! Every metric carries the `gemm_ld_` prefix. Monotonic counters get a
//! `_total` suffix (`gemm_ld_requests_shed_total`); the one peak gauge
//! among the counters (`alloc_peak_bytes`) is exposed as a gauge without
//! it. Latency histograms are in **seconds** per Prometheus base-unit
//! convention, with `le` bounds at the log₂ bucket ceilings
//! (`…_bucket{le="2e-09"} …`, last ceiling folded into `+Inf`):
//!
//! * `gemm_ld_request_seconds{outcome=…}` — end-to-end latency per
//!   terminal outcome (`ok`, `shed`, `timeout`, …);
//! * `gemm_ld_request_service_seconds{opcode=…}` — worker/inline service
//!   time per opcode;
//! * `gemm_ld_request_queue_seconds` — admission-queue wait.
//!
//! Rolling-window quantiles are point-in-time **gauges** (a Prometheus
//! histogram is cumulative and cannot expire samples):
//! `gemm_ld_request_window_seconds{window="10s",quantile="0.99"}` and
//! `gemm_ld_request_window_count{window=…,result="ok"|"err"}`.
//!
//! The encoder ([`render`]) is a pure function of its inputs — counters,
//! a [`ServeTelemetry`] snapshot and the caller's gauges — so the golden
//! test can pin the exposition byte-for-byte, and the daemon feeds it the
//! counters of the one state snapshot its `health` body is rendered from.

use crate::histogram::{bucket_ceiling_ns, HistogramSnapshot, BUCKETS};
use crate::telemetry::ServeTelemetry;
use crate::Counter;
use std::fmt::Write as _;

/// One caller-supplied gauge sample. `labels` is the inner label-pair
/// block (e.g. `panel="chr1"`), empty for an unlabelled gauge; values in
/// label position must already be escaped with [`escape_label_value`].
/// Same-name samples must be adjacent so `# TYPE` is emitted once.
#[derive(Clone, Debug, PartialEq)]
pub struct PromGauge {
    /// Full metric name (caller includes the `gemm_ld_` prefix).
    pub name: String,
    /// One-line help text.
    pub help: &'static str,
    /// Inner label block (without braces), possibly empty.
    pub labels: String,
    /// Sample value.
    pub value: f64,
}

impl PromGauge {
    /// Convenience constructor for an unlabelled gauge.
    pub fn new(name: &str, help: &'static str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            help,
            labels: String::new(),
            value,
        }
    }
}

/// Escapes a string for use inside a Prometheus label value (`\\`, `\"`
/// and newline per the v0.0.4 spec).
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn header(out: &mut String, name: &str, help: &str, ty: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {ty}");
}

fn sample(out: &mut String, name: &str, labels: &str, value: f64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// The `le` bound (seconds) of log₂ bucket `i`, or `+Inf` for the last.
fn le_bound(i: usize) -> String {
    if i + 1 == BUCKETS {
        "+Inf".to_string()
    } else {
        (bucket_ceiling_ns(i) as f64 / 1e9).to_string()
    }
}

/// Writes one histogram metric (HELP/TYPE once, then the
/// `_bucket`/`_sum`/`_count` triple per label set). `series` holds
/// `(inner label block, snapshot)` pairs; the label block is `label`
/// rendered as `key="value"` or empty.
fn write_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(String, &HistogramSnapshot)],
) {
    header(out, name, help, "histogram");
    for (labels, snap) in series {
        let mut cumulative = 0u64;
        for i in 0..BUCKETS {
            cumulative += snap.buckets[i];
            let le = le_bound(i);
            let inner = if labels.is_empty() {
                format!("le=\"{le}\"")
            } else {
                format!("{labels},le=\"{le}\"")
            };
            let _ = writeln!(out, "{name}_bucket{{{inner}}} {cumulative}");
        }
        let sum_s = snap.sum_ns as f64 / 1e9;
        if labels.is_empty() {
            let _ = writeln!(out, "{name}_sum {sum_s}");
            let _ = writeln!(out, "{name}_count {}", snap.count);
        } else {
            let _ = writeln!(out, "{name}_sum{{{labels}}} {sum_s}");
            let _ = writeln!(out, "{name}_count{{{labels}}} {}", snap.count);
        }
    }
}

/// Short help text for a counter's exposition line.
fn counter_help(c: Counter) -> &'static str {
    match c {
        Counter::PackANs => "Nanoseconds packing A micro-panels",
        Counter::PackBNs => "Nanoseconds packing B micro-panels",
        Counter::KernelNs => "Nanoseconds in the popcount micro-kernel",
        Counter::TransformNs => "Nanoseconds in the statistic transform",
        Counter::KernelTiles => "Micro-tiles computed",
        Counter::KernelWords => "AND+POPCNT word-pair operations",
        Counter::BytesPacked => "Bytes written into pack buffers",
        Counter::SlabsEmitted => "Row slabs completed by the fused pipeline",
        Counter::BudgetShrinks => "Times the memory budget shrank the slab height",
        Counter::AllocPeakBytes => "Peak modeled transient footprint in bytes",
        Counter::TilesClaimed => "Dynamic-scheduler chunks claimed",
        Counter::IoLinesRead => "Input text lines parsed",
        Counter::IoBytesRead => "Input bytes consumed",
        Counter::CancelPolls => "Cancellation-token polls by the driver",
        Counter::CheckpointsWritten => "Checkpoint snapshots flushed",
        Counter::ResumeSlabsSkipped => "Slabs restored from a checkpoint",
        Counter::TraceEventsDropped => "Flight-recorder events dropped to full rings",
        Counter::ShardsLaunched => "Shard child processes spawned",
        Counter::ShardRetries => "Shard attempts re-dispatched after a failure",
        Counter::MergeSpansValidated => "Shard slab spans validated during merge",
        Counter::ChunksRead => "Tile-store chunks decoded",
        Counter::StoreBytesRead => "Bytes streamed out of a tile store",
        Counter::RequestsAccepted => "Queries accepted into the request queue",
        Counter::RequestsShed => "Queries rejected by admission control",
        Counter::RequestsFailed => "Accepted queries that failed internally",
        Counter::PanelsEvicted => "Resident panels evicted under memory pressure",
        Counter::PairsTransformed => "Statistic values computed from counts",
    }
}

/// Renders the full exposition from explicit inputs (pure; the golden
/// test pins its output byte-for-byte). `counters` is in
/// [`Counter::ALL`] order; `gauges` are appended last, and same-name
/// gauges must be adjacent.
pub fn render(
    counters: &[u64; Counter::COUNT],
    tel: &ServeTelemetry,
    gauges: &[PromGauge],
) -> String {
    let mut out = String::with_capacity(32 * 1024);
    for (i, c) in Counter::ALL.iter().enumerate() {
        let v = counters[i];
        if matches!(c, Counter::AllocPeakBytes) {
            header(
                &mut out,
                "gemm_ld_alloc_peak_bytes",
                counter_help(*c),
                "gauge",
            );
            let _ = writeln!(out, "gemm_ld_alloc_peak_bytes {v}");
        } else {
            let name = format!("gemm_ld_{}_total", c.name());
            header(&mut out, &name, counter_help(*c), "counter");
            let _ = writeln!(out, "{name} {v}");
        }
    }
    let outcome_series: Vec<(String, &HistogramSnapshot)> = tel
        .total_by_outcome
        .iter()
        .map(|(label, snap)| (format!("outcome=\"{label}\""), snap))
        .collect();
    write_histogram(
        &mut out,
        "gemm_ld_request_seconds",
        "End-to-end request latency by terminal outcome",
        &outcome_series,
    );
    let opcode_series: Vec<(String, &HistogramSnapshot)> = tel
        .service_by_opcode
        .iter()
        .map(|(label, snap)| (format!("opcode=\"{label}\""), snap))
        .collect();
    write_histogram(
        &mut out,
        "gemm_ld_request_service_seconds",
        "Service time by opcode",
        &opcode_series,
    );
    write_histogram(
        &mut out,
        "gemm_ld_request_queue_seconds",
        "Admission-queue wait",
        &[(String::new(), &tel.queue_wait)],
    );
    if !tel.windows.is_empty() {
        header(
            &mut out,
            "gemm_ld_request_window_seconds",
            "Rolling-window success-latency quantiles (bucket upper bounds)",
            "gauge",
        );
        for w in &tel.windows {
            for (q, v) in [("0.5", w.p50_ns), ("0.99", w.p99_ns)] {
                if let Some(ns) = v {
                    let _ = writeln!(
                        out,
                        "gemm_ld_request_window_seconds{{window=\"{}\",quantile=\"{q}\"}} {}",
                        w.window,
                        ns as f64 / 1e9
                    );
                }
            }
        }
        header(
            &mut out,
            "gemm_ld_request_window_count",
            "Requests inside each rolling window by result",
            "gauge",
        );
        for w in &tel.windows {
            for (r, v) in [("ok", w.count), ("err", w.err_count)] {
                let _ = writeln!(
                    out,
                    "gemm_ld_request_window_count{{window=\"{}\",result=\"{r}\"}} {v}",
                    w.window
                );
            }
        }
    }
    let mut prev: Option<&str> = None;
    for g in gauges {
        if prev != Some(g.name.as_str()) {
            header(&mut out, &g.name, g.help, "gauge");
            prev = Some(g.name.as_str());
        }
        sample(&mut out, &g.name, &g.labels, g.value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn le_bounds_are_seconds_with_inf_tail() {
        assert_eq!(le_bound(0), "0.000000001");
        assert_eq!(le_bound(BUCKETS - 1), "+Inf");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_count() {
        let mut snap = HistogramSnapshot::default();
        snap.buckets[0] = 2;
        snap.buckets[10] = 3;
        snap.count = 5;
        snap.sum_ns = 1_000_000;
        let mut out = String::new();
        write_histogram(&mut out, "m", "h", &[(String::new(), &snap)]);
        assert!(out.contains("m_bucket{le=\"0.000000001\"} 2"));
        assert!(out.contains("m_bucket{le=\"+Inf\"} 5"));
        assert!(out.contains("m_count 5"));
        assert!(out.contains("m_sum 0.001"));
        // cumulative counts never decrease
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.starts_with("m_bucket")) {
            let v: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|t| t.parse().ok())
                .unwrap_or(0);
            assert!(v >= last, "non-monotone bucket line: {line}");
            last = v;
        }
    }

    #[test]
    fn type_lines_appear_once_per_metric() {
        let tel = crate::telemetry::serve_telemetry();
        let text = render(
            &crate::counters(),
            &tel,
            &[
                PromGauge::new("gemm_ld_queue_depth", "Jobs waiting", 3.0),
                PromGauge {
                    name: "gemm_ld_panel_bytes".into(),
                    help: "Resident bytes per panel",
                    labels: format!("panel=\"{}\"", escape_label_value("a")),
                    value: 10.0,
                },
                PromGauge {
                    name: "gemm_ld_panel_bytes".into(),
                    help: "Resident bytes per panel",
                    labels: format!("panel=\"{}\"", escape_label_value("b")),
                    value: 20.0,
                },
            ],
        );
        let mut seen = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap_or("");
                assert!(seen.insert(name.to_string()), "duplicate TYPE for {name}");
            }
        }
        assert!(seen.contains("gemm_ld_requests_shed_total"));
        assert!(seen.contains("gemm_ld_request_seconds"));
        assert!(text.contains("gemm_ld_panel_bytes{panel=\"a\"} 10"));
    }
}
