//! Golden test of the Chrome trace-event exporter and the analysis
//! report's schema fidelity.
//!
//! The exporter is a pure function of the snapshot, so a fixed
//! deterministic two-worker snapshot must serialize to an exact byte
//! string — any drift in the Perfetto fields (`ph`/`pid`/`tid`/`ts`/
//! `dur`) is a breaking change for downstream tooling and must show up
//! here as a diff, not in someone's trace viewer.

use ld_trace::analyze::analyze;
use ld_trace::export::chrome_trace_json;
use ld_trace::recorder::{SpanEvent, SpanKind, TraceSnapshot};
use ld_trace::MetricsReport;

/// A deterministic two-worker timeline: worker 0 packs inside a chunk,
/// worker 1 runs a stolen chunk and emits a slab marker.
fn two_worker_snapshot() -> TraceSnapshot {
    TraceSnapshot {
        events: vec![
            SpanEvent {
                kind: SpanKind::Chunk,
                worker: 0,
                start_ns: 1_000,
                dur_ns: 9_000,
                arg: 0, // chunk 0, not stolen
            },
            SpanEvent {
                kind: SpanKind::PackA,
                worker: 0,
                start_ns: 2_000,
                dur_ns: 3_000,
                arg: 512,
            },
            SpanEvent {
                kind: SpanKind::Chunk,
                worker: 1,
                start_ns: 10_000,
                dur_ns: 5_000,
                arg: 3, // chunk 1, stolen
            },
            SpanEvent {
                kind: SpanKind::SlabEmit,
                worker: 1,
                start_ns: 11_500,
                dur_ns: 0,
                arg: 7,
            },
        ],
        dropped: 0,
        open_spans: 0,
        capacity_per_worker: 16,
        workers: 2,
    }
}

#[test]
fn chrome_trace_json_matches_golden() {
    let golden = concat!(
        "{\"traceEvents\":[\n",
        "  {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"worker-0\"}},\n",
        "  {\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"worker-1\"}},\n",
        "  {\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"chunk\",\"ts\":1.000,\"dur\":9.000,\"args\":{\"arg\":0}},\n",
        "  {\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"pack_a\",\"ts\":2.000,\"dur\":3.000,\"args\":{\"arg\":512}},\n",
        "  {\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"chunk\",\"ts\":10.000,\"dur\":5.000,\"args\":{\"arg\":3}},\n",
        "  {\"ph\":\"i\",\"pid\":1,\"tid\":1,\"name\":\"slab_emit\",\"ts\":11.500,\"s\":\"t\",\"args\":{\"arg\":7}}\n",
        "],\"displayTimeUnit\":\"ms\",\"metadata\":{\"trace_events_dropped\":0,\"capacity_per_worker\":16,\"workers\":2}}\n",
    );
    assert_eq!(chrome_trace_json(&two_worker_snapshot()), golden);
}

/// Top-level keys `trace_report.schema.json` marks required, kept in one
/// place so the test pins the report and the schema against each other.
const REQUIRED_KEYS: [&str; 15] = [
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
];

#[test]
fn trace_report_json_carries_every_schema_required_key() {
    let snap = two_worker_snapshot();
    let report = MetricsReport::capture()
        .with_wall_ns(15_000)
        .with_threads(2);
    let json = analyze(&snap, &report, Some(8.0)).to_json();
    let schema = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/trace_report.schema.json"
    ))
    .expect("schema file must exist");
    for key in REQUIRED_KEYS {
        let quoted = format!("\"{key}\"");
        assert!(json.contains(&quoted), "report JSON lacks {quoted}");
        assert!(schema.contains(&quoted), "schema lacks {quoted}");
    }
    // The analysis invariant `process_cli.rs` holds a real run to: the layer
    // partition tiles the workers × wall area, so shares sum to 1.
    let rep = analyze(&snap, &report, None);
    assert!(
        (rep.share_sum() - 1.0).abs() < 0.01,
        "layer shares must sum to 1 within 1%, got {}",
        rep.share_sum()
    );
}

#[test]
fn perfetto_fields_are_well_formed_on_every_event_line() {
    let json = chrome_trace_json(&two_worker_snapshot());
    let mut spans = 0;
    let mut instants = 0;
    for line in json.lines().filter(|l| l.trim_start().starts_with('{')) {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"ph\":") {
            continue;
        }
        assert!(line.contains("\"pid\":1"), "event lacks pid: {line}");
        assert!(line.contains("\"tid\":"), "event lacks tid: {line}");
        if line.contains("\"ph\":\"X\"") {
            assert!(line.contains("\"ts\":"), "complete event lacks ts: {line}");
            assert!(
                line.contains("\"dur\":"),
                "complete event lacks dur: {line}"
            );
            spans += 1;
        } else if line.contains("\"ph\":\"i\"") {
            assert!(line.contains("\"ts\":"), "instant lacks ts: {line}");
            assert!(line.contains("\"s\":\"t\""), "instant lacks scope: {line}");
            instants += 1;
        }
    }
    assert_eq!(spans, 3);
    assert_eq!(instants, 1);
}
