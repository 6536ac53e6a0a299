//! Telemetry-plane integration: the `metrics` and `dump_trace` opcodes,
//! the plain-HTTP scrape endpoint, the structured request log's
//! lifecycle contract, and JSON-escaping of hostile panel names
//! end-to-end through `health`.

use ld_serve::protocol::{Request, StatCode, Status};
use ld_serve::registry::{PanelRegistry, PanelSource};
use ld_serve::server::{ServeConfig, Server, ServerHandle};
use ld_serve::Client;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ld_serve_tel_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_panel(dir: &Path, name: &str, n_samples: usize, n_snps: usize, seed: u64) -> PathBuf {
    let mut state = seed | 1;
    let mut text = String::new();
    for _ in 0..n_samples {
        for _ in 0..n_snps {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            text.push(if (state >> 33) & 1 == 1 { '1' } else { '0' });
        }
        text.push('\n');
    }
    let path = dir.join(format!("{name}.txt"));
    std::fs::write(&path, text).expect("write panel");
    path
}

fn registry_with(dir: &Path, names: &[&str]) -> PanelRegistry {
    let engine = ld_core::LdEngine::new()
        .threads(1)
        .nan_policy(ld_core::NanPolicy::Zero);
    let mut registry = PanelRegistry::new(engine, 1 << 20);
    for (i, name) in names.iter().enumerate() {
        let panel = write_panel(dir, &format!("p{i}"), 16, 12, 42 + i as u64);
        assert!(registry.add_source(*name, PanelSource::TextFile(panel)));
    }
    registry
}

fn start(tag: &str, cfg: ServeConfig, names: &[&str]) -> (ServerHandle, PathBuf) {
    let dir = temp_dir(tag);
    let registry = registry_with(&dir, names);
    let server = Server::bind(cfg, registry).expect("bind");
    let handle = server.spawn().expect("spawn");
    (handle, dir)
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string(), Duration::from_secs(5)).expect("connect")
}

#[test]
fn metrics_opcode_returns_prometheus_text() {
    let (handle, dir) = start("metrics_op", ServeConfig::default(), &["toy"]);
    let mut c = connect(&handle);
    // generate one served query so counters move
    let resp = c
        .request(&Request::Pair {
            panel: "toy".into(),
            stat: StatCode::RSquared,
            i: 0,
            j: 1,
        })
        .expect("pair");
    assert_eq!(resp.status, Status::Ok);
    let resp = c.request(&Request::Metrics).expect("metrics");
    assert_eq!(resp.status, Status::Ok);
    let text = String::from_utf8(resp.body).expect("utf-8 exposition");
    for needle in [
        "# TYPE gemm_ld_requests_accepted_total counter",
        "# TYPE gemm_ld_request_queue_seconds histogram",
        "gemm_ld_queue_depth ",
        "gemm_ld_uptime_seconds ",
        "gemm_ld_workers ",
        "gemm_ld_registry_budget_bytes ",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in exposition");
    }
    // every line is a comment or `name[{labels}] value`
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.rsplit_once(' ').is_some(),
            "malformed exposition line: {line:?}"
        );
    }
    handle.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn http_endpoint_serves_metrics_and_health() {
    let cfg = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    let (handle, dir) = start("http", cfg, &["toy"]);
    let maddr = handle.metrics_addr().expect("metrics addr bound");
    let get = |path: &str| -> String {
        let mut s = TcpStream::connect(maddr).expect("connect metrics port");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        write!(s, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").expect("send");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        out
    };
    let metrics = get("/metrics");
    assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
    assert!(metrics.contains("text/plain; version=0.0.4"));
    assert!(metrics.contains("gemm_ld_requests_accepted_total"));
    let health = get("/health");
    assert!(health.starts_with("HTTP/1.0 200 OK\r\n"));
    assert!(health.contains("application/json"));
    assert!(health.contains("\"state\": \"serving\""));
    let missing = get("/nope");
    assert!(missing.starts_with("HTTP/1.0 404"));
    handle.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn dump_trace_opcode_requires_an_armed_recorder() {
    let (handle, dir) = start("dump_trace", ServeConfig::default(), &["toy"]);
    let mut c = connect(&handle);
    let resp = c.request(&Request::DumpTrace).expect("dump-trace");
    // No recorder armed in the test process yet: a typed NotFound.
    assert_eq!(resp.status, Status::NotFound, "body: {}", resp.message());
    ld_trace::recorder::start(ld_trace::recorder::RecorderConfig::for_threads(1));
    let resp = c.request(&Request::DumpTrace).expect("dump-trace armed");
    assert_eq!(resp.status, Status::Ok, "body: {}", resp.message());
    let json = String::from_utf8(resp.body).expect("utf-8 trace");
    assert!(
        json.contains("\"traceEvents\""),
        "not a Chrome trace: {json}"
    );
    // the recorder must still be armed after the live snapshot
    let again = c.request(&Request::DumpTrace).expect("second dump");
    assert_eq!(again.status, Status::Ok);
    let _ = ld_trace::recorder::stop();
    handle.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// Pulls `"key":value` (number) or `"key":"value"` (string) out of a
/// hand-rolled JSON line — enough structure for the contract checks;
/// the CI leg runs the real schema validator over the same file.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

#[test]
fn request_log_records_full_lifecycles() {
    let dir = temp_dir("reqlog");
    let log_path = dir.join("requests.jsonl");
    let cfg = ServeConfig {
        request_log: Some(log_path.to_string_lossy().into_owned()),
        fault_panel: true,
        ..ServeConfig::default()
    };
    let registry = registry_with(&dir, &["toy"]);
    let server = Server::bind(cfg, registry).expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut c = connect(&handle);
    // ok query, not-found query, inline health, contained panic
    let ok = c
        .request(&Request::Pair {
            panel: "toy".into(),
            stat: StatCode::RSquared,
            i: 0,
            j: 1,
        })
        .expect("pair");
    assert_eq!(ok.status, Status::Ok);
    let nf = c
        .request(&Request::Pair {
            panel: "ghost".into(),
            stat: StatCode::RSquared,
            i: 0,
            j: 1,
        })
        .expect("pair ghost");
    assert_eq!(nf.status, Status::NotFound);
    assert_eq!(
        c.request(&Request::Health).expect("health").status,
        Status::Ok
    );
    let boom = c
        .request(&Request::Pair {
            panel: "__panic__".into(),
            stat: StatCode::RSquared,
            i: 0,
            j: 1,
        })
        .expect("panic panel");
    assert_eq!(boom.status, Status::Internal);
    handle.shutdown_and_wait();

    let text = std::fs::read_to_string(&log_path).expect("read request log");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 10, "expected a full log, got:\n{text}");
    let rank = |ev: &str| match ev {
        "accept" => 0,
        "admit" | "shed" => 1,
        "start" => 2,
        "timeout" | "panic" => 3,
        "finish" => 4,
        other => panic!("unknown event {other:?}"),
    };
    let mut per_id: std::collections::BTreeMap<u64, Vec<&str>> = Default::default();
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with("{\"ts_ms\":") && line.ends_with('}'),
            "line {i}: {line}"
        );
        assert_eq!(
            field(line, "seq").expect("seq").parse::<u64>().ok(),
            Some(i as u64)
        );
        let id: u64 = field(line, "id").expect("id").parse().expect("numeric id");
        per_id
            .entry(id)
            .or_default()
            .push(field(line, "event").expect("event"));
    }
    assert_eq!(per_id.len(), 4, "one lifecycle per request:\n{text}");
    let mut saw_panic = false;
    for (id, events) in &per_id {
        assert_eq!(events[0], "accept", "id {id} must open with accept");
        let terminal = events.last().expect("events");
        assert!(
            matches!(*terminal, "finish" | "shed" | "timeout"),
            "id {id} must close terminally, got {events:?}"
        );
        for pair in events.windows(2) {
            assert!(
                rank(pair[0]) < rank(pair[1]),
                "id {id}: event order violated: {events:?}"
            );
        }
        saw_panic |= events.contains(&"panic");
    }
    assert!(
        saw_panic,
        "the __panic__ lifecycle must log a panic event:\n{text}"
    );
    // the panicking request still finished with status internal
    let internal = lines
        .iter()
        .any(|l| field(l, "event") == Some("finish") && field(l, "status") == Some("internal"));
    assert!(internal, "panic must close as finish/internal:\n{text}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn request_log_stages_account_for_client_latency() {
    const REGIONS: usize = 20;
    // The daemon stops its clock when its write returns; the client, on
    // another CPU, can have read the last byte a few µs before that — or
    // milliseconds before, when the daemon's thread is preempted on its
    // way out of the write (seen at 2-4 ms with three suites sharing two
    // CPUs). The pause between requests is longer than this slack, so a
    // `total_ns` that started before the request's first byte still fails.
    const CLOCK_SLACK_NS: i64 = 10_000_000;
    const PAUSE: Duration = Duration::from_millis(20);
    // Client latency minus the daemon's `total_ns` is the client's own
    // write and read plus two wake-ups on loopback: tens of µs. A frame
    // waiting out a delayed ACK outside the daemon's clock adds >= 40 ms.
    const MEDIAN_GAP_NS: i64 = 5_000_000;
    let dir = temp_dir("stages");
    let log_path = dir.join("requests.jsonl");
    let cfg = ServeConfig {
        request_log: Some(log_path.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let engine = ld_core::LdEngine::new()
        .threads(1)
        .nan_policy(ld_core::NanPolicy::Zero);
    let mut registry = PanelRegistry::new(engine, 1 << 20);
    let panel = write_panel(&dir, "wide", 64, 120, 5);
    assert!(registry.add_source("wide", PanelSource::TextFile(panel)));
    let handle = Server::bind(cfg, registry)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let region = Request::Region {
        panel: "wide".into(),
        stat: StatCode::RSquared,
        row0: 0,
        row1: 0,
        min_r2: 0.0,
    };
    let mut c = connect(&handle);
    // the first region loads the panel; the timed ones find it resident
    assert_eq!(c.request(&region).expect("load").status, Status::Ok);
    let mut client_ns = Vec::with_capacity(REGIONS);
    for _ in 0..REGIONS {
        std::thread::sleep(PAUSE);
        let t0 = std::time::Instant::now();
        let resp = c.request(&region).expect("region");
        client_ns.push(t0.elapsed().as_nanos() as i64);
        assert_eq!(resp.status, Status::Ok, "{}", resp.message());
        assert!(resp.body.len() > 100_000, "a multi-segment reply");
    }
    // the drain waits for every terminal event: each is logged before
    // its request stops counting as in flight
    handle.shutdown_and_wait();

    let text = std::fs::read_to_string(&log_path).expect("read request log");
    let finishes: Vec<&str> = text
        .lines()
        .filter(|l| field(l, "event") == Some("finish"))
        .collect();
    assert_eq!(
        finishes.len(),
        REGIONS + 1,
        "one finish per region:\n{text}"
    );
    let stage = |line: &str, key: &str| -> u64 {
        field(line, key)
            .unwrap_or_else(|| panic!("no {key} on a queued finish: {line}"))
            .parse()
            .unwrap_or_else(|_| panic!("{key} is not a non-negative integer: {line}"))
    };
    let mut gaps = Vec::with_capacity(REGIONS);
    // ids follow arrival order on the one connection; skip the load
    for (line, &client) in finishes[1..].iter().zip(&client_ns) {
        let [read, queue, service, write, total] =
            ["read_ns", "queue_ns", "service_ns", "write_ns", "total_ns"].map(|k| stage(line, k));
        assert!(
            read + queue + service + write <= total,
            "stages exceed total_ns: {line}"
        );
        let gap = client - total as i64;
        assert!(
            gap >= -CLOCK_SLACK_NS,
            "daemon total {total} ns > client-observed {client} ns + slack: {line}"
        );
        gaps.push(gap);
    }
    gaps.sort_unstable();
    let median = gaps[gaps.len() / 2];
    assert!(
        median <= MEDIAN_GAP_NS,
        "median client − daemon gap {median} ns > {MEDIAN_GAP_NS} ns: time is \
         spent outside the logged stages (gaps: {gaps:?})"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn health_json_escapes_hostile_panel_names() {
    let dir = temp_dir("escape");
    let hostile = "evil\"panel\\name\twith\nnewline";
    let registry = registry_with(&dir, &[hostile]);
    let server = Server::bind(ServeConfig::default(), registry).expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut c = connect(&handle);
    let resp = c.request(&Request::Health).expect("health");
    assert_eq!(resp.status, Status::Ok);
    let body = String::from_utf8(resp.body).expect("utf-8 health");
    assert!(
        body.contains(r#"evil\"panel\\name\twith\nnewline"#),
        "panel name not escaped: {body}"
    );
    assert!(
        !body.contains("with\nnewline"),
        "raw newline leaked into JSON"
    );
    handle.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(dir);
}
