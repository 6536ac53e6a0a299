//! Malformed-frame corpus: every entry must yield a *typed* error
//! response (never a panic, never a wedged daemon), and the server must
//! answer a well-formed request immediately afterwards.
//!
//! Satellite of the serve PR — the wire-level analogue of the PR 8
//! store-corruption corpus in `crates/io/tests/corpus.rs`.

use ld_serve::protocol::{Request, Response, StatCode, Status, MAGIC, MAX_REQUEST_PAYLOAD};
use ld_serve::registry::{PanelRegistry, PanelSource};
use ld_serve::server::{DrainOutcome, ServeConfig, Server, ServerHandle};
use ld_serve::Client;
use std::io::Write as _;
use std::net::Shutdown;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ld_serve_corpus_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Deterministic 0/1 text panel (rows = samples).
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
    let mut f = std::fs::File::create(&path).expect("create panel");
    f.write_all(text.as_bytes()).expect("write panel");
    path
}

fn start_server(tag: &str) -> (ServerHandle, PathBuf) {
    let dir = temp_dir(tag);
    let panel = write_panel(&dir, "toy", 16, 12, 42);
    let engine = ld_core::LdEngine::new()
        .threads(1)
        .nan_policy(ld_core::NanPolicy::Zero);
    let mut registry = PanelRegistry::new(engine, 1 << 20);
    assert!(registry.add_source("toy", PanelSource::TextFile(panel)));
    let cfg = ServeConfig {
        frame_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg, registry).expect("bind");
    let handle = server.spawn().expect("spawn");
    (handle, dir)
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string(), Duration::from_secs(5)).expect("connect")
}

/// A well-formed pair request must succeed — proves the daemon survived
/// whatever the corpus threw at it.
fn assert_still_serving(handle: &ServerHandle) {
    let mut c = connect(handle);
    let resp = c
        .request(&Request::Pair {
            panel: "toy".into(),
            stat: StatCode::RSquared,
            i: 0,
            j: 1,
        })
        .expect("valid request after corpus entry");
    assert_eq!(resp.status, Status::Ok, "body: {}", resp.message());
    assert_eq!(resp.body.len(), 8);
}

/// Sends raw bytes, half-closes the write side so the server sees EOF,
/// and reads whatever response (if any) comes back.
fn send_and_collect(handle: &ServerHandle, bytes: &[u8]) -> Option<Response> {
    let mut c = connect(handle);
    c.send_raw_bytes(bytes).expect("send corpus bytes");
    c.stream().shutdown(Shutdown::Write).expect("half-close");
    c.read_response().ok()
}

fn valid_payload() -> Vec<u8> {
    Request::Pair {
        panel: "toy".into(),
        stat: StatCode::RSquared,
        i: 0,
        j: 1,
    }
    .encode()
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut b = (payload.len() as u32).to_le_bytes().to_vec();
    b.extend_from_slice(payload);
    b
}

#[test]
fn corpus_every_malformation_yields_typed_error_and_daemon_survives() {
    let (handle, dir) = start_server("sweep");

    // --- stream-level damage: typed BadRequest, then close ---------

    // 1. Truncated frame: prefix promises 100 bytes, 10 arrive then EOF.
    let mut truncated = 100u32.to_le_bytes().to_vec();
    truncated.extend_from_slice(&[0u8; 10]);
    let resp = send_and_collect(&handle, &truncated).expect("response to truncation");
    assert_eq!(resp.status, Status::BadRequest, "{}", resp.message());
    assert_still_serving(&handle);

    // 2. Oversized declared length: rejected before any allocation.
    let oversized = ((MAX_REQUEST_PAYLOAD + 1) as u32).to_le_bytes().to_vec();
    let resp = send_and_collect(&handle, &oversized).expect("response to oversize");
    assert_eq!(resp.status, Status::BadRequest, "{}", resp.message());
    assert!(resp.message().contains("oversized"), "{}", resp.message());
    assert_still_serving(&handle);

    // 3. Truncated length prefix itself (2 of 4 bytes, then EOF).
    let resp = send_and_collect(&handle, &[7, 0]).expect("response to short prefix");
    assert_eq!(resp.status, Status::BadRequest, "{}", resp.message());
    assert_still_serving(&handle);

    // --- payload-level damage: typed BadRequest, connection SURVIVES

    let payload_cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty payload", Vec::new()),
        ("bad magic", {
            let mut p = valid_payload();
            p[0] ^= 0xFF;
            p
        }),
        ("bad opcode", {
            let mut p = valid_payload();
            p[4] = 0x7E;
            p
        }),
        ("bit-flipped stat byte", {
            let mut p = valid_payload();
            p[5] = 0xEE;
            p
        }),
        ("truncated body", {
            let mut p = valid_payload();
            p.truncate(p.len() - 3);
            p
        }),
        ("trailing garbage", {
            let mut p = valid_payload();
            p.extend_from_slice(b"zzz");
            p
        }),
        ("invalid utf-8 panel name", {
            let mut p = MAGIC.to_vec();
            p.push(1); // OP_PAIR
            p.push(0); // stat
            p.extend_from_slice(&2u16.to_le_bytes());
            p.extend_from_slice(&[0xFF, 0xFE]); // not UTF-8
            p.extend_from_slice(&0u32.to_le_bytes());
            p.extend_from_slice(&1u32.to_le_bytes());
            p
        }),
        (
            "NaN region threshold",
            Request::Region {
                panel: "toy".into(),
                stat: StatCode::RSquared,
                row0: 0,
                row1: 0,
                min_r2: f64::NAN,
            }
            .encode(),
        ),
    ];

    for (label, payload) in payload_cases {
        let mut c = connect(&handle);
        c.send_raw_bytes(&framed(&payload)).expect("send");
        let resp = c.read_response().expect(label);
        assert_eq!(
            resp.status,
            Status::BadRequest,
            "{label}: {}",
            resp.message()
        );
        // Same connection keeps working: payload damage never poisons
        // the stream.
        let ok = c
            .request(&Request::Pair {
                panel: "toy".into(),
                stat: StatCode::RSquared,
                i: 1,
                j: 2,
            })
            .unwrap_or_else(|e| panic!("{label}: follow-up failed: {e}"));
        assert_eq!(ok.status, Status::Ok, "{label}: follow-up not Ok");
    }

    assert_still_serving(&handle);
    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn half_open_connection_is_detected_and_reaped() {
    let (handle, dir) = start_server("halfopen");

    // Start a frame, then go silent (no close, no more bytes): the
    // frame timeout must fire and answer with a typed error.
    let mut c = connect(&handle);
    c.send_raw_bytes(&20u32.to_le_bytes()).expect("send prefix");
    c.send_raw_bytes(&[1, 2, 3]).expect("send partial body");
    // Do NOT close; just wait past the server's frame timeout.
    let resp = c.read_response().expect("typed half-open response");
    assert_eq!(resp.status, Status::BadRequest, "{}", resp.message());

    // The stalled connection consumed no worker: the pool still serves.
    assert_still_serving(&handle);
    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn random_bitflip_sweep_never_kills_the_daemon() {
    let (handle, dir) = start_server("bitflip");
    let base = valid_payload();
    // Flip every bit of the valid payload, one at a time. Every result
    // must be a typed response (Ok for no-op flips that still decode,
    // BadRequest/NotFound otherwise) — never a dead server.
    for bit in 0..base.len() * 8 {
        let mut p = base.clone();
        p[bit / 8] ^= 1 << (bit % 8);
        let mut c = connect(&handle);
        c.send_raw_bytes(&framed(&p)).expect("send");
        let resp = c.read_response().unwrap_or_else(|e| {
            panic!("bit {bit}: no typed response ({e})");
        });
        assert!(
            matches!(
                resp.status,
                Status::Ok | Status::BadRequest | Status::NotFound
            ),
            "bit {bit}: unexpected status {:?}",
            resp.status
        );
    }
    assert_still_serving(&handle);
    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}
