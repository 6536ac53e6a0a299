//! End-to-end daemon behavior: byte-identity with the one-shot CLI
//! table writer, typed load-shedding, worker-panic isolation, deadline
//! enforcement, and the graceful drain.

use ld_core::{LdEngine, LdStats, NanPolicy};
use ld_serve::protocol::{Request, StatCode, Status};
use ld_serve::registry::{PanelRegistry, PanelSource};
use ld_serve::server::{DrainOutcome, ServeConfig, Server, ServerHandle};
use ld_serve::{request_with_retry, Client};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ld_serve_e2e_{}_{tag}", std::process::id()));
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
    let mut f = std::fs::File::create(&path).expect("create panel");
    f.write_all(text.as_bytes()).expect("write panel");
    path
}

fn engine() -> LdEngine {
    LdEngine::new().threads(1).nan_policy(NanPolicy::Zero)
}

fn start(tag: &str, cfg: ServeConfig) -> (ServerHandle, PathBuf) {
    let dir = temp_dir(tag);
    let panel = write_panel(&dir, "toy", 20, 16, 11);
    let mut registry = PanelRegistry::new(engine(), 1 << 20);
    assert!(registry.add_source("toy", PanelSource::TextFile(panel)));
    let handle = Server::bind(cfg, registry)
        .expect("bind")
        .spawn()
        .expect("spawn");
    (handle, dir)
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string(), Duration::from_secs(10)).expect("connect")
}

fn pair_req(i: u32, j: u32) -> Request {
    Request::Pair {
        panel: "toy".into(),
        stat: StatCode::RSquared,
        i,
        j,
    }
}

/// The exact bytes `gemm-ld r2 -o` writes for this panel.
fn expected_table(dir: &Path, min_r2: f64) -> String {
    let f = std::fs::File::open(dir.join("toy.txt")).expect("open panel");
    let g = ld_io::text::read_matrix(std::io::BufReader::new(f)).expect("parse panel");
    let m = engine().stat_matrix(&g, LdStats::RSquared);
    let mut out = String::from("SNP_A\tSNP_B\tR2\n");
    for (i, j, v) in m.iter_pairs() {
        if !v.is_nan() && v >= min_r2 {
            out.push_str(&format!("snp{i}\tsnp{j}\t{v:.6}\n"));
        }
    }
    out
}

#[test]
fn region_response_is_byte_identical_to_cli_table() {
    let (handle, dir) = start("bytes", ServeConfig::default());
    let mut c = connect(&handle);
    for &min_r2 in &[0.0, 0.2, 0.5] {
        let resp = c
            .request(&Request::Region {
                panel: "toy".into(),
                stat: StatCode::RSquared,
                row0: 0,
                row1: 0, // whole panel
                min_r2,
            })
            .expect("region");
        assert_eq!(resp.status, Status::Ok, "{}", resp.message());
        assert_eq!(
            String::from_utf8(resp.body).expect("utf8"),
            expected_table(&dir, min_r2),
            "served region must match the one-shot CLI bytes (min_r2={min_r2})"
        );
    }
    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fifty_pairs_on_one_persistent_connection_take_under_a_second() {
    // A frame that waits out a delayed ACK costs >= 40 ms, so 50 stalled
    // exchanges take >= 2 s; 50 exchanges that cost their work take
    // a few ms even in a debug build.
    let (handle, dir) = start("persist", ServeConfig::default());
    let mut c = connect(&handle);
    assert_eq!(c.request(&pair_req(0, 1)).expect("warm").status, Status::Ok);
    let t0 = std::time::Instant::now();
    for k in 0..50u32 {
        let resp = c.request(&pair_req(k % 16, (k + 1) % 16)).expect("pair");
        assert_eq!(resp.status, Status::Ok, "{}", resp.message());
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "50 sequential pairs on one connection took {took:?}: a frame is waiting on the wire"
    );
    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn pair_response_matches_the_matrix_value() {
    let (handle, dir) = start("pair", ServeConfig::default());
    let f = std::fs::File::open(dir.join("toy.txt")).expect("open panel");
    let g = ld_io::text::read_matrix(std::io::BufReader::new(f)).expect("parse panel");
    let m = engine().stat_matrix(&g, LdStats::RSquared);

    let mut c = connect(&handle);
    for (i, j) in [(0u32, 1u32), (3, 7), (15, 2)] {
        let resp = c.request(&pair_req(i, j)).expect("pair");
        assert_eq!(resp.status, Status::Ok, "{}", resp.message());
        let bytes: [u8; 8] = resp.body.as_slice().try_into().expect("8-byte f64");
        let got = f64::from_bits(u64::from_le_bytes(bytes));
        assert_eq!(got, m.get(i as usize, j as usize), "pair ({i},{j})");
    }
    // Out-of-range indices: typed BadRequest, daemon keeps serving.
    let resp = c.request(&pair_req(0, 999)).expect("oob");
    assert_eq!(resp.status, Status::BadRequest);
    let resp = c.request(&pair_req(0, 1)).expect("after oob");
    assert_eq!(resp.status, Status::Ok);

    // Unknown panel: typed NotFound.
    let resp = c
        .request(&Request::Pair {
            panel: "missing".into(),
            stat: StatCode::RSquared,
            i: 0,
            j: 1,
        })
        .expect("unknown panel");
    assert_eq!(resp.status, Status::NotFound);

    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn overload_sheds_with_typed_responses_and_recovers() {
    // One slow worker, queue depth 1: concurrent requests MUST shed.
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        inject_delay: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let (handle, dir) = start("shed", cfg);
    let addr = handle.addr().to_string();

    let clients: Vec<_> = (0..6)
        .map(|k| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
                c.request(&pair_req(0, (k + 1) as u32)).expect("response")
            })
        })
        .collect();
    let mut ok = 0usize;
    let mut shed = 0usize;
    for t in clients {
        let resp = t.join().expect("client thread");
        match resp.status {
            Status::Ok => ok += 1,
            Status::Shed => {
                shed += 1;
                assert!(
                    resp.message().contains("queue full"),
                    "shed must name the exhausted resource: {}",
                    resp.message()
                );
            }
            other => panic!("unexpected status {other:?}: {}", resp.message()),
        }
    }
    assert!(ok >= 1, "some requests must be served");
    assert!(shed >= 1, "overload must shed, not stall");

    // Load gone: the daemon recovers without restart.
    std::thread::sleep(Duration::from_millis(400));
    let mut c = connect(&handle);
    let resp = c.request(&pair_req(0, 1)).expect("after overload");
    assert_eq!(resp.status, Status::Ok);

    // A retrying client rides out the shed with jittered backoff.
    let backoff = ld_parallel::Backoff::new(Duration::from_millis(10), Duration::from_millis(100));
    let resp = request_with_retry(&addr, &pair_req(0, 2), 5, Duration::from_secs(10), &backoff)
        .expect("retry");
    assert_eq!(resp.status, Status::Ok);

    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn worker_panic_poisons_only_that_request() {
    let cfg = ServeConfig {
        fault_panel: true,
        ..ServeConfig::default()
    };
    let (handle, dir) = start("panic", cfg);
    let mut c = connect(&handle);

    let resp = c
        .request(&Request::Pair {
            panel: "__panic__".into(),
            stat: StatCode::RSquared,
            i: 0,
            j: 1,
        })
        .expect("panic request still answered");
    assert_eq!(resp.status, Status::Internal, "{}", resp.message());
    assert!(
        resp.message().contains("isolated"),
        "message should state the containment: {}",
        resp.message()
    );

    // Same connection, next request: the pool is intact.
    let resp = c.request(&pair_req(0, 1)).expect("after panic");
    assert_eq!(resp.status, Status::Ok);

    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn expired_deadline_yields_typed_timeout() {
    let cfg = ServeConfig {
        workers: 1,
        request_timeout: Duration::from_millis(30),
        inject_delay: Duration::from_millis(120),
        ..ServeConfig::default()
    };
    let (handle, dir) = start("deadline", cfg);
    let addr = handle.addr().to_string();

    // Two back-to-back requests on one worker: the second sits in the
    // queue past its deadline and must be answered Timeout, not run.
    let t1 = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("c1");
            c.request(&pair_req(0, 1)).expect("r1")
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    let mut c2 = connect(&handle);
    let r2 = c2.request(&pair_req(0, 2)).expect("r2");
    let r1 = t1.join().expect("t1");

    let statuses = [r1.status, r2.status];
    assert!(
        statuses.contains(&Status::Timeout),
        "a queued request past its deadline must time out, got {statuses:?}"
    );
    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn drain_completes_in_flight_work_with_identical_bytes() {
    let cfg = ServeConfig {
        workers: 1,
        inject_delay: Duration::from_millis(200),
        drain_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let (handle, dir) = start("drain", cfg);
    let expected = expected_table(&dir, 0.0);
    let addr = handle.addr().to_string();

    // Put a region request in flight, then trip shutdown mid-compute.
    let inflight = std::thread::spawn(move || {
        let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
        c.request(&Request::Region {
            panel: "toy".into(),
            stat: StatCode::RSquared,
            row0: 0,
            row1: 0,
            min_r2: 0.0,
        })
        .expect("in-flight response")
    });
    std::thread::sleep(Duration::from_millis(60));
    let token = handle.shutdown_token();
    token.cancel_with_reason("test shutdown");

    let resp = inflight.join().expect("in-flight thread");
    assert_eq!(
        resp.status,
        Status::Ok,
        "in-flight work must complete during drain: {}",
        resp.message()
    );
    assert_eq!(
        String::from_utf8(resp.body).expect("utf8"),
        expected,
        "drained response must be byte-identical to the one-shot table"
    );
    assert_eq!(handle.wait(), DrainOutcome::Drained);

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn drain_deadline_abandons_stragglers_with_typed_responses() {
    let cfg = ServeConfig {
        workers: 1,
        inject_delay: Duration::from_millis(800),
        drain_timeout: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let (handle, dir) = start("hard", cfg);
    let addr = handle.addr().to_string();

    // One executing + one queued, then shutdown with a drain window far
    // shorter than the injected delay.
    let threads: Vec<_> = (0..2)
        .map(|k| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
                c.request(&pair_req(0, (k + 1) as u32)).expect("response")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown_token().cancel_with_reason("test shutdown");

    let outcome = handle.wait();
    assert!(
        matches!(outcome, DrainOutcome::DeadlineExceeded { abandoned } if abandoned >= 1),
        "drain must report abandoned work, got {outcome:?}"
    );
    // Every client still gets a typed response — nothing hangs.
    // (Ok if it finished, ShuttingDown if abandoned in the queue,
    // Timeout if the hard stop cancelled its compute mid-slab.)
    for t in threads {
        let resp = t.join().expect("client");
        assert!(
            matches!(
                resp.status,
                Status::Ok | Status::ShuttingDown | Status::Timeout
            ),
            "unexpected status {:?}: {}",
            resp.status,
            resp.message()
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_client_that_vanishes_before_its_reply_leaves_the_pool_serving() {
    // one worker, held long enough that every reply below finds its
    // socket already closed
    let cfg = ServeConfig {
        workers: 1,
        inject_delay: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let (handle, dir) = start("vanish", cfg);
    for _ in 0..4 {
        let mut c = connect(&handle);
        let region = Request::Region {
            panel: "toy".into(),
            stat: StatCode::RSquared,
            row0: 0,
            row1: 0,
            min_r2: 0.0,
        };
        c.send_raw_frame(&region.encode()).expect("send");
        drop(c); // gone before the worker answers
    }
    // queued behind the four orphans on the one worker: answered only if
    // writing to a dead socket neither wedged nor killed it
    let resp = connect(&handle)
        .request(&pair_req(0, 1))
        .expect("the pool answers after the orphans");
    assert_eq!(resp.status, Status::Ok, "{}", resp.message());
    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn health_reports_state_and_new_connections_refused_after_drain() {
    let (handle, dir) = start("health", ServeConfig::default());
    let mut c = connect(&handle);
    let resp = c.request(&Request::Health).expect("health");
    assert_eq!(resp.status, Status::Ok);
    let body = String::from_utf8(resp.body).expect("utf8");
    for needle in [
        "\"state\": \"serving\"",
        "\"queue_depth\"",
        "\"panels\"",
        "\"requests\"",
        "\"latency\"",
        "\"toy\"",
    ] {
        assert!(body.contains(needle), "health missing {needle}: {body}");
    }

    let addr = handle.addr();
    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    // Listener closed: a fresh connect must fail fast.
    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(refused.is_err(), "daemon must stop accepting after drain");
    let _ = std::fs::remove_dir_all(dir);
}

/// Polls `health` until it reports `n` requests in flight and returns
/// that body: the interleavings below are forced, not slept for.
fn wait_in_flight(handle: &ServerHandle, n: usize) -> String {
    let needle = format!("\"in_flight\": {n},");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut c = connect(handle);
    loop {
        let resp = c.request(&Request::Health).expect("health");
        let body = String::from_utf8(resp.body).expect("utf8");
        if body.contains(&needle) {
            return body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never saw {needle} in: {body}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Sends `pair(0, j)` on a fresh connection from its own thread, which
/// returns the response and the instant it arrived.
fn send_pair(
    handle: &ServerHandle,
    j: u32,
) -> std::thread::JoinHandle<(ld_serve::Response, std::time::Instant)> {
    let addr = handle.addr().to_string();
    std::thread::spawn(move || {
        let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
        let resp = c.request(&pair_req(0, j)).expect("response");
        (resp, std::time::Instant::now())
    })
}

#[test]
fn a_waiting_request_is_answered_at_the_drain_deadline() {
    // one permit, held far past the drain deadline
    let cfg = ServeConfig {
        workers: 1,
        inject_delay: Duration::from_millis(800),
        drain_timeout: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let (handle, dir) = start("abandoned", cfg);
    let running = send_pair(&handle, 1);
    wait_in_flight(&handle, 1);
    let waiting = send_pair(&handle, 2);
    wait_in_flight(&handle, 2);

    let stopped = std::time::Instant::now();
    handle.shutdown_token().cancel_with_reason("test shutdown");
    let (resp, answered) = waiting.join().expect("waiting client");
    let (_, ran) = running.join().expect("running client");
    assert_eq!(resp.status, Status::ShuttingDown, "{}", resp.message());
    let after = answered - stopped;
    assert!(
        after < Duration::from_millis(500),
        "the waiting request was answered {after:?} after shutdown: it waited \
         out the running one instead of the drain deadline"
    );
    assert!(
        answered < ran,
        "the waiting request must be answered before the running one"
    );
    assert_eq!(
        handle.wait(),
        DrainOutcome::DeadlineExceeded { abandoned: 2 }
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn queue_depth_counts_the_requests_waiting_for_a_permit() {
    // one permit, held long enough for every check below
    let cfg = ServeConfig {
        workers: 1,
        inject_delay: Duration::from_millis(400),
        ..ServeConfig::default()
    };
    let (handle, dir) = start("depth", cfg);
    let mut clients = vec![send_pair(&handle, 1)];
    wait_in_flight(&handle, 1);
    clients.push(send_pair(&handle, 2));

    // one running, one waiting: only the waiting one is queued
    let health = wait_in_flight(&handle, 2);
    assert!(
        health.contains("\"queue_depth\": 1, \"in_flight\": 2,"),
        "{health}"
    );
    let metrics = connect(&handle)
        .request(&Request::Metrics)
        .expect("metrics");
    let text = String::from_utf8(metrics.body).expect("utf8");
    let gauge = text
        .lines()
        .find_map(|l| l.strip_prefix("gemm_ld_queue_depth "))
        .unwrap_or_else(|| panic!("no gemm_ld_queue_depth in:\n{text}"));
    assert_eq!(gauge.parse::<f64>().ok(), Some(1.0), "{gauge}");

    // three waiters, each arriving once the one before is counted
    for j in 3..=4 {
        clients.push(send_pair(&handle, j));
        wait_in_flight(&handle, j as usize);
    }
    let health = wait_in_flight(&handle, 4);
    assert!(health.contains("\"queue_depth\": 3,"), "{health}");

    // one permit: the replies leave in the order the permit was taken
    let answered: Vec<_> = clients
        .into_iter()
        .map(|t| {
            let (resp, at) = t.join().expect("client");
            assert_eq!(resp.status, Status::Ok, "{}", resp.message());
            at
        })
        .collect();
    assert!(
        answered.windows(2).all(|w| w[0] < w[1]),
        "waiters must be admitted in arrival order"
    );
    assert_eq!(handle.shutdown_and_wait(), DrainOutcome::Drained);
    let _ = std::fs::remove_dir_all(dir);
}
