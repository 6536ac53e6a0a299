//! What only a real `gemm-ld serve` process can show: signals. SIGINT
//! with a query in flight drains it and exits 0; an expired drain
//! deadline exits 5; a SIGKILLed daemon respawned on its port is
//! recovered by retrying clients; SIGUSR1 snapshots the live flight
//! recorder without disturbing service; connections start no thread in
//! steady state, and a burst's threads exit. The in-process twins of the
//! drain, overload and log-lifecycle checks live in `ld-serve`'s own
//! suites (`server.rs`, `telemetry.rs`).
//!
//! Interleavings are forced, not slept for: a query counts as "in flight"
//! once the daemon's own `health` says so (`Daemon::wait_in_flight`).

mod common;

use common::{
    connect, pair, read, run_ok, simulate, whole_region, Daemon, Scratch, SIGINT, SIGUSR1,
    WATCHDOG_S,
};
use ld_serve::protocol::Status;
use ld_serve::request_with_retry;
use ld_trace::json;
use std::io::{Read as _, Write as _};
use std::net::Shutdown;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Simulates the panel every test here serves.
fn panel(dir: &Scratch) -> String {
    let input = dir.path("panel.ms");
    simulate(&input, 200, 160, 23);
    input
}

#[test]
fn sigint_mid_region_drains_identical_bytes_and_exits_0() {
    let dir = Scratch::new("serve_drain");
    let input = panel(&dir);
    let oneshot = dir.path("oneshot.tsv");
    run_ok(&format!("r2 -i {input} --threads 2 -o {oneshot}"));

    // one worker that holds every query for 300 ms
    let slow = "--workers 1 --inject-delay-ms 300";
    let daemon = Daemon::spawn(&dir, "serve.err", &input, "127.0.0.1:0", slow);
    let addr = daemon.addr.clone();
    let in_flight = std::thread::spawn(move || connect(&addr).request(&whole_region()));
    daemon.wait_in_flight(1);
    daemon.signal(SIGINT);

    let resp = in_flight
        .join()
        .expect("client thread")
        .expect("the in-flight query is answered");
    assert_eq!(resp.status, Status::Ok, "{}", resp.message());
    assert!(
        resp.body == read(&oneshot),
        "drained region differs from `r2 -o`"
    );
    let addr = daemon.addr.clone();
    let done = daemon.exit();
    assert_eq!(done.code, Some(0), "{}", done.stderr);
    assert_eq!(done.last_line(), "SIGINT: drained cleanly, exiting");
    let refused = ld_serve::Client::connect(&addr, Duration::from_secs(1));
    assert!(refused.is_err(), "still accepting after the drain");
}

#[test]
fn expired_drain_deadline_exits_5_and_the_straggler_is_answered_typed() {
    let dir = Scratch::new("serve_deadline");
    let input = panel(&dir);
    let slow = "--workers 1 --inject-delay-ms 600 --drain-ms 0";
    let daemon = Daemon::spawn(&dir, "serve.err", &input, "127.0.0.1:0", slow);
    let addr = daemon.addr.clone();
    let straggler = std::thread::spawn(move || connect(&addr).request(&pair(0, 1)));
    daemon.wait_in_flight(1);
    daemon.signal(SIGINT);

    let done = daemon.exit();
    assert_eq!(done.code, Some(5), "{}", done.stderr);
    assert_eq!(
        done.last_line(),
        "error: SIGINT: drain deadline exceeded, 1 request(s) abandoned"
    );
    // abandoned, not dropped: Ok if its compute outran the hard stop,
    // Timeout if the stop cancelled it, ShuttingDown if it never ran
    let resp = straggler
        .join()
        .expect("client thread")
        .expect("the straggler gets a response");
    assert!(
        matches!(
            resp.status,
            Status::Ok | Status::Timeout | Status::ShuttingDown
        ),
        "{:?}: {}",
        resp.status,
        resp.message()
    );
}

#[test]
fn sigkilled_daemon_respawned_on_its_port_is_recovered_by_retrying_clients() {
    const CLIENTS: usize = 3;
    const REQUESTS: usize = 12;
    let dir = Scratch::new("serve_kill");
    let input = panel(&dir);
    let daemon = Daemon::spawn(&dir, "first.err", &input, "127.0.0.1:0", "");
    let addr = daemon.addr.clone();

    // each client reports every answer; the kill waits for one answer
    // per client, so the load is demonstrably under way when it lands
    let (tx, rx) = mpsc::channel();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (addr, tx) = (addr.clone(), tx.clone());
            std::thread::spawn(move || {
                let backoff = ld_parallel::Backoff::new(
                    Duration::from_millis(20),
                    Duration::from_millis(250),
                )
                .with_seed(c as u64);
                for k in 0..REQUESTS {
                    let req = pair(c as u32, (c + k + 1) as u32);
                    let timeout = Duration::from_secs(WATCHDOG_S);
                    let resp = request_with_retry(&addr, &req, 40, timeout, &backoff);
                    let _ = tx.send(resp.map(|r| r.status).map_err(|e| e.to_string()));
                    // pace the load so it spans the outage
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        })
        .collect();
    drop(tx);
    let next = |what: &str| {
        rx.recv_timeout(Duration::from_secs(3 * WATCHDOG_S))
            .unwrap_or_else(|_| panic!("a client hung {what}"))
    };
    let mut answers = Vec::new();
    while answers.len() < CLIENTS {
        answers.push(next("before the kill"));
    }
    daemon.sigkill();
    // same address: a client's next retry finds the new process
    let respawned = Daemon::spawn(&dir, "second.err", &input, &addr, "");
    assert_eq!(respawned.addr, addr);
    while answers.len() < CLIENTS * REQUESTS {
        answers.push(next("across the respawn"));
    }
    for t in clients {
        t.join().expect("client thread");
    }
    for (k, a) in answers.iter().enumerate() {
        assert_eq!(a.as_ref(), Ok(&Status::Ok), "answer {k}");
    }
    respawned.signal(SIGINT);
    assert_eq!(respawned.exit().code, Some(0));
}

/// `name{labels} value` sample lines of a text exposition.
fn samples(text: &str) -> Vec<(&str, f64)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').expect("sample line");
            (name, value.parse().expect("sample value"))
        })
        .collect()
}

#[test]
fn sigusr1_dumps_the_live_recorder_and_the_scrape_agrees_with_monitor() {
    let dir = Scratch::new("serve_telemetry");
    let input = panel(&dir);
    let dump = dir.path("dump.json");
    let plane = format!("--metrics-addr 127.0.0.1:0 --trace-dump {dump}");
    let daemon = Daemon::spawn(&dir, "serve.err", &input, "127.0.0.1:0", &plane);
    let mut c = connect(&daemon.addr);
    for j in 1..20 {
        assert_eq!(c.request(&pair(0, j)).expect("pair").status, Status::Ok);
    }

    // HTTP scrape first, `monitor --raw` (the metrics opcode) second:
    // gauges agree, counters only move forward
    let maddr = daemon.metrics_addr.as_deref().expect("metrics address");
    let mut http = std::net::TcpStream::connect(maddr).expect("connect scrape port");
    http.set_read_timeout(Some(Duration::from_secs(WATCHDOG_S)))
        .expect("timeout");
    http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("GET");
    let mut scrape = String::new();
    http.read_to_string(&mut scrape).expect("scrape");
    let (head, scrape) = scrape.split_once("\r\n\r\n").expect("header end");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    let opcode = run_ok(&format!("monitor {} --raw", daemon.addr)).stdout;
    let (scrape, opcode) = (samples(scrape), samples(&opcode));
    let lookup = |set: &[(&str, f64)], name: &str| {
        let hit = set.iter().find(|(n, _)| *n == name);
        hit.unwrap_or_else(|| panic!("no sample {name}")).1
    };
    for gauge in ["gemm_ld_workers", "gemm_ld_registry_budget_bytes"] {
        assert_eq!(lookup(&scrape, gauge), lookup(&opcode, gauge), "{gauge}");
    }
    let counters: Vec<_> = scrape
        .iter()
        .filter(|(n, _)| n.split('{').next().is_some_and(|n| n.ends_with("_total")))
        .collect();
    assert!(counters.len() >= 4, "{counters:?}");
    for (name, before) in counters {
        assert!(lookup(&opcode, name) >= *before, "{name} went backwards");
    }
    assert!(lookup(&opcode, "gemm_ld_requests_accepted_total") >= 19.0);

    // SIGUSR1: a Perfetto-loadable dump appears, and service goes on
    daemon.signal(SIGUSR1);
    let deadline = Instant::now() + Duration::from_secs(WATCHDOG_S);
    while !std::path::Path::new(&dump).exists() {
        assert!(Instant::now() < deadline, "no dump after SIGUSR1");
        std::thread::sleep(Duration::from_millis(5));
    }
    // the dump is written atomically: once visible it is complete
    let doc = json::parse(&read(&dump)).expect("dump is JSON");
    let events = doc.get("traceEvents").and_then(|e| e.as_array());
    let events = events.expect("traceEvents array");
    // armed before --preload, so the panel's compute spans are in it
    // (their encoding is `exporter_golden.rs`'s business)
    assert!(!events.is_empty(), "empty dump");
    assert_eq!(c.request(&pair(0, 1)).expect("pair").status, Status::Ok);

    daemon.signal(SIGINT);
    let done = daemon.exit();
    assert_eq!(done.code, Some(0), "{}", done.stderr);
    assert!(
        done.stderr
            .contains(&format!("trace dump #1: wrote {dump}\n")),
        "{}",
        done.stderr
    );
}

/// Threads the daemon's LDS1 pool keeps idle (`ld_serve::server`,
/// "Threading model"): a thread back from a connection exits when this
/// many are idle already.
const IDLE_THREADS: usize = 2;

/// A `Pair` on a fresh connection, checked `Ok`; then `during(…)` runs
/// with the connection still open, and the client half-closes and reads
/// to the daemon's close. The daemon closes a connection once its thread
/// is back in the pool, so the next connect finds the pool at rest.
fn pair_on_a_fresh_connection(addr: &str, during: impl FnOnce()) {
    let mut c = connect(addr);
    assert_eq!(c.request(&pair(0, 1)).expect("pair").status, Status::Ok);
    during();
    c.stream().shutdown(Shutdown::Write).expect("half-close");
    let mut rest = Vec::new();
    let mut stream = c.stream();
    stream.read_to_end(&mut rest).expect("read to the close");
    assert!(rest.is_empty(), "{} bytes after the reply", rest.len());
}

#[test]
fn connections_start_no_thread_at_rest_and_a_burst_leaves_none() {
    let dir = Scratch::new("serve_threads");
    let input = panel(&dir);
    let daemon = Daemon::spawn(&dir, "serve.err", &input, "127.0.0.1:0", "");
    // one connection served: the pool is up, at rest
    pair_on_a_fresh_connection(&daemon.addr, || {});
    let at_rest = daemon.threads();

    // sequential fresh connections: each is served by a pool thread, and
    // none starts or ends one
    for k in 0..64 {
        pair_on_a_fresh_connection(&daemon.addr, || {
            let now = daemon.threads();
            assert_eq!(
                now, at_rest,
                "connection {k}: {now} threads, {at_rest} at rest"
            );
        });
    }
    assert_eq!(daemon.threads(), at_rest, "after 64 sequential connections");

    // 16 persistent connections held at once: one thread each, plus the
    // one left in `accept`
    const HELD: usize = 16;
    let mut held: Vec<_> = (0..HELD).map(|_| connect(&daemon.addr)).collect();
    for (j, c) in held.iter_mut().enumerate() {
        let resp = c.request(&pair(0, j as u32 + 1)).expect("pair");
        assert_eq!(resp.status, Status::Ok, "{}", resp.message());
    }
    let busy = daemon.threads();
    assert_eq!(
        busy,
        at_rest - IDLE_THREADS + HELD + 1,
        "{HELD} held connections: {busy} threads, {at_rest} at rest"
    );

    // once they close, the extra threads exit: back to the count at rest
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(WATCHDOG_S);
    loop {
        let now = daemon.threads();
        if now == at_rest {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{now} threads {WATCHDOG_S} s after the burst closed, {at_rest} at rest"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // and the pool at rest still serves
    pair_on_a_fresh_connection(&daemon.addr, || {});
    daemon.signal(SIGINT);
    assert_eq!(daemon.exit().code, Some(0));
}
