//! The daemon: listener, admission gate, drain.
//!
//! ## Threading model
//!
//! One accept loop (the thread that calls [`Server::run`]) blocks in
//! `accept`; when the shutdown token trips, a waker thread makes one
//! connection to the bound address, and the loop, which re-checks the
//! token after every accept, stops. Each admitted connection gets one
//! thread, and that thread serves every request it reads: `health`,
//! `metrics` and `dump_trace` at once, point and region queries after
//! passing the admission gate — `workers` compute permits and
//! `queue_depth` waiting slots, one mutex and one condvar, waiters
//! admitted in arrival order. The permit is given back before the reply
//! is written: a permit never spans a socket write, so a slow or dead
//! client holds only its own thread (bounded further by a write
//! timeout), never compute capacity.
//!
//! ## Write model
//!
//! Every accepted socket has `TCP_NODELAY` on, and every reply leaves in
//! one vectored write of its frame ([`write_response`]): the body goes
//! from the `Vec` the query filled to the socket without a copy. The
//! connection thread times each request from its first byte to its last
//! reply byte and logs where that went — read, queue (the gate wait),
//! service, write — on the request's terminal log event, once the reply
//! is written.
//!
//! ## Admission and shedding
//!
//! Every query is refused at once or admitted to the gate:
//!
//! * every permit and every waiting slot taken → typed [`Status::Shed`]
//!   response, connection kept;
//! * panel memory budget exhausted after LRU eviction → `Shed`;
//! * per-request deadline expired waiting for a permit →
//!   [`Status::Timeout`], and the request never runs (counted as shed
//!   work);
//! * daemon draining → [`Status::ShuttingDown`].
//!
//! The connection thread runs each admitted request under
//! `catch_unwind`: a panic poisons only that request
//! ([`Status::Internal`]), mirroring the worker-panic containment in
//! `ld-parallel`. Each request carries a `Deadline` and a `CancelToken`
//! child of the server's hard-stop token; the fused engine polls both at
//! slab granularity.
//!
//! ## Lifecycle
//!
//! Tripping the shutdown token (SIGINT/SIGTERM in the CLI) stops the
//! accept loop, closes the listener, and drains: waiting and running
//! requests complete and their responses are written. If the drain
//! deadline expires first, the hard-stop token — tripped under the gate
//! lock — cancels running compute at the next slab boundary and wakes
//! every waiter, which is answered `ShuttingDown` at once. The drain
//! waits on a condvar the last in-flight request signals.
//! [`DrainOutcome`] reports which of the two happened — the CLI maps it
//! to exit code 0 (clean) or 5 (interrupted).

use crate::http;
use crate::protocol::{
    write_response, ProtoError, Request, Response, StatCode, Status, MAX_REQUEST_PAYLOAD,
};
use crate::registry::{PanelRegistry, RegistryError, RegistrySnapshot};
use crate::reqlog::{Event, RequestLog};
use ld_core::{CancelToken, Deadline, LdError, LdMatrix};
use ld_io::text::{packed_row_pairs, push_r2_row, r2_row_bound, R2_TABLE_HEADER};
use ld_trace::prometheus::PromGauge;
use ld_trace::telemetry::{record_served, serve_telemetry, total_latency, ServeOp, ServeOutcome};
use ld_trace::Counter;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How often the waker looks at the shutdown token, which can be polled
/// but not waited on. Bounds how late the accept loop hears of a
/// shutdown; nothing on the accept or request path waits for it.
const SHUTDOWN_POLL: Duration = Duration::from_millis(10);

/// Back-off after an `accept` error other than an aborted handshake
/// (out of descriptors or buffers): retrying at once would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Daemon tuning knobs; the defaults suit a loopback test instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Compute permits: how many admitted queries compute at once, each
    /// on the thread of the connection that sent it.
    pub workers: usize,
    /// Waiting slots: with every permit taken, this many queries wait
    /// for one in arrival order; one more is a `Shed`.
    pub queue_depth: usize,
    /// Concurrent connection bound; one more connect is shed at accept.
    pub max_connections: usize,
    /// Per-request deadline, enforced while waiting for a permit and at
    /// every slab.
    pub request_timeout: Duration,
    /// Socket write timeout — a client that stops reading is abandoned
    /// after this long, freeing its connection thread.
    pub write_timeout: Duration,
    /// A started frame must complete within this window (half-open
    /// connection detection).
    pub frame_timeout: Duration,
    /// How long `run` waits for in-flight work after shutdown before
    /// abandoning it.
    pub drain_timeout: Duration,
    /// Fault-injection aid: hold every request this long after it takes
    /// its permit, before computing (makes overload and drain windows
    /// deterministic in tests and CI; zero in production).
    pub inject_delay: Duration,
    /// Fault-injection aid: a query for panel `"__panic__"` panics its
    /// compute, exercising request isolation end-to-end.
    pub fault_panel: bool,
    /// Optional plain-HTTP listener (`host:port`, port 0 picks a free
    /// port) answering `GET /metrics` with the Prometheus text
    /// exposition and `GET /health` with the health JSON.
    pub metrics_addr: Option<String>,
    /// Optional structured JSON-lines request log (append-only); one
    /// event per lifecycle transition, see [`crate::reqlog`].
    pub request_log: Option<String>,
    /// Mirror requests whose total latency exceeds this many
    /// milliseconds to stderr on their terminal log event.
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            max_connections: 256,
            request_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(30),
            inject_delay: Duration::ZERO,
            fault_panel: false,
            metrics_addr: None,
            request_log: None,
            slow_ms: None,
        }
    }
}

/// How a drain ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every accepted request was answered before shutdown completed.
    Drained,
    /// The drain deadline expired; `abandoned` accepted requests were
    /// cancelled (each still received a typed response).
    DeadlineExceeded {
        /// Requests still in flight when the deadline hit.
        abandoned: usize,
    },
}

/// What an admitted query computes: the two opcodes that pass the gate
/// (the rest are answered without a permit).
#[derive(Clone, Copy)]
enum Query {
    /// One value of pair `(i, j)`.
    Pair { i: u32, j: u32 },
    /// The pair table of rows `[row0, row1)` (`0, 0` = the whole panel).
    Region { row0: u32, row1: u32, min_r2: f64 },
}

impl Query {
    /// The telemetry opcode label.
    fn op(self) -> ServeOp {
        match self {
            Query::Pair { .. } => ServeOp::Pair,
            Query::Region { .. } => ServeOp::Region,
        }
    }
}

/// The admission gate: `permits` queries compute at once, `slots` more
/// wait for a permit in arrival order, and the next one is shed. A free
/// permit goes to the oldest waiter, so a waiter that has not woken for
/// it yet holds a permit, not a slot.
struct Gate {
    permits: usize,
    slots: usize,
    state: Mutex<GateState>,
    /// Signalled (under `state`) when a permit frees, a waiter leaves,
    /// or the hard stop trips.
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Permits taken: queries computing.
    running: usize,
    /// Tickets of the queries waiting for a permit, oldest first.
    waiting: VecDeque<u64>,
    /// The next arrival's ticket.
    next: u64,
}

impl Gate {
    /// Takes a place in line, or `None` when every permit and every
    /// waiting slot is taken. [`Gate::pass`] redeems the ticket.
    fn join(&self) -> Option<u64> {
        let mut s = lock(&self.state);
        if s.running + s.waiting.len() >= self.permits + self.slots {
            return None;
        }
        let ticket = s.next;
        s.next += 1;
        s.waiting.push_back(ticket);
        Some(ticket)
    }

    /// Waits until `ticket` is the oldest in line and a permit is free,
    /// and takes the permit. Leaves the line without one — `Timeout` once
    /// `deadline` passes, `ShuttingDown` once `stop` trips.
    fn pass(
        &self,
        ticket: u64,
        deadline: Deadline,
        stop: &CancelToken,
    ) -> Result<Permit<'_>, Status> {
        let mut s = lock(&self.state);
        let passed = loop {
            if stop.is_cancelled() {
                break Err(Status::ShuttingDown);
            }
            if deadline.expired() {
                break Err(Status::Timeout);
            }
            if s.waiting.front() == Some(&ticket) && s.running < self.permits {
                s.running += 1;
                break Ok(Permit(self));
            }
            s = self
                .cv
                .wait_timeout(s, deadline.remaining())
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        s.waiting.retain(|&t| t != ticket);
        // the next in line may now be the oldest, with a permit free
        if !s.waiting.is_empty() {
            self.cv.notify_all();
        }
        passed
    }

    /// Trips `stop` and wakes every waiter, under the lock, so no waiter
    /// sits between its check and its wait.
    fn stop(&self, stop: &CancelToken, reason: &str) {
        let _state = lock(&self.state);
        stop.cancel_with_reason(reason);
        self.cv.notify_all();
    }

    /// Admitted queries that no permit covers: the `queue_depth` gauge.
    fn queued(&self) -> usize {
        let s = lock(&self.state);
        (s.running + s.waiting.len()).saturating_sub(self.permits)
    }
}

/// A compute permit, given back to its [`Gate`] on drop — before the
/// reply is written.
struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = lock(&self.0.state);
        s.running -= 1;
        if !s.waiting.is_empty() {
            self.0.cv.notify_all();
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    registry: PanelRegistry,
    gate: Gate,
    /// Stops the accept loop and starts the drain.
    shutdown: CancelToken,
    /// Cancels running compute and turns waiters away once the drain
    /// deadline expires; trip it through [`Gate::stop`].
    hard_stop: CancelToken,
    /// Admitted requests whose reply has not reached the socket yet
    /// (waiting, computing, or being written): what a drain waits for.
    in_flight: AtomicUsize,
    /// Signalled (under `settle`) when `in_flight` falls to zero.
    settled: Condvar,
    settle: Mutex<()>,
    conns: AtomicUsize,
    started: Instant,
    /// Structured request log, when `--request-log` is set.
    reqlog: Option<RequestLog>,
    /// Next request id (log correlation only; never on the wire).
    req_ids: AtomicU64,
}

impl Shared {
    fn next_id(&self) -> u64 {
        self.req_ids.fetch_add(1, Ordering::Relaxed)
    }

    fn log(&self, ev: &Event<'_>) {
        if let Some(log) = &self.reqlog {
            log.log(ev);
        }
    }

    /// Waits until no admitted request is in flight or `until` passes;
    /// returns how many still are.
    fn settle(&self, until: Instant) -> usize {
        let mut guard = lock(&self.settle);
        loop {
            let pending = self.in_flight.load(Ordering::Acquire);
            let left = until.saturating_duration_since(Instant::now());
            if pending == 0 || left.is_zero() {
                return pending;
            }
            guard = self
                .settled
                .wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks the calling
/// thread until shutdown; [`Server::spawn`] runs it on its own thread.
pub struct Server {
    listener: TcpListener,
    /// The listener's bound address (port 0 resolved).
    addr: SocketAddr,
    /// The metrics HTTP listener, pre-bound so `bind` fails fast on a
    /// bad `metrics_addr` and a `:0` port is resolvable before `run`.
    metrics_listener: Option<(TcpListener, SocketAddr)>,
    shared: Arc<Shared>,
}

/// Handle to a spawned server: its bound address and shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: CancelToken,
    join: std::thread::JoinHandle<DrainOutcome>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics HTTP address, when `metrics_addr` was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The token that initiates graceful shutdown when tripped.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// Trips shutdown and waits for the drain to finish.
    pub fn shutdown_and_wait(self) -> DrainOutcome {
        self.shutdown.cancel_with_reason("shutdown requested");
        self.wait()
    }

    /// Waits for the server thread (a panic there — a bug, the request
    /// path never unwinds into it — reports as a zero-abandon timeout).
    pub fn wait(self) -> DrainOutcome {
        self.join
            .join()
            .unwrap_or(DrainOutcome::DeadlineExceeded { abandoned: 0 })
    }
}

impl Server {
    /// Binds the listener and prepares the shared state. The daemon is
    /// not serving until [`run`](Server::run) / [`spawn`](Server::spawn).
    pub fn bind(cfg: ServeConfig, registry: PanelRegistry) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &cfg.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                let resolved = l.local_addr()?;
                Some((l, resolved))
            }
            None => None,
        };
        let reqlog = match &cfg.request_log {
            Some(path) => Some(RequestLog::open(Path::new(path), cfg.slow_ms)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            gate: Gate {
                permits: cfg.workers.max(1),
                slots: cfg.queue_depth,
                state: Mutex::default(),
                cv: Condvar::new(),
            },
            cfg,
            registry,
            shutdown: CancelToken::new(),
            hard_stop: CancelToken::new(),
            in_flight: AtomicUsize::new(0),
            settled: Condvar::new(),
            settle: Mutex::new(()),
            conns: AtomicUsize::new(0),
            started: Instant::now(),
            reqlog,
            req_ids: AtomicU64::new(0),
        });
        Ok(Server {
            listener,
            addr,
            metrics_listener,
            shared,
        })
    }

    /// The bound address (resolves a `:0` bind).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.addr)
    }

    /// The bound metrics HTTP address, when `metrics_addr` was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener.as_ref().map(|(_, a)| *a)
    }

    /// The token that initiates graceful shutdown when tripped.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shared.shutdown.clone()
    }

    /// Runs the daemon on this thread: accepts until the shutdown token
    /// trips, then drains and reports how the drain ended.
    pub fn run(self) -> DrainOutcome {
        let shared = Arc::clone(&self.shared);

        // Scrape endpoint: keeps answering through the drain (operators
        // watch the drain happen), stopped and woken at the end of `run`.
        let http_thread = self.metrics_listener.map(|(listener, addr)| {
            let s = Arc::clone(&shared);
            let stop = shared.hard_stop.clone();
            let thread = std::thread::spawn(move || {
                http::serve_http(&listener, &stop, move |path| match path {
                    "/metrics" => {
                        Some((Snapshot::gather(&s).metrics_text(), http::CONTENT_TYPE_PROM))
                    }
                    "/health" => Some((Snapshot::gather(&s).health_json(), "application/json")),
                    _ => None,
                })
            });
            (thread, addr)
        });

        // The shutdown token can only be polled: this thread polls it, so
        // the accept loop below can block, and wakes that loop once.
        let waker = {
            let shutdown = shared.shutdown.clone();
            let addr = self.addr;
            std::thread::spawn(move || {
                while !shutdown.is_cancelled() {
                    std::thread::park_timeout(SHUTDOWN_POLL);
                }
                wake(addr);
            })
        };
        accept_until(&self.listener, &shared.shutdown, |stream| {
            if shared.conns.load(Ordering::Relaxed) >= shared.cfg.max_connections {
                shed_connection(stream, &shared.cfg);
                return;
            }
            shared.conns.fetch_add(1, Ordering::Relaxed);
            let s = Arc::clone(&shared);
            std::thread::spawn(move || {
                connection_loop(stream, &s);
                s.conns.fetch_sub(1, Ordering::Relaxed);
            });
        });
        // Stop accepting: close the socket so new connects are refused.
        drop(self.listener);
        let _ = waker.join();

        // Drain in-flight work under the drain deadline, then stop: every
        // waiter is answered `ShuttingDown` at once, running compute stops
        // at its next slab boundary, idle connections close.
        let (outcome, reason) = match shared.settle(Instant::now() + shared.cfg.drain_timeout) {
            0 => (DrainOutcome::Drained, "server stopped"),
            abandoned => (
                DrainOutcome::DeadlineExceeded { abandoned },
                "drain deadline exceeded",
            ),
        };
        shared.gate.stop(&shared.hard_stop, reason);
        // A caller about to exit the process must not cut the abandoned
        // replies off: wait for them, for as long as a write may take.
        shared.settle(Instant::now() + shared.cfg.write_timeout);
        if let Some((thread, addr)) = http_thread {
            wake(addr);
            let _ = thread.join();
        }
        outcome
    }

    /// Runs the daemon on a background thread.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let metrics_addr = self.metrics_addr();
        let shutdown = self.shutdown_token();
        let join = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            metrics_addr,
            shutdown,
            join,
        })
    }
}

/// Accepts on `listener` until `stop` trips, handing every connection —
/// `TCP_NODELAY` set — to `serve`. `accept` blocks: whoever trips `stop`
/// must also [`wake`] the listener, and the connection that arrives
/// after the trip is dropped instead of served.
pub(crate) fn accept_until(
    listener: &TcpListener,
    stop: &CancelToken,
    mut serve: impl FnMut(TcpStream),
) {
    while !stop.is_cancelled() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stop.is_cancelled() {
                    return;
                }
                let _ = stream.set_nodelay(true);
                serve(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
            Err(_) => std::thread::park_timeout(ACCEPT_RETRY),
        }
    }
}

/// Unblocks an [`accept_until`] parked on `addr` with one throwaway
/// connection (to loopback when `addr` is a wildcard bind).
pub(crate) fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Best-effort `Shed` for a connection over the connection bound.
fn shed_connection(mut stream: TcpStream, cfg: &ServeConfig) {
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let resp = Response::error(
        Status::Shed,
        format!("connection limit reached ({})", cfg.max_connections),
    );
    ld_trace::add(Counter::RequestsShed, 1);
    let _ = write_response(&mut stream, &resp);
}

/// Why the connection read loop stopped.
enum ConnRead {
    /// A whole frame's payload, and when its first byte arrived.
    Frame(Vec<u8>, Instant),
    /// Peer closed, or the daemon is shutting down and the connection
    /// is idle — close silently.
    Close,
    /// Stream-level damage: respond (best effort) and close.
    Fatal(ProtoError),
}

/// Reads one frame, polling so an idle connection notices shutdown and
/// a half-open one trips the frame timeout.
fn read_frame_polled(stream: &mut TcpStream, shared: &Shared) -> ConnRead {
    let mut prefix = [0u8; 4];
    let mut frame_started: Option<Instant> = None;
    if let Some(stop) = read_polled(stream, &mut prefix, &mut frame_started, shared, true) {
        return stop;
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_REQUEST_PAYLOAD {
        return ConnRead::Fatal(ProtoError::Oversized {
            len: len as u64,
            max: MAX_REQUEST_PAYLOAD,
        });
    }
    let mut payload = vec![0u8; len];
    if let Some(stop) = read_polled(stream, &mut payload, &mut frame_started, shared, false) {
        return stop;
    }
    // the prefix arrived, so its first read stamped `frame_started`
    ConnRead::Frame(payload, frame_started.unwrap_or_else(Instant::now))
}

/// Fills `buf`, honoring shutdown (idle boundary only) and the frame
/// timeout (once any frame byte arrived). Returns `None` on success.
fn read_polled(
    stream: &mut TcpStream,
    buf: &mut [u8],
    frame_started: &mut Option<Instant>,
    shared: &Shared,
    at_boundary: bool,
) -> Option<ConnRead> {
    let mut filled = 0;
    while filled < buf.len() {
        if shared.hard_stop.is_cancelled() {
            return Some(ConnRead::Close);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if at_boundary && filled == 0 {
                    Some(ConnRead::Close)
                } else {
                    Some(ConnRead::Fatal(ProtoError::Truncated {
                        expected: buf.len(),
                        got: filled,
                    }))
                }
            }
            Ok(n) => {
                filled += n;
                if frame_started.is_none() {
                    *frame_started = Some(Instant::now());
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                match *frame_started {
                    // Idle between frames: shutdown closes the connection.
                    None => {
                        if shared.shutdown.is_cancelled() {
                            return Some(ConnRead::Close);
                        }
                    }
                    // Mid-frame stall: a half-open peer trips the frame
                    // timeout and gets a typed error.
                    Some(t0) if t0.elapsed() >= shared.cfg.frame_timeout => {
                        return Some(ConnRead::Fatal(ProtoError::Truncated {
                            expected: buf.len() + if at_boundary { 0 } else { 4 },
                            got: filled,
                        }));
                    }
                    Some(_) => {}
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Some(ConnRead::Fatal(ProtoError::Io(e))),
        }
    }
    None
}

/// Serves one connection until it closes, errors, or the daemon drains.
fn connection_loop(mut stream: TcpStream, shared: &Shared) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
    {
        return;
    }
    loop {
        let (payload, first_byte) = match read_frame_polled(&mut stream, shared) {
            ConnRead::Frame(p, t) => (p, t),
            ConnRead::Close => return,
            ConnRead::Fatal(e) => {
                let resp = Response::error(Status::BadRequest, e.to_string());
                let _ = write_response(&mut stream, &resp);
                return;
            }
        };
        let read_ns = elapsed_ns(first_byte.elapsed());
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // Payload-level damage: typed error, connection survives.
                let resp = Response::error(Status::BadRequest, e.to_string());
                if write_response(&mut stream, &resp).is_err() {
                    return;
                }
                continue;
            }
        };
        // Health, metrics, and trace dumps skip the gate: they read
        // shared state, never compute, and must stay responsive even when
        // every permit and waiting slot is taken.
        let health = || Response::ok(Snapshot::gather(shared).health_json().into_bytes());
        let metrics = || Response::ok(Snapshot::gather(shared).metrics_text().into_bytes());
        let answer = match req {
            Request::Health => inline_request(shared, ServeOp::Health, health),
            Request::Metrics => inline_request(shared, ServeOp::Metrics, metrics),
            Request::DumpTrace => inline_request(shared, ServeOp::DumpTrace, dump_trace_response),
            Request::Pair { panel, stat, i, j } => {
                serve_query(shared, panel, stat, Query::Pair { i, j })
            }
            Request::Region {
                panel,
                stat,
                row0,
                row1,
                min_r2,
            } => serve_query(shared, panel, stat, Query::Region { row0, row1, min_r2 }),
        };
        let write0 = Instant::now();
        let written = write_response(&mut stream, &answer.resp);
        let done = Instant::now();
        answer.close(
            shared,
            read_ns,
            elapsed_ns(done - write0),
            elapsed_ns(done - first_byte),
        );
        if written.is_err() {
            // Slow or dead client: abandon the connection. Its permit was
            // given back before the write — only this thread is affected.
            return;
        }
    }
}

/// A decoded request whose reply is about to be written: what its
/// terminal log event and its latency record need once it has been.
struct Answer<'a> {
    resp: Response,
    id: u64,
    op: ServeOp,
    panel: Option<String>,
    fingerprint: Option<u64>,
    /// Terminal event: `finish`, or `shed` / `timeout`.
    event: &'static str,
    detail: Option<&'static str>,
    queue_ns: Option<u64>,
    service_ns: Option<u64>,
    /// Admitted requests only: released once the lifecycle is closed.
    admitted: Option<Admitted<'a>>,
}

impl<'a> Answer<'a> {
    /// A `finish` that was neither admitted nor run.
    fn new(resp: Response, id: u64, op: ServeOp) -> Self {
        Answer {
            resp,
            id,
            op,
            panel: None,
            fingerprint: None,
            event: "finish",
            detail: None,
            queue_ns: None,
            service_ns: None,
            admitted: None,
        }
    }

    /// Closes the lifecycle after the reply was written (or given up
    /// on): the outcome-labelled latency, then the terminal log event
    /// with every stage the request went through, then the in-flight
    /// release a drain waits for.
    fn close(self, shared: &Shared, read_ns: u64, write_ns: u64, total_ns: u64) {
        // Only Ok feeds the success histogram `health` reads;
        // shed/timeout/error land in their own series.
        record_served(
            self.op,
            outcome_of(self.resp.status),
            self.queue_ns.unwrap_or(0),
            self.service_ns.unwrap_or(0),
            total_ns,
        );
        shared.log(&Event {
            id: self.id,
            event: self.event,
            opcode: self.op.name(),
            panel: self.panel.as_deref(),
            fingerprint: self.fingerprint,
            status: Some(status_name(self.resp.status)),
            read_ns: Some(read_ns),
            queue_ns: self.queue_ns,
            service_ns: self.service_ns,
            write_ns: Some(write_ns),
            total_ns: Some(total_ns),
            detail: self.detail,
        });
        drop(self.admitted);
    }
}

/// Serves an opcode that skips the gate (`health`/`metrics`/`dump_trace`)
/// on the connection thread, with full telemetry and log coverage:
/// `accept` then `finish`, latency labelled by outcome.
fn inline_request(shared: &Shared, op: ServeOp, f: impl FnOnce() -> Response) -> Answer<'_> {
    let id = shared.next_id();
    shared.log(&Event {
        id,
        event: "accept",
        opcode: op.name(),
        ..Event::default()
    });
    let t0 = Instant::now();
    let resp = f();
    Answer {
        service_ns: Some(elapsed_ns(t0.elapsed())),
        ..Answer::new(resp, id, op)
    }
}

/// The `dump_trace` body: a Chrome/Perfetto JSON snapshot of the live
/// recorder, or `NotFound` when no recorder is armed in this process.
fn dump_trace_response() -> Response {
    match ld_trace::recorder::snapshot_live() {
        Some(snap) => Response::ok(ld_trace::export::chrome_trace_json(&snap).into_bytes()),
        None => Response::error(
            Status::NotFound,
            "no trace recorder armed in this process (start the daemon with tracing enabled)",
        ),
    }
}

/// One admitted request, counted in [`Shared::in_flight`] from admission
/// until its connection thread drops it after writing the reply and
/// logging its terminal event. A drain that waited only for the answer
/// could let the process exit between "answered" and "written".
struct Admitted<'a>(&'a Shared);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        if self.0.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            // the last one out wakes a drain waiting in `Shared::settle`
            let _guard = lock(&self.0.settle);
            self.0.settled.notify_all();
        }
    }
}

/// A point or region query, on the thread that read it: refused at once
/// or admitted to the gate; past the gate, computed under `catch_unwind`
/// with the permit given back before the caller writes the reply.
fn serve_query(shared: &Shared, panel: String, stat: StatCode, query: Query) -> Answer<'_> {
    let id = shared.next_id();
    let op = query.op();
    let fingerprint = shared.registry.meta(&panel).map(|m| m.fingerprint);
    let ev = |event| Event {
        id,
        event,
        opcode: op.name(),
        panel: Some(panel.as_str()),
        fingerprint,
        ..Event::default()
    };
    shared.log(&ev("accept"));
    let answer = |resp, event, detail| Answer {
        panel: Some(panel.clone()),
        fingerprint,
        event,
        detail,
        ..Answer::new(resp, id, op)
    };
    if shared.shutdown.is_cancelled() {
        const DRAINING: &str = "daemon is draining";
        let resp = Response::error(Status::ShuttingDown, DRAINING);
        return answer(resp, "finish", Some(DRAINING));
    }
    let arrived = Instant::now();
    let deadline = Deadline::after(shared.cfg.request_timeout);
    let Some(ticket) = shared.gate.join() else {
        ld_trace::add(Counter::RequestsShed, 1);
        let resp = Response::error(
            Status::Shed,
            format!("request queue full (depth {})", shared.cfg.queue_depth),
        );
        return answer(resp, "shed", Some("request queue full"));
    };
    shared.in_flight.fetch_add(1, Ordering::AcqRel);
    ld_trace::add(Counter::RequestsAccepted, 1);
    let admitted = Admitted(shared);
    shared.log(&ev("admit"));
    let passed = shared.gate.pass(ticket, deadline, &shared.hard_stop);
    let queue_ns = elapsed_ns(arrived.elapsed());
    // Turned away in line, a request never runs: no `start`, no service.
    let (resp, event, service_ns) = match passed {
        Err(Status::Timeout) => {
            let resp = Response::error(Status::Timeout, "deadline expired waiting for a permit");
            (resp, "timeout", None)
        }
        Err(status) => {
            let resp = Response::error(status, "drain deadline exceeded before the request ran");
            (resp, "finish", None)
        }
        Ok(permit) => {
            shared.log(&Event {
                queue_ns: Some(queue_ns),
                ..ev("start")
            });
            let svc0 = Instant::now();
            if !shared.cfg.inject_delay.is_zero() {
                std::thread::sleep(shared.cfg.inject_delay);
            }
            let token = shared.hard_stop.child();
            let run = || handle_query(shared, &panel, stat, query, &token, deadline);
            let outcome = catch_unwind(AssertUnwindSafe(run));
            drop(permit);
            let service_ns = elapsed_ns(svc0.elapsed());
            let resp = outcome.unwrap_or_else(|payload| {
                let msg = panic_message(payload.as_ref()).to_string();
                shared.log(&Event {
                    detail: Some(&msg),
                    ..ev("panic")
                });
                Response::error(
                    Status::Internal,
                    format!("request panicked: {msg} (request isolated; the daemon keeps serving)"),
                )
            });
            (resp, "finish", Some(service_ns))
        }
    };
    match resp.status {
        Status::Shed | Status::Timeout | Status::ShuttingDown => {
            ld_trace::add(Counter::RequestsShed, 1);
        }
        Status::Internal => ld_trace::add(Counter::RequestsFailed, 1),
        _ => {}
    }
    Answer {
        queue_ns: Some(queue_ns),
        service_ns,
        admitted: Some(admitted),
        ..answer(resp, event, None)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Computes the answer for an admitted query. Runs inside
/// `catch_unwind`; every error path returns a typed response.
fn handle_query(
    shared: &Shared,
    panel: &str,
    stat: StatCode,
    query: Query,
    token: &CancelToken,
    deadline: Deadline,
) -> Response {
    if shared.cfg.fault_panel && panel == "__panic__" {
        panic!("fault injection: __panic__ panel requested");
    }
    let m = match shared.registry.get(panel, stat.to_stat(), token, deadline) {
        Ok(m) => m,
        Err(e) => return registry_response(&e),
    };
    let n = m.n_snps();
    match query {
        Query::Pair { i, j } => {
            let (i, j) = (i as usize, j as usize);
            if i >= n || j >= n {
                return Response::error(
                    Status::BadRequest,
                    format!("pair ({i}, {j}) out of range: panel has {n} SNPs"),
                );
            }
            Response::ok(m.get(i, j).to_bits().to_le_bytes().to_vec())
        }
        Query::Region { row0, row1, min_r2 } => {
            let (r0, r1) = if row0 == 0 && row1 == 0 {
                (0, n)
            } else {
                (row0 as usize, row1 as usize)
            };
            if r0 >= r1 || r1 > n {
                return Response::error(
                    Status::BadRequest,
                    format!("region [{r0}, {r1}) out of range: panel has {n} SNPs"),
                );
            }
            Response::ok(region_table(&m, r0, r1, min_r2))
        }
    }
}

/// Formats the pair table of rows `[r0, r1)` × columns `< r1` through
/// `ld-io`'s row formatter — for the whole panel these are the exact
/// bytes `gemm-ld r2 -o` writes (`region_response_is_byte_identical_to_cli_table`,
/// and `serve_cli.rs` against the real binary mid-drain).
fn region_table(m: &LdMatrix, r0: usize, r1: usize, min_r2: f64) -> Vec<u8> {
    let rows = || (r0..r1).map(|i| (i, packed_row_pairs(m, i, r1)));
    let bound: usize = rows().map(|(_, row)| r2_row_bound(r1, row, min_r2)).sum();
    let mut out = Vec::with_capacity(R2_TABLE_HEADER.len() + bound);
    out.extend_from_slice(R2_TABLE_HEADER.as_bytes());
    for (i, row) in rows() {
        push_r2_row(&mut out, i, i + 1, row, min_r2);
    }
    out
}

/// Maps registry failures onto the wire status taxonomy.
fn registry_response(e: &RegistryError) -> Response {
    match e {
        RegistryError::UnknownPanel(_) => Response::error(Status::NotFound, e.to_string()),
        // evict-then-shed: eviction already happened inside the registry
        RegistryError::BudgetExceeded { .. } => Response::error(Status::Shed, e.to_string()),
        RegistryError::Busy { .. } => Response::error(Status::Timeout, e.to_string()),
        RegistryError::Compute(LdError::Cancelled { reason, .. }) => Response::error(
            Status::Timeout,
            format!("panel compute cancelled: {reason}"),
        ),
        RegistryError::Load { .. } | RegistryError::Compute(_) => {
            Response::error(Status::Internal, e.to_string())
        }
    }
}

/// Maps the wire status onto the telemetry outcome label.
fn outcome_of(status: Status) -> ServeOutcome {
    match status {
        Status::Ok => ServeOutcome::Ok,
        Status::Shed => ServeOutcome::Shed,
        Status::BadRequest => ServeOutcome::BadRequest,
        Status::NotFound => ServeOutcome::NotFound,
        Status::Internal => ServeOutcome::Internal,
        Status::Timeout => ServeOutcome::Timeout,
        Status::ShuttingDown => ServeOutcome::ShuttingDown,
    }
}

/// Stable lowercase status name for log lines (same vocabulary as the
/// telemetry outcome labels).
fn status_name(status: Status) -> &'static str {
    outcome_of(status).name()
}

fn elapsed_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The daemon's state at one instant, gathered once per `health`,
/// `metrics` or scrape: both views render from it.
struct Snapshot {
    uptime: Duration,
    draining: bool,
    queue_depth: usize,
    in_flight: usize,
    connections: usize,
    workers: usize,
    registry: RegistrySnapshot,
    /// Every `ld-trace` counter, the serve counters among them.
    counters: [u64; Counter::COUNT],
}

impl Snapshot {
    fn gather(shared: &Shared) -> Self {
        Snapshot {
            uptime: shared.started.elapsed(),
            draining: shared.shutdown.is_cancelled(),
            queue_depth: shared.gate.queued(),
            in_flight: shared.in_flight.load(Ordering::Relaxed),
            connections: shared.conns.load(Ordering::Relaxed),
            workers: shared.gate.permits,
            registry: shared.registry.snapshot(),
            counters: ld_trace::counters(),
        }
    }

    fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The Prometheus text exposition: every counter, the outcome/opcode/
    /// queue histograms and rolling windows, plus the live server gauges
    /// (gate, connections, registry occupancy).
    fn metrics_text(&self) -> String {
        let reg = &self.registry;
        let mut gauges = vec![
            PromGauge::new(
                "gemm_ld_uptime_seconds",
                "Seconds since the daemon started",
                self.uptime.as_secs_f64(),
            ),
            PromGauge::new(
                "gemm_ld_draining",
                "1 while the daemon is draining, 0 while serving",
                u8::from(self.draining) as f64,
            ),
            PromGauge::new(
                "gemm_ld_queue_depth",
                "Admitted requests waiting for a compute permit",
                self.queue_depth as f64,
            ),
            PromGauge::new(
                "gemm_ld_in_flight_requests",
                "Accepted requests not yet answered",
                self.in_flight as f64,
            ),
            PromGauge::new(
                "gemm_ld_connections",
                "Open client connections",
                self.connections as f64,
            ),
            PromGauge::new(
                "gemm_ld_workers",
                "Compute permits: requests that may compute at once",
                self.workers as f64,
            ),
            PromGauge::new(
                "gemm_ld_panels_resident",
                "Panels resident in the registry cache",
                reg.resident.len() as f64,
            ),
            PromGauge::new(
                "gemm_ld_registry_used_bytes",
                "Bytes of resident panel matrices",
                reg.used_bytes as f64,
            ),
            PromGauge::new(
                "gemm_ld_registry_budget_bytes",
                "Registry memory budget",
                reg.budget_bytes as f64,
            ),
        ];
        for (fingerprint, _stats, bytes) in &reg.resident {
            gauges.push(PromGauge {
                name: "gemm_ld_panel_resident_bytes".into(),
                help: "Resident bytes per panel, labelled by checkpoint fingerprint",
                labels: format!("fingerprint=\"{fingerprint:016x}\""),
                value: *bytes as f64,
            });
        }
        ld_trace::prometheus::render(&self.counters, &serve_telemetry(), &gauges)
    }

    /// The `health` body: live gate state, registry occupancy, the
    /// serve counters and the success-latency quantiles.
    fn health_json(&self) -> String {
        let reg = &self.registry;
        let lat = total_latency(ServeOutcome::Ok);
        let state = if self.draining { "draining" } else { "serving" };
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"state\": \"{state}\", \"uptime_ms\": {}, \"queue_depth\": {}, \
             \"in_flight\": {}, \"workers\": {}, \"connections\": {}",
            self.uptime.as_millis(),
            self.queue_depth,
            self.in_flight,
            self.workers,
            self.connections
        );
        s.push_str(", \"panels\": {\"registered\": [");
        for (i, name) in reg.sources.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // the one shared escaping helper — also used by the request log
            let _ = write!(s, "\"{}\"", ld_trace::escape_json(name));
        }
        let _ = write!(
            s,
            "], \"resident\": {}, \"used_bytes\": {}, \"budget_bytes\": {}, \
             \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"sheds\": {}}}",
            reg.resident.len(),
            reg.used_bytes,
            reg.budget_bytes,
            reg.stats.hits,
            reg.stats.misses,
            reg.stats.evictions,
            reg.stats.sheds,
        );
        let _ = write!(
            s,
            ", \"requests\": {{\"accepted\": {}, \"shed\": {}, \"failed\": {}, \
             \"panels_evicted\": {}}}",
            self.counter(Counter::RequestsAccepted),
            self.counter(Counter::RequestsShed),
            self.counter(Counter::RequestsFailed),
            self.counter(Counter::PanelsEvicted),
        );
        let _ = write!(s, ", \"latency\": {{\"count\": {}", lat.count);
        for (key, v) in [("p50_ns", lat.p50_ns()), ("p99_ns", lat.p99_ns())] {
            match v {
                Some(v) => {
                    let _ = write!(s, ", \"{key}\": {v}");
                }
                None => {
                    let _ = write!(s, ", \"{key}\": null");
                }
            }
        }
        s.push_str("}}");
        s
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
