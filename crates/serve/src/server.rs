//! The daemon: listener, admission controller, worker pool, drain.
//!
//! ## Threading model
//!
//! One accept loop (the thread that calls [`Server::run`]) blocks in
//! `accept`; when the shutdown token trips, a waker thread makes one
//! connection to the bound address, and the loop, which re-checks the
//! token after every accept, stops. Each admitted connection gets a
//! cheap reader thread that decodes frames and *responds* — it never
//! computes. Point and region queries go through the admission
//! controller into a bounded queue consumed by a fixed worker pool;
//! workers compute and hand the response back over a channel, so a slow
//! or dead client can only ever wedge its own reader (bounded further by
//! a write timeout), never a worker.
//!
//! ## Write model
//!
//! Every accepted socket has `TCP_NODELAY` on, and every reply leaves in
//! one vectored write of its frame ([`write_response`]): the body goes
//! from the worker's `Vec` to the socket without a copy. The reader
//! thread times each request from its first byte to its last reply byte
//! and logs where that went — read, queue, service, write — on the
//! request's terminal log event, once the reply is written.
//!
//! ## Admission and shedding
//!
//! Every query is accepted or refused *immediately*:
//!
//! * queue full → typed [`Status::Shed`] response, connection kept;
//! * panel memory budget exhausted after LRU eviction → `Shed`;
//! * per-request deadline expired while queued → [`Status::Timeout`]
//!   (counted as shed work — the queue never stalls on dead weight);
//! * daemon draining → [`Status::ShuttingDown`].
//!
//! Workers run each request under `catch_unwind`: a panic poisons only
//! that request ([`Status::Internal`]), mirroring the PR 2 containment
//! in `ld-parallel`. Each request carries a `Deadline` and a
//! `CancelToken` child of the server's hard-stop token; the fused engine
//! polls both at slab granularity.
//!
//! ## Lifecycle
//!
//! Tripping the shutdown token (SIGINT/SIGTERM in the CLI) stops the
//! accept loop, closes the listener, and drains: queued and executing
//! requests complete and their responses are written. If the drain
//! deadline expires first, the hard-stop token cancels in-flight
//! compute at the next slab boundary and remaining queued requests are
//! answered `ShuttingDown`. The drain waits on a condvar the last
//! in-flight request signals. [`DrainOutcome`] reports which of the two
//! happened — the CLI maps it to exit code 0 (clean) or 5 (interrupted).

use crate::http;
use crate::protocol::{write_response, ProtoError, Request, Response, Status, MAX_REQUEST_PAYLOAD};
use crate::registry::{PanelRegistry, RegistryError};
use crate::reqlog::{Event, RequestLog};
use ld_core::{CancelToken, Deadline, LdError, LdMatrix};
use ld_io::text::{packed_row_pairs, push_r2_row, r2_row_bound, R2_TABLE_HEADER};
use ld_trace::prometheus::PromGauge;
use ld_trace::telemetry::{record_served, total_latency, ServeOp, ServeOutcome};
use ld_trace::Counter;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
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
    /// Request worker threads (the compute concurrency).
    pub workers: usize,
    /// Bounded request-queue depth; one more query is a `Shed`.
    pub queue_depth: usize,
    /// Concurrent connection bound; one more connect is shed at accept.
    pub max_connections: usize,
    /// Per-request deadline, enforced in the queue and at every slab.
    pub request_timeout: Duration,
    /// Socket write timeout — a client that stops reading is abandoned
    /// after this long, freeing its reader thread.
    pub write_timeout: Duration,
    /// A started frame must complete within this window (half-open
    /// connection detection).
    pub frame_timeout: Duration,
    /// How long `run` waits for in-flight work after shutdown before
    /// abandoning it.
    pub drain_timeout: Duration,
    /// Fault-injection aid: hold every request this long in the worker
    /// before computing (makes overload and drain windows deterministic
    /// in tests and CI; zero in production).
    pub inject_delay: Duration,
    /// Fault-injection aid: a query for panel `"__panic__"` panics the
    /// worker, exercising request isolation end-to-end.
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

/// One admitted query traveling from a reader thread to a worker.
struct Job {
    req: Request,
    reply_tx: SyncSender<Reply>,
    accepted: Instant,
    deadline: Deadline,
    token: CancelToken,
    /// Request id threading the log events of one lifecycle together.
    id: u64,
    op: ServeOp,
    fingerprint: Option<u64>,
}

/// A worker's answer to a [`Job`] and the worker-side stages it took.
struct Reply {
    resp: Response,
    queue_ns: Option<u64>,
    /// `None` when the request never ran (expired, drained).
    service_ns: Option<u64>,
}

struct Shared {
    cfg: ServeConfig,
    registry: PanelRegistry,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// Stops the accept loop and starts the drain.
    shutdown: CancelToken,
    /// Cancels in-flight compute once the drain deadline expires.
    hard_stop: CancelToken,
    /// Admitted requests whose reply has not reached the socket yet
    /// (queued, executing, or being written): what a drain waits for.
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
            cfg,
            registry,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
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
        let workers: Vec<_> = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&s))
            })
            .collect();

        // Scrape endpoint: keeps answering through the drain (operators
        // watch the drain happen), stopped and woken at the end of `run`.
        let http_thread = self.metrics_listener.map(|(listener, addr)| {
            let s = Arc::clone(&shared);
            let stop = shared.hard_stop.clone();
            let thread = std::thread::spawn(move || {
                http::serve_http(&listener, &stop, move |path| match path {
                    "/metrics" => Some((metrics_text(&s), http::CONTENT_TYPE_PROM)),
                    "/health" => Some((health_json(&s), "application/json")),
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

        // Drain in-flight work under the drain deadline.
        let outcome = match shared.settle(Instant::now() + shared.cfg.drain_timeout) {
            0 => DrainOutcome::Drained,
            abandoned => {
                shared
                    .hard_stop
                    .cancel_with_reason("drain deadline exceeded");
                DrainOutcome::DeadlineExceeded { abandoned }
            }
        };

        // Release the pool: abandoned jobs get ShuttingDown responses on
        // the way out, then workers exit.
        shared.hard_stop.cancel_with_reason("server stopped");
        shared.queue_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        // Every admitted request now has a reply in its connection
        // thread's hands. A caller about to exit the process must not cut
        // those writes off: wait for them, for as long as a write may take.
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
        // Health, metrics, and trace dumps are answered inline on the
        // reader thread: they read shared state, never compute, and must
        // stay responsive even when the queue is saturated.
        let health = || Response::ok(health_json(shared).into_bytes());
        let metrics = || Response::ok(metrics_text(shared).into_bytes());
        let answer = match req {
            Request::Health => inline_request(shared, ServeOp::Health, health),
            Request::Metrics => inline_request(shared, ServeOp::Metrics, metrics),
            Request::DumpTrace => inline_request(shared, ServeOp::DumpTrace, dump_trace_response),
            query => dispatch_query(query, shared),
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
            // Slow or dead client: abandon the connection. The worker
            // already moved on — only this reader thread is affected.
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
    /// Queued requests only: released once the lifecycle is closed.
    admitted: Option<Admitted<'a>>,
}

impl<'a> Answer<'a> {
    /// A `finish` that was neither queued nor run.
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

/// Serves an opcode that never queues (`health`/`metrics`/`dump_trace`)
/// directly on the reader thread, with full telemetry and log coverage:
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
/// until its holder — the connection thread — drops it after writing the
/// reply and logging its terminal event. A drain that waited only for the
/// worker's answer could let the process exit between "answered" and
/// "written".
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

/// Admission control: enqueue or shed, then wait for the worker's answer.
fn dispatch_query(req: Request, shared: &Shared) -> Answer<'_> {
    let id = shared.next_id();
    let op = op_of(&req);
    let panel = req_panel(&req).map(str::to_string);
    let fingerprint = panel
        .as_deref()
        .and_then(|p| shared.registry.meta(p))
        .map(|m| m.fingerprint);
    shared.log(&Event {
        id,
        event: "accept",
        opcode: op.name(),
        panel: panel.as_deref(),
        fingerprint,
        ..Event::default()
    });
    let answer = |resp, event, detail| Answer {
        panel: panel.clone(),
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
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Reply>(1);
    let job = Job {
        req,
        reply_tx,
        accepted: Instant::now(),
        deadline: Deadline::after(shared.cfg.request_timeout),
        token: shared.hard_stop.child(),
        id,
        op,
        fingerprint,
    };
    {
        let mut q = lock(&shared.queue);
        if q.len() >= shared.cfg.queue_depth {
            ld_trace::add(Counter::RequestsShed, 1);
            let resp = Response::error(
                Status::Shed,
                format!("request queue full (depth {})", shared.cfg.queue_depth),
            );
            return answer(resp, "shed", Some("request queue full"));
        }
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        ld_trace::add(Counter::RequestsAccepted, 1);
        q.push_back(job);
    }
    let admitted = Admitted(shared);
    shared.log(&Event {
        id,
        event: "admit",
        opcode: op.name(),
        panel: panel.as_deref(),
        fingerprint,
        ..Event::default()
    });
    shared.queue_cv.notify_one();
    // Generous grace over the request deadline: the worker itself
    // answers Timeout at the deadline, so this only fires if the pool
    // wedges outright — which the panic containment makes a bug, not an
    // expected path.
    let grace = shared.cfg.request_timeout + shared.cfg.drain_timeout + Duration::from_secs(5);
    let unanswered = |status, message| Reply {
        resp: Response::error(status, message),
        queue_ns: None,
        service_ns: None,
    };
    let reply = match reply_rx.recv_timeout(grace) {
        Ok(reply) => reply,
        Err(RecvTimeoutError::Timeout) => {
            unanswered(Status::Timeout, "request timed out in the server")
        }
        Err(RecvTimeoutError::Disconnected) => {
            unanswered(Status::Internal, "worker abandoned the request")
        }
    };
    // A request that timed out without running closes with `timeout`;
    // everything else (a contained panic included) with `finish`.
    let event = match (reply.resp.status, reply.service_ns) {
        (Status::Timeout, None) => "timeout",
        _ => "finish",
    };
    Answer {
        queue_ns: reply.queue_ns,
        service_ns: reply.service_ns,
        admitted: Some(admitted),
        ..answer(reply.resp, event, None)
    }
}

/// One worker: pop, guard, compute under `catch_unwind`, answer.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                if shared.hard_stop.is_cancelled()
                    || (shared.shutdown.is_cancelled() && q.is_empty())
                {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        let queue_ns = elapsed_ns(job.accepted.elapsed());
        let panel = req_panel(&job.req);
        let (resp, service_ns) = if shared.hard_stop.is_cancelled() {
            let resp = Response::error(
                Status::ShuttingDown,
                "drain deadline exceeded before the request ran",
            );
            (resp, None)
        } else if job.deadline.expired() {
            // Shed, don't stall: dead weight never reaches a worker.
            let resp = Response::error(Status::Timeout, "deadline expired in the request queue");
            (resp, None)
        } else {
            shared.log(&Event {
                id: job.id,
                event: "start",
                opcode: job.op.name(),
                panel,
                fingerprint: job.fingerprint,
                queue_ns: Some(queue_ns),
                ..Event::default()
            });
            let svc0 = Instant::now();
            if !shared.cfg.inject_delay.is_zero() {
                std::thread::sleep(shared.cfg.inject_delay);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| handle_query(&job, shared)));
            let service_ns = elapsed_ns(svc0.elapsed());
            let resp = outcome.unwrap_or_else(|payload| {
                let msg = panic_message(payload.as_ref()).to_string();
                shared.log(&Event {
                    id: job.id,
                    event: "panic",
                    opcode: job.op.name(),
                    panel,
                    fingerprint: job.fingerprint,
                    detail: Some(&msg),
                    ..Event::default()
                });
                Response::error(
                    Status::Internal,
                    format!(
                        "worker panicked handling the request: {msg} (request isolated; \
                         the pool keeps serving)"
                    ),
                )
            });
            (resp, Some(service_ns))
        };
        match resp.status {
            Status::Shed | Status::Timeout | Status::ShuttingDown => {
                ld_trace::add(Counter::RequestsShed, 1);
            }
            Status::Internal => ld_trace::add(Counter::RequestsFailed, 1),
            _ => {}
        }
        // The terminal log event and the latency record are the reader
        // thread's, once the reply is on the wire.
        let _ = job.reply_tx.try_send(Reply {
            resp,
            queue_ns: Some(queue_ns),
            service_ns,
        });
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
fn handle_query(job: &Job, shared: &Shared) -> Response {
    match &job.req {
        // Inline opcodes never reach the queue; answering them here too
        // keeps a misrouted job harmless rather than a panic.
        Request::Health => Response::ok(health_json(shared).into_bytes()),
        Request::Metrics => Response::ok(metrics_text(shared).into_bytes()),
        Request::DumpTrace => dump_trace_response(),
        Request::Pair { panel, stat, i, j } => {
            if shared.cfg.fault_panel && panel == "__panic__" {
                panic!("fault injection: __panic__ panel requested");
            }
            let m = match shared
                .registry
                .get(panel, stat.to_stat(), &job.token, job.deadline)
            {
                Ok(m) => m,
                Err(e) => return registry_response(&e),
            };
            let (i, j) = (*i as usize, *j as usize);
            let n = m.n_snps();
            if i >= n || j >= n {
                return Response::error(
                    Status::BadRequest,
                    format!("pair ({i}, {j}) out of range: panel has {n} SNPs"),
                );
            }
            Response::ok(m.get(i, j).to_bits().to_le_bytes().to_vec())
        }
        Request::Region {
            panel,
            stat,
            row0,
            row1,
            min_r2,
        } => {
            if shared.cfg.fault_panel && panel == "__panic__" {
                panic!("fault injection: __panic__ panel requested");
            }
            let m = match shared
                .registry
                .get(panel, stat.to_stat(), &job.token, job.deadline)
            {
                Ok(m) => m,
                Err(e) => return registry_response(&e),
            };
            let n = m.n_snps();
            let (r0, r1) = if *row0 == 0 && *row1 == 0 {
                (0, n)
            } else {
                (*row0 as usize, *row1 as usize)
            };
            if r0 >= r1 || r1 > n {
                return Response::error(
                    Status::BadRequest,
                    format!("region [{r0}, {r1}) out of range: panel has {n} SNPs"),
                );
            }
            Response::ok(region_table(&m, r0, r1, *min_r2))
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

/// The telemetry opcode label for a request.
fn op_of(req: &Request) -> ServeOp {
    match req {
        Request::Health => ServeOp::Health,
        Request::Pair { .. } => ServeOp::Pair,
        Request::Region { .. } => ServeOp::Region,
        Request::Metrics => ServeOp::Metrics,
        Request::DumpTrace => ServeOp::DumpTrace,
    }
}

/// The panel a request addresses, when it addresses one.
fn req_panel(req: &Request) -> Option<&str> {
    match req {
        Request::Pair { panel, .. } | Request::Region { panel, .. } => Some(panel),
        Request::Health | Request::Metrics | Request::DumpTrace => None,
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

/// The Prometheus text exposition: every `ld-trace` counter, the
/// outcome/opcode/queue histograms and rolling windows, plus live
/// server gauges (queue, pool, connections, registry occupancy).
fn metrics_text(shared: &Shared) -> String {
    let snap = shared.registry.snapshot();
    let mut gauges = vec![
        PromGauge::new(
            "gemm_ld_uptime_seconds",
            "Seconds since the daemon started",
            shared.started.elapsed().as_secs_f64(),
        ),
        PromGauge::new(
            "gemm_ld_draining",
            "1 while the daemon is draining, 0 while serving",
            u8::from(shared.shutdown.is_cancelled()) as f64,
        ),
        PromGauge::new(
            "gemm_ld_queue_depth",
            "Jobs waiting in the request queue",
            lock(&shared.queue).len() as f64,
        ),
        PromGauge::new(
            "gemm_ld_in_flight_requests",
            "Accepted requests not yet answered",
            shared.in_flight.load(Ordering::Relaxed) as f64,
        ),
        PromGauge::new(
            "gemm_ld_connections",
            "Open client connections",
            shared.conns.load(Ordering::Relaxed) as f64,
        ),
        PromGauge::new(
            "gemm_ld_workers",
            "Request worker threads",
            shared.cfg.workers.max(1) as f64,
        ),
        PromGauge::new(
            "gemm_ld_panels_resident",
            "Panels resident in the registry cache",
            snap.resident.len() as f64,
        ),
        PromGauge::new(
            "gemm_ld_registry_used_bytes",
            "Bytes of resident panel matrices",
            snap.used_bytes as f64,
        ),
        PromGauge::new(
            "gemm_ld_registry_budget_bytes",
            "Registry memory budget",
            snap.budget_bytes as f64,
        ),
    ];
    for (fingerprint, _stats, bytes) in &snap.resident {
        gauges.push(PromGauge {
            name: "gemm_ld_panel_resident_bytes".into(),
            help: "Resident bytes per panel, labelled by checkpoint fingerprint",
            labels: format!("fingerprint=\"{fingerprint:016x}\""),
            value: *bytes as f64,
        });
    }
    ld_trace::prometheus::render_global(&gauges)
}

/// The `health` body: live queue/pool state, registry occupancy, the
/// serve counters and latency quantiles from `ld-trace`.
fn health_json(shared: &Shared) -> String {
    let snap = shared.registry.snapshot();
    let lat = total_latency(ServeOutcome::Ok);
    let state = if shared.shutdown.is_cancelled() {
        "draining"
    } else {
        "serving"
    };
    let mut s = String::with_capacity(512);
    s.push('{');
    let _ = write!(s, "\"state\": \"{state}\"");
    let _ = write!(
        s,
        ", \"uptime_ms\": {}",
        shared.started.elapsed().as_millis()
    );
    let _ = write!(s, ", \"queue_depth\": {}", lock(&shared.queue).len());
    let _ = write!(
        s,
        ", \"in_flight\": {}",
        shared.in_flight.load(Ordering::Relaxed)
    );
    let _ = write!(s, ", \"workers\": {}", shared.cfg.workers.max(1));
    let _ = write!(
        s,
        ", \"connections\": {}",
        shared.conns.load(Ordering::Relaxed)
    );
    s.push_str(", \"panels\": {\"registered\": [");
    for (i, name) in snap.sources.iter().enumerate() {
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
        snap.resident.len(),
        snap.used_bytes,
        snap.budget_bytes,
        snap.stats.hits,
        snap.stats.misses,
        snap.stats.evictions,
        snap.stats.sheds,
    );
    let _ = write!(
        s,
        ", \"requests\": {{\"accepted\": {}, \"shed\": {}, \"failed\": {}, \
         \"panels_evicted\": {}}}",
        ld_trace::get(Counter::RequestsAccepted),
        ld_trace::get(Counter::RequestsShed),
        ld_trace::get(Counter::RequestsFailed),
        ld_trace::get(Counter::PanelsEvicted),
    );
    let _ = write!(s, ", \"latency\": {{\"count\": {}", lat.count);
    match lat.p50_ns() {
        Some(v) => {
            let _ = write!(s, ", \"p50_ns\": {v}");
        }
        None => s.push_str(", \"p50_ns\": null"),
    }
    match lat.p99_ns() {
        Some(v) => {
            let _ = write!(s, ", \"p99_ns\": {v}");
        }
        None => s.push_str(", \"p99_ns\": null"),
    }
    s.push_str("}}");
    s
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
