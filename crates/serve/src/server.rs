//! The daemon: listener, admission controller, worker pool, drain.
//!
//! ## Threading model
//!
//! One accept loop (the thread that calls [`Server::run`]) polls a
//! non-blocking listener. Each admitted connection gets a cheap reader
//! thread that decodes frames and *responds* — it never computes. Point
//! and region queries go through the admission controller into a
//! bounded queue consumed by a fixed worker pool; workers compute and
//! hand the response back over a channel, so a slow or dead client can
//! only ever wedge its own reader (bounded further by a write timeout),
//! never a worker.
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
//! answered `ShuttingDown`. [`DrainOutcome`] reports which of the two
//! happened — the CLI maps it to exit code 0 (clean) or 5 (interrupted).

use crate::http;
use crate::protocol::{write_frame, ProtoError, Request, Response, Status, MAX_REQUEST_PAYLOAD};
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
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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
    resp_tx: SyncSender<Response>,
    accepted: Instant,
    deadline: Deadline,
    token: CancelToken,
    /// Request id threading the log events of one lifecycle together.
    id: u64,
    op: ServeOp,
    fingerprint: Option<u64>,
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
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks the calling
/// thread until shutdown; [`Server::spawn`] runs it on its own thread.
pub struct Server {
    listener: TcpListener,
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
        listener.set_nonblocking(true)?;
        let metrics_listener = match &cfg.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
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
            conns: AtomicUsize::new(0),
            started: Instant::now(),
            reqlog,
            req_ids: AtomicU64::new(0),
        });
        Ok(Server {
            listener,
            metrics_listener,
            shared,
        })
    }

    /// The bound address (resolves a `:0` bind).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
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
        // watch the drain happen), dies when hard_stop trips below.
        let http_thread = self.metrics_listener.map(|(listener, _)| {
            let s = Arc::clone(&shared);
            let stop = shared.hard_stop.clone();
            std::thread::spawn(move || {
                http::serve_http(listener, stop, move |path| match path {
                    "/metrics" => Some((metrics_text(&s), http::CONTENT_TYPE_PROM)),
                    "/health" => Some((health_json(&s), "application/json")),
                    _ => None,
                })
            })
        });

        // Accept loop.
        while !shared.shutdown.is_cancelled() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if shared.conns.load(Ordering::Relaxed) >= shared.cfg.max_connections {
                        shed_connection(stream, &shared.cfg);
                        continue;
                    }
                    shared.conns.fetch_add(1, Ordering::Relaxed);
                    let s = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        connection_loop(stream, &s);
                        s.conns.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        // Stop accepting: close the socket so new connects are refused.
        drop(self.listener);

        // Drain in-flight work under the drain deadline.
        let drain_until = Instant::now() + shared.cfg.drain_timeout;
        let outcome = loop {
            let pending = shared.in_flight.load(Ordering::Acquire);
            if pending == 0 {
                break DrainOutcome::Drained;
            }
            if Instant::now() >= drain_until {
                shared
                    .hard_stop
                    .cancel_with_reason("drain deadline exceeded");
                break DrainOutcome::DeadlineExceeded { abandoned: pending };
            }
            std::thread::sleep(Duration::from_millis(10));
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
        let flush_until = Instant::now() + shared.cfg.write_timeout;
        while shared.in_flight.load(Ordering::Acquire) != 0 && Instant::now() < flush_until {
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Some(h) = http_thread {
            let _ = h.join();
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

/// Best-effort `Shed` for a connection over the connection bound.
fn shed_connection(stream: TcpStream, cfg: &ServeConfig) {
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let mut stream = stream;
    let resp = Response::error(
        Status::Shed,
        format!("connection limit reached ({})", cfg.max_connections),
    );
    ld_trace::add(Counter::RequestsShed, 1);
    let _ = write_frame(&mut stream, &resp.encode());
}

/// Why the connection read loop stopped.
enum ConnRead {
    Frame(Vec<u8>),
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
    ConnRead::Frame(payload)
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
        let payload = match read_frame_polled(&mut stream, shared) {
            ConnRead::Frame(p) => p,
            ConnRead::Close => return,
            ConnRead::Fatal(e) => {
                let resp = Response::error(Status::BadRequest, e.to_string());
                let _ = write_frame(&mut stream, &resp.encode());
                return;
            }
        };
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // Payload-level damage: typed error, connection survives.
                let resp = Response::error(Status::BadRequest, e.to_string());
                if write_frame(&mut stream, &resp.encode()).is_err() {
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
        // `_admitted` is released at the end of this iteration: after the
        // reply has been written, or the connection given up on.
        let (resp, _admitted) = match req {
            Request::Health => (inline_request(shared, ServeOp::Health, health), None),
            Request::Metrics => (inline_request(shared, ServeOp::Metrics, metrics), None),
            Request::DumpTrace => (
                inline_request(shared, ServeOp::DumpTrace, dump_trace_response),
                None,
            ),
            query => dispatch_query(query, shared),
        };
        if write_frame(&mut stream, &resp.encode()).is_err() {
            // Slow or dead client: abandon the connection. The worker
            // already moved on — only this reader thread is affected.
            return;
        }
    }
}

/// Serves an opcode that never queues (`health`/`metrics`/`dump_trace`)
/// directly on the reader thread, with full telemetry and log coverage:
/// `accept` then `finish`, latency labelled by outcome.
fn inline_request(shared: &Shared, op: ServeOp, f: impl FnOnce() -> Response) -> Response {
    let id = shared.next_id();
    let t0 = Instant::now();
    shared.log(&Event {
        id,
        event: "accept",
        opcode: op.name(),
        ..Event::default()
    });
    let resp = f();
    let total_ns = elapsed_ns(t0.elapsed());
    record_served(op, outcome_of(resp.status), 0, total_ns, total_ns);
    shared.log(&Event {
        id,
        event: "finish",
        opcode: op.name(),
        status: Some(status_name(resp.status)),
        service_ns: Some(total_ns),
        total_ns: Some(total_ns),
        ..Event::default()
    });
    resp
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
/// reply. A drain that waited only for the worker's answer could let the
/// process exit between "answered" and "written".
struct Admitted<'a>(&'a Shared);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Admission control: enqueue or shed, then wait for the worker's answer.
fn dispatch_query(req: Request, shared: &Shared) -> (Response, Option<Admitted<'_>>) {
    let id = shared.next_id();
    let op = op_of(&req);
    let t0 = Instant::now();
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
    if shared.shutdown.is_cancelled() {
        let total_ns = elapsed_ns(t0.elapsed());
        record_served(op, ServeOutcome::ShuttingDown, 0, 0, total_ns);
        shared.log(&Event {
            id,
            event: "finish",
            opcode: op.name(),
            status: Some("shutting_down"),
            total_ns: Some(total_ns),
            detail: Some("daemon is draining"),
            ..Event::default()
        });
        let resp = Response::error(Status::ShuttingDown, "daemon is draining");
        return (resp, None);
    }
    let (resp_tx, resp_rx) = mpsc::sync_channel::<Response>(1);
    let job = Job {
        req,
        resp_tx,
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
            // Shed latency is recorded too — labelled by outcome, so it
            // never pollutes the success histogram.
            let total_ns = elapsed_ns(t0.elapsed());
            record_served(op, ServeOutcome::Shed, 0, 0, total_ns);
            shared.log(&Event {
                id,
                event: "shed",
                opcode: op.name(),
                panel: panel.as_deref(),
                fingerprint,
                status: Some("shed"),
                total_ns: Some(total_ns),
                detail: Some("request queue full"),
                ..Event::default()
            });
            let resp = Response::error(
                Status::Shed,
                format!("request queue full (depth {})", shared.cfg.queue_depth),
            );
            return (resp, None);
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
    let resp = match resp_rx.recv_timeout(grace) {
        Ok(resp) => resp,
        Err(RecvTimeoutError::Timeout) => {
            Response::error(Status::Timeout, "request timed out in the server")
        }
        Err(RecvTimeoutError::Disconnected) => {
            Response::error(Status::Internal, "worker abandoned the request")
        }
    };
    (resp, Some(admitted))
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
        let mut ran = false;
        let mut service_ns = 0u64;
        let resp = if shared.hard_stop.is_cancelled() {
            Response::error(
                Status::ShuttingDown,
                "drain deadline exceeded before the request ran",
            )
        } else if job.deadline.expired() {
            // Shed, don't stall: dead weight never reaches a worker.
            Response::error(Status::Timeout, "deadline expired in the request queue")
        } else {
            ran = true;
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
            service_ns = elapsed_ns(svc0.elapsed());
            outcome.unwrap_or_else(|payload| {
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
            })
        };
        match resp.status {
            Status::Shed | Status::Timeout | Status::ShuttingDown => {
                ld_trace::add(Counter::RequestsShed, 1);
            }
            Status::Internal => ld_trace::add(Counter::RequestsFailed, 1),
            _ => {}
        }
        let total_ns = elapsed_ns(job.accepted.elapsed());
        // Outcome-labelled latency: only Ok feeds the success histogram
        // `health` reads; shed/timeout/error land in their own series.
        record_served(
            job.op,
            outcome_of(resp.status),
            queue_ns,
            if ran { service_ns } else { 0 },
            total_ns,
        );
        // Terminal log event: a queue-deadline expiry is `timeout`;
        // everything else (including a contained panic) closes with
        // `finish` carrying the terminal status.
        let event = if !ran && resp.status == Status::Timeout {
            "timeout"
        } else {
            "finish"
        };
        shared.log(&Event {
            id: job.id,
            event,
            opcode: job.op.name(),
            panel,
            fingerprint: job.fingerprint,
            status: Some(status_name(resp.status)),
            queue_ns: Some(queue_ns),
            service_ns: if ran { Some(service_ns) } else { None },
            total_ns: Some(total_ns),
            ..Event::default()
        });
        let _ = job.resp_tx.try_send(resp);
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
