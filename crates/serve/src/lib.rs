//! # ld-serve — fault-tolerant LD query daemon
//!
//! A long-running, std-only server that answers point (`i,j`) and
//! region LD queries against resident panels over a length-prefixed
//! binary protocol (LDS1) on a TCP socket, exposed as `gemm-ld serve`.
//!
//! The crate composes the robustness primitives built in earlier PRs
//! into a daemon that degrades gracefully instead of falling over:
//!
//! * [`protocol`] — the LDS1 wire format: `u32` length prefix, magic,
//!   opcode/status byte, strict total decoding with typed errors. A
//!   malformed payload never panics a parser; it yields a
//!   [`protocol::ProtoError`] that maps to a typed error response.
//! * [`registry`] — panels keyed by *checkpoint fingerprint* with LRU
//!   residency under a global memory budget: compute once, evict
//!   least-recently-used first, and only shed loads that cannot fit
//!   even into an empty cache (evict-then-shed).
//! * [`server`] — the daemon: a leader/followers pool serves each
//!   connection on the thread that accepted it, and a request runs on
//!   that thread behind one admission gate (compute permits plus bounded
//!   waiting slots; overload sheds with a typed [`protocol::Status::Shed`], it
//!   never stalls), the permit given back before the reply is written,
//!   per-request `Deadline`/`CancelToken` enforced at slab granularity
//!   by the fused engine, `catch_unwind` request isolation, slow-client
//!   write timeouts, and a SIGINT/SIGTERM drain with a hard deadline.
//! * [`client`] — a blocking client plus [`client::request_with_retry`],
//!   which shares `ld_parallel::Backoff` (capped exponential envelope,
//!   deterministic equal jitter) with the `run-sharded` supervisor.
//!
//! Observability rides on `ld-trace`: the daemon bumps the
//! `requests_accepted` / `requests_shed` / `requests_failed` /
//! `panels_evicted` counters and feeds the request-latency histogram,
//! all surfaced by the `health` request and the `--metrics` JSON.

pub mod client;
mod http;
pub mod protocol;
pub mod registry;
pub mod reqlog;
pub mod server;

pub use client::{request_with_retry, Client, ClientError};
pub use protocol::{Request, Response, StatCode, Status};
pub use registry::{PanelRegistry, PanelSource, RegistryError};
pub use server::{DrainOutcome, ServeConfig, Server, ServerHandle};
