//! Structured JSON-lines request log.
//!
//! One line per lifecycle transition, append-only, flushed per event so
//! a crash loses at most the event being written. The lifecycle contract
//! (line shape: `schemas/request_log.schema.json`, checked by `ci.sh`'s
//! schemas leg; ordering: `request_log_records_full_lifecycles`):
//!
//! ```text
//! accept ─┬─ shed                       (admission refused; terminal)
//!         ├─ finish                     (inline op, or refused while draining)
//!         └─ admit ─┬─ timeout          (expired waiting for a permit; terminal)
//!                   ├─ finish           (abandoned during drain)
//!                   └─ start ─┬─ finish
//!                             └─ panic ── finish (status "internal")
//! ```
//!
//! Event ranks are strictly increasing per request id — `accept` (0),
//! `admit`/`shed` (1), `start` (2), `timeout`/`panic` (3), `finish` (4)
//! — with exactly one terminal event (`shed`, `timeout`, or `finish`).
//! `seq` is a global, gap-free line number assigned under the file lock,
//! so file order and `seq` order agree even with many writer threads;
//! `mono_ns` is the process-monotonic clock (`ld_trace::histogram::now_ns`)
//! and is what ordering assertions should use, `ts_ms` is wall time for
//! humans and log correlation.
//!
//! The terminal event is logged by the connection thread once the reply
//! is written, and says where the request's time went: `read_ns`,
//! `queue_ns`, `service_ns` and `write_ns` are disjoint stages of
//! `total_ns`, which runs from the first request byte to the last reply
//! byte (a stage the request never entered is omitted).
//!
//! Requests slower than the configured `--slow-ms` threshold are
//! mirrored to stderr on their terminal event.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// One lifecycle transition. Optional fields are omitted from the JSON
/// line entirely (never emitted as `null`).
#[derive(Debug, Default)]
pub struct Event<'a> {
    /// Per-request id (unique within the daemon process).
    pub id: u64,
    /// Transition name: `accept`/`admit`/`shed`/`start`/`timeout`/`panic`/`finish`.
    pub event: &'static str,
    /// Wire opcode name (`health`, `pair`, `region`, `metrics`, `dump_trace`).
    pub opcode: &'static str,
    /// Panel name, when the request addresses one.
    pub panel: Option<&'a str>,
    /// Panel checkpoint fingerprint (hex), when the panel is registered.
    pub fingerprint: Option<u64>,
    /// Terminal status name, on `shed`/`timeout`/`finish`.
    pub status: Option<&'static str>,
    /// First request byte to last request byte, on terminal events.
    pub read_ns: Option<u64>,
    /// Time spent waiting for a compute permit (the gate wait), known
    /// from `start` onward and on every admitted request's terminal event.
    pub queue_ns: Option<u64>,
    /// Time spent computing, on terminal events of requests that ran.
    pub service_ns: Option<u64>,
    /// Time spent writing the reply, on terminal events.
    pub write_ns: Option<u64>,
    /// First request byte to last reply byte, on terminal events; the
    /// stages above are disjoint pieces of it.
    pub total_ns: Option<u64>,
    /// Free-form context (panic message, shed reason).
    pub detail: Option<&'a str>,
}

struct Inner {
    file: File,
    seq: u64,
}

/// Append-only JSON-lines sink shared by every server thread.
pub struct RequestLog {
    inner: Mutex<Inner>,
    slow_ns: Option<u64>,
}

impl RequestLog {
    /// Opens (creating or appending) the log at `path`. `slow_ms`
    /// mirrors terminal events of slower requests to stderr.
    pub fn open(path: &Path, slow_ms: Option<u64>) -> io::Result<RequestLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(RequestLog {
            inner: Mutex::new(Inner { file, seq: 0 }),
            slow_ns: slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
        })
    }

    /// Appends one event as a single JSON line (one `write` syscall, so
    /// concurrent writers never interleave bytes).
    pub fn log(&self, ev: &Event<'_>) {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mono_ns = ld_trace::histogram::now_ns();
        let mut guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let seq = guard.seq;
        guard.seq += 1;
        let mut line = String::with_capacity(192);
        let _ = write!(
            line,
            "{{\"ts_ms\":{ts_ms},\"mono_ns\":{mono_ns},\"seq\":{seq},\"id\":{},\
             \"event\":\"{}\",\"opcode\":\"{}\"",
            ev.id, ev.event, ev.opcode
        );
        if let Some(panel) = ev.panel {
            let _ = write!(line, ",\"panel\":\"{}\"", ld_trace::escape_json(panel));
        }
        if let Some(fp) = ev.fingerprint {
            let _ = write!(line, ",\"fingerprint\":\"{fp:016x}\"");
        }
        if let Some(status) = ev.status {
            let _ = write!(line, ",\"status\":\"{status}\"");
        }
        for (key, val) in [
            ("read_ns", ev.read_ns),
            ("queue_ns", ev.queue_ns),
            ("service_ns", ev.service_ns),
            ("write_ns", ev.write_ns),
            ("total_ns", ev.total_ns),
        ] {
            if let Some(v) = val {
                let _ = write!(line, ",\"{key}\":{v}");
            }
        }
        if let Some(detail) = ev.detail {
            let _ = write!(line, ",\"detail\":\"{}\"", ld_trace::escape_json(detail));
        }
        line.push_str("}\n");
        let _ = guard.file.write_all(line.as_bytes());
        drop(guard);
        if let (Some(slow_ns), Some(total_ns)) = (self.slow_ns, ev.total_ns) {
            if terminal(ev.event) && total_ns >= slow_ns {
                eprintln!(
                    "ld-serve: slow request id={} opcode={} status={} total_ms={:.1}",
                    ev.id,
                    ev.opcode,
                    ev.status.unwrap_or("?"),
                    total_ns as f64 / 1e6,
                );
            }
        }
    }
}

/// Whether `event` closes a request's lifecycle.
pub fn terminal(event: &str) -> bool {
    matches!(event, "shed" | "timeout" | "finish")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_valid_shape_and_sequenced() {
        let dir = std::env::temp_dir().join(format!("ld-reqlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("req.log");
        let _ = std::fs::remove_file(&path);
        let log = RequestLog::open(&path, None).expect("open log");
        log.log(&Event {
            id: 7,
            event: "accept",
            opcode: "pair",
            panel: Some("chr\"1\\a"),
            fingerprint: Some(0xabcd),
            ..Event::default()
        });
        log.log(&Event {
            id: 7,
            event: "finish",
            opcode: "pair",
            status: Some("ok"),
            read_ns: Some(1),
            queue_ns: Some(10),
            service_ns: Some(20),
            write_ns: Some(2),
            total_ns: Some(35),
            ..Event::default()
        });
        let text = std::fs::read_to_string(&path).expect("read log");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"seq\":1"));
        assert!(lines[0].contains("\"panel\":\"chr\\\"1\\\\a\""));
        assert!(lines[0].contains("\"fingerprint\":\"000000000000abcd\""));
        assert!(!lines[0].contains("status"), "absent fields are omitted");
        assert!(lines[1].contains(
            "\"read_ns\":1,\"queue_ns\":10,\"service_ns\":20,\"write_ns\":2,\"total_ns\":35"
        ));
        assert!(lines[1].ends_with('}'));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn terminal_classification() {
        for ev in ["shed", "timeout", "finish"] {
            assert!(terminal(ev));
        }
        for ev in ["accept", "admit", "start", "panic"] {
            assert!(!terminal(ev));
        }
    }
}
