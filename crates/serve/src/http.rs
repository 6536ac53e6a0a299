//! Minimal plain-HTTP/1.0 endpoint for Prometheus scrapes.
//!
//! Deliberately tiny: `GET /metrics` and `GET /health` only, one
//! response per connection (`Connection: close`), no keep-alive, no
//! TLS, no chunking. A scraper is the only intended client; the LDS1
//! socket remains the real API. Each connection is handled on its own
//! short-lived thread with read/write timeouts so a stalled scraper
//! can never block the next scrape: scrapes are rare and off every
//! query path, so a thread per scrape costs nothing that matters. The
//! scrape listener is the only user of [`accept_until`] (the LDS1
//! listener is served by the daemon's leader/followers pool); both block
//! in the one `server::accept`, and the server trips the stop token and
//! wakes this listener with a self-connect when it is done.

use crate::protocol::write_all_vectored;
use crate::server::accept;
use ld_core::CancelToken;
use std::io::{IoSlice, Read};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Content type of the Prometheus text exposition format v0.0.4.
pub(crate) const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Largest request head (request line + headers) we bother reading.
const MAX_HEAD: usize = 8 * 1024;

/// Accepts scrape connections until `stop` trips (and the listener is
/// woken). `render` maps a request path to `(body, content-type)`, or
/// `None` for 404; it runs on the per-connection thread, so it may take
/// locks but must not block indefinitely.
pub(crate) fn serve_http<F>(listener: &TcpListener, stop: &CancelToken, render: F)
where
    F: Fn(&str) -> Option<(String, &'static str)> + Send + Sync + Clone + 'static,
{
    accept_until(listener, stop, |stream| {
        let render = render.clone();
        std::thread::spawn(move || handle(stream, &render));
    });
}

/// Serves exactly one request on `stream`; every error path just drops
/// the connection (the scraper retries on its next interval).
fn handle<F>(mut stream: TcpStream, render: &F)
where
    F: Fn(&str) -> Option<(String, &'static str)>,
{
    let timeout = Some(Duration::from_secs(2));
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        return;
    }
    let head = match read_head(&mut stream) {
        Some(h) => h,
        None => return,
    };
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return,
    };
    let (status, body, ctype) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "only GET is supported\n".to_string(),
            "text/plain; charset=utf-8",
        )
    } else {
        // strip any query string: scrapers sometimes append one
        let path = path.split('?').next().unwrap_or(path);
        match render(path) {
            Some((body, ctype)) => ("200 OK", body, ctype),
            None => (
                "404 Not Found",
                "try /metrics or /health\n".to_string(),
                "text/plain; charset=utf-8",
            ),
        }
    };
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // one write: status line, headers and body leave together
    let _ = write_all_vectored(
        &mut stream,
        &mut [IoSlice::new(head.as_bytes()), IoSlice::new(body.as_bytes())],
    );
}

/// Accepts on `listener` until `stop` trips, handing every connection to
/// `serve`. `accept` blocks: whoever trips `stop` must also wake the
/// listener, and the connection that arrives after the trip is dropped
/// instead of served.
fn accept_until(listener: &TcpListener, stop: &CancelToken, mut serve: impl FnMut(TcpStream)) {
    while !stop.is_cancelled() {
        if let Some(stream) = accept(listener) {
            if stop.is_cancelled() {
                return;
            }
            serve(stream);
        }
    }
}

/// Reads until the end of the request head (`\r\n\r\n`), `MAX_HEAD`
/// bytes, or a 2-second budget — whichever comes first.
fn read_head(stream: &mut TcpStream) -> Option<String> {
    let started = Instant::now();
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_HEAD {
            break;
        }
        if started.elapsed() > Duration::from_secs(2) {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return None
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    String::from_utf8(buf).ok()
}
