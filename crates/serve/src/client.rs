//! Blocking LDS1 client: one framed request/response per call, plus a
//! retrying helper that reconnects with the shared jittered backoff
//! (`ld_parallel::Backoff` — the same envelope `run-sharded` uses for
//! shard restarts).

use crate::protocol::{read_response, write_frame, ProtoError, Request, Response, Status};
use ld_parallel::Backoff;
use std::fmt;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write).
    Io(io::Error),
    /// The server spoke malformed LDS1.
    Proto(ProtoError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(io) => ClientError::Io(io),
            other => ClientError::Proto(other),
        }
    }
}

/// A connected LDS1 client. Requests are strictly sequential (one
/// in-flight frame per connection — the protocol has no request IDs).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects with `timeout` applied to connect, reads, and writes.
    /// `TCP_NODELAY` is on: a request is one write and must not wait for
    /// the ACK of the previous exchange.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        let mut last: Option<io::Error> = None;
        for sa in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    return Ok(Client { stream });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )
        })))
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send_raw_frame(&req.encode())?;
        self.read_response()
    }

    /// Writes raw bytes as a frame payload — the fault-injection
    /// harness uses this to send deliberately malformed payloads.
    pub fn send_raw_frame(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        write_frame(&mut self.stream, payload, &[])?;
        Ok(())
    }

    /// Writes raw bytes verbatim, with no framing — for injecting a
    /// corrupt length prefix or a deliberately truncated frame.
    pub fn send_raw_bytes(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Reads one response frame, its body straight into the response.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        Ok(read_response(&mut self.stream)?)
    }

    /// The underlying stream (the harness shuts down halves to simulate
    /// half-open peers).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

/// Issues `req` with up to `attempts` tries, reconnecting each time and
/// sleeping the jittered backoff between failures. Retries on transport
/// errors and on `Shed` / `ShuttingDown` / `Timeout` responses (the
/// retryable statuses); other responses return immediately. The last
/// error or retryable response is returned when attempts are exhausted.
pub fn request_with_retry(
    addr: &str,
    req: &Request,
    attempts: usize,
    timeout: Duration,
    backoff: &Backoff,
) -> Result<Response, ClientError> {
    let mut last: Option<ClientError> = None;
    for attempt in 1..=attempts.max(1) {
        match Client::connect(addr, timeout).and_then(|mut c| c.request(req)) {
            Ok(resp) if retryable(resp.status) && attempt < attempts => {
                std::thread::sleep(backoff.delay(attempt));
                last = Some(ClientError::Io(io::Error::other(format!(
                    "server refused: {}",
                    resp.status.name()
                ))));
            }
            Ok(resp) => return Ok(resp),
            Err(e) => {
                if attempt < attempts {
                    std::thread::sleep(backoff.delay(attempt));
                }
                last = Some(e);
            }
        }
    }
    Err(last.unwrap_or_else(|| ClientError::Io(io::Error::other("no attempts made"))))
}

/// Statuses worth retrying: transient refusals, not request defects.
pub fn retryable(status: Status) -> bool {
    matches!(
        status,
        Status::Shed | Status::Timeout | Status::ShuttingDown
    )
}
