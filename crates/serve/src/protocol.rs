//! The `LDS1` wire protocol: length-prefixed frames, strictly decoded.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! ┌──────────────┬───────────────────────────────┐
//! │ len: u32 LE  │ payload (len bytes)           │
//! └──────────────┴───────────────────────────────┘
//! payload: [ magic "LDS1" (4) ][ opcode/status (1) ][ body ... ]
//! ```
//!
//! Requests are tiny and bounded ([`MAX_REQUEST_PAYLOAD`]); responses
//! carry pair tables and are bounded only by [`MAX_RESPONSE_PAYLOAD`].
//! All integers are little-endian; `min_r2` travels as raw `f64` bits so
//! a threshold round-trips exactly.
//!
//! Decoding is **strict and total**: every malformed byte sequence maps
//! to a typed [`ProtoError`] naming what is wrong (bad magic, unknown
//! opcode, truncated body, trailing garbage, non-UTF-8 panel name …) —
//! never a panic, never a silent truncation. The server answers a
//! decode failure with a [`Status::BadRequest`] response carrying the
//! error text and keeps the connection; only a corrupt *length prefix*
//! (oversized frame) forces a close, because the stream can no longer
//! be re-synchronized. The malformed-frame corpus in `tests/corpus.rs`
//! walks exactly these guarantees.
//!
//! Every frame, on either end, leaves in **one** vectored write
//! ([`write_frame`]): a frame split over two writes on a Nagle socket
//! waits out the peer's delayed ACK (~40 ms) before its second half
//! moves. A response's body goes out from the [`Response`] itself and
//! comes in straight into the [`Response`] [`read_response`] returns —
//! a region table is never copied into or out of a frame buffer.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Frame payload magic; rejects line-oriented or foreign traffic early.
pub const MAGIC: [u8; 4] = *b"LDS1";

/// Upper bound on a request payload. Requests carry at most a statistic
/// code, four integers and a panel name, so anything larger is garbage
/// — and bounding the prefix means a hostile client cannot make the
/// server allocate by sending a huge length.
pub const MAX_REQUEST_PAYLOAD: usize = 4 * 1024;

/// Upper bound on a response payload a client will accept (region pair
/// tables are large; 1 GiB is far above any panel the daemon serves).
pub const MAX_RESPONSE_PAYLOAD: usize = 1 << 30;

/// Statistic selector carried by queries (mirrors `ld_core::LdStats`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum StatCode {
    /// Squared Pearson correlation r².
    #[default]
    RSquared = 0,
    /// Raw disequilibrium coefficient D.
    D = 1,
    /// Lewontin's D′.
    DPrime = 2,
}

impl StatCode {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Result<Self, ProtoError> {
        match b {
            0 => Ok(StatCode::RSquared),
            1 => Ok(StatCode::D),
            2 => Ok(StatCode::DPrime),
            other => Err(ProtoError::BadStat(other)),
        }
    }

    /// The engine-side statistic this code selects.
    pub fn to_stat(self) -> ld_core::LdStats {
        match self {
            StatCode::RSquared => ld_core::LdStats::RSquared,
            StatCode::D => ld_core::LdStats::D,
            StatCode::DPrime => ld_core::LdStats::DPrime,
        }
    }
}

/// A decoded client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness + stats probe; answered inline, never queued.
    Health,
    /// One LD value for SNP pair `(i, j)` of `panel`.
    Pair {
        /// Registered panel name.
        panel: String,
        /// Statistic to compute.
        stat: StatCode,
        /// First SNP index.
        i: u32,
        /// Second SNP index.
        j: u32,
    },
    /// The pair table of rows `[row0, row1)` of `panel` — the exact
    /// bytes `gemm-ld r2` writes for that region (header included).
    Region {
        /// Registered panel name.
        panel: String,
        /// Statistic to compute.
        stat: StatCode,
        /// First row of the half-open region.
        row0: u32,
        /// One past the last row (0 = the whole panel).
        row1: u32,
        /// Threshold: pairs with `value < min_r2` (or NaN) are omitted.
        min_r2: f64,
    },
    /// Prometheus text exposition (v0.0.4) of every counter, gauge and
    /// histogram; answered inline, never queued. Same bytes the
    /// `--metrics-addr` HTTP listener serves on `GET /metrics`.
    Metrics,
    /// Live flight-recorder snapshot as Chrome trace-event JSON
    /// (Perfetto-loadable); answered inline without disarming the
    /// recorder. `NotFound` when no recorder is armed.
    DumpTrace,
}

const OP_HEALTH: u8 = 0;
const OP_PAIR: u8 = 1;
const OP_REGION: u8 = 2;
const OP_METRICS: u8 = 3;
const OP_DUMP_TRACE: u8 = 4;

impl Request {
    /// Encodes the request payload (send it as a frame's head with
    /// [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(32);
        p.extend_from_slice(&MAGIC);
        match self {
            Request::Health => p.push(OP_HEALTH),
            Request::Metrics => p.push(OP_METRICS),
            Request::DumpTrace => p.push(OP_DUMP_TRACE),
            Request::Pair { panel, stat, i, j } => {
                p.push(OP_PAIR);
                p.push(*stat as u8);
                p.extend_from_slice(&i.to_le_bytes());
                p.extend_from_slice(&j.to_le_bytes());
                put_name(&mut p, panel);
            }
            Request::Region {
                panel,
                stat,
                row0,
                row1,
                min_r2,
            } => {
                p.push(OP_REGION);
                p.push(*stat as u8);
                p.extend_from_slice(&row0.to_le_bytes());
                p.extend_from_slice(&row1.to_le_bytes());
                p.extend_from_slice(&min_r2.to_bits().to_le_bytes());
                put_name(&mut p, panel);
            }
        }
        p
    }

    /// Strictly decodes a request payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor::new(payload);
        let magic = c.bytes::<4>()?;
        if magic != MAGIC {
            return Err(ProtoError::BadMagic(magic));
        }
        let op = c.u8()?;
        let req = match op {
            OP_HEALTH => Request::Health,
            OP_METRICS => Request::Metrics,
            OP_DUMP_TRACE => Request::DumpTrace,
            OP_PAIR => {
                let stat = StatCode::from_u8(c.u8()?)?;
                let i = c.u32()?;
                let j = c.u32()?;
                let panel = c.name()?;
                Request::Pair { panel, stat, i, j }
            }
            OP_REGION => {
                let stat = StatCode::from_u8(c.u8()?)?;
                let row0 = c.u32()?;
                let row1 = c.u32()?;
                let min_r2 = f64::from_bits(c.u64()?);
                if min_r2.is_nan() {
                    // every comparison with NaN is false: the table would
                    // come back header-only, looking like "no pair passed"
                    return Err(ProtoError::BadThreshold);
                }
                let panel = c.name()?;
                Request::Region {
                    panel,
                    stat,
                    row0,
                    row1,
                    min_r2,
                }
            }
            other => return Err(ProtoError::BadOpcode(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

/// Response status — the typed outcome taxonomy every reply leads with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The query succeeded; the body is the result.
    Ok = 0,
    /// Admission control rejected the request — queue full, or the
    /// panel memory budget is exhausted even after eviction. Retry
    /// with backoff; the body names the exhausted resource.
    Shed = 1,
    /// The frame decoded but the request is unusable (malformed frame,
    /// unknown statistic, out-of-range indices).
    BadRequest = 2,
    /// The named panel is not registered with this daemon.
    NotFound = 3,
    /// The request was accepted but failed inside the server (a panic
    /// in its compute, panel load failure). The request was isolated; the
    /// server keeps serving.
    Internal = 4,
    /// The per-request deadline expired before the result was ready.
    Timeout = 5,
    /// The daemon is draining and no longer accepts new work.
    ShuttingDown = 6,
}

impl Status {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::Shed,
            2 => Status::BadRequest,
            3 => Status::NotFound,
            4 => Status::Internal,
            5 => Status::Timeout,
            6 => Status::ShuttingDown,
            other => return Err(ProtoError::BadStatus(other)),
        })
    }

    /// Stable lowercase name (used in logs and the bench report).
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Shed => "shed",
            Status::BadRequest => "bad-request",
            Status::NotFound => "not-found",
            Status::Internal => "internal",
            Status::Timeout => "timeout",
            Status::ShuttingDown => "shutting-down",
        }
    }
}

/// A decoded server response: a typed status plus a status-specific
/// body (result bytes for [`Status::Ok`], a UTF-8 message otherwise).
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Outcome class.
    pub status: Status,
    /// Result bytes (`Ok`) or a human-readable error message.
    pub body: Vec<u8>,
}

impl Response {
    /// An `Ok` response carrying `body`.
    pub fn ok(body: Vec<u8>) -> Self {
        Self {
            status: Status::Ok,
            body,
        }
    }

    /// An error response with a message body.
    pub fn error(status: Status, message: impl Into<String>) -> Self {
        Self {
            status,
            body: message.into().into_bytes(),
        }
    }

    /// The body as UTF-8 (error messages; lossy for robustness).
    pub fn message(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Length of a response payload's head: magic plus status byte.
const RESPONSE_HEAD: usize = MAGIC.len() + 1;

/// Why a frame or payload failed to decode. Every variant renders a
/// located, human-readable message — this text is what travels back in
/// a [`Status::BadRequest`] body.
#[derive(Debug)]
pub enum ProtoError {
    /// The transport failed mid-frame.
    Io(io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The peer closed (or stalled past the frame deadline) mid-frame.
    Truncated {
        /// Bytes expected still on the wire.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The length prefix exceeds the admissible payload size; the
    /// stream cannot be re-synchronized and must be closed.
    Oversized {
        /// Declared payload length.
        len: u64,
        /// Maximum admissible payload.
        max: usize,
    },
    /// The payload is shorter than a fixed field requires.
    Short {
        /// Bytes the field needs.
        need: usize,
        /// Bytes remaining.
        got: usize,
    },
    /// The payload does not start with `LDS1`.
    BadMagic([u8; 4]),
    /// Unknown request opcode.
    BadOpcode(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// Unknown statistic selector.
    BadStat(u8),
    /// The panel name is not valid UTF-8.
    BadName,
    /// A region's `min_r2` is NaN.
    BadThreshold,
    /// Decoding finished with unconsumed payload bytes.
    Trailing {
        /// Leftover byte count.
        extra: usize,
    },
}

impl ProtoError {
    /// True when the *stream* is beyond recovery (corrupt length prefix
    /// or transport failure) and the connection must be closed after
    /// the error response; payload-level errors keep the connection.
    pub fn poisons_stream(&self) -> bool {
        matches!(
            self,
            ProtoError::Io(_)
                | ProtoError::Closed
                | ProtoError::Truncated { .. }
                | ProtoError::Oversized { .. }
        )
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            ProtoError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes declared, max {max}")
            }
            ProtoError::Short { need, got } => {
                write!(f, "short payload: field needs {need} bytes, {got} left")
            }
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected \"LDS1\")"),
            ProtoError::BadOpcode(b) => write!(f, "unknown opcode {b}"),
            ProtoError::BadStatus(b) => write!(f, "unknown status byte {b}"),
            ProtoError::BadStat(b) => write!(f, "unknown statistic code {b} (0=r2 1=d 2=dprime)"),
            ProtoError::BadName => write!(f, "panel name is not valid UTF-8"),
            ProtoError::BadThreshold => write!(f, "min_r2 is NaN"),
            ProtoError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete request")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one frame — the length prefix, then `head` and `body` as one
/// payload — in a single vectored write. The one frame writer of both
/// ends: a request is all head, a response is its 5-byte head plus the
/// body it already owns ([`write_response`]).
pub fn write_frame(w: &mut impl Write, head: &[u8], body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(head.len() + body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 framing"))?;
    let prefix = len.to_le_bytes();
    write_all_vectored(
        w,
        &mut [
            IoSlice::new(&prefix),
            IoSlice::new(head),
            IoSlice::new(body),
        ],
    )?;
    w.flush()
}

/// Writes one response frame, its body straight from `resp`.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut head = [0u8; RESPONSE_HEAD];
    head[..MAGIC.len()].copy_from_slice(&MAGIC);
    head[MAGIC.len()] = resp.status as u8;
    write_frame(w, &head, &resp.body)
}

/// `write_all` over several buffers: one `write_vectored` call whenever
/// the writer takes everything, as a blocking socket does.
pub(crate) fn write_all_vectored(
    w: &mut impl Write,
    mut bufs: &mut [IoSlice<'_>],
) -> io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads and strictly decodes one response frame of at most
/// [`MAX_RESPONSE_PAYLOAD`] bytes: the prefix, the 5-byte head, then the
/// body straight into the returned response's own buffer.
///
/// A clean EOF *before* any prefix byte is [`ProtoError::Closed`]; EOF
/// mid-prefix, mid-head or mid-body is [`ProtoError::Truncated`]. The
/// whole frame is consumed before its head is judged, so a
/// [`ProtoError::BadMagic`] or [`ProtoError::BadStatus`] leaves the
/// stream at a frame boundary. A read timeout surfaces as `Io`.
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtoError> {
    let mut prefix = [0u8; 4];
    read_exact_or(r, &mut prefix, true)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_RESPONSE_PAYLOAD {
        return Err(ProtoError::Oversized {
            len: len as u64,
            max: MAX_RESPONSE_PAYLOAD,
        });
    }
    let mut head = [0u8; RESPONSE_HEAD];
    let head = &mut head[..len.min(RESPONSE_HEAD)];
    let truncated = |got| ProtoError::Truncated { expected: len, got };
    read_exact_or(r, head, false).map_err(|e| match e {
        ProtoError::Truncated { got, .. } => truncated(got),
        other => other,
    })?;
    let body_len = len - head.len();
    let mut body = Vec::with_capacity(body_len);
    r.take(body_len as u64).read_to_end(&mut body)?;
    if body.len() < body_len {
        return Err(truncated(head.len() + body.len()));
    }
    let mut c = Cursor::new(head);
    let magic = c.bytes::<4>()?;
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let status = Status::from_u8(c.u8()?)?;
    Ok(Response { status, body })
}

/// `read_exact` distinguishing clean close (only when `at_boundary` and
/// zero bytes arrived) from mid-frame truncation.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if at_boundary && filled == 0 {
                    Err(ProtoError::Closed)
                } else {
                    Err(ProtoError::Truncated {
                        expected: buf.len(),
                        got: filled,
                    })
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(())
}

fn put_name(p: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    let len = bytes.len().min(u16::MAX as usize) as u16;
    p.extend_from_slice(&len.to_le_bytes());
    p.extend_from_slice(&bytes[..len as usize]);
}

/// Strict little-endian payload reader.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let got = self.data.len() - self.pos;
        if got < n {
            return Err(ProtoError::Short { need: n, got });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.bytes::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.bytes::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.bytes::<8>()?))
    }

    fn name(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadName)
    }

    fn finish(self) -> Result<(), ProtoError> {
        let extra = self.data.len() - self.pos;
        if extra != 0 {
            return Err(ProtoError::Trailing { extra });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(Request::Health);
        roundtrip(Request::Metrics);
        roundtrip(Request::DumpTrace);
        roundtrip(Request::Pair {
            panel: "p1".into(),
            stat: StatCode::D,
            i: 3,
            j: 9,
        });
        roundtrip(Request::Region {
            panel: "panel-α".into(),
            stat: StatCode::DPrime,
            row0: 0,
            row1: 100,
            min_r2: 0.25,
        });
    }

    #[test]
    fn min_r2_bits_roundtrip_exactly() {
        let r = Request::Region {
            panel: "p".into(),
            stat: StatCode::RSquared,
            row0: 0,
            row1: 0,
            min_r2: 0.1 + 0.2, // not representable: bits must survive
        };
        match Request::decode(&r.encode()).unwrap() {
            Request::Region { min_r2, .. } => {
                assert_eq!(min_r2.to_bits(), (0.1f64 + 0.2).to_bits())
            }
            other => panic!("{other:?}"),
        }
    }

    fn response_frame(resp: &Response) -> Vec<u8> {
        let mut buf = Vec::new();
        write_response(&mut buf, resp).unwrap();
        buf
    }

    #[test]
    fn responses_roundtrip() {
        let r = Response::ok(b"SNP_A\tSNP_B\tR2\n".to_vec());
        assert_eq!(read_response(&mut &response_frame(&r)[..]).unwrap(), r);
        let e = Response::error(Status::Shed, "queue full (depth 8)");
        let d = read_response(&mut &response_frame(&e)[..]).unwrap();
        assert_eq!(d.status, Status::Shed);
        assert_eq!(d.message(), "queue full (depth 8)");
        // an empty body is a 5-byte payload
        let empty = Response::ok(Vec::new());
        assert_eq!(response_frame(&empty), b"\x05\0\0\0LDS1\x00");
        assert_eq!(
            read_response(&mut &response_frame(&empty)[..]).unwrap(),
            empty
        );
    }

    /// Counts the calls that put bytes on the wire.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let before = self.bytes.len();
            for b in bufs {
                self.bytes.extend_from_slice(b);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_write() {
        let req = Request::Region {
            panel: "p".into(),
            stat: StatCode::RSquared,
            row0: 0,
            row1: 400,
            min_r2: 0.0,
        };
        let mut w = CountingWriter::default();
        write_frame(&mut w, &req.encode(), &[]).unwrap();
        assert_eq!(w.writes, 1, "a request frame is one write");
        assert_eq!(&w.bytes[4..], &req.encode()[..]);

        let table: Vec<u8> = (0..2 << 20).map(|i| b"0123456789\t\n"[i % 12]).collect();
        let resp = Response::ok(table);
        let mut w = CountingWriter::default();
        write_response(&mut w, &resp).unwrap();
        assert_eq!(w.writes, 1, "a 2 MB response frame is one write");
        assert_eq!(read_response(&mut &w.bytes[..]).unwrap(), resp);
    }

    #[test]
    fn short_writes_resume_mid_buffer() {
        /// Takes at most 3 bytes per call.
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let resp = Response::error(Status::NotFound, "no such panel");
        let mut w = Dribble(Vec::new());
        write_response(&mut w, &resp).unwrap();
        assert_eq!(w.0, response_frame(&resp));
    }

    #[test]
    fn read_response_cut_in_head_or_body_is_truncated() {
        let frame = response_frame(&Response::ok(b"SNP_A\tSNP_B\tR2\n".to_vec()));
        let len = frame.len() - 4;
        // every cut after the prefix: inside the head (4..9) or the body
        for cut in 4..frame.len() {
            match read_response(&mut &frame[..cut]) {
                Err(ProtoError::Truncated { expected, got }) => {
                    assert_eq!((expected, got), (len, cut - 4), "cut at {cut}")
                }
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
        // inside the prefix: truncated too
        assert!(matches!(
            read_response(&mut &frame[..2]),
            Err(ProtoError::Truncated {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn read_response_rejects_a_foreign_head_after_consuming_the_frame() {
        let mut frame = response_frame(&Response::ok(b"body".to_vec()));
        frame[4] = b'X';
        let next = response_frame(&Response::ok(b"next".to_vec()));
        let mut wire = frame.clone();
        wire.extend_from_slice(&next);
        let mut r = &wire[..];
        assert!(matches!(
            read_response(&mut r),
            Err(ProtoError::BadMagic(_))
        ));
        assert_eq!(read_response(&mut r).unwrap().body, b"next");

        let mut bad_status = response_frame(&Response::ok(Vec::new()));
        bad_status[8] = 0x42;
        assert!(matches!(
            read_response(&mut &bad_status[..]),
            Err(ProtoError::BadStatus(0x42))
        ));
        // payloads too short for a head are short, as a strict decode says
        assert!(matches!(
            read_response(&mut &b"\x02\0\0\0LD"[..]),
            Err(ProtoError::Short { need: 4, got: 2 })
        ));
        assert!(matches!(
            read_response(&mut &b"\x04\0\0\0LDS1"[..]),
            Err(ProtoError::Short { need: 1, got: 0 })
        ));
    }

    #[test]
    fn decode_rejects_each_malformation_with_a_typed_error() {
        // too short for magic
        assert!(matches!(
            Request::decode(b"LD"),
            Err(ProtoError::Short { .. })
        ));
        // wrong magic
        assert!(matches!(
            Request::decode(b"XXXX\x00"),
            Err(ProtoError::BadMagic(_))
        ));
        // unknown opcode
        assert!(matches!(
            Request::decode(b"LDS1\x7f"),
            Err(ProtoError::BadOpcode(0x7f))
        ));
        // unknown stat
        let mut p = Request::Pair {
            panel: "p".into(),
            stat: StatCode::RSquared,
            i: 0,
            j: 1,
        }
        .encode();
        p[5] = 9;
        assert!(matches!(Request::decode(&p), Err(ProtoError::BadStat(9))));
        // truncated body
        let full = Request::Pair {
            panel: "p".into(),
            stat: StatCode::RSquared,
            i: 0,
            j: 1,
        }
        .encode();
        assert!(matches!(
            Request::decode(&full[..full.len() - 1]),
            Err(ProtoError::Short { .. })
        ));
        // trailing garbage
        let mut t = full.clone();
        t.push(0);
        assert!(matches!(
            Request::decode(&t),
            Err(ProtoError::Trailing { extra: 1 })
        ));
        // non-UTF-8 name
        let mut bad = Request::Pair {
            panel: "ab".into(),
            stat: StatCode::RSquared,
            i: 0,
            j: 1,
        }
        .encode();
        let n = bad.len();
        bad[n - 1] = 0xff;
        bad[n - 2] = 0xfe;
        assert!(matches!(Request::decode(&bad), Err(ProtoError::BadName)));
    }

    #[test]
    fn frames_roundtrip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"LDS1", b"\x00hello").unwrap();
        assert_eq!(buf, b"\x0a\0\0\0LDS1\x00hello");
        let mut r = &buf[..];
        assert_eq!(read_response(&mut r).unwrap().body, b"hello");
        assert!(matches!(read_response(&mut r), Err(ProtoError::Closed)));
        // oversized prefix is typed and names the bound
        let mut big = Vec::new();
        big.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_response(&mut &big[..]),
            Err(ProtoError::Oversized {
                max: MAX_RESPONSE_PAYLOAD,
                ..
            })
        ));
        // mid-frame EOF is truncation, not a clean close
        let mut cut = buf.clone();
        cut.truncate(6);
        assert!(matches!(
            read_response(&mut &cut[..]),
            Err(ProtoError::Truncated { .. })
        ));
    }

    #[test]
    fn stream_poisoning_is_classified() {
        assert!(ProtoError::Oversized { len: 99, max: 4 }.poisons_stream());
        assert!(ProtoError::Truncated {
            expected: 8,
            got: 2
        }
        .poisons_stream());
        assert!(!ProtoError::BadOpcode(9).poisons_stream());
        assert!(!ProtoError::Trailing { extra: 3 }.poisons_stream());
    }
}
