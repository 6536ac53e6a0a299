//! Hard input limits and the byte-capped line reader.
//!
//! Production batch scans feed these parsers untrusted files. Without
//! caps, a crafted (or merely corrupt) input can make `lines()` buffer a
//! gigabyte-long "line", or declare enough sites/samples to OOM the
//! process before a single genotype is validated. Every text parser in
//! this crate therefore runs behind a [`Limits`] policy (a permissive
//! default via `read_*`, caller-tuned via the `read_*_with` variants) and
//! reads lines through [`LineReader`], which refuses to buffer past the
//! configured byte cap — failures surface as located
//! [`IoError::LimitExceeded`] values, never as unbounded allocation.

use crate::IoError;
use std::io::BufRead;

/// Hard ceilings applied while parsing untrusted inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted text line, in bytes (newline excluded).
    pub max_line_bytes: usize,
    /// Maximum number of SNPs/sites a single input may declare or contain.
    pub max_sites: usize,
    /// Maximum number of samples/haplotypes/individuals.
    pub max_samples: usize,
}

impl Default for Limits {
    /// Permissive production defaults: 64 MiB lines (a 10M-sample VCF row
    /// fits), 100M sites, 16M samples — far above any real dataset, low
    /// enough to stop a runaway allocation long before the OOM killer.
    fn default() -> Self {
        Self {
            max_line_bytes: 64 << 20,
            max_sites: 100_000_000,
            max_samples: 16_000_000,
        }
    }
}

impl Limits {
    /// Replaces the line-length cap.
    pub fn max_line_bytes(mut self, n: usize) -> Self {
        self.max_line_bytes = n;
        self
    }

    /// Replaces the site-count cap.
    pub fn max_sites(mut self, n: usize) -> Self {
        self.max_sites = n;
        self
    }

    /// Replaces the sample-count cap.
    pub fn max_samples(mut self, n: usize) -> Self {
        self.max_samples = n;
        self
    }
}

/// A line reader that never buffers more than the configured cap.
///
/// `BufRead::lines()` happily grows its `String` until the allocator
/// gives out; this reader looks at no more than `max_line_bytes + 1` bytes
/// per line and converts an over-long line into a located
/// [`IoError::LimitExceeded`] instead.
///
/// A line that lies inside the underlying reader's buffer is handed out as
/// a slice of that buffer — no copy, no allocation; only a line that
/// straddles two fills is assembled in the reader's own buffer.
pub(crate) struct LineReader<R: BufRead> {
    inner: R,
    format: &'static str,
    max_line_bytes: usize,
    /// 1-based number of the last line returned.
    line_no: usize,
    /// A line that straddles fills of `inner`'s buffer, while it is lent.
    buf: Vec<u8>,
    /// Bytes of `inner`'s buffer lent out by the last call and not yet
    /// consumed (a slice of the buffer cannot outlive a `consume`).
    lent: usize,
    /// Lines and raw bytes (newlines included) read but not yet reported
    /// to `ld_trace`: reported once per refill, not once per line.
    unrecorded: (u64, u64),
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(inner: R, format: &'static str, limits: &Limits) -> Self {
        Self {
            inner,
            format,
            max_line_bytes: limits.max_line_bytes,
            line_no: 0,
            buf: Vec::new(),
            lent: 0,
            unrecorded: (0, 0),
        }
    }

    /// Returns the next line as `(1-based line number, raw bytes)` with the
    /// trailing `\n`/`\r\n` stripped, `None` at EOF.
    pub(crate) fn next_line_bytes(&mut self) -> Result<Option<(usize, &[u8])>, IoError> {
        self.inner.consume(std::mem::take(&mut self.lent));
        self.buf.clear();
        // One byte past the cap is enough to detect overrun, so a missing
        // newline cannot buffer the whole stream.
        let cap = self.max_line_bytes.saturating_add(1);
        let in_place = loop {
            let avail = match self.inner.fill_buf() {
                Ok(avail) => avail,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if avail.is_empty() {
                break false; // EOF: whatever `buf` holds is the last line
            }
            let window = &avail[..avail.len().min(cap - self.buf.len())];
            // `skip_until` on a slice is the standard library's `memchr`:
            // it stops after the first newline, or at the window's end.
            let n = (&mut &*window).skip_until(b'\n')?;
            let ended = window[n - 1] == b'\n' || self.buf.len() + n == cap;
            if ended && self.buf.is_empty() {
                self.lent = n;
                break true;
            }
            self.buf.extend_from_slice(&window[..n]);
            self.inner.consume(n);
            self.unrecorded.1 += n as u64;
            if ended {
                break false;
            }
            // `avail` is used up with the line still open: the next
            // `fill_buf` refills, so this is where totals are reported.
            self.record();
        };
        let line = if in_place {
            self.unrecorded.1 += self.lent as u64;
            // nothing was consumed since the loop saw these bytes
            &self.inner.fill_buf()?[..self.lent]
        } else if self.buf.is_empty() {
            self.record();
            return Ok(None);
        } else {
            &self.buf[..]
        };
        self.unrecorded.0 += 1;
        self.line_no += 1;
        let line = line
            .strip_suffix(b"\n")
            .map_or(line, |l| l.strip_suffix(b"\r").unwrap_or(l));
        if line.len() > self.max_line_bytes {
            return Err(IoError::limit(
                self.format,
                self.line_no,
                "line length",
                self.max_line_bytes,
            ));
        }
        Ok(Some((self.line_no, line)))
    }

    /// Like [`LineReader::next_line_bytes`], for parsers that read text:
    /// the line must be valid UTF-8.
    pub(crate) fn next_line(&mut self) -> Result<Option<(usize, &str)>, IoError> {
        let format = self.format;
        match self.next_line_bytes()? {
            Some((no, line)) => Ok(Some((no, utf8(format, no, line)?))),
            None => Ok(None),
        }
    }

    /// Like [`LineReader::next_line`] but returns an owned `String`
    /// (needed when the caller must hold the line across further reads).
    pub(crate) fn next_line_owned(&mut self) -> Result<Option<(usize, String)>, IoError> {
        Ok(self.next_line()?.map(|(no, s)| (no, s.to_string())))
    }

    /// Reports the lines and bytes read since the last report, attributed
    /// to this reader's format tag.
    fn record(&mut self) {
        let (lines, bytes) = std::mem::take(&mut self.unrecorded);
        ld_trace::io_record(self.format, lines, bytes);
    }
}

impl<R: BufRead> Drop for LineReader<R> {
    /// A parser that stops early — an error, the first `ms` replicate —
    /// still reports every line it read, and leaves a borrowed reader
    /// positioned after the last of them.
    fn drop(&mut self) {
        self.inner.consume(self.lent);
        self.record();
    }
}

/// The UTF-8 check every text line passes before a parser looks at it.
pub(crate) fn utf8<'a>(
    format: &'static str,
    line_no: usize,
    line: &'a [u8],
) -> Result<&'a str, IoError> {
    std::str::from_utf8(line)
        .map_err(|_| IoError::parse(format, line_no, "line is not valid UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(s: &str, cap: usize) -> LineReader<&[u8]> {
        let limits = Limits::default().max_line_bytes(cap);
        LineReader::new(s.as_bytes(), "test", &limits)
    }

    #[test]
    fn splits_lines_with_numbers() {
        let mut r = reader("a\nbb\r\nccc", 100);
        assert_eq!(r.next_line().unwrap(), Some((1, "a")));
        assert_eq!(r.next_line().unwrap(), Some((2, "bb")));
        assert_eq!(r.next_line().unwrap(), Some((3, "ccc")));
        assert_eq!(r.next_line().unwrap(), None);
    }

    #[test]
    fn exact_cap_passes_over_cap_fails() {
        let mut r = reader("abcde\n", 5);
        assert_eq!(r.next_line().unwrap(), Some((1, "abcde")));
        let mut r = reader("abcdef\n", 5);
        let err = r.next_line().unwrap_err();
        assert!(
            matches!(err, IoError::LimitExceeded { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn unterminated_long_line_does_not_buffer_everything() {
        // 1 MiB of 'x' with a tiny cap: must fail fast, not buffer 1 MiB
        let big = "x".repeat(1 << 20);
        let mut r = reader(&big, 64);
        assert!(r.next_line().is_err());
    }

    /// A line inside the underlying buffer is lent from it; only a line
    /// that straddles two fills is copied — and either way the bytes and
    /// the numbering are the same.
    #[test]
    fn lines_are_lent_in_place_and_copied_only_when_they_straddle() {
        let text = b"first\nsecond line\r\n\nlast";
        let want: [&[u8]; 4] = [b"first", b"second line", b"", b"last"];
        for cap in [1, 2, 5, 6, 7, 64] {
            let limits = Limits::default();
            let inner = std::io::BufReader::with_capacity(cap, &text[..]);
            let mut r = LineReader::new(inner, "test", &limits);
            for (i, w) in want.iter().enumerate() {
                let (no, line) = r.next_line_bytes().unwrap().unwrap();
                assert_eq!((no, line), (i + 1, *w), "capacity {cap}");
                // a line the buffer holds together with its newline is lent,
                // not copied (the unterminated last line cannot be: only
                // the next fill can tell it from a line still arriving)
                if cap == 64 && no < 4 {
                    assert!(r.buf.is_empty(), "line {no} was copied");
                }
            }
            assert_eq!(r.next_line_bytes().unwrap(), None, "capacity {cap}");
            assert_eq!(r.next_line_bytes().unwrap(), None, "EOF is sticky");
        }
    }

    #[test]
    fn rejects_invalid_utf8() {
        let limits = Limits::default();
        let bytes: &[u8] = &[0x66, 0xff, 0xfe, 0x0a];
        let mut r = LineReader::new(bytes, "test", &limits);
        assert!(matches!(r.next_line(), Err(IoError::Parse { .. })));
    }

    #[test]
    fn builder_setters() {
        let l = Limits::default()
            .max_line_bytes(10)
            .max_sites(20)
            .max_samples(30);
        assert_eq!(l.max_line_bytes, 10);
        assert_eq!(l.max_sites, 20);
        assert_eq!(l.max_samples, 30);
    }
}
