//! The scalar readers the byte→bit ingestion path replaced, kept as the
//! test oracle: `read_until` into an owned buffer, `.chars()` per
//! genotype, one byte per allele, one `set` per bit. The differential
//! tests below hold the shipped `ms` / `txt` readers to them — the same
//! [`BitMatrix`] **or** the same error text — over seeded shapes, line
//! endings, comment and blank lines, every single-byte mutation of a small
//! file, and readers that trickle or fail mid-stream.

use crate::ms::MsReplicate;
use crate::{IoError, Limits};
use ld_bitmat::BitMatrix;
use std::io::BufRead;

/// The line reader as it was: copies every line, validates UTF-8 up front.
struct OracleLines<R> {
    inner: R,
    format: &'static str,
    max_line_bytes: usize,
    line_no: usize,
    buf: Vec<u8>,
}

impl<R: BufRead> OracleLines<R> {
    fn new(inner: R, format: &'static str, limits: &Limits) -> Self {
        Self {
            inner,
            format,
            max_line_bytes: limits.max_line_bytes,
            line_no: 0,
            buf: Vec::new(),
        }
    }

    fn next_line(&mut self) -> Result<Option<(usize, String)>, IoError> {
        self.buf.clear();
        let cap = self.max_line_bytes as u64 + 1;
        let n = <&mut R as std::io::Read>::take(&mut self.inner, cap)
            .read_until(b'\n', &mut self.buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.line_no += 1;
        let mut end = self.buf.len();
        if self.buf.ends_with(b"\n") {
            end -= 1;
            if self.buf[..end].ends_with(b"\r") {
                end -= 1;
            }
        }
        if end > self.max_line_bytes {
            return Err(IoError::limit(
                self.format,
                self.line_no,
                "line length",
                self.max_line_bytes,
            ));
        }
        let s = std::str::from_utf8(&self.buf[..end])
            .map_err(|_| IoError::parse(self.format, self.line_no, "line is not valid UTF-8"))?;
        Ok(Some((self.line_no, s.to_string())))
    }
}

/// One bit at a time.
fn matrix_from_rows(rows: &[Vec<u8>], n_snps: usize) -> BitMatrix {
    let mut m = BitMatrix::zeros(rows.len(), n_snps);
    for (s, row) in rows.iter().enumerate() {
        for (j, &a) in row.iter().enumerate() {
            m.set(s, j, a == 1);
        }
    }
    m
}

pub(crate) fn read_ms_with<R: BufRead>(
    reader: R,
    limits: &Limits,
) -> Result<Vec<MsReplicate>, IoError> {
    let mut replicates = Vec::new();
    let mut lines = OracleLines::new(reader, "ms", limits);
    let mut pending: Option<(usize, String)> = None;
    loop {
        let marker = match pending.take() {
            Some(l) => Some(l),
            None => {
                let mut found = None;
                while let Some((no, line)) = lines.next_line()? {
                    if line.trim_start().starts_with("//") {
                        found = Some((no, line));
                        break;
                    }
                }
                found
            }
        };
        if marker.is_none() {
            break;
        }

        let segsites = loop {
            let Some((no, line)) = lines.next_line()? else {
                return Err(IoError::truncated("ms", "EOF before 'segsites:'"));
            };
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            let Some(rest) = t.strip_prefix("segsites:") else {
                return Err(IoError::parse(
                    "ms",
                    no,
                    format!("expected 'segsites:', got '{t}'"),
                ));
            };
            let n: usize = rest
                .trim()
                .parse()
                .map_err(|_| IoError::parse("ms", no, "invalid segsites count"))?;
            if n > limits.max_sites {
                return Err(IoError::limit("ms", no, "site count", limits.max_sites));
            }
            break n;
        };

        if segsites == 0 {
            replicates.push(MsReplicate {
                positions: Vec::new(),
                matrix: BitMatrix::zeros(0, 0),
            });
            continue;
        }

        let positions = loop {
            let Some((no, line)) = lines.next_line()? else {
                return Err(IoError::truncated("ms", "EOF before 'positions:'"));
            };
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            let Some(rest) = t.strip_prefix("positions:") else {
                return Err(IoError::parse("ms", no, "expected 'positions:'"));
            };
            let pos: Result<Vec<f64>, _> = rest.split_whitespace().map(str::parse::<f64>).collect();
            let pos = pos.map_err(|_| IoError::parse("ms", no, "invalid position"))?;
            if pos.len() != segsites {
                return Err(IoError::parse(
                    "ms",
                    no,
                    format!("{} positions for {} segsites", pos.len(), segsites),
                ));
            }
            break pos;
        };

        let mut rows: Vec<Vec<u8>> = Vec::new();
        while let Some((no, line)) = lines.next_line()? {
            let t = line.trim();
            if t.is_empty() {
                break;
            }
            if t.starts_with("//") {
                pending = Some((no, line));
                break;
            }
            if rows.len() >= limits.max_samples {
                return Err(IoError::limit("ms", no, "sample count", limits.max_samples));
            }
            if t.len() != segsites {
                return Err(IoError::parse(
                    "ms",
                    no,
                    format!("haplotype row has {} chars, expected {}", t.len(), segsites),
                ));
            }
            let row: Result<Vec<u8>, IoError> = t
                .chars()
                .map(|c| match c {
                    '0' => Ok(0u8),
                    '1' => Ok(1u8),
                    other => Err(IoError::parse(
                        "ms",
                        no,
                        format!("invalid allele char '{other}'"),
                    )),
                })
                .collect();
            rows.push(row?);
        }
        if rows.is_empty() {
            return Err(IoError::truncated("ms", "replicate with no haplotype rows"));
        }
        let matrix = matrix_from_rows(&rows, segsites);
        replicates.push(MsReplicate { positions, matrix });
    }
    Ok(replicates)
}

pub(crate) fn read_matrix_with<R: BufRead>(r: R, limits: &Limits) -> Result<BitMatrix, IoError> {
    let mut rows: Vec<Vec<u8>> = Vec::new();
    let mut width: Option<usize> = None;
    let mut lines = OracleLines::new(r, "matrix", limits);
    while let Some((no, line)) = lines.next_line()? {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if rows.len() >= limits.max_samples {
            return Err(IoError::limit(
                "matrix",
                no,
                "sample count",
                limits.max_samples,
            ));
        }
        let row: Result<Vec<u8>, IoError> = t
            .chars()
            .filter(|c| !c.is_whitespace())
            .map(|c| match c {
                '0' => Ok(0u8),
                '1' => Ok(1u8),
                other => Err(IoError::parse(
                    "matrix",
                    no,
                    format!("invalid char '{other}'"),
                )),
            })
            .collect();
        let row = row?;
        if row.len() > limits.max_sites {
            return Err(IoError::limit("matrix", no, "site count", limits.max_sites));
        }
        if let Some(wdt) = width {
            if row.len() != wdt {
                return Err(IoError::parse(
                    "matrix",
                    no,
                    format!("row width {} != {}", row.len(), wdt),
                ));
            }
        } else {
            width = Some(row.len());
        }
        rows.push(row);
    }
    Ok(matrix_from_rows(&rows, width.unwrap_or(0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ms, text};
    use std::fmt::Debug;
    use std::io::{BufReader, Read};

    /// Delivers at most one byte per `read` call.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Delivers `ok` bytes, then fails every read.
    struct FailAfter<'a> {
        data: &'a [u8],
        ok: usize,
    }

    impl Read for FailAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.ok == 0 {
                return Err(std::io::Error::other("injected transport failure"));
            }
            let n = buf.len().min(self.ok).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            self.ok -= n;
            Ok(n)
        }
    }

    /// Every way a parser is handed `bytes`: the slice itself, `BufReader`s
    /// whose buffer is smaller than any line, odd-sized and larger than the
    /// file, a one-byte-per-read transport, and one that dies at `fail_at`.
    /// (Files past 32 KiB skip the two byte-at-a-time kinds, which cost
    /// seconds in a debug build and walk no path the smaller files do not.)
    fn readers(bytes: &[u8], fail_at: usize) -> Vec<(String, Box<dyn BufRead + '_>)> {
        let mut v: Vec<(String, Box<dyn BufRead + '_>)> = vec![("slice".into(), Box::new(bytes))];
        for cap in [7, 1 << 20] {
            v.push((
                format!("BufReader({cap})"),
                Box::new(BufReader::with_capacity(cap, bytes)),
            ));
        }
        v.push((
            format!("fail after {fail_at}"),
            Box::new(BufReader::with_capacity(
                16,
                FailAfter {
                    data: bytes,
                    ok: fail_at,
                },
            )),
        ));
        if bytes.len() <= 32 << 10 {
            v.push((
                "BufReader(1)".into(),
                Box::new(BufReader::with_capacity(1, bytes)),
            ));
            v.push((
                "trickle".into(),
                Box::new(BufReader::with_capacity(64, Trickle(bytes))),
            ));
        }
        v
    }

    fn assert_same<T: PartialEq + Debug>(
        new: Result<T, IoError>,
        old: Result<T, IoError>,
        what: &str,
    ) {
        match (new, old) {
            (Ok(new), Ok(old)) => assert_eq!(new, old, "{what}"),
            (Err(new), Err(old)) => assert_eq!(new.to_string(), old.to_string(), "{what}"),
            (new, old) => panic!(
                "{what}: new {:?} vs oracle {:?}",
                new.map(|_| "Ok").map_err(|e| e.to_string()),
                old.map(|_| "Ok").map_err(|e| e.to_string())
            ),
        }
    }

    /// Both readers, both formats, every reader kind, under `limits`.
    fn check(bytes: &[u8], limits: &Limits, what: &str) {
        let fail_at = bytes.len() * 2 / 3;
        let pairs = readers(bytes, fail_at)
            .into_iter()
            .zip(readers(bytes, fail_at));
        for ((kind, new), (_, old)) in pairs {
            assert_same(
                ms::read_ms_with(new, limits),
                read_ms_with(old, limits),
                &format!("ms, {kind}, {what}"),
            );
        }
        let pairs = readers(bytes, fail_at)
            .into_iter()
            .zip(readers(bytes, fail_at));
        for ((kind, new), (_, old)) in pairs {
            assert_same(
                text::read_matrix_with(new, limits),
                read_matrix_with(old, limits),
                &format!("txt, {kind}, {what}"),
            );
        }
    }

    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn row(&mut self, width: usize) -> String {
            (0..width)
                .map(|_| if self.next() & 1 == 1 { '1' } else { '0' })
                .collect()
        }
    }

    const WIDTHS: [usize; 8] = [0, 1, 63, 64, 65, 127, 129, 1500];
    const SAMPLES: [usize; 4] = [1, 63, 65, 513];
    /// The sample counts tried at `width`: all of them, but the widest rows
    /// skip the deepest file — 770 KB through one-byte readers buys nothing
    /// `1500 × 65` and `129 × 513` have not already shown.
    fn shapes_for(width: usize) -> impl Iterator<Item = usize> {
        SAMPLES.into_iter().filter(move |s| s * width <= 100_000)
    }

    /// (line ending, final line terminated)
    const ENDINGS: [(&str, bool); 3] = [("\n", true), ("\r\n", true), ("\n", false)];

    fn join(lines: &[String], (eol, terminated): (&str, bool)) -> Vec<u8> {
        let mut s = lines.join(eol);
        if terminated && !lines.is_empty() {
            s.push_str(eol);
        }
        s.into_bytes()
    }

    #[test]
    fn txt_matches_the_oracle_over_shapes_endings_and_readers() {
        let mut rng = Xorshift(0x9e37_79b9_7f4a_7c15);
        let limits = Limits::default();
        for width in WIDTHS {
            for samples in shapes_for(width) {
                for ending in ENDINGS {
                    let mut lines = vec!["# a comment".to_string()];
                    for s in 0..samples {
                        if s % 50 == 7 {
                            lines.push(String::new());
                            lines.push("  # indented comment".into());
                        }
                        lines.push(rng.row(width));
                    }
                    check(
                        &join(&lines, ending),
                        &limits,
                        &format!("{samples} x {width}, {ending:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn space_separated_and_padded_txt_rows_match_the_oracle() {
        let mut rng = Xorshift(77);
        let limits = Limits::default();
        for width in [1usize, 5, 64, 65, 130] {
            let mut lines = Vec::new();
            for s in 0..70 {
                let row = rng.row(width);
                lines.push(match s % 4 {
                    0 => row, // the clean path, interleaved with the others
                    1 => row.chars().map(|c| format!("{c} ")).collect(),
                    2 => format!("\t{row}  "),
                    _ => row.chars().map(|c| format!("{c}\u{a0}\u{2003}")).collect(),
                });
            }
            for ending in ENDINGS {
                check(
                    &join(&lines, ending),
                    &limits,
                    &format!("width {width}, {ending:?}"),
                );
            }
        }
    }

    fn ms_block(rng: &mut Xorshift, samples: usize, width: usize) -> Vec<String> {
        let mut lines = vec!["//".to_string(), format!("segsites: {width}")];
        if width > 0 {
            let positions: Vec<String> = (0..width)
                .map(|j| format!("{:.5}", (j as f64 + 0.5) / width as f64))
                .collect();
            lines.push(format!("positions: {}", positions.join(" ")));
            lines.extend((0..samples).map(|_| rng.row(width)));
        }
        lines
    }

    #[test]
    fn ms_matches_the_oracle_over_shapes_endings_and_readers() {
        let mut rng = Xorshift(0xdead_beef_cafe_f00d);
        let limits = Limits::default();
        for width in WIDTHS {
            for samples in shapes_for(width) {
                for ending in ENDINGS {
                    let mut lines = vec!["ms 4 1 -s 3".to_string(), "1 2 3".into(), String::new()];
                    lines.extend(ms_block(&mut rng, samples, width));
                    check(
                        &join(&lines, ending),
                        &limits,
                        &format!("{samples} x {width}, {ending:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn multi_replicate_ms_matches_the_oracle() {
        let mut rng = Xorshift(4242);
        let limits = Limits::default();
        for ending in ENDINGS {
            for separated in [true, false] {
                let mut lines = vec!["ms 9 4 -s 70".to_string(), "1 2 3".into()];
                for (samples, width) in [(9, 70), (9, 0), (3, 64), (65, 1)] {
                    if separated {
                        lines.push(String::new());
                    }
                    // without the blank line the next `//` ends the rows
                    lines.extend(ms_block(&mut rng, samples, width));
                }
                let bytes = join(&lines, ending);
                check(&bytes, &limits, &format!("{ending:?}, blank {separated}"));
                let all = ms::read_ms_with(bytes.as_slice(), &limits).unwrap();
                assert_eq!(all.len(), 4);
                assert_eq!(ms::read_ms_first(bytes.as_slice()).unwrap(), all[0]);
            }
        }
    }

    /// Every byte of a small valid file replaced, in turn, by each of the
    /// bytes most likely to send a line down a different path.
    fn every_mutation(valid: &[u8], limits: &[Limits]) {
        for l in limits {
            check(valid, l, "unmutated");
        }
        let mut bytes = valid.to_vec();
        for at in 0..valid.len() {
            for with in [0x00, b' ', b'2', b'/', b'\r', b'\n', 0xff] {
                bytes[at] = with;
                for l in limits {
                    check(&bytes, l, &format!("byte {at} := {with:#04x}, {l:?}"));
                }
            }
            bytes[at] = valid[at];
        }
    }

    #[test]
    fn every_single_byte_mutation_of_a_small_ms_file_matches_the_oracle() {
        let valid = b"ms 3 2 -s 5\n1 2 3\n\n//\nsegsites: 5\npositions: 0.1 0.2 0.3 0.4 0.5\n\
                      01011\n11000\n00110\n\n//\nsegsites: 2\npositions: 0.5 0.6\n01\n10\n";
        every_mutation(
            valid,
            &[
                Limits::default(),
                // each cap at the edge of what the file needs
                Limits::default()
                    .max_line_bytes(34)
                    .max_sites(5)
                    .max_samples(3),
                Limits::default().max_samples(2),
            ],
        );
    }

    #[test]
    fn every_single_byte_mutation_of_a_small_txt_file_matches_the_oracle() {
        let valid = b"# 4 samples\n0101101\n1100010\n\n0 0 1 1 0 0 1\n1111111";
        every_mutation(
            valid,
            &[
                Limits::default(),
                Limits::default()
                    .max_line_bytes(13)
                    .max_sites(7)
                    .max_samples(4),
                Limits::default().max_sites(6),
            ],
        );
    }

    #[test]
    fn tightened_limits_fail_the_same_way() {
        let mut rng = Xorshift(5);
        let rows: Vec<String> = (0..70).map(|_| rng.row(130)).collect();
        let mut ms_lines = vec!["//".to_string(), "segsites: 130".into()];
        let positions = vec!["0.5"; 130].join(" ");
        ms_lines.push(format!("positions: {positions}"));
        ms_lines.extend(rows.iter().cloned());
        for limits in [
            Limits::default().max_samples(69),
            Limits::default().max_samples(70),
            Limits::default().max_sites(129),
            Limits::default().max_sites(130),
            Limits::default().max_line_bytes(129),
            Limits::default().max_line_bytes(130),
            // a CRLF row of exactly the cap overruns by its `\r`
            Limits::default().max_line_bytes(positions.len() + 11),
        ] {
            for ending in ENDINGS {
                check(&join(&rows, ending), &limits, &format!("txt {limits:?}"));
                check(&join(&ms_lines, ending), &limits, &format!("ms {limits:?}"));
            }
        }
    }
}
