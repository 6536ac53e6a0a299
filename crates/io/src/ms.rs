//! Hudson's `ms` output format.
//!
//! ```text
//! ms 4 2 -s 3
//! 27473 28364 1234
//!
//! //
//! segsites: 3
//! positions: 0.1043 0.2965 0.7638
//! 010
//! 110
//! 001
//! 000
//!
//! //
//! ...
//! ```
//!
//! Rows are haplotypes (samples), columns are segregating sites — exactly
//! the transpose-free orientation of the paper's genomic matrix `G` once
//! packed SNP-major.

use crate::limits::{utf8, LineReader};
use crate::rows::{first_non_allele, write_rows, PackedRows};
use crate::{IoError, Limits};
use ld_bitmat::BitMatrix;
use std::io::{BufRead, Write};

/// One `//` replicate block of an `ms` stream.
#[derive(Clone, Debug, PartialEq)]
pub struct MsReplicate {
    /// Relative positions in `[0, 1)`, one per segregating site.
    pub positions: Vec<f64>,
    /// The haplotype matrix (samples × sites).
    pub matrix: BitMatrix,
}

/// Parses every replicate of an `ms` stream with default [`Limits`].
pub fn read_ms<R: BufRead>(reader: R) -> Result<Vec<MsReplicate>, IoError> {
    read_ms_with(reader, &Limits::default())
}

/// Parses every replicate under caller-supplied hard [`Limits`]: the
/// declared `segsites` count, the haplotype-row count and the line length
/// are capped, so a corrupt header cannot trigger an unbounded
/// allocation.
pub fn read_ms_with<R: BufRead>(reader: R, limits: &Limits) -> Result<Vec<MsReplicate>, IoError> {
    let mut blocks = Blocks::new(reader, limits);
    let mut replicates = Vec::new();
    while let Some(replicate) = blocks.next()? {
        replicates.push(replicate);
    }
    Ok(replicates)
}

/// Parses only the first replicate (the common case for LD pipelines);
/// nothing after its block is read.
pub fn read_ms_first<R: BufRead>(reader: R) -> Result<MsReplicate, IoError> {
    Blocks::new(reader, &Limits::default())
        .next()?
        .ok_or_else(|| IoError::parse("ms", 0, "no replicates found"))
}

/// The `//` replicate blocks of one `ms` stream, parsed one at a time.
struct Blocks<'l, R: BufRead> {
    lines: LineReader<R>,
    limits: &'l Limits,
    /// The `//` that ended the previous block's rows opens the next one.
    at_marker: bool,
}

impl<'l, R: BufRead> Blocks<'l, R> {
    fn new(reader: R, limits: &'l Limits) -> Self {
        Self {
            lines: LineReader::new(reader, "ms", limits),
            limits,
            at_marker: false,
        }
    }

    /// Scans to the next `//` marker and parses its block; `None` when
    /// the stream holds no further marker.
    fn next(&mut self) -> Result<Option<MsReplicate>, IoError> {
        let limits = self.limits;
        if !std::mem::take(&mut self.at_marker) {
            loop {
                match self.lines.next_line()? {
                    None => return Ok(None),
                    Some((_, line)) if line.trim_start().starts_with("//") => break,
                    Some(_) => {}
                }
            }
        }

        // segsites line
        let segsites = loop {
            let Some((no, line)) = self.lines.next_line()? else {
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
            return Ok(Some(MsReplicate {
                positions: Vec::new(),
                matrix: BitMatrix::zeros(0, 0),
            }));
        }

        // positions line
        let positions = loop {
            let Some((no, line)) = self.lines.next_line()? else {
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

        // haplotype rows until blank line, next `//`, or EOF
        let mut rows = PackedRows::new(Some(segsites), limits);
        while let Some((no, line)) = self.lines.next_line_bytes()? {
            // A clean row of the declared width is the whole line.
            if rows.push(line) {
                continue;
            }
            let t = utf8("ms", no, line)?.trim();
            if t.is_empty() {
                break;
            }
            if t.starts_with("//") {
                self.at_marker = true;
                break;
            }
            if rows.n_rows() >= limits.max_samples {
                return Err(IoError::limit("ms", no, "sample count", limits.max_samples));
            }
            if !rows.push(t.as_bytes()) {
                return Err(match first_non_allele(t) {
                    Some(other) if t.len() == segsites => {
                        IoError::parse("ms", no, format!("invalid allele char '{other}'"))
                    }
                    _ => IoError::parse(
                        "ms",
                        no,
                        format!("haplotype row has {} chars, expected {}", t.len(), segsites),
                    ),
                });
            }
        }
        if rows.n_rows() == 0 {
            return Err(IoError::truncated("ms", "replicate with no haplotype rows"));
        }
        Ok(Some(MsReplicate {
            positions,
            matrix: rows.finish()?,
        }))
    }
}

/// Writes replicates in `ms` format (with a minimal synthetic header).
pub fn write_ms<W: Write>(mut w: W, replicates: &[MsReplicate]) -> Result<(), IoError> {
    let (n_samples, n_sites) = replicates
        .first()
        .map(|r| (r.matrix.n_samples(), r.matrix.n_snps()))
        .unwrap_or((0, 0));
    writeln!(w, "ms {} {} -s {}", n_samples, replicates.len(), n_sites)?;
    writeln!(w, "0 0 0")?;
    for rep in replicates {
        writeln!(w)?;
        writeln!(w, "//")?;
        writeln!(w, "segsites: {}", rep.matrix.n_snps())?;
        let pos: Vec<String> = rep.positions.iter().map(|p| format!("{p:.5}")).collect();
        writeln!(w, "positions: {}", pos.join(" "))?;
        write_rows(&mut w, &rep.matrix)?;
    }
    Ok(())
}

/// Reads an `ms` file from disk (first replicate).
pub fn read_ms_path(path: impl AsRef<std::path::Path>) -> Result<MsReplicate, IoError> {
    let f = std::fs::File::open(path)?;
    read_ms_first(std::io::BufReader::new(f))
}

/// Writes replicates to an `ms` file on disk.
pub fn write_ms_path(
    path: impl AsRef<std::path::Path>,
    replicates: &[MsReplicate],
) -> Result<(), IoError> {
    let f = std::fs::File::create(path)?;
    write_ms(std::io::BufWriter::new(f), replicates)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "ms 4 2 -s 3\n27473 28364 1234\n\n//\nsegsites: 3\npositions: 0.10430 0.29650 0.76380\n010\n110\n001\n000\n\n//\nsegsites: 2\npositions: 0.50000 0.60000\n01\n11\n10\n00\n";

    #[test]
    fn parses_two_replicates() {
        let reps = read_ms(SAMPLE.as_bytes()).unwrap();
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].matrix.n_samples(), 4);
        assert_eq!(reps[0].matrix.n_snps(), 3);
        assert_eq!(reps[0].positions.len(), 3);
        assert!(reps[0].matrix.get(0, 1));
        assert!(!reps[0].matrix.get(0, 0));
        assert_eq!(reps[1].matrix.n_snps(), 2);
        assert_eq!(reps[1].matrix.ones_in_snp(0), 2);
    }

    #[test]
    fn first_helper() {
        let rep = read_ms_first(SAMPLE.as_bytes()).unwrap();
        assert_eq!(rep.matrix.n_snps(), 3);
    }

    #[test]
    fn first_reads_the_first_replicate_only() {
        // a second block that does not parse: `read_ms` must still refuse
        // the stream, `read_ms_first` never gets that far
        for broken in [
            "//\nsegsites: 2\npositions: 0.5 0.6\n0x\n",
            "//\nsegsites: banana\n",
            "//\n",
        ] {
            for separator in ["\n", ""] {
                let stream = format!("ms 4 2\n1 2 3\n\n//\nsegsites: 3\npositions: 0.1 0.2 0.3\n010\n110\n001\n000\n{separator}{broken}");
                assert!(read_ms(stream.as_bytes()).is_err(), "{broken:?}");
                let first = read_ms_first(stream.as_bytes()).unwrap();
                let sample = &read_ms(SAMPLE.as_bytes()).unwrap()[0];
                assert_eq!(first.matrix, sample.matrix, "{broken:?}");
                let via_format = crate::MatrixFormat::Ms.read(stream.as_bytes()).unwrap();
                assert_eq!(via_format, first.matrix, "{broken:?}");
            }
        }
        // a borrowed reader is left just past the first block's rows
        let mut stream = "//\nsegsites: 1\npositions: 0.5\n1\n0\n\nrest".as_bytes();
        assert_eq!(read_ms_first(&mut stream).unwrap().matrix.n_samples(), 2);
        assert_eq!(stream, b"rest");
        // a broken *first* block is still an error
        assert!(read_ms_first("//\nsegsites: 2\npositions: 0.5 0.6\n0x\n".as_bytes()).is_err());
    }

    #[test]
    fn writer_bytes_are_pinned() {
        let reps = read_ms(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_ms(&mut buf, &reps).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "ms 4 2 -s 3\n0 0 0\n\n//\nsegsites: 3\npositions: 0.10430 0.29650 0.76380\n\
             010\n110\n001\n000\n\n//\nsegsites: 2\npositions: 0.50000 0.60000\n01\n11\n10\n00\n"
        );
    }

    #[test]
    fn round_trip() {
        let reps = read_ms(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_ms(&mut buf, &reps).unwrap();
        let back = read_ms(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].matrix, reps[0].matrix);
        assert_eq!(back[1].matrix, reps[1].matrix);
    }

    #[test]
    fn rejects_ragged_rows() {
        let bad = "//\nsegsites: 3\npositions: 0.1 0.2 0.3\n010\n11\n";
        let err = read_ms(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 3"));
    }

    #[test]
    fn rejects_bad_allele() {
        let bad = "//\nsegsites: 2\npositions: 0.1 0.2\n0x\n";
        assert!(read_ms(bad.as_bytes()).is_err());
    }

    #[test]
    fn rejects_position_count_mismatch() {
        let bad = "//\nsegsites: 3\npositions: 0.1 0.2\n010\n";
        assert!(read_ms(bad.as_bytes()).is_err());
    }

    #[test]
    fn empty_stream_is_empty() {
        assert!(read_ms("".as_bytes()).unwrap().is_empty());
        assert!(read_ms_first("".as_bytes()).is_err());
    }

    #[test]
    fn zero_segsites_replicate() {
        let s = "//\nsegsites: 0\n";
        let reps = read_ms(s.as_bytes()).unwrap();
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].matrix.n_snps(), 0);
    }

    #[test]
    fn path_round_trip() {
        let dir = std::env::temp_dir().join("ld_io_ms_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.ms");
        let reps = read_ms(SAMPLE.as_bytes()).unwrap();
        write_ms_path(&path, &reps).unwrap();
        let back = read_ms_path(&path).unwrap();
        assert_eq!(back.matrix, reps[0].matrix);
        std::fs::remove_dir_all(&dir).ok();
    }
}
