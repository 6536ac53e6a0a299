//! Path → whole-matrix format: the one place a file extension selects a
//! parser or writer, for the CLI's `-i` / `-o` and the daemon's text
//! panels alike.

use crate::{ms, text, vcf, IoError};
use ld_bitmat::BitMatrix;
use std::io::{BufRead, Write};
use std::path::Path;

/// A whole-matrix text format, selected by file extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixFormat {
    /// Hudson's `ms` output (`.ms`; the first replicate is the matrix).
    Ms,
    /// The minimal VCF subset (`.vcf`).
    Vcf,
    /// Rows of `0`/`1` characters (`.txt`, `.mat`, or no extension).
    Text,
}

impl MatrixFormat {
    /// Read-buffer size for opening a matrix file: at the parsers' speed
    /// the default 8 KiB buffer is a `read` call every few rows, and every
    /// row that straddles two fills is copied instead of lent in place.
    pub const READ_BUFFER_BYTES: usize = 1 << 20;

    /// The format `path`'s extension names. An unsupported extension comes
    /// back as the `Err` so each caller words the refusal in its own error
    /// type (a usage error for the CLI, a load failure for the daemon).
    pub fn from_path(path: &Path) -> Result<Self, String> {
        match path.extension().and_then(|e| e.to_str()).unwrap_or("") {
            "ms" => Ok(MatrixFormat::Ms),
            "vcf" => Ok(MatrixFormat::Vcf),
            "txt" | "mat" | "" => Ok(MatrixFormat::Text),
            other => Err(other.to_owned()),
        }
    }

    /// Parses a haplotype matrix in this format.
    pub fn read<R: BufRead>(self, r: R) -> Result<BitMatrix, IoError> {
        match self {
            MatrixFormat::Ms => Ok(ms::read_ms_first(r)?.matrix),
            MatrixFormat::Vcf => Ok(vcf::read_vcf(r)?.matrix),
            MatrixFormat::Text => text::read_matrix(r),
        }
    }

    /// Writes `g` in this format. `ms` positions are spread evenly over
    /// `(0, 1)` and VCF sites are synthetic (1 kb apart): a bare matrix
    /// carries neither.
    pub fn write<W: Write>(self, w: W, g: &BitMatrix) -> Result<(), IoError> {
        match self {
            MatrixFormat::Ms => {
                let rep = ms::MsReplicate {
                    positions: (0..g.n_snps())
                        .map(|j| (j as f64 + 0.5) / g.n_snps() as f64)
                        .collect(),
                    matrix: g.clone(),
                };
                ms::write_ms(w, std::slice::from_ref(&rep))
            }
            MatrixFormat::Vcf => vcf::write_vcf(w, g, &vcf::synthetic_sites(g.n_snps(), 1000), 1),
            MatrixFormat::Text => text::write_matrix(w, g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_extension_selects_its_format_and_round_trips() {
        let g = BitMatrix::from_rows(3, 4, [[1u8, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]]).unwrap();
        for (path, want) in [
            ("a.ms", MatrixFormat::Ms),
            ("dir.d/a.vcf", MatrixFormat::Vcf),
            ("a.txt", MatrixFormat::Text),
            ("a.mat", MatrixFormat::Text),
            ("no_extension", MatrixFormat::Text),
            ("archive.tar.ms", MatrixFormat::Ms),
        ] {
            let format = MatrixFormat::from_path(Path::new(path)).unwrap();
            assert_eq!(format, want, "{path}");
            let mut buf = Vec::new();
            format.write(&mut buf, &g).unwrap();
            assert_eq!(format.read(buf.as_slice()).unwrap(), g, "{path}");
        }
    }

    #[test]
    fn unsupported_extension_is_handed_back() {
        for (path, ext) in [("a.bed", "bed"), ("a.MS", "MS"), ("a.vcf.gz", "gz")] {
            assert_eq!(
                MatrixFormat::from_path(Path::new(path)),
                Err(ext.to_owned())
            );
        }
    }

    #[test]
    fn a_parse_failure_keeps_its_format_and_location() {
        let e = MatrixFormat::Text.read("10\n1x\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse { .. }), "{e}");
    }
}
