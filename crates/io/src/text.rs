//! Plain-text matrices and PLINK-style `--r2` pair tables.

use crate::limits::{utf8, LineReader};
use crate::rows::{first_non_allele, write_rows, PackedRows};
use crate::{IoError, Limits};
use ld_bitmat::BitMatrix;
use ld_core::LdMatrix;
use std::io::{BufRead, Write};

/// Writes a haplotype matrix as rows of `0`/`1` characters (one sample per
/// line) — the simplest interchange format, readable by R or Python in one
/// line.
pub fn write_matrix<W: Write>(mut w: W, g: &BitMatrix) -> Result<(), IoError> {
    Ok(write_rows(&mut w, g)?)
}

/// Reads a 0/1 text matrix (rows = samples) with default [`Limits`].
pub fn read_matrix<R: BufRead>(r: R) -> Result<BitMatrix, IoError> {
    read_matrix_with(r, &Limits::default())
}

/// Reads a 0/1 text matrix under caller-supplied hard [`Limits`]: row
/// width (site count), row count (sample count) and line length are all
/// capped, so a hostile stream cannot force an unbounded allocation.
pub fn read_matrix_with<R: BufRead>(r: R, limits: &Limits) -> Result<BitMatrix, IoError> {
    let mut rows = PackedRows::new(None, limits);
    let mut compact = String::new();
    let mut lines = LineReader::new(r, "matrix", limits);
    while let Some((no, line)) = lines.next_line_bytes()? {
        // A clean row is the whole line: nothing to trim, skip or compact.
        if rows.push(line) {
            continue;
        }
        let t = utf8("matrix", no, line)?.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if rows.n_rows() >= limits.max_samples {
            return Err(IoError::limit(
                "matrix",
                no,
                "sample count",
                limits.max_samples,
            ));
        }
        // space-separated alleles: the row is what is left between them
        compact.clear();
        compact.extend(t.split_whitespace());
        if !rows.push(compact.as_bytes()) {
            // say why, in the order the checks have always run
            return Err(match first_non_allele(&compact) {
                Some(other) => IoError::parse("matrix", no, format!("invalid char '{other}'")),
                None if compact.len() > limits.max_sites => {
                    IoError::limit("matrix", no, "site count", limits.max_sites)
                }
                None => IoError::parse(
                    "matrix",
                    no,
                    format!(
                        "row width {} != {}",
                        compact.len(),
                        rows.width().unwrap_or_default()
                    ),
                ),
            });
        }
    }
    Ok(rows.finish()?)
}

/// One row of a PLINK-style `--r2` table.
#[derive(Clone, Debug, PartialEq)]
pub struct R2Row {
    /// Index of the first SNP.
    pub snp_a: usize,
    /// Index of the second SNP.
    pub snp_b: usize,
    /// The `r²` value.
    pub r2: f64,
}

/// Header line of the pair table (PLINK's `--r2` column layout).
pub const R2_TABLE_HEADER: &str = "SNP_A\tSNP_B\tR2\n";

/// The pair table's one row formatter: appends to `out` the kept pairs of
/// row SNP `i` against column SNPs `j0, j0 + 1, …`, whose values are
/// `row`. A pair is kept when its value is not NaN and `≥ min_r2`, and
/// prints as one tab-separated line: the two SNP ids, then the value to
/// six decimals. Every producer of the table —
/// [`write_r2_table`], the CLI's streamed `r2 -o` and the daemon's
/// `region` response — hands its rows to this function, which is what
/// keeps their bytes identical.
///
/// Formatting into a `String` cannot fail short of OOM; the `Result` is
/// returned rather than swallowed so a caller can never silently drop
/// rows.
pub fn push_r2_row(
    out: &mut String,
    i: usize,
    j0: usize,
    row: &[f64],
    min_r2: f64,
) -> std::fmt::Result {
    use std::fmt::Write as _;
    for (t, &v) in row.iter().enumerate() {
        if !v.is_nan() && v >= min_r2 {
            writeln!(out, "snp{i}\tsnp{}\t{v:.6}", j0 + t)?;
        }
    }
    Ok(())
}

/// The values of row `i` of `m` against columns `i + 1 .. col_end` — the
/// run of the packed triangle [`push_r2_row`] formats with `j0 = i + 1`.
pub fn packed_row_pairs(m: &LdMatrix, i: usize, col_end: usize) -> &[f64] {
    let start = m.index(i, i) + 1;
    &m.packed()[start..start + (col_end - i - 1)]
}

/// Writes the pairs of an [`LdMatrix`] with `r² ≥ min_r2` in PLINK's
/// `--r2` column layout (`SNP_A SNP_B R2`, header included).
pub fn write_r2_table<W: Write>(mut w: W, m: &LdMatrix, min_r2: f64) -> Result<(), IoError> {
    w.write_all(R2_TABLE_HEADER.as_bytes())?;
    let n = m.n_snps();
    let mut block = String::new();
    for i in 0..n {
        block.clear();
        push_r2_row(&mut block, i, i + 1, packed_row_pairs(m, i, n), min_r2)
            .map_err(|_| std::io::Error::other("formatting a pair-table row failed"))?;
        w.write_all(block.as_bytes())?;
    }
    Ok(())
}

/// Reads a table produced by [`write_r2_table`].
pub fn read_r2_table<R: BufRead>(r: R) -> Result<Vec<R2Row>, IoError> {
    let mut out = Vec::new();
    for (no, line) in r.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with("SNP_A") {
            continue;
        }
        let f: Vec<&str> = t.split_whitespace().collect();
        if f.len() != 3 {
            return Err(IoError::parse("r2-table", no + 1, "expected 3 columns"));
        }
        let parse_id = |s: &str| -> Result<usize, IoError> {
            s.strip_prefix("snp")
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| IoError::parse("r2-table", no + 1, format!("bad SNP id '{s}'")))
        };
        out.push(R2Row {
            snp_a: parse_id(f[0])?,
            snp_b: parse_id(f[1])?,
            r2: f[2]
                .parse()
                .map_err(|_| IoError::parse("r2-table", no + 1, "invalid r2"))?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_round_trip() {
        let g = BitMatrix::from_rows(3, 4, [[1u8, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]]).unwrap();
        let mut buf = Vec::new();
        write_matrix(&mut buf, &g).unwrap();
        let back = read_matrix(buf.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    /// The writer's bytes are what one `get` per genotype would print,
    /// for widths on both sides of every word boundary.
    #[test]
    fn matrix_writer_bytes_are_pinned() {
        let g = BitMatrix::from_rows(3, 4, [[1u8, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]]).unwrap();
        let mut buf = Vec::new();
        write_matrix(&mut buf, &g).unwrap();
        assert_eq!(buf, b"1010\n0110\n1101\n");

        for (n_samples, n_snps) in [
            (0, 0),
            (3, 0),
            (1, 1),
            (5, 63),
            (65, 64),
            (2, 65),
            (70, 130),
        ] {
            let mut g = BitMatrix::zeros(n_samples, n_snps);
            let mut per_bit = String::new();
            for s in 0..n_samples {
                for j in 0..n_snps {
                    let derived = (s * 31 + j * 17 + s * j) % 3 == 0;
                    g.set(s, j, derived);
                    per_bit.push(if derived { '1' } else { '0' });
                }
                per_bit.push('\n');
            }
            let mut buf = Vec::new();
            write_matrix(&mut buf, &g).unwrap();
            assert_eq!(
                String::from_utf8(buf).unwrap(),
                per_bit,
                "{n_samples} x {n_snps}"
            );
        }
    }

    #[test]
    fn matrix_skips_comments_and_blanks() {
        let s = "# header\n101\n\n011\n";
        let g = read_matrix(s.as_bytes()).unwrap();
        assert_eq!(g.n_samples(), 2);
        assert_eq!(g.n_snps(), 3);
    }

    #[test]
    fn matrix_rejects_ragged_and_garbage() {
        assert!(read_matrix("101\n10\n".as_bytes()).is_err());
        assert!(read_matrix("10x\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_matrix_ok() {
        let g = read_matrix("".as_bytes()).unwrap();
        assert_eq!(g.n_samples(), 0);
        assert_eq!(g.n_snps(), 0);
    }

    #[test]
    fn r2_table_round_trip_with_threshold() {
        let mut m = LdMatrix::zeros(3);
        m.set(0, 1, 0.8);
        m.set(0, 2, 0.2);
        m.set(1, 2, f64::NAN);
        let mut buf = Vec::new();
        write_r2_table(&mut buf, &m, 0.5).unwrap();
        let rows = read_r2_table(buf.as_slice()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].snp_a, 0);
        assert_eq!(rows[0].snp_b, 1);
        assert!((rows[0].r2 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn r2_row_formatter_pins_the_table_bytes() {
        // (row SNP, first column SNP, values, threshold, expected lines)
        let cases: [(usize, usize, &[f64], f64, &str); 8] = [
            // NaN is never kept, whatever the threshold
            (3, 4, &[f64::NAN, 0.5], 0.0, "snp3\tsnp5\t0.500000\n"),
            (3, 4, &[f64::NAN], f64::NEG_INFINITY, ""),
            // the threshold is inclusive
            (0, 1, &[0.25, 0.249_999_9], 0.25, "snp0\tsnp1\t0.250000\n"),
            // -0.0 passes `>= 0.0` and keeps its sign
            (0, 1, &[-0.0], 0.0, "snp0\tsnp1\t-0.000000\n"),
            // a negative D is dropped at the default threshold …
            (7, 9, &[-0.125], 0.0, ""),
            // … and kept under a negative one
            (7, 9, &[-0.125], -1.0, "snp7\tsnp9\t-0.125000\n"),
            // `{:.6}` rounding
            (
                10,
                11,
                &[0.123_456_49, 0.999_999_6, 1e-7, 2.0 / 3.0, 1.0],
                0.0,
                "snp10\tsnp11\t0.123456\nsnp10\tsnp12\t1.000000\nsnp10\tsnp13\t0.000000\n\
                 snp10\tsnp14\t0.666667\nsnp10\tsnp15\t1.000000\n",
            ),
            (5, 6, &[], 0.0, ""),
        ];
        for (i, j0, row, min_r2, want) in cases {
            let mut out = String::new();
            push_r2_row(&mut out, i, j0, row, min_r2).unwrap();
            assert_eq!(out, want, "row {i} from column {j0}: {row:?} at {min_r2}");
        }
        assert_eq!(R2_TABLE_HEADER, "SNP_A\tSNP_B\tR2\n");
    }

    /// The three producers of the pair table — `write_r2_table` over a
    /// finished matrix, streamed row slabs (the CLI's `r2 -o`) and a
    /// `[r0, r1)` window of the packed triangle (the daemon's `region`) —
    /// emit the same lines.
    #[test]
    fn matrix_slabs_and_window_yield_the_same_lines() {
        use ld_core::{LdEngine, LdStats, NanPolicy};
        let n = 23;
        let mut g = ld_data::HaplotypeSimulator::new(40, n).seed(11).generate();
        for s in 0..g.n_samples() {
            g.set(s, 5, false); // a monomorphic SNP: NaN against everyone
        }
        let engine = LdEngine::new().threads(2).nan_policy(NanPolicy::Propagate);
        for (stat, min_r2) in [(LdStats::RSquared, 0.0), (LdStats::D, 0.01)] {
            let m = engine.try_stat_matrix(&g, stat).unwrap();
            let mut table = Vec::new();
            write_r2_table(&mut table, &m, min_r2).unwrap();
            let table = String::from_utf8(table).unwrap();
            assert!(
                table.lines().count() > 20,
                "{stat:?}: threshold keeps pairs"
            );
            assert!(!table.contains("snp5\t"), "{stat:?}: NaN rows are dropped");

            // row slabs, formatted as they arrive (any order under two
            // threads) and stitched back by their first row
            for height in [1, 7, n] {
                let mut blocks = std::collections::BTreeMap::new();
                engine
                    .clone()
                    .slab_rows(height)
                    .try_stat_rows_with(
                        &g,
                        stat,
                        |s| {
                            let mut block = String::new();
                            for (i, row) in s.rows() {
                                push_r2_row(&mut block, i, i + 1, &row[1..], min_r2).unwrap();
                            }
                            blocks.insert(s.row_start(), block);
                        },
                        &ld_core::RunControl::new(),
                    )
                    .unwrap();
                let streamed: String = blocks.into_values().collect();
                assert_eq!(
                    format!("{R2_TABLE_HEADER}{streamed}"),
                    table,
                    "{stat:?} slab height {height}"
                );
            }

            // a window keeps exactly the table's lines with both SNPs inside
            for (r0, r1) in [(0, n), (3, 11), (5, 6), (n - 1, n)] {
                let mut region = String::new();
                for i in r0..r1 {
                    let row = packed_row_pairs(&m, i, r1);
                    push_r2_row(&mut region, i, i + 1, row, min_r2).unwrap();
                }
                let inside = |id: &str| {
                    let t: usize = id.trim_start_matches("snp").parse().unwrap();
                    (r0..r1).contains(&t)
                };
                let want: String = table
                    .lines()
                    .skip(1)
                    .filter(|l| l.split('\t').take(2).all(inside))
                    .map(|l| format!("{l}\n"))
                    .collect();
                assert_eq!(region, want, "{stat:?} window [{r0}, {r1})");
            }
        }
    }

    #[test]
    fn matrix_enforces_limits() {
        let limits = Limits::default().max_samples(2);
        let s = "10\n01\n11\n";
        let err = read_matrix_with(s.as_bytes(), &limits).unwrap_err();
        assert!(matches!(err, IoError::LimitExceeded { .. }), "{err}");

        let limits = Limits::default().max_sites(2);
        let err = read_matrix_with("101\n".as_bytes(), &limits).unwrap_err();
        assert!(matches!(err, IoError::LimitExceeded { .. }), "{err}");

        let limits = Limits::default().max_line_bytes(4);
        let err = read_matrix_with("10101\n".as_bytes(), &limits).unwrap_err();
        assert!(matches!(err, IoError::LimitExceeded { .. }), "{err}");
    }

    #[test]
    fn r2_table_rejects_bad_rows() {
        assert!(read_r2_table("snp0 snp1\n".as_bytes()).is_err());
        assert!(read_r2_table("a b 0.5\n".as_bytes()).is_err());
        assert!(read_r2_table("snp0 snp1 xyz\n".as_bytes()).is_err());
    }
}
