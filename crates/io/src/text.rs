//! Plain-text matrices and PLINK-style `--r2` pair tables.

use crate::limits::{utf8, LineReader};
use crate::rows::{first_non_allele, write_rows, PackedRows};
use crate::{IoError, Limits};
use ld_bitmat::BitMatrix;
use ld_core::{Cols, LdMatrix, Rows};
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

/// `DIGIT_PAIRS[2 n ..][..2]` is `n` as two decimal digits, `00`–`99`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        t[2 * n] = b'0' + (n / 10) as u8;
        t[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    t
};

/// Longest value [`fixed6`] writes: `-1000.000000` (a value just under
/// 1000 rounds up to four integer digits).
const FIXED6_MAX: usize = 12;

/// Writes `n` in decimal at the front of `buf`; returns the digit count.
fn put_usize(buf: &mut [u8], mut n: usize) -> usize {
    let mut tmp = [0u8; 20];
    let mut at = tmp.len();
    loop {
        at -= 1;
        tmp[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let len = tmp.len() - at;
    buf[..len].copy_from_slice(&tmp[at..]);
    len
}

/// Adds one to the decimal number in `digits`; `false` when it was all
/// nines (the result needs one more digit than the slice has).
fn bump(digits: &mut [u8]) -> bool {
    for d in digits.iter_mut().rev() {
        if *d < b'9' {
            *d += 1;
            return true;
        }
        *d = b'0';
    }
    false
}

/// Writes `v` to six decimals — the bytes `format!("{v:.6}")` produces —
/// at the front of `buf` and returns their count, or `None` when `v` is
/// one of the few values this scaled-integer path does not decide (the
/// caller then asks `core::fmt`).
///
/// **Why the bytes are `{v:.6}`'s.** `{:.6}` prints the sign, then the
/// decimal expansion of `|v|` rounded to the nearest multiple of `10⁻⁶`:
/// the digits of the integer `N` nearest to the real number
/// `t = |v| · 10⁶`, with the point six places from the right. For finite
/// `|v| < 1000`, `x = |v| * 1e6` is `t` after one rounding:
/// `|x − t| ≤ t · 2⁻⁵³ < 10⁹ · 2⁻⁵³ < 1.2 × 10⁻⁷`. `q = x.floor()` is an
/// integer below `10⁹`, and `frac = x − q` is exact (both are multiples
/// of `ulp(x)` and the difference is smaller than either), so
/// `t − q ∈ (frac − 1.2 × 10⁻⁷, frac + 1.2 × 10⁻⁷)`. Outside the guard
/// band, `|frac − 0.5| > 10⁻⁶`: if `frac < 0.5` then `−0.5 < t − q < 0.5`
/// and `N = q`; if `frac > 0.5` then `0.5 < t − q < 1.5` and `N = q + 1`
/// — the error of `x` is eight times too small to carry `t` across the
/// half. Inside the band (which holds the exact ties — `1/128 =
/// 0.0078125` is a real input — so no rounding mode is guessed), for
/// `|v| ≥ 1000` and for NaN / ±∞ the answer is `None`. The sign is the
/// sign *bit*: `-0.0` and `-1e-9` both print `-0.000000`, as `{:.6}`
/// prints them.
fn fixed6(v: f64, buf: &mut [u8]) -> Option<usize> {
    let a = v.abs();
    if a.is_nan() || a >= 1000.0 {
        return None;
    }
    let x = a * 1e6;
    let q = x.floor();
    let frac = x - q;
    if (frac - 0.5).abs() <= 1e-6 {
        return None;
    }
    let n = q as u64 + u64::from(frac > 0.5);
    let (int, mut rest) = ((n / 1_000_000) as usize, (n % 1_000_000) as usize);
    let mut at = 0;
    if v.is_sign_negative() {
        buf[0] = b'-';
        at = 1;
    }
    if int < 10 {
        buf[at] = b'0' + int as u8;
        at += 1;
    } else {
        at += put_usize(&mut buf[at..], int);
    }
    buf[at] = b'.';
    for pair in (0..3).rev() {
        let d = 2 * (rest % 100);
        rest /= 100;
        buf[at + 1 + 2 * pair] = DIGIT_PAIRS[d];
        buf[at + 2 + 2 * pair] = DIGIT_PAIRS[d + 1];
    }
    Some(at + 7)
}

/// The keep rule of the pair table and of the CLI's listing (not NaN, and
/// at or above the threshold) — the engine's, so a staircase run keeps
/// what the table would.
pub use ld_core::r2_keeps;

/// An upper bound on the bytes [`push_r2_row`] appends for `row` when
/// every SNP id is below `n_snps` and every kept value below 1000 in
/// magnitude: the kept pairs, counted, times the longest such line. A
/// caller sums it over the rows of a block and reserves once — room that
/// is never written is address space, not memory, and a thresholded
/// block reserves for what it keeps, not for its pair count.
pub fn r2_row_bound(n_snps: usize, row: &[f64], min_r2: f64) -> usize {
    let id = "snp".len() + put_usize(&mut [0u8; 20], n_snps);
    let kept = row.iter().filter(|&&v| r2_keeps(v, min_r2)).count();
    kept * (id + 1 + id + 1 + FIXED6_MAX + 1)
}

/// The pair table's one row formatter: appends to `out` the kept pairs of
/// row SNP `i` against column SNPs `j0, j0 + 1, …`, whose values are
/// `row`. A pair is kept when its value is not NaN and `≥ min_r2`, and
/// prints as one tab-separated line: the two SNP ids, then the value to
/// six decimals. Every producer of the table —
/// [`write_r2_table`], the CLI's streamed `r2 -o` and the daemon's
/// `region` response — hands its rows to this function, which is what
/// keeps their bytes identical.
///
/// The line is assembled in a stack buffer — `snp{i}\tsnp` once per row,
/// the column id incremented in place, the value by `fixed6` — and
/// appended with one copy; `{v:.6}` is the oracle the bytes are held to
/// (`fixed6_equals_core_fmt_*`) and the fall-back for the values `fixed6`
/// declines, not the implementation. Appending to a `Vec<u8>` cannot
/// fail, so there is nothing to return.
pub fn push_r2_row(out: &mut Vec<u8>, i: usize, j0: usize, row: &[f64], min_r2: f64) {
    // "snp" + 20 digits + "\tsnp" + 20 digits + "\t" + value + "\n"
    let mut line = [0u8; 3 + 20 + 4 + 20 + 1 + FIXED6_MAX + 1];
    line[..3].copy_from_slice(b"snp");
    let mut col = 3 + put_usize(&mut line[3..], i);
    line[col..col + 4].copy_from_slice(b"\tsnp");
    col += 4;
    // `line[col..tab]` holds column id `at` (none yet)
    let (mut tab, mut at) = (col, usize::MAX);
    for (t, &v) in row.iter().enumerate() {
        if !r2_keeps(v, min_r2) {
            continue;
        }
        let j = j0 + t;
        if at.wrapping_add(1) != j || !bump(&mut line[col..tab]) {
            tab = col + put_usize(&mut line[col..], j);
            line[tab] = b'\t';
        }
        at = j;
        match fixed6(v, &mut line[tab + 1..]) {
            Some(len) => {
                let end = tab + 1 + len;
                line[end] = b'\n';
                out.extend_from_slice(&line[..=end]);
            }
            None => {
                out.extend_from_slice(&line[..=tab]);
                out.extend_from_slice(format!("{v:.6}\n").as_bytes());
            }
        }
    }
}

/// [`push_r2_row`] over rows in the engine's one row shape
/// ([`ld_core::Rows`]): a row of a column range is one run of the
/// formatter; a row of kept columns is cut into runs of consecutive
/// columns, each formatted as the dense row would be — so a row prints
/// the bytes of the dense table's row whichever plan computed it.
pub fn push_r2_rows(out: &mut Vec<u8>, rows: &Rows<'_>, min_r2: f64) {
    for (i, cols, values) in rows.iter() {
        match cols {
            Cols::Range(r) => push_r2_row(out, i, r.start, values, min_r2),
            Cols::Kept(cols) => {
                let mut at = 0;
                while at < cols.len() {
                    let run = 1 + cols[at..]
                        .windows(2)
                        .take_while(|w| w[1] == w[0] + 1)
                        .count();
                    push_r2_row(out, i, cols[at], &values[at..at + run], min_r2);
                    at += run;
                }
            }
        }
    }
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
    let mut block = Vec::new();
    for i in 0..n {
        block.clear();
        push_r2_row(&mut block, i, i + 1, packed_row_pairs(m, i, n), min_r2);
        w.write_all(&block)?;
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
            let mut out = Vec::new();
            push_r2_row(&mut out, i, j0, row, min_r2);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                want,
                "row {i} from column {j0}: {row:?} at {min_r2}"
            );
        }
        assert_eq!(R2_TABLE_HEADER, "SNP_A\tSNP_B\tR2\n");
    }

    /// The value column of the one line `push_r2_row` writes for `v` —
    /// `fixed6` and its fall-back as the table sees them.
    fn six(v: f64) -> String {
        let mut out = Vec::new();
        push_r2_row(&mut out, 0, 1, &[v], f64::NEG_INFINITY);
        let line = String::from_utf8(out).unwrap();
        let value = line.strip_prefix("snp0\tsnp1\t").expect(&line);
        value.strip_suffix('\n').expect(&line).to_owned()
    }

    fn assert_is_core_fmt(v: f64) {
        assert_eq!(six(v), format!("{v:.6}"), "{v:e} ({:#018x})", v.to_bits());
        assert_eq!(six(-v), format!("{:.6}", -v), "-{v:e}");
    }

    /// Every `step`-th tie point `(k + 0.5) / 10⁶` with its four
    /// neighbours on either side, every grid point `k / 10⁶` with one, and
    /// every multiple of `1/128` below 1000 (exact ties among them), in
    /// both signs. A debug build strides the sweep; a release build (CI
    /// runs one) walks all of it.
    #[test]
    fn fixed6_equals_core_fmt_on_every_tie_neighbourhood() {
        let step = if cfg!(debug_assertions) { 23 } else { 1 };
        let ulps = |v: f64, by: i64| f64::from_bits((v.to_bits() as i64 + by) as u64);
        for k in (0..=1_000_000u32).step_by(step) {
            let tie = (f64::from(k) + 0.5) / 1e6;
            for by in -4..=4 {
                assert_is_core_fmt(ulps(tie, by));
            }
            let grid = f64::from(k) / 1e6;
            for by in if k == 0 { 0..=1 } else { -1..=1 } {
                assert_is_core_fmt(ulps(grid, by));
            }
        }
        for m in (0..=128_000u32).step_by(step.min(3)) {
            assert_is_core_fmt(f64::from(m) / 128.0);
        }
    }

    #[test]
    fn fixed6_equals_core_fmt_on_seeded_draws() {
        let draws = if cfg!(debug_assertions) {
            100_000
        } else {
            5_000_000
        };
        let mut rng = ld_rng::SmallRng::seed_from_u64(0x6f75_7470_7574);
        let mut declined = 0usize;
        for n in 0..draws {
            let v: f64 = rng.gen();
            assert_is_core_fmt(v);
            declined += usize::from(fixed6(v, &mut [0u8; FIXED6_MAX]).is_none());
            // any finite bit pattern, at a rate `core::fmt`'s 300-digit
            // expansions of the large ones can keep up with
            let bits = f64::from_bits(rng.next_u64());
            if n % 25 == 0 && bits.is_finite() {
                assert_is_core_fmt(bits);
            }
        }
        // the guard band is 2 × 10⁻⁶ of the unit interval: the oracle must
        // not be what is being compared with itself
        assert!(declined * 10_000 < draws, "{declined} of {draws} fell back");
    }

    #[test]
    fn fixed6_specials() {
        let cases = [
            (0.0, "0.000000"),
            (-0.0, "-0.000000"),
            (1.0, "1.000000"),
            (-1.0, "-1.000000"),
            // the nearest doubles to these decimal ties lie below, above,
            // above and below them
            (5e-7, "0.000000"),
            (0.999_999_5, "1.000000"),
            (1.000_000_5, "1.000001"),
            (999.999_999_5, "999.999999"),
            (999.999_999_6, "1000.000000"),
            (1000.0, "1000.000000"),
            (1e15, "1000000000000000.000000"),
            (1e-300, "0.000000"),
            (-1e-9, "-0.000000"),
            (0.007_812_5, "0.007812"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ];
        for (v, want) in cases {
            assert_eq!(format!("{v:.6}"), want, "the oracle on {v:e}");
            if v >= f64::NEG_INFINITY {
                assert_eq!(six(v), want, "{v:e}");
            }
        }
        // the scaled-integer path takes the plain ones and declines the
        // ties, the large and the non-finite
        let taken = |v: f64| fixed6(v, &mut [0u8; FIXED6_MAX]).is_some();
        assert!(taken(0.25) && taken(-0.0) && taken(1e-300) && taken(999.999_999));
        assert!(!taken(0.007_812_5) && !taken(5e-7) && !taken(1000.0) && !taken(1e15));
        assert!(!taken(f64::NAN) && !taken(f64::INFINITY));
        // ids: the column counter carries across every digit boundary
        let mut out = Vec::new();
        push_r2_row(&mut out, 9, 8, &[0.5; 1003], 0.0);
        let lines: Vec<String> = (8..1011)
            .map(|j| format!("snp9\tsnp{j}\t0.500000\n"))
            .collect();
        assert_eq!(String::from_utf8(out).unwrap(), lines.concat());
        assert!(lines.concat().len() <= r2_row_bound(1011, &[0.5; 1003], 0.0));
        assert_eq!(r2_row_bound(1011, &[0.5, f64::NAN, 0.1], 0.2), 29);
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
                let blocks = std::sync::Mutex::new(std::collections::BTreeMap::new());
                engine
                    .clone()
                    .slab_rows(height)
                    .try_stat_rows_with(
                        &g,
                        stat,
                        |s| {
                            let mut block = Vec::new();
                            for (i, row) in s.rows() {
                                push_r2_row(&mut block, i, i + 1, &row[1..], min_r2);
                            }
                            let block = String::from_utf8(block).unwrap();
                            blocks.lock().unwrap().insert(s.row_start(), block);
                        },
                        &ld_core::RunControl::new(),
                    )
                    .unwrap();
                let streamed: String = blocks.into_inner().unwrap().into_values().collect();
                assert_eq!(
                    format!("{R2_TABLE_HEADER}{streamed}"),
                    table,
                    "{stat:?} slab height {height}"
                );
            }

            // a window keeps exactly the table's lines with both SNPs inside
            for (r0, r1) in [(0, n), (3, 11), (5, 6), (n - 1, n)] {
                let mut region = Vec::new();
                for i in r0..r1 {
                    let row = packed_row_pairs(&m, i, r1);
                    push_r2_row(&mut region, i, i + 1, row, min_r2);
                }
                let region = String::from_utf8(region).unwrap();
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
