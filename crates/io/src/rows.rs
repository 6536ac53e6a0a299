//! Sample-major packed rows: what the `ms` and `txt` readers build.
//!
//! Both formats list one sample per line as a run of `0`/`1` characters.
//! A line that is exactly that — the expected width, nothing but alleles —
//! goes through `ld-bitmat`'s byte→bit core straight into sample-major
//! words; [`PackedRows::push`] refuses anything else and the reader drops
//! **that line only** to its scalar code, which trims, skips, compacts and
//! words the error exactly as it always has. The SNP-major matrix comes
//! from one cache-blocked transpose at the end: the sample count is not
//! known until EOF, so there is nowhere to scatter a row's bits earlier.

use crate::Limits;
use ld_bitmat::{pack_bits, unpack_bits, words_for, BitMatError, BitMatrix};
use std::io::Write;

/// Rows of `0`/`1` bytes, packed sample-major as they arrive.
pub(crate) struct PackedRows {
    words: Vec<u64>,
    n_rows: usize,
    /// Alleles per row; `None` until the first row when the format does
    /// not declare it up front.
    width: Option<usize>,
    /// `Limits::max_samples` and `Limits::max_sites`: a row past either is
    /// refused like any other the scalar code has to explain.
    max_rows: usize,
    max_width: usize,
}

impl PackedRows {
    /// No rows yet, of the declared `width` if the format has one.
    pub(crate) fn new(width: Option<usize>, limits: &Limits) -> Self {
        Self {
            words: Vec::new(),
            n_rows: 0,
            width,
            max_rows: limits.max_samples,
            max_width: limits.max_sites,
        }
    }

    /// Rows accepted so far.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The row width, once declared or set by the first row.
    pub(crate) fn width(&self) -> Option<usize> {
        self.width
    }

    /// Packs `row` as the next sample if it is *clean*: at least one byte,
    /// every byte `b'0'` or `b'1'`, as wide as the rows before it (or as
    /// declared), and within the sample and site caps. Returns `false`,
    /// with nothing appended, otherwise — why is the caller's to say.
    pub(crate) fn push(&mut self, row: &[u8]) -> bool {
        let fits = match self.width {
            Some(width) => row.len() == width,
            None => !row.is_empty() && row.len() <= self.max_width,
        };
        if !fits || self.n_rows >= self.max_rows {
            return false;
        }
        let at = self.words.len();
        self.words.resize(at + words_for(row.len()), 0);
        if !pack_bits(row, b'0', &mut self.words[at..]) {
            self.words.truncate(at);
            return false;
        }
        self.width = Some(row.len());
        self.n_rows += 1;
        true
    }

    /// Transposes the rows into the SNP-major matrix.
    pub(crate) fn finish(mut self) -> Result<BitMatrix, BitMatError> {
        // growth slack would sit beside the transposed copy otherwise
        self.words.shrink_to_fit();
        BitMatrix::from_sample_major_words(self.n_rows, self.width.unwrap_or(0), &self.words)
    }
}

/// The first character of `row` that is not an allele — what the error for
/// a row [`PackedRows::push`] refused names. Only ever run on that row.
pub(crate) fn first_non_allele(row: &str) -> Option<char> {
    row.chars().find(|c| !matches!(c, '0' | '1'))
}

/// Writes `g` one sample per line as `0`/`1` characters — the inverse
/// path: sample-major words expanded bit→byte into one reused line.
pub(crate) fn write_rows<W: Write>(w: &mut W, g: &BitMatrix) -> std::io::Result<()> {
    let (n_snps, wpr) = (g.n_snps(), words_for(g.n_snps()));
    let rows = g.to_sample_major_words();
    let mut line = vec![b'\n'; n_snps + 1];
    for s in 0..g.n_samples() {
        unpack_bits(&rows[s * wpr..(s + 1) * wpr], b'0', &mut line[..n_snps]);
        w.write_all(&line)?;
    }
    Ok(())
}
