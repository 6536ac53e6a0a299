//! Inputs: a Li–Stephens haplotype matrix from the seed, written in the
//! text formats `gemm-ld` reads. The program under test sees only files.

use crate::workload::Workload;
use ld_bitmat::BitMatrix;
use ld_data::HaplotypeSimulator;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The workload's matrix for `seed` (the simulator's defaults, as
/// `gemm-ld simulate` uses them).
pub fn generate(w: &Workload, seed: u64, quick: bool) -> BitMatrix {
    let (snps, samples) = w.shape(quick);
    HaplotypeSimulator::new(samples, snps).seed(seed).generate()
}

/// Writes `g` to `path` as Hudson `ms` (`.ms`) or as bare 0/1 rows
/// (anything else) — the two layouts differ only in the `ms` preamble.
pub fn write(path: &Path, g: &BitMatrix) -> io::Result<()> {
    let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
    let n = g.n_snps();
    if path.extension().is_some_and(|e| e == "ms") {
        writeln!(
            w,
            "ms {} 1 -s {n}\n0 0 0\n\n//\nsegsites: {n}",
            g.n_samples()
        )?;
        w.write_all(b"positions:")?;
        for j in 0..n {
            write!(w, " {:.5}", (j as f64 + 0.5) / n as f64)?;
        }
        w.write_all(b"\n")?;
    }
    // One transposition up front: per-bit `get` would cost a strided
    // read per allele on the 49 MB deep input.
    let rows = g.to_sample_major_words();
    let wpr = n.div_ceil(64);
    let mut line = vec![b'\n'; n + 1];
    for s in 0..g.n_samples() {
        let row = &rows[s * wpr..(s + 1) * wpr];
        for (j, c) in line[..n].iter_mut().enumerate() {
            *c = b'0' + ((row[j / 64] >> (j % 64)) & 1) as u8;
        }
        w.write_all(&line)?;
    }
    w.flush()
}
