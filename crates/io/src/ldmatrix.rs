//! Binary serialization of triangle-packed LD matrices.
//!
//! Full-panel LD matrices are expensive to compute and often reused
//! (reference LD panels for summary-statistics methods ship exactly this
//! way). Format: magic `LDM1`, little-endian `u64` SNP count, then the
//! packed upper triangle as little-endian `f64` (`n(n+1)/2` values).

use crate::IoError;
use ld_core::LdMatrix;
use std::io::{Read, Write};

/// Magic bytes of the binary LD-matrix format.
pub const LDM_MAGIC: [u8; 4] = *b"LDM1";

/// Values decoded per read (64 KiB of body).
const CHUNK_VALUES: usize = 8192;

/// Writes a matrix in `LDM1` format.
pub fn write_ld_matrix<W: Write>(mut w: W, m: &LdMatrix) -> Result<(), IoError> {
    w.write_all(&LDM_MAGIC)?;
    w.write_all(&(m.n_snps() as u64).to_le_bytes())?;
    for &v in m.packed() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads an `LDM1` matrix.
pub fn read_ld_matrix<R: Read>(mut r: R) -> Result<LdMatrix, IoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != LDM_MAGIC {
        return Err(IoError::parse("ldm", 0, format!("bad magic {magic:02x?}")));
    }
    let mut nb = [0u8; 8];
    r.read_exact(&mut nb)?;
    let n = u64::from_le_bytes(nb) as usize;
    // Guard against absurd headers before allocating n(n+1)/2 doubles.
    if n > 1 << 24 {
        return Err(IoError::parse(
            "ldm",
            0,
            format!("implausible SNP count {n}"),
        ));
    }
    // Grow with the values actually read: a header alone allocates
    // nothing, so a short stream is the truncation error, not an abort.
    let len = n * (n + 1) / 2;
    let mut values: Vec<f64> = Vec::new();
    let mut buf = vec![0u8; 8 * CHUNK_VALUES];
    while values.len() < len {
        let take = (len - values.len()).min(CHUNK_VALUES);
        let bytes = &mut buf[..8 * take];
        r.read_exact(bytes)
            .map_err(|e| IoError::parse("ldm", 0, format!("truncated: {e}")))?;
        values
            .try_reserve(take)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::OutOfMemory, "LDM1 values"))?;
        values.extend(bytes.chunks_exact(8).map(|b| {
            let mut v = [0u8; 8];
            v.copy_from_slice(b);
            f64::from_le_bytes(v)
        }));
    }
    Ok(LdMatrix::from_packed(n, values))
}

/// Writes to a file path.
pub fn write_ld_matrix_path(
    path: impl AsRef<std::path::Path>,
    m: &LdMatrix,
) -> Result<(), IoError> {
    write_ld_matrix(std::io::BufWriter::new(std::fs::File::create(path)?), m)
}

/// Reads from a file path.
pub fn read_ld_matrix_path(path: impl AsRef<std::path::Path>) -> Result<LdMatrix, IoError> {
    read_ld_matrix(std::io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(n: usize) -> LdMatrix {
        let mut m = LdMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                m.set(i, j, (i * 31 + j) as f64 / 100.0);
            }
        }
        m.set(0, 1, f64::NAN);
        m
    }

    #[test]
    fn round_trip_preserves_bits() {
        let m = fixture(9);
        let mut buf = Vec::new();
        write_ld_matrix(&mut buf, &m).unwrap();
        assert_eq!(buf.len(), 4 + 8 + 45 * 8);
        let back = read_ld_matrix(buf.as_slice()).unwrap();
        assert_eq!(back.n_snps(), 9);
        for (a, b) in back.packed().iter().zip(m.packed()) {
            assert_eq!(a.to_bits(), b.to_bits(), "NaN payloads included");
        }
    }

    #[test]
    fn rejects_corruption() {
        let m = fixture(4);
        let mut buf = Vec::new();
        write_ld_matrix(&mut buf, &m).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_ld_matrix(bad.as_slice()).is_err());
        assert!(read_ld_matrix(&buf[..buf.len() - 3]).is_err()); // truncated
                                                                 // implausible header
        let mut huge = LDM_MAGIC.to_vec();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_ld_matrix(huge.as_slice()).is_err());
    }

    #[test]
    fn bodiless_header_is_an_error_not_an_allocation() {
        // n(n+1)/2 doubles would be 40 GB and 1 PB: only the bytes present
        // may be allocated for
        for n in [100_000u64, 1 << 24] {
            let mut header = LDM_MAGIC.to_vec();
            header.extend_from_slice(&n.to_le_bytes());
            assert!(read_ld_matrix(header.as_slice()).is_err(), "n = {n}");
            header.extend_from_slice(&1.5f64.to_le_bytes());
            assert!(read_ld_matrix(header.as_slice()).is_err(), "n = {n}");
        }
    }

    #[test]
    fn empty_matrix() {
        let m = LdMatrix::zeros(0);
        let mut buf = Vec::new();
        write_ld_matrix(&mut buf, &m).unwrap();
        let back = read_ld_matrix(buf.as_slice()).unwrap();
        assert_eq!(back.n_snps(), 0);
    }

    #[test]
    fn path_round_trip() {
        let dir = std::env::temp_dir().join(format!("ldm_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("panel.ldm");
        let m = fixture(6);
        write_ld_matrix_path(&path, &m).unwrap();
        let back = read_ld_matrix_path(&path).unwrap();
        assert_eq!(back.n_snps(), 6);
        assert_eq!(back.get(2, 5), m.get(2, 5));
        std::fs::remove_dir_all(&dir).ok();
    }
}
