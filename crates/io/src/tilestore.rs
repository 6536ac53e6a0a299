//! The directory-backed tile store: one CRC-checked chunk file per
//! [`TileStoreMeta::chunk_file`] name plus a versioned `manifest.json`,
//! all written atomically ([`crate::atomic::write_atomic`]) so a killed
//! import never leaves a torn chunk under a final name.
//!
//! `ld-core` owns the format (chunk codec, manifest schema, integrity
//! rules — see `ld_core::tilestore`); this module only moves bytes
//! between that codec and a directory:
//!
//! * [`import_to_dir`] — streams a [`BitMatrix`] into a store directory
//!   (the `ld-cli import` subcommand's engine);
//! * [`DirTileStore`] — the read side: parses and validates the manifest
//!   on open, then serves verified chunk reads to the out-of-core
//!   drivers. Every failure names the chunk index **and file** (and the
//!   manifest byte length when the file disagrees with it), so a
//!   multi-hour run that dies on a bad sector says which file to
//!   restore.
//!
//! A chunk file is accepted only when its byte length and CRC-32 trailer
//! match the manifest entry *and* the chunk's own header pins it to this
//! store's geometry and position — a chunk transplanted from a
//! same-shaped sibling store fails the manifest CRC audit even though
//! its internal checksum is valid.

use crate::atomic::write_atomic;
use ld_bitmat::BitMatrix;
use ld_core::tilestore::{chunk_trailer_crc, decode_chunk, export_matrix};
use ld_core::{LdError, TileManifest, TileSink, TileSource, TileStoreMeta};
use std::path::{Path, PathBuf};

/// The manifest's file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.json";

fn store_err(message: String) -> LdError {
    LdError::TileStore { message }
}

/// A [`TileSink`] that writes each chunk (and finally the manifest)
/// atomically into one directory.
struct DirSink {
    dir: PathBuf,
}

impl TileSink for DirSink {
    fn write_chunk(&mut self, index: usize, bytes: &[u8]) -> Result<(), LdError> {
        let path = self.dir.join(TileStoreMeta::chunk_file(index));
        write_atomic(&path, bytes).map_err(|e| {
            store_err(format!(
                "chunk {index}: cannot write {}: {e}",
                path.display()
            ))
        })
    }

    fn finish(&mut self, manifest_json: &str) -> Result<(), LdError> {
        let path = self.dir.join(MANIFEST_FILE);
        write_atomic(&path, manifest_json.as_bytes())
            .map_err(|e| store_err(format!("manifest: cannot write {}: {e}", path.display())))
    }
}

/// Imports `m` into `dir` as a chunked tile store (chunk files plus
/// `manifest.json`, every write atomic). The directory is created if
/// missing; existing chunk files are overwritten. Returns the store's
/// metadata (geometry + fingerprint).
pub fn import_to_dir(
    m: &BitMatrix,
    chunk_snps: usize,
    dir: impl AsRef<Path>,
) -> Result<TileStoreMeta, LdError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(|e| {
        store_err(format!(
            "cannot create store directory {}: {e}",
            dir.display()
        ))
    })?;
    let mut sink = DirSink {
        dir: dir.to_path_buf(),
    };
    export_matrix(m, chunk_snps, &mut sink)
}

/// The directory-backed [`TileSource`]: a parsed, CRC-validated manifest
/// plus verified on-demand chunk reads.
#[derive(Debug)]
pub struct DirTileStore {
    dir: PathBuf,
    manifest: TileManifest,
}

impl DirTileStore {
    /// Opens the store at `dir`: reads `manifest.json` and runs the full
    /// manifest validation (schema version, payload CRC-32, geometry
    /// consistency). Chunk files are *not* touched here — each is
    /// verified on its own [`read_chunk`](TileSource::read_chunk), so
    /// opening a terabyte store is instant.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, LdError> {
        let dir = dir.as_ref().to_path_buf();
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| store_err(format!("manifest: cannot read {}: {e}", path.display())))?;
        let manifest = TileManifest::from_json(&text)?;
        Ok(Self { dir, manifest })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &TileManifest {
        &self.manifest
    }
}

impl TileSource for DirTileStore {
    fn meta(&self) -> &TileStoreMeta {
        &self.manifest.meta
    }

    fn read_chunk_into(&self, index: usize, out: &mut [u64]) -> Result<(), LdError> {
        let Some(entry) = self.manifest.chunks.get(index) else {
            return Err(store_err(format!(
                "chunk {index}: not in the manifest (store has {} chunks)",
                self.manifest.chunks.len()
            )));
        };
        let path = self.dir.join(&entry.file);
        let fail = |what: String| store_err(format!("chunk {index} ({}): {what}", path.display()));
        let bytes = std::fs::read(&path).map_err(|e| fail(format!("cannot read: {e}")))?;
        if bytes.len() as u64 != entry.bytes {
            return Err(fail(format!(
                "file is {} bytes but the manifest records {} (truncated or replaced)",
                bytes.len(),
                entry.bytes
            )));
        }
        // Manifest CRC audit: ties the file to *this* manifest — the
        // chunk's own header/CRC cannot catch a chunk transplanted from
        // a different store with identical geometry.
        match chunk_trailer_crc(&bytes) {
            Some(crc) if crc == entry.crc32 => {}
            Some(crc) => {
                return Err(fail(format!(
                    "CRC-32 trailer {crc:#010x} does not match the manifest's {:#010x} \
                     (chunk from a different store, or damaged)",
                    entry.crc32
                )))
            }
            None => return Err(fail("too short to carry a CRC trailer".to_owned())),
        }
        decode_chunk(&self.manifest.meta, index, &bytes, out).map_err(|e| match e {
            LdError::TileStore { message } => {
                store_err(format!("{message} (file {})", path.display()))
            }
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::MemoryTileStore;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ld_tilestore_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_matrix(n_samples: usize, n_snps: usize) -> BitMatrix {
        let mut g = BitMatrix::zeros(n_samples, n_snps);
        for j in 0..n_snps {
            for s in 0..n_samples {
                if (s * 13 + j * 7) % 3 == 0 {
                    g.set(s, j, true);
                }
            }
        }
        g
    }

    /// Directory store and in-memory store produce byte-identical chunk
    /// files and manifests, and reads round-trip the matrix words.
    #[test]
    fn dir_store_matches_memory_store() {
        let g = sample_matrix(10, 23);
        let d = tmpdir("roundtrip");
        let meta = import_to_dir(&g, 7, &d).unwrap();
        let mem = MemoryTileStore::from_matrix(&g, 7).unwrap();
        let manifest_disk = std::fs::read_to_string(d.join(MANIFEST_FILE)).unwrap();
        assert_eq!(manifest_disk, mem.manifest_json());
        let store = DirTileStore::open(&d).unwrap();
        assert_eq!(store.meta(), &meta);
        assert_eq!(store.manifest().chunks.len(), meta.n_chunks());
        for c in 0..meta.n_chunks() {
            let file_bytes = std::fs::read(d.join(TileStoreMeta::chunk_file(c))).unwrap();
            assert_eq!(file_bytes, mem.chunk_bytes(c), "chunk {c} bytes differ");
            let disk = store.read_chunk(c).unwrap();
            let (s, e) = meta.chunk_span(c);
            assert_eq!(&disk[..], g.view(s, e).words(), "chunk {c} words differ");
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A missing chunk file is reported with its index and path.
    #[test]
    fn missing_chunk_file_is_named() {
        let g = sample_matrix(6, 10);
        let d = tmpdir("missing");
        import_to_dir(&g, 4, &d).unwrap();
        std::fs::remove_file(d.join(TileStoreMeta::chunk_file(1))).unwrap();
        let store = DirTileStore::open(&d).unwrap();
        let err = store.read_chunk(1).unwrap_err().to_string();
        assert!(err.contains("chunk 1"), "{err}");
        assert!(err.contains("chunk_000001.bin"), "{err}");
        assert!(err.contains("cannot read"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A truncated chunk file fails the manifest length audit, naming
    /// both sizes.
    #[test]
    fn truncated_chunk_file_is_rejected() {
        let g = sample_matrix(6, 10);
        let d = tmpdir("trunc");
        import_to_dir(&g, 4, &d).unwrap();
        let p = d.join(TileStoreMeta::chunk_file(0));
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 1]).unwrap();
        let store = DirTileStore::open(&d).unwrap();
        let err = store.read_chunk(0).unwrap_err().to_string();
        assert!(err.contains("chunk 0"), "{err}");
        assert!(err.contains("manifest records"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A same-length corruption passes the size audit but fails CRC.
    #[test]
    fn flipped_byte_in_chunk_file_is_rejected() {
        let g = sample_matrix(6, 10);
        let d = tmpdir("flip");
        import_to_dir(&g, 4, &d).unwrap();
        let p = d.join(TileStoreMeta::chunk_file(2));
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let store = DirTileStore::open(&d).unwrap();
        let err = store.read_chunk(2).unwrap_err().to_string();
        assert!(err.contains("chunk 2"), "{err}");
        assert!(err.contains("CRC-32"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A chunk copied from a same-shaped store with different data is
    /// caught by the manifest CRC audit.
    #[test]
    fn transplanted_chunk_is_rejected() {
        let a = sample_matrix(6, 10);
        let mut b = sample_matrix(6, 10);
        b.set(0, 0, !b.get(0, 0));
        let da = tmpdir("transplant_a");
        let db = tmpdir("transplant_b");
        import_to_dir(&a, 4, &da).unwrap();
        import_to_dir(&b, 4, &db).unwrap();
        std::fs::copy(
            db.join(TileStoreMeta::chunk_file(0)),
            da.join(TileStoreMeta::chunk_file(0)),
        )
        .unwrap();
        let store = DirTileStore::open(&da).unwrap();
        let err = store.read_chunk(0).unwrap_err().to_string();
        assert!(err.contains("does not match the manifest"), "{err}");
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }

    /// A corrupted manifest fails at open, not at first read.
    #[test]
    fn corrupt_manifest_fails_open() {
        let g = sample_matrix(6, 10);
        let d = tmpdir("badmanifest");
        import_to_dir(&g, 4, &d).unwrap();
        let p = d.join(MANIFEST_FILE);
        let mut text = std::fs::read(&p).unwrap();
        let len = text.len();
        text.truncate(len - 2);
        std::fs::write(&p, &text).unwrap();
        let err = DirTileStore::open(&d).unwrap_err().to_string();
        assert!(err.contains("manifest"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
    }

    /// Opening a directory with no manifest names the path.
    #[test]
    fn missing_manifest_is_named() {
        let d = tmpdir("nomanifest");
        let err = DirTileStore::open(&d).unwrap_err().to_string();
        assert!(err.contains("manifest"), "{err}");
        assert!(err.contains("cannot read"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
    }
}
