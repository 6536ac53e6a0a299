//! Fault-injection corpus for the on-disk tile store.
//!
//! Exhaustive, not sampled: **every** truncation prefix and **every**
//! single-bit flip of a chunk file and of the manifest must surface as a
//! typed [`LdError::TileStore`] — never a panic, never silently wrong
//! words — and chunk-level failures must name the chunk that failed.
//! The chunk CRC-32 trailer covers header and payload; the manifest's
//! own CRC covers its payload; the manifest's recorded per-chunk sizes
//! and CRCs catch truncation and transplants before decode.

use ld_bitmat::BitMatrix;
use ld_core::{LdError, TileSource};
use ld_io::tilestore::{import_to_dir, DirTileStore, MANIFEST_FILE};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ld_store_rob_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_matrix() -> BitMatrix {
    let (n_samples, n_snps) = (10usize, 5usize);
    let mut g = BitMatrix::zeros(n_samples, n_snps);
    for j in 0..n_snps {
        for s in 0..n_samples {
            if (s * 7 + j * 3) % 4 == 0 {
                g.set(s, j, true);
            }
        }
    }
    g
}

fn assert_tile_err(res: Result<impl Sized, LdError>, what: &str) -> String {
    match res {
        Err(LdError::TileStore { message }) => {
            assert!(!message.is_empty(), "{what}: empty message");
            message
        }
        Err(other) => panic!("{what}: wrong error variant: {other}"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

/// Every truncation prefix and every single-bit flip of a chunk file is
/// a typed error naming the damaged chunk; the pristine bytes read back
/// fine before and after.
#[test]
fn chunk_file_survives_no_truncation_or_bit_flip() {
    let dir = tmpdir("chunk");
    let meta = import_to_dir(&sample_matrix(), 2, &dir).expect("import");
    let store = DirTileStore::open(&dir).expect("open");
    let target = 1usize; // an interior chunk
    let path = dir.join(ld_core::TileStoreMeta::chunk_file(target));
    let pristine = std::fs::read(&path).expect("chunk bytes");
    store.read_chunk(target).expect("pristine chunk reads");

    for cut in 0..pristine.len() {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        let msg = assert_tile_err(
            store.read_chunk(target),
            &format!("truncation to {cut} bytes"),
        );
        assert!(
            msg.contains(&format!("chunk {target}")),
            "truncation to {cut}: error does not name the chunk: {msg}"
        );
    }
    for byte in 0..pristine.len() {
        for bit in 0..8u8 {
            let mut bad = pristine.clone();
            bad[byte] ^= 1 << bit;
            std::fs::write(&path, &bad).unwrap();
            let msg = assert_tile_err(
                store.read_chunk(target),
                &format!("bit {bit} of byte {byte} flipped"),
            );
            assert!(
                msg.contains(&format!("chunk {target}")),
                "flip {byte}.{bit}: error does not name the chunk: {msg}"
            );
        }
    }

    // restore: the store is intact again, and so is every other chunk
    std::fs::write(&path, &pristine).unwrap();
    for c in 0..meta.n_chunks() {
        store.read_chunk(c).expect("restored store reads");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every truncation prefix and every single-bit flip of the manifest
/// makes the store refuse to open with a typed error.
#[test]
fn manifest_survives_no_truncation_or_bit_flip() {
    let dir = tmpdir("manifest");
    import_to_dir(&sample_matrix(), 2, &dir).expect("import");
    let path = dir.join(MANIFEST_FILE);
    let pristine = std::fs::read(&path).expect("manifest bytes");
    DirTileStore::open(&dir).expect("pristine manifest opens");

    let reject = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).unwrap();
        let msg = assert_tile_err(DirTileStore::open(&dir), what);
        assert!(
            msg.contains("manifest"),
            "{what}: error does not name the manifest: {msg}"
        );
    };
    for cut in 0..pristine.len() {
        reject(&pristine[..cut], &format!("truncation to {cut} bytes"));
    }
    for byte in 0..pristine.len() {
        for bit in 0..8u8 {
            let mut bad = pristine.clone();
            bad[byte] ^= 1 << bit;
            reject(&bad, &format!("bit {bit} of byte {byte} flipped"));
        }
    }

    std::fs::write(&path, &pristine).unwrap();
    DirTileStore::open(&dir).expect("restored manifest opens");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest that is nothing but nesting — far deeper than any stack —
/// is refused like any other damaged manifest: the JSON reader caps its
/// recursion instead of overflowing.
#[test]
fn hostile_manifest_nesting_is_a_typed_error_not_a_stack_overflow() {
    let dir = tmpdir("nesting");
    import_to_dir(&sample_matrix(), 2, &dir).expect("import");
    let path = dir.join(MANIFEST_FILE);
    let n = 300_000;
    for (what, doc) in [
        ("unclosed arrays", "[".repeat(n)),
        ("unclosed objects", "{\"payload\":".repeat(n)),
        ("balanced arrays", "[".repeat(n) + &"]".repeat(n)),
    ] {
        // the sealed envelope is only parsed when it ends in a newline
        std::fs::write(&path, doc + "\n").unwrap();
        let msg = assert_tile_err(DirTileStore::open(&dir), what);
        assert!(msg.contains("manifest"), "{what}: {msg}");
        assert!(msg.contains("nesting deeper than"), "{what}: {msg}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A missing or unreadable chunk file is a typed error that names both
/// the chunk index and the path — the operator learns *which* of
/// thousands of chunks to restore.
#[test]
fn missing_and_unreadable_chunks_are_named() {
    let dir = tmpdir("missing");
    let meta = import_to_dir(&sample_matrix(), 2, &dir).expect("import");
    let store = DirTileStore::open(&dir).expect("open");
    let target = meta.n_chunks() - 1;
    let path = dir.join(ld_core::TileStoreMeta::chunk_file(target));
    std::fs::remove_file(&path).unwrap();
    let msg = assert_tile_err(store.read_chunk(target), "missing chunk file");
    assert!(
        msg.contains(&format!("chunk {target}")) && msg.contains(&path.display().to_string()),
        "missing chunk: message names neither chunk nor path: {msg}"
    );
    // an index past the manifest is also typed and named
    let msg = assert_tile_err(store.read_chunk(meta.n_chunks()), "out-of-range chunk");
    assert!(msg.contains("not in the manifest"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chunk transplanted from a *different* store of identical geometry is
/// rejected by the manifest CRC audit even though the file is internally
/// self-consistent.
#[test]
fn transplanted_chunk_from_another_store_is_rejected() {
    fn other_matrix() -> BitMatrix {
        let mut g = sample_matrix();
        g.set(0, 2, !g.get(0, 2));
        g
    }
    let dir_a = tmpdir("transplant_a");
    let dir_b = tmpdir("transplant_b");
    import_to_dir(&sample_matrix(), 2, &dir_a).expect("import a");
    import_to_dir(&other_matrix(), 2, &dir_b).expect("import b");
    let name = ld_core::TileStoreMeta::chunk_file(1);
    std::fs::copy(dir_b.join(&name), dir_a.join(&name)).unwrap();
    let store = DirTileStore::open(&dir_a).expect("manifest itself is intact");
    let msg = assert_tile_err(store.read_chunk(1), "transplanted chunk");
    assert!(
        msg.contains("chunk 1") && msg.contains("does not match the manifest"),
        "{msg}"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<_> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("entry").path())
        .collect();
    v.sort();
    v
}

/// The store directory holds exactly the manifest plus one file per
/// chunk — nothing stray for an operator to wonder about, no temp files
/// left behind by the atomic writes.
#[test]
fn store_directory_layout_is_exactly_manifest_plus_chunks() {
    let dir = tmpdir("layout");
    let meta = import_to_dir(&sample_matrix(), 2, &dir).expect("import");
    let mut expect: Vec<PathBuf> = (0..meta.n_chunks())
        .map(|c| dir.join(ld_core::TileStoreMeta::chunk_file(c)))
        .collect();
    expect.push(dir.join(MANIFEST_FILE));
    expect.sort();
    assert_eq!(walk(&dir), expect);
    let _ = std::fs::remove_dir_all(&dir);
}
