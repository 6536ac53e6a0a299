//! Chunked tile store: the serialization format behind the slab
//! driver's out-of-core source ([`crate::Source::Store`]).
//!
//! A store is a sequence of fixed-size **chunks** — `chunk_snps`
//! consecutive SNP columns in the same packed SNP-major word layout the
//! in-memory [`BitMatrix`] uses — plus a small versioned JSON
//! **manifest** describing the geometry. Because a chunk is a verbatim
//! slice of the packed layout, loading one is a copy, not a re-pack, and
//! the out-of-core GEMM sees bit-identical operands to the in-memory
//! path.
//!
//! Chunk wire format (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "LDTILE01"
//! 8       8     chunk index (u64)
//! 16      8     first SNP covered (u64)
//! 24      8     SNPs in this chunk (u64)
//! 32      8     n_samples (u64)
//! 40      8     words_per_snp (u64)
//! 48      8·w   packed words (snps × words_per_snp u64s)
//! 48+8·w  4     CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! The header pins the chunk to its position *and* store geometry, so a
//! chunk file moved between stores (or renamed) is rejected even when
//! its CRC is intact. The manifest records each chunk's trailer CRC and
//! encoded size, and carries the whole-matrix [`Fingerprinter`] hash —
//! the exact value [`matrix_fingerprint`] computes in memory — so
//! checkpoints taken against a store validate against the equivalent
//! in-memory matrix and vice versa.
//!
//! The manifest itself is damage-proofed the same way the tuned CPU
//! profile is — the sealed envelope of `ld_trace::json`: a `crc32` field
//! over the exact byte span of the `payload` value as serialized, and a
//! trailing newline the reader demands back. Any truncation or bit flip
//! of either a chunk or the manifest surfaces as a typed
//! [`LdError::TileStore`] naming the offending piece — a damaged store
//! must never decode into a silently wrong panel.
//!
//! This module owns the *format* and the in-memory backend
//! ([`MemoryTileStore`]); the file-backed directory store lives in
//! `ld-io` (`ld_io::tilestore`), which layers atomic writes and
//! filesystem error reporting on the byte-level codec here.
//!
//! [`matrix_fingerprint`]: crate::checkpoint::matrix_fingerprint

use crate::checkpoint::{crc32, Fingerprinter};
use crate::error::LdError;
use ld_bitmat::{words_for, AlignedWords, BitMatrix};
use ld_trace::json::{self, escape_json, Json};

/// Magic bytes opening every chunk (format version baked in).
pub const CHUNK_MAGIC: &[u8; 8] = b"LDTILE01";

/// Bytes of the fixed chunk header preceding the packed words.
pub const CHUNK_HEADER_BYTES: usize = 48;

/// Bytes of the CRC-32 trailer closing every chunk.
pub const CHUNK_TRAILER_BYTES: usize = 4;

/// Manifest format version this build reads and writes.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// Default chunk width (SNP columns per chunk) used by the CLI importer.
pub const DEFAULT_CHUNK_SNPS: usize = 1024;

fn store_err(message: String) -> LdError {
    LdError::TileStore { message }
}

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

/// The geometry and identity of a tile store: everything the out-of-core
/// driver needs to plan a run before reading a single chunk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileStoreMeta {
    /// Samples per SNP (the `k` dimension).
    pub n_samples: usize,
    /// Total SNP columns across all chunks.
    pub n_snps: usize,
    /// SNP columns per chunk (the last chunk may be shorter).
    pub chunk_snps: usize,
    /// `u64` words per packed SNP column (`words_for(n_samples)`).
    pub words_per_snp: usize,
    /// Whole-matrix FNV-1a fingerprint — equals
    /// [`matrix_fingerprint`](crate::checkpoint::matrix_fingerprint) of
    /// the matrix the store was imported from.
    pub fingerprint: u64,
}

impl TileStoreMeta {
    /// Number of chunks in the store.
    pub fn n_chunks(&self) -> usize {
        if self.n_snps == 0 {
            0
        } else {
            self.n_snps.div_ceil(self.chunk_snps.max(1))
        }
    }

    /// Half-open SNP span `[start, end)` covered by chunk `index`.
    pub fn chunk_span(&self, index: usize) -> (usize, usize) {
        let start = index * self.chunk_snps;
        (start, (start + self.chunk_snps).min(self.n_snps))
    }

    /// SNP columns in chunk `index`.
    pub fn chunk_len(&self, index: usize) -> usize {
        let (s, e) = self.chunk_span(index);
        e - s
    }

    /// Encoded byte size of chunk `index` (header + words + trailer).
    pub fn chunk_bytes(&self, index: usize) -> usize {
        CHUNK_HEADER_BYTES + self.chunk_len(index) * self.words_per_snp * 8 + CHUNK_TRAILER_BYTES
    }

    /// Canonical file name of chunk `index` in a directory store.
    pub fn chunk_file(index: usize) -> String {
        format!("chunk_{index:06}.bin")
    }

    /// The chunk range `[first, last]` that covers SNP span
    /// `[snp_lo, snp_hi)`; `None` when the span is empty.
    pub fn chunks_covering(&self, snp_lo: usize, snp_hi: usize) -> Option<(usize, usize)> {
        if snp_lo >= snp_hi || self.chunk_snps == 0 {
            return None;
        }
        Some((snp_lo / self.chunk_snps, (snp_hi - 1) / self.chunk_snps))
    }
}

// ---------------------------------------------------------------------------
// Traits
// ---------------------------------------------------------------------------

/// A readable tile store. `Sync` because the store source reads from a
/// prefetch thread while compute runs on the caller's thread.
///
/// `read_chunk` must be *verified*: implementations return the decoded
/// packed words only after every integrity check (CRC, header geometry)
/// passes, and a typed [`LdError::TileStore`] naming the chunk
/// otherwise.
pub trait TileSource: Sync {
    /// The store's geometry and identity.
    fn meta(&self) -> &TileStoreMeta;

    /// Reads, verifies and decodes chunk `index`, returning its packed
    /// words (`chunk_len(index) × words_per_snp` u64s).
    fn read_chunk(&self, index: usize) -> Result<AlignedWords, LdError>;
}

/// A writable tile store backend: receives already-encoded chunk bytes
/// in index order, then the finished manifest. [`export_matrix`] drives
/// the encoding; implementations only place bytes (a `Vec` push for the
/// in-memory store, an atomic file write for the directory store).
pub trait TileSink {
    /// Persists the encoded bytes of chunk `index`.
    fn write_chunk(&mut self, index: usize, bytes: &[u8]) -> Result<(), LdError>;

    /// Persists the manifest after every chunk has been written.
    fn finish(&mut self, manifest_json: &str) -> Result<(), LdError>;
}

// ---------------------------------------------------------------------------
// Chunk codec
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[offset..offset + 8]);
    u64::from_le_bytes(b)
}

/// Encodes chunk `index` of a store with geometry `meta` from its packed
/// `words` (length must be `chunk_len(index) × words_per_snp`).
pub fn encode_chunk(meta: &TileStoreMeta, index: usize, words: &[u64]) -> Vec<u8> {
    let (start, _) = meta.chunk_span(index);
    let snps = meta.chunk_len(index);
    debug_assert_eq!(words.len(), snps * meta.words_per_snp);
    let mut out = Vec::with_capacity(meta.chunk_bytes(index));
    out.extend_from_slice(CHUNK_MAGIC);
    put_u64(&mut out, index as u64);
    put_u64(&mut out, start as u64);
    put_u64(&mut out, snps as u64);
    put_u64(&mut out, meta.n_samples as u64);
    put_u64(&mut out, meta.words_per_snp as u64);
    for &w in words {
        put_u64(&mut out, w);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The CRC-32 a well-formed encoding of chunk `index` carries in its
/// trailer (recorded in the manifest so tools can audit chunk files
/// without decoding them).
pub fn chunk_trailer_crc(bytes: &[u8]) -> Option<u32> {
    if bytes.len() < CHUNK_TRAILER_BYTES {
        return None;
    }
    let tail = &bytes[bytes.len() - CHUNK_TRAILER_BYTES..];
    Some(u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]))
}

/// Verifies and decodes chunk `index`: magic, every header field against
/// `meta`, exact length, and the CRC-32 trailer. Any mismatch is a
/// [`LdError::TileStore`] whose message starts with `chunk {index}:` —
/// file-backed stores prepend the file name.
pub fn decode_chunk(
    meta: &TileStoreMeta,
    index: usize,
    bytes: &[u8],
) -> Result<AlignedWords, LdError> {
    let fail = |what: String| store_err(format!("chunk {index}: {what}"));
    let expected = meta.chunk_bytes(index);
    if bytes.len() != expected {
        return Err(fail(format!(
            "truncated or oversized ({} bytes, expected {expected})",
            bytes.len()
        )));
    }
    let crc_stored = match chunk_trailer_crc(bytes) {
        Some(c) => c,
        None => return Err(fail("missing CRC trailer".to_owned())),
    };
    let body = &bytes[..bytes.len() - CHUNK_TRAILER_BYTES];
    let crc_actual = crc32(body);
    if crc_stored != crc_actual {
        return Err(fail(format!(
            "CRC-32 mismatch (stored {crc_stored:#010x}, computed {crc_actual:#010x})"
        )));
    }
    if &bytes[..8] != CHUNK_MAGIC {
        return Err(fail(
            "bad magic (not a tile chunk, or an unknown format version)".to_owned(),
        ));
    }
    let (start, _) = meta.chunk_span(index);
    let snps = meta.chunk_len(index);
    let header = [
        ("chunk index", read_u64(bytes, 8), index as u64),
        ("first SNP", read_u64(bytes, 16), start as u64),
        ("SNP count", read_u64(bytes, 24), snps as u64),
        ("n_samples", read_u64(bytes, 32), meta.n_samples as u64),
        (
            "words_per_snp",
            read_u64(bytes, 40),
            meta.words_per_snp as u64,
        ),
    ];
    for (field, got, want) in header {
        if got != want {
            return Err(fail(format!(
                "header {field} is {got} but the manifest says {want} \
                 (chunk belongs to a different store or position)"
            )));
        }
    }
    let n_words = snps * meta.words_per_snp;
    let mut words = AlignedWords::zeroed(n_words);
    for (t, w) in words.iter_mut().enumerate() {
        *w = read_u64(bytes, CHUNK_HEADER_BYTES + t * 8);
    }
    Ok(words)
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One chunk's entry in the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Chunk index (also its position in the manifest list).
    pub index: usize,
    /// File name relative to the store directory.
    pub file: String,
    /// SNP columns in the chunk.
    pub snps: usize,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// The chunk's CRC-32 trailer value.
    pub crc32: u32,
}

/// The parsed (or about-to-be-serialized) store manifest: geometry plus
/// one entry per chunk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileManifest {
    /// Store geometry and identity.
    pub meta: TileStoreMeta,
    /// Per-chunk entries, in index order.
    pub chunks: Vec<ChunkEntry>,
}

impl TileManifest {
    /// Serializes the manifest, computing the payload CRC over the exact
    /// byte span of the `payload` value.
    pub fn to_json(&self) -> String {
        let m = &self.meta;
        let mut chunks = String::new();
        for (t, c) in self.chunks.iter().enumerate() {
            use std::fmt::Write as _;
            if t > 0 {
                chunks.push(',');
            }
            let _ = write!(
                chunks,
                "{{\"index\":{},\"file\":\"{}\",\"snps\":{},\"bytes\":{},\"crc32\":{}}}",
                c.index,
                escape_json(&c.file),
                c.snps,
                c.bytes,
                c.crc32
            );
        }
        let payload = format!(
            concat!(
                "{{\"n_samples\":{},\"n_snps\":{},\"chunk_snps\":{},",
                "\"words_per_snp\":{},\"fingerprint\":\"{:#018x}\",\"chunks\":[{}]}}"
            ),
            m.n_samples, m.n_snps, m.chunk_snps, m.words_per_snp, m.fingerprint, chunks
        );
        json::seal(MANIFEST_SCHEMA_VERSION, &payload)
    }

    /// Parses and fully validates a manifest: the sealed envelope
    /// (trailing newline, JSON structure, schema version, payload CRC over
    /// the raw byte span), field types, and the internal consistency of
    /// the geometry (chunk count, per-chunk SNP spans and encoded sizes).
    /// Every failure is a typed [`LdError::TileStore`].
    pub fn from_json(text: &str) -> Result<Self, LdError> {
        let fail = |what: String| store_err(format!("manifest: {what}"));
        let payload = json::open(text.as_bytes(), MANIFEST_SCHEMA_VERSION).map_err(fail)?;
        let field = |name: &str| -> Result<usize, LdError> {
            payload
                .get(name)
                .and_then(Json::as_u64)
                .and_then(|x| usize::try_from(x).ok())
                .ok_or_else(|| fail(format!("missing or ill-typed {name}")))
        };
        let n_samples = field("n_samples")?;
        let n_snps = field("n_snps")?;
        let chunk_snps = field("chunk_snps")?;
        let words_per_snp = field("words_per_snp")?;
        let fp_str = payload
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing or ill-typed fingerprint".to_owned()))?;
        let fingerprint = fp_str
            .strip_prefix("0x")
            .filter(|h| h.len() == 16)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| {
                fail(format!(
                    "fingerprint must be \"0x\" + 16 hex digits, got {fp_str:?}"
                ))
            })?;
        if chunk_snps == 0 {
            return Err(fail("chunk_snps must be at least 1".to_owned()));
        }
        if words_per_snp != words_for(n_samples) {
            return Err(fail(format!(
                "words_per_snp is {words_per_snp} but {n_samples} samples pack into {} words",
                words_for(n_samples)
            )));
        }
        let meta = TileStoreMeta {
            n_samples,
            n_snps,
            chunk_snps,
            words_per_snp,
            fingerprint,
        };
        let list = payload
            .get("chunks")
            .and_then(Json::as_array)
            .ok_or_else(|| fail("missing or ill-typed chunks list".to_owned()))?;
        if list.len() != meta.n_chunks() {
            return Err(fail(format!(
                "{} chunk entries but the geometry needs {}",
                list.len(),
                meta.n_chunks()
            )));
        }
        let mut chunks = Vec::with_capacity(list.len());
        for (t, item) in list.iter().enumerate() {
            let cfield = |name: &str| -> Result<u64, LdError> {
                item.get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| fail(format!("chunk entry {t}: missing or ill-typed {name}")))
            };
            let index = cfield("index")? as usize;
            if index != t {
                return Err(fail(format!(
                    "chunk entry {t} has index {index} (entries must be in order)"
                )));
            }
            let file = item
                .get("file")
                .and_then(Json::as_str)
                .filter(|f| !f.is_empty())
                .ok_or_else(|| fail(format!("chunk entry {t}: missing or empty file")))?
                .to_owned();
            let snps = cfield("snps")? as usize;
            if snps != meta.chunk_len(t) {
                return Err(fail(format!(
                    "chunk entry {t} covers {snps} SNPs but the geometry says {}",
                    meta.chunk_len(t)
                )));
            }
            let nbytes = cfield("bytes")?;
            if nbytes != meta.chunk_bytes(t) as u64 {
                return Err(fail(format!(
                    "chunk entry {t} is {nbytes} bytes but the geometry says {}",
                    meta.chunk_bytes(t)
                )));
            }
            let crc = cfield("crc32").and_then(|c| {
                u32::try_from(c)
                    .map_err(|_| fail(format!("chunk entry {t}: crc32 out of u32 range")))
            })?;
            chunks.push(ChunkEntry {
                index,
                file,
                snps,
                bytes: nbytes,
                crc32: crc,
            });
        }
        Ok(TileManifest { meta, chunks })
    }
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// Streams `m` into `sink` as `chunk_snps`-column chunks plus a
/// manifest, returning the store's metadata. The fingerprint recorded in
/// the manifest equals
/// [`matrix_fingerprint`](crate::checkpoint::matrix_fingerprint) of `m`,
/// computed incrementally chunk by chunk.
pub fn export_matrix(
    m: &BitMatrix,
    chunk_snps: usize,
    sink: &mut dyn TileSink,
) -> Result<TileStoreMeta, LdError> {
    if chunk_snps == 0 {
        return Err(LdError::InvalidConfig {
            message: "tile-store chunk size must be at least one SNP",
        });
    }
    let n_snps = m.n_snps();
    let mut fp = Fingerprinter::new(n_snps as u64, m.n_samples() as u64);
    for j in 0..n_snps {
        fp.eat_words(m.full_view().snp_words(j));
    }
    let meta = TileStoreMeta {
        n_samples: m.n_samples(),
        n_snps,
        chunk_snps,
        words_per_snp: m.words_per_snp(),
        fingerprint: fp.finish(),
    };
    let mut chunks = Vec::with_capacity(meta.n_chunks());
    for index in 0..meta.n_chunks() {
        let (s, e) = meta.chunk_span(index);
        let encoded = encode_chunk(&meta, index, m.view(s, e).words());
        let crc = match chunk_trailer_crc(&encoded) {
            Some(c) => c,
            None => {
                return Err(store_err(format!(
                    "chunk {index}: encoder produced a trailerless chunk"
                )))
            }
        };
        chunks.push(ChunkEntry {
            index,
            file: TileStoreMeta::chunk_file(index),
            snps: e - s,
            bytes: encoded.len() as u64,
            crc32: crc,
        });
        sink.write_chunk(index, &encoded)?;
    }
    let manifest = TileManifest {
        meta: meta.clone(),
        chunks,
    };
    sink.finish(&manifest.to_json())?;
    Ok(meta)
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// The in-memory tile store: encoded chunks plus a manifest held in
/// RAM. It goes through the exact same codec as the directory store —
/// reads decode and CRC-check the encoded bytes — so format-level tests
/// (and the fault-injection corpus) run without touching a filesystem.
#[derive(Debug, Default)]
pub struct MemoryTileStore {
    meta: Option<TileStoreMeta>,
    chunks: Vec<Vec<u8>>,
    manifest_json: String,
}

impl MemoryTileStore {
    /// An empty store, ready to be filled as a [`TileSink`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Imports `m` into a fresh in-memory store.
    pub fn from_matrix(m: &BitMatrix, chunk_snps: usize) -> Result<Self, LdError> {
        let mut store = Self::new();
        let meta = export_matrix(m, chunk_snps, &mut store)?;
        store.meta = Some(meta);
        Ok(store)
    }

    /// Opens a store from raw parts (a parsed-and-validated manifest
    /// plus encoded chunk buffers) — the corruption corpus rebuilds
    /// stores from damaged bytes through this.
    pub fn open(manifest_json: &str, chunks: Vec<Vec<u8>>) -> Result<Self, LdError> {
        let manifest = TileManifest::from_json(manifest_json)?;
        if chunks.len() != manifest.chunks.len() {
            return Err(store_err(format!(
                "store holds {} chunks but the manifest lists {}",
                chunks.len(),
                manifest.chunks.len()
            )));
        }
        Ok(Self {
            meta: Some(manifest.meta),
            chunks,
            manifest_json: manifest_json.to_owned(),
        })
    }

    /// The manifest as serialized (or received) JSON.
    pub fn manifest_json(&self) -> &str {
        &self.manifest_json
    }

    /// Borrowed encoded bytes of chunk `index` (for tests and audits).
    pub fn chunk_bytes(&self, index: usize) -> &[u8] {
        &self.chunks[index]
    }
}

impl TileSink for MemoryTileStore {
    fn write_chunk(&mut self, index: usize, bytes: &[u8]) -> Result<(), LdError> {
        if index != self.chunks.len() {
            return Err(store_err(format!(
                "chunk {index}: written out of order (expected {})",
                self.chunks.len()
            )));
        }
        self.chunks.push(bytes.to_vec());
        Ok(())
    }

    fn finish(&mut self, manifest_json: &str) -> Result<(), LdError> {
        self.manifest_json = manifest_json.to_owned();
        Ok(())
    }
}

impl TileSource for MemoryTileStore {
    fn meta(&self) -> &TileStoreMeta {
        match &self.meta {
            Some(m) => m,
            None => unreachable!("MemoryTileStore used as a source before import finished"),
        }
    }

    fn read_chunk(&self, index: usize) -> Result<AlignedWords, LdError> {
        let bytes = self.chunks.get(index).ok_or_else(|| {
            store_err(format!(
                "chunk {index}: missing (store holds {} chunks)",
                self.chunks.len()
            ))
        })?;
        decode_chunk(self.meta(), index, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::matrix_fingerprint;
    use ld_rng::SmallRng;

    fn random_matrix(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = BitMatrix::zeros(n_samples, n_snps);
        for j in 0..n_snps {
            for s in 0..n_samples {
                if rng.next_u64() % 10 < 4 {
                    m.set(s, j, true);
                }
            }
        }
        m
    }

    #[test]
    fn geometry_helpers() {
        let meta = TileStoreMeta {
            n_samples: 100,
            n_snps: 10,
            chunk_snps: 4,
            words_per_snp: 2,
            fingerprint: 7,
        };
        assert_eq!(meta.n_chunks(), 3);
        assert_eq!(meta.chunk_span(0), (0, 4));
        assert_eq!(meta.chunk_span(2), (8, 10));
        assert_eq!(meta.chunk_len(2), 2);
        assert_eq!(meta.chunk_bytes(0), 48 + 4 * 2 * 8 + 4);
        assert_eq!(meta.chunks_covering(0, 10), Some((0, 2)));
        assert_eq!(meta.chunks_covering(4, 5), Some((1, 1)));
        assert_eq!(meta.chunks_covering(3, 3), None);
        assert_eq!(TileStoreMeta::chunk_file(3), "chunk_000003.bin");
    }

    #[test]
    fn chunk_roundtrip_all_geometries() {
        for (k, n, c) in [(1, 1, 1), (64, 7, 3), (65, 12, 5), (130, 9, 9), (3, 16, 4)] {
            let m = random_matrix(k, n, (k * 1000 + n * 10 + c) as u64);
            let store = MemoryTileStore::from_matrix(&m, c).unwrap();
            assert_eq!(store.meta().fingerprint, matrix_fingerprint(&m.full_view()));
            let mut words = Vec::new();
            for i in 0..store.meta().n_chunks() {
                words.extend_from_slice(&store.read_chunk(i).unwrap());
            }
            assert_eq!(&words[..], m.full_view().words());
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = random_matrix(33, 11, 99);
        let store = MemoryTileStore::from_matrix(&m, 4).unwrap();
        let parsed = TileManifest::from_json(store.manifest_json()).unwrap();
        assert_eq!(&parsed.meta, store.meta());
        assert_eq!(parsed.chunks.len(), 3);
        for (i, c) in parsed.chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.bytes as usize, store.chunk_bytes(i).len());
            assert_eq!(Some(c.crc32), chunk_trailer_crc(store.chunk_bytes(i)));
        }
        // reopen from parts
        let chunks: Vec<Vec<u8>> = (0..3).map(|i| store.chunk_bytes(i).to_vec()).collect();
        let reopened = MemoryTileStore::open(store.manifest_json(), chunks).unwrap();
        for i in 0..3 {
            assert_eq!(
                &reopened.read_chunk(i).unwrap()[..],
                &store.read_chunk(i).unwrap()[..]
            );
        }
    }

    #[test]
    fn chunk_rejects_every_truncation() {
        let m = random_matrix(65, 6, 5);
        let store = MemoryTileStore::from_matrix(&m, 4).unwrap();
        let good = store.chunk_bytes(1).to_vec();
        for len in 0..good.len() {
            let err = decode_chunk(store.meta(), 1, &good[..len]).unwrap_err();
            match err {
                LdError::TileStore { message } => {
                    assert!(message.starts_with("chunk 1:"), "{message}")
                }
                other => panic!("wrong error for truncation at {len}: {other}"),
            }
        }
    }

    #[test]
    fn chunk_rejects_every_bit_flip() {
        let m = random_matrix(65, 6, 6);
        let store = MemoryTileStore::from_matrix(&m, 4).unwrap();
        let good = store.chunk_bytes(0).to_vec();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        decode_chunk(store.meta(), 0, &bad),
                        Err(LdError::TileStore { .. })
                    ),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn chunk_rejects_transplants() {
        // an intact chunk presented at the wrong index, or against a
        // store with different geometry, is refused by its header
        let m = random_matrix(64, 8, 7);
        let store = MemoryTileStore::from_matrix(&m, 4).unwrap();
        let c0 = store.chunk_bytes(0).to_vec();
        let err = decode_chunk(store.meta(), 1, &c0).unwrap_err();
        assert!(err.to_string().contains("chunk 1"), "{err}");
        let mut other = store.meta().clone();
        other.n_samples = 128;
        other.words_per_snp = 2;
        assert!(decode_chunk(&other, 0, &c0).is_err());
    }

    #[test]
    fn manifest_rejects_every_truncation_and_bit_flip() {
        let m = random_matrix(9, 5, 8);
        let store = MemoryTileStore::from_matrix(&m, 2).unwrap();
        let good = store.manifest_json().to_owned();
        for len in 0..good.len() {
            if !good.is_char_boundary(len) {
                continue;
            }
            assert!(
                TileManifest::from_json(&good[..len]).is_err(),
                "truncation to {len} bytes was accepted"
            );
        }
        let bytes = good.as_bytes();
        let mut accepted = 0usize;
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.to_vec();
                bad[byte] ^= 1 << bit;
                let Ok(text) = String::from_utf8(bad) else {
                    continue; // not valid UTF-8: unreadable before parsing
                };
                if TileManifest::from_json(&text).is_ok() {
                    accepted += 1;
                }
            }
        }
        assert_eq!(accepted, 0, "some single-bit flips were accepted");
    }

    #[test]
    fn missing_chunk_is_named() {
        let m = random_matrix(10, 6, 9);
        let store = MemoryTileStore::from_matrix(&m, 2).unwrap();
        let err = store.read_chunk(17).unwrap_err();
        assert!(err.to_string().contains("chunk 17"), "{err}");
    }

    #[test]
    fn open_rejects_chunk_count_mismatch() {
        let m = random_matrix(10, 6, 10);
        let store = MemoryTileStore::from_matrix(&m, 2).unwrap();
        let err = MemoryTileStore::open(store.manifest_json(), vec![vec![]; 2]).unwrap_err();
        assert!(matches!(err, LdError::TileStore { .. }), "{err}");
    }

    #[test]
    fn export_rejects_zero_chunk() {
        let m = random_matrix(4, 4, 11);
        assert!(matches!(
            MemoryTileStore::from_matrix(&m, 0),
            Err(LdError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_matrix_has_no_chunks() {
        let m = BitMatrix::zeros(5, 0);
        let store = MemoryTileStore::from_matrix(&m, 4).unwrap();
        assert_eq!(store.meta().n_chunks(), 0);
        let parsed = TileManifest::from_json(store.manifest_json()).unwrap();
        assert!(parsed.chunks.is_empty());
    }
}
