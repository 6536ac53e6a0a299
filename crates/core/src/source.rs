//! Sources: where the genotype panel lives, and how a slab's counts are
//! produced from it.
//!
//! The slab driver ([`crate::driver`]) is one loop nest. What differs
//! between an in-memory run and an out-of-core run is only the *data
//! mover* — the paper's "one five-loop nest, different pack routines"
//! one level up (and Fabregat-Traver & Bientinesi's point that in-core
//! and out-of-core are one algorithm). A [`Source`] answers exactly the
//! questions the driver cannot answer itself:
//!
//! | property              | [`Source::Memory`]                    | [`Source::Store`]                          |
//! |-----------------------|---------------------------------------|--------------------------------------------|
//! | dimensions, identity  | the view; fingerprint = one hash pass | the manifest (no chunk is read)            |
//! | parallel axis         | `threads` workers claim slabs         | one slab at a time, `threads` inside GEMM  |
//! | slab order at a sink  | unspecified under threading           | ascending rows                             |
//! | column blocks ≥ `r0`  | one block `[r0, n)` via SYRK          | one block per store chunk, prefetched      |
//! | column band `w`       | SYRK on the sub-view `[0, r1 + w)`    | stream stops at the chunk holding `r1+w−1` |
//! | transform tables      | built up front (one popcount sweep)   | filled as chunks first stream past         |
//! | budget model          | scratch scales with `threads × k² × strip` | panel row + chunk buffers, thread-free |
//! | statistic             | any [`crate::Statistic`]: a site's `k` planes are `k` adjacent columns | [`crate::LdStats`] only (`k = 1`: a store is an LD panel) |
//!
//! (`strip` is `n`, or `min(n, slab + w)` under a band, in sites.) A source
//! knows nothing of planes: the driver asks it for plane rows
//! `[k·r0, k·r1)` against plane columns `[k·r0, k·cols_end)` — the same one
//! call at every `k`. Everything else — slab grid, shard window, band
//! clipping, polling, resume, the checkpoint ledger, the transform itself —
//! is the driver's.

use crate::checkpoint::matrix_fingerprint;
use crate::driver::Config;
use crate::error::{checked_add, checked_mul, checked_triangle_len, LdError};
use crate::fused::Transform;
use crate::stats::{NanPolicy, Statistic};
use crate::tilestore::{TileSource, TileStoreMeta};
use ld_bitmat::{AlignedWords, BitMatrix, BitMatrixView};
use ld_kernels::{gemm_counts_mt, syrk_slab_counts};
use ld_trace::{Counter, Stopwatch};
use std::ops::Range;
use std::sync::{mpsc, PoisonError, RwLock, RwLockReadGuard};

/// The genotype panel of one run.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// Held in RAM and borrowed zero-copy.
    Memory(BitMatrixView<'a>),
    /// Held in a chunked tile store (a directory of CRC-checked chunks,
    /// or [`crate::MemoryTileStore`]) and streamed panel-by-panel, so it
    /// never has to fit in memory.
    Store(&'a dyn TileSource),
}

impl<'a> From<BitMatrixView<'a>> for Source<'a> {
    fn from(v: BitMatrixView<'a>) -> Self {
        Self::Memory(v)
    }
}

impl<'a> From<&'a BitMatrix> for Source<'a> {
    fn from(g: &'a BitMatrix) -> Self {
        Self::Memory(g.into())
    }
}

/// One rectangular block of co-occurrence counts handed to the driver:
/// `counts[r · ld + (j − cols.start)] = s_{r0+r}ᵀ s_j` for slab row `r`
/// and column `j ∈ cols` (entries left of the diagonal are unspecified).
pub(crate) struct Block<'b> {
    pub cols: Range<usize>,
    pub ld: usize,
    pub counts: &'b [u32],
}

/// The transform tables of one run, plus (store source) which chunks'
/// allele counts are already folded in. Behind a lock only because the
/// store source fills them mid-run; the memory source never writes.
pub(crate) struct Tables {
    pub tr: Transform,
    seen: Vec<bool>,
}

/// Poison-tolerant: a span fill is idempotent and a contained panic drains
/// the run, so the tables are never read in a state a retry could not fix.
fn read(t: &RwLock<Tables>) -> RwLockReadGuard<'_, Tables> {
    t.read().unwrap_or_else(PoisonError::into_inner)
}

fn store_err(message: String) -> LdError {
    LdError::TileStore { message }
}

/// Slab-independent bytes common to both models for `n` sites of `k`
/// planes: the transform tables (≤ `(16 + 4k)·n`: u32 diag per plane + two
/// f64 tables) and, for the packed sink, the `8·n(n+1)/2` triangle.
fn sink_footprint(n: usize, packed: bool, k: usize) -> Result<usize, LdError> {
    let tables = checked_mul(n, 16 + 4 * k, "transform tables bytes")?;
    if !packed {
        return Ok(tables);
    }
    let out = checked_mul(checked_triangle_len(n)?, 8, "packed output bytes")?;
    checked_add(out, tables, "fixed footprint bytes")
}

/// The in-memory budget model `(fixed, per_slab_row)` in bytes for `n`
/// sites of `k` planes: every worker owns the u32 counts of `k·slab` plane
/// rows × `k·strip` plane columns (plus `slab × strip` f64 values for the
/// row sink), so a slab row costs `threads × strip × 4k²` (`+ 8`); `strip`
/// is `n` unless the run has a band ([`crate::driver::strip_width`]).
fn memory_footprint(
    n: usize,
    threads: usize,
    packed: bool,
    strip: usize,
    k: usize,
) -> Result<(usize, usize), LdError> {
    let elem = 4 * k * k + if packed { 0 } else { 8 };
    let what = "slab scratch bytes";
    let per_row = checked_mul(checked_mul(threads.max(1), strip.max(1), what)?, elem, what)?;
    Ok((sink_footprint(n, packed, k)?, per_row))
}

/// The out-of-core budget model `(fixed, per_slab_row)` in bytes. Fixed
/// adds four chunk-sized buffers (compute + in-flight double buffer, and
/// the A-panel's chunk-alignment slack); each slab row adds one panel
/// row of packed words and one u32 row of the block-counts scratch (plus
/// one f64 output row of width `strip` for the row sink). **Not** scaled by
/// the thread count: the streamed GEMM threads internally over one
/// shared counts block — extra threads add no buffers.
pub(crate) fn store_footprint(
    meta: &TileStoreMeta,
    packed: bool,
    strip: usize,
) -> Result<(usize, usize), LdError> {
    let n = meta.n_snps;
    let chunk = meta.chunk_snps.min(n.max(1));
    let what = "chunk bytes";
    let chunk_bytes = checked_mul(checked_mul(chunk, meta.words_per_snp, what)?, 8, what)?;
    let fixed = checked_add(
        sink_footprint(n, packed, 1)?,
        checked_mul(chunk_bytes, 4, "chunk buffer bytes")?,
        "fixed footprint bytes",
    )?;
    let what = "slab row bytes";
    let mut per_row = checked_add(
        checked_mul(meta.words_per_snp, 8, what)?,
        checked_mul(chunk, 4, what)?,
        what,
    )?;
    if !packed {
        per_row = checked_add(per_row, checked_mul(strip.max(1), 8, what)?, what)?;
    }
    Ok((fixed, per_row))
}

impl Source<'_> {
    /// SNP columns in the panel.
    pub fn n_snps(&self) -> usize {
        match self {
            Self::Memory(v) => v.n_snps(),
            Self::Store(s) => s.meta().n_snps,
        }
    }

    /// Samples per SNP.
    pub fn n_samples(&self) -> usize {
        match self {
            Self::Memory(v) => v.n_samples(),
            Self::Store(s) => s.meta().n_samples,
        }
    }

    /// The whole-matrix fingerprint stamped into checkpoint and shard
    /// headers. The memory source hashes the matrix (one pass); the store
    /// source reads it from the manifest, where `import` streamed the same
    /// hash — so headers from the two sources are interchangeable.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Self::Memory(v) => matrix_fingerprint(v),
            Self::Store(s) => s.meta().fingerprint,
        }
    }

    /// This source's budget model `(fixed, per_slab_row)` for the packed
    /// (`true`) or row (`false`) sink — what one slab row costs is the
    /// source's to say, because it owns the buffers. `strip` is the widest
    /// slab's site count ([`crate::driver::strip_width`]); a site is `k`
    /// panel columns (only an LD panel, `k = 1`, lives in a store).
    pub(crate) fn footprint(
        &self,
        threads: usize,
        packed: bool,
        strip: usize,
        k: usize,
    ) -> Result<(usize, usize), LdError> {
        match self {
            Self::Memory(v) => memory_footprint(v.n_snps() / k, threads, packed, strip, k),
            Self::Store(s) => store_footprint(s.meta(), packed, strip),
        }
    }

    /// `(outer workers, scheduler chunk in slabs)`. The store source runs
    /// one slab at a time — its parallelism is inside the per-chunk GEMM —
    /// which is also what delivers slabs to the sink in ascending order.
    pub(crate) fn schedule(&self, cfg: &Config) -> (usize, usize) {
        match self {
            Self::Memory(_) => (cfg.threads, cfg.chunk),
            Self::Store(_) => (1, 1),
        }
    }

    /// Length of one worker's u32 counts scratch for `slab`-row slabs of
    /// at most `strip` columns: the widest block this source ever emits.
    pub(crate) fn counts_len(&self, slab: usize, strip: usize) -> usize {
        match self {
            Self::Memory(_) => slab * strip,
            Self::Store(s) => slab * s.meta().chunk_snps.min(s.meta().n_snps),
        }
    }

    /// The run's transform tables: complete for the memory source (one
    /// popcount sweep over the resident matrix), all-zero for the store
    /// source, which fills each chunk's span when the chunk first streams
    /// past — no allele-count pre-pass over the store.
    pub(crate) fn tables(&self, stat: Statistic, policy: NanPolicy) -> Result<Tables, LdError> {
        Ok(match self {
            Self::Memory(v) => Tables {
                tr: Transform::try_new(v, stat, policy)?,
                seen: Vec::new(),
            },
            Self::Store(s) => {
                let m = s.meta();
                Tables {
                    tr: Transform::empty(m.n_snps, m.n_samples, stat, policy)?,
                    seen: vec![false; m.n_chunks()],
                }
            }
        })
    }

    /// Produces the counts of panel rows `rows` against every column in
    /// `[rows.start, cols_end)` (`cols_end` is `n` without a band), one
    /// [`Block`] at a time in ascending column order, handing each to
    /// `emit` together with tables that cover the block's columns and the
    /// slab's own rows. A block may run past `cols_end` (a store chunk is
    /// multiplied whole); the driver clips.
    pub(crate) fn slab_blocks(
        &self,
        rows: Range<usize>,
        cols_end: usize,
        cfg: &Config,
        counts: &mut [u32],
        tables: &RwLock<Tables>,
        emit: &mut dyn FnMut(&Transform, Block<'_>),
    ) -> Result<(), LdError> {
        let h = rows.len();
        match self {
            // One column block `[r0, cols_end)` straight off the resident
            // matrix: to the kernel, a panel that ends where the band does.
            Self::Memory(v) => {
                let cols = rows.start..cols_end;
                let (ld, counts) = (cols.len(), &mut counts[..h * cols.len()]);
                let v = &v.subview(0, cols_end);
                syrk_slab_counts(v, rows, counts, ld, cfg.kind, cfg.blocks);
                emit(&read(tables).tr, Block { cols, ld, counts });
                Ok(())
            }
            Self::Store(s) => stream_store_slab(*s, rows, cols_end, cfg, counts, tables, emit),
        }
    }
}

/// Counts the verified read of chunk `index` and, on first sight, folds
/// its per-SNP allele counts into the transform tables.
fn ingest_chunk(
    tables: &RwLock<Tables>,
    meta: &TileStoreMeta,
    index: usize,
    words: &[u64],
) -> Result<(), LdError> {
    ld_trace::add(Counter::ChunksRead, 1);
    ld_trace::add(Counter::StoreBytesRead, meta.chunk_bytes(index) as u64);
    if read(tables).seen[index] {
        return Ok(());
    }
    let (s, e) = meta.chunk_span(index);
    let wps = meta.words_per_snp;
    let mut diag = Vec::with_capacity(e - s);
    for j in 0..(e - s) {
        let ones: u64 = words[j * wps..(j + 1) * wps]
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        diag.push(u32::try_from(ones).map_err(|_| LdError::SizeOverflow {
            what: "per-SNP allele count (> u32::MAX haplotypes)",
        })?);
    }
    let sw = Stopwatch::start();
    let mut t = tables.write().unwrap_or_else(PoisonError::into_inner);
    t.tr.fill_span(s, &diag);
    t.seen[index] = true;
    ld_trace::add(Counter::TransformNs, sw.elapsed_ns());
    Ok(())
}

/// Assembles the A-panel for `rows`: reads the chunks covering the span,
/// concatenates their words into one chunk-aligned matrix, and returns it
/// with the row span's offset inside it.
fn assemble_panel(
    src: &dyn TileSource,
    tables: &RwLock<Tables>,
    rows: &Range<usize>,
) -> Result<(BitMatrix, usize), LdError> {
    let meta = src.meta();
    let (first, last) = match meta.chunks_covering(rows.start, rows.end) {
        Some(range) => range,
        None => unreachable!("slab row spans are non-empty"),
    };
    let base = first * meta.chunk_snps;
    let cols = ((last + 1) * meta.chunk_snps).min(meta.n_snps) - base;
    let wps = meta.words_per_snp;
    let mut panel = AlignedWords::zeroed(cols * wps);
    for c in first..=last {
        let words = src.read_chunk(c)?;
        ingest_chunk(tables, meta, c, &words)?;
        let off = (meta.chunk_span(c).0 - base) * wps;
        panel[off..off + words.len()].copy_from_slice(&words);
    }
    let panel = BitMatrix::from_words(meta.n_samples, cols, panel)
        .map_err(|e| store_err(format!("panel rows {rows:?}: damaged packed words: {e}")))?;
    Ok((panel, rows.start - base))
}

/// The store source's data mover for one slab. Only a bounded working set
/// is ever resident: the A-panel for `rows`, one column chunk in compute
/// plus one in flight (a dedicated prefetch thread reads and CRC-verifies
/// the next chunk while the current one is multiplied by
/// [`gemm_counts_mt`] — a classic double buffer), and the `slab × chunk`
/// counts block. The column stream covers chunks from the one containing
/// `rows.start` to the one containing `cols_end − 1` (upper-triangle rows
/// need columns `j ≥ r0`, a band none past `r1 + w − 1`), so a slab's own
/// stream also supplies every allele count its transform needs. The read
/// schedule is therefore `panel chunks + chunks from first to last` per
/// computed slab — the closed form `outofcore_resume.rs` checks against
/// the `chunks_read` counter.
fn stream_store_slab(
    src: &dyn TileSource,
    rows: Range<usize>,
    cols_end: usize,
    cfg: &Config,
    counts: &mut [u32],
    tables: &RwLock<Tables>,
    emit: &mut dyn FnMut(&Transform, Block<'_>),
) -> Result<(), LdError> {
    let meta = src.meta();
    let h = rows.len();
    let (panel, panel_off) = assemble_panel(src, tables, &rows)?;
    let a_view = panel.view(panel_off, panel_off + h);
    let chunks = rows.start / meta.chunk_snps..(cols_end - 1) / meta.chunk_snps + 1;
    let early = |c: usize| store_err(format!("chunk {c}: prefetch thread terminated early"));
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel::<Result<AlignedWords, LdError>>(1);
        let to_read = chunks.clone();
        scope.spawn(move || {
            for c in to_read {
                let msg = src.read_chunk(c);
                let stop = msg.is_err();
                if tx.send(msg).is_err() || stop {
                    return;
                }
            }
        });
        for c in chunks {
            let msg = match rx.try_recv() {
                Ok(m) => {
                    ld_trace::add(Counter::PrefetchHits, 1);
                    m
                }
                Err(mpsc::TryRecvError::Empty) => {
                    let sw = Stopwatch::start();
                    let m = rx.recv().map_err(|_| early(c))?;
                    ld_trace::add(Counter::PrefetchStallNs, sw.elapsed_ns());
                    m
                }
                Err(mpsc::TryRecvError::Disconnected) => return Err(early(c)),
            };
            let words = msg?;
            ingest_chunk(tables, meta, c, &words)?;
            let (c0, c1) = meta.chunk_span(c);
            let ld = c1 - c0;
            let b = BitMatrix::from_words(meta.n_samples, ld, words)
                .map_err(|e| store_err(format!("chunk {c}: damaged packed words: {e}")))?;
            let (b, counts) = (b.full_view(), &mut counts[..h * ld]);
            gemm_counts_mt(&a_view, &b, counts, ld, cfg.kind, cfg.blocks, cfg.threads);
            let cols = c0..c1;
            emit(&read(tables).tr, Block { cols, ld, counts });
        }
        Ok(())
    })
}
