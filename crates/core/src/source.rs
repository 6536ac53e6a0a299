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
//! | property              | [`Source::Memory`]                    | [`Source::Store`], streamed                | [`Source::Store`], resident              |
//! |-----------------------|---------------------------------------|--------------------------------------------|------------------------------------------|
//! | dimensions, identity  | the view; fingerprint = one hash pass | the manifest (no chunk is read)            | the manifest (no chunk is read)          |
//! | parallel axis         | `threads` workers claim slabs         | one slab at a time; `threads` workers claim its GEMM's row blocks | `threads` workers claim slabs |
//! | slab order at a sink  | unspecified under threading           | ascending rows                             | unspecified under threading              |
//! | reads                 | none                                  | per slab: its panel chunks + its column stream | each needed chunk once, before the first slab |
//! | column blocks ≥ `r0`  | one block `[r0, n)` via SYRK, B̃ ≤ 128 KiB per worker | one block per store chunk, prefetched | as memory                  |
//! | column band `w`       | SYRK on the sub-view `[0, r1 + w)`    | stream stops at the chunk holding `r1+w−1` | as memory                                |
//! | transform tables      | built up front (one popcount sweep)   | filled as chunks first stream past         | as memory                                |
//! | budget model          | scratch scales with `threads × k² × strip` | panel row + chunk buffers, thread-free | memory's + the panel and one chunk load |
//! | statistic             | any [`crate::Statistic`]: a site's `k` planes are `k` adjacent columns | [`crate::LdStats`] only (`k = 1`: a store is an LD panel) | as streamed |
//!
//! (`strip` is `n`, or `min(n, slab + w)` under a band, in sites.) A source
//! knows nothing of planes: the driver asks it for plane rows
//! `[k·r0, k·r1)` against plane columns `[k·r0, k·cols_end)` — the same one
//! call at every `k`. Everything else — slab grid, shard window, band
//! clipping, polling, resume, the checkpoint ledger, the transform itself —
//! is the driver's.
//!
//! A store run is resident when it has a budget and [`store_price`] finds
//! the whole panel fits it at a slab at least as tall as streaming would
//! get; the driver then reads the chunks its pending slabs need once
//! ([`read_resident`]) and runs the panel as the memory source. With no
//! budget a store streams: "unlimited" is no promise that the panel fits
//! in RAM.

use crate::checkpoint::matrix_fingerprint;
use crate::driver::Config;
use crate::error::{checked_add, checked_mul, checked_triangle_len, LdError};
use crate::fused::Transform;
use crate::stats::{NanPolicy, Statistic};
use crate::tilestore::{TileSource, TileStoreMeta};
use ld_bitmat::{AlignedWords, BitMatrix, BitMatrixView};
use ld_kernels::{gemm_counts_mt, syrk_slab_counts, BlockSizes};
use ld_trace::recorder::{Span, SpanKind};
use ld_trace::Counter;
use std::ops::Range;
use std::sync::{mpsc, PoisonError, RwLock, RwLockReadGuard};
use std::time::Instant;

/// The genotype panel of one run.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// Held in RAM and borrowed zero-copy.
    Memory(BitMatrixView<'a>),
    /// Held in a chunked tile store (a directory of CRC-checked chunks,
    /// or [`crate::MemoryTileStore`]) and streamed panel-by-panel, so it
    /// never has to fit in memory — or, when the run's budget holds the
    /// whole panel, read once and run as [`Source::Memory`].
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

/// The cross-matrix budget model `(fixed, per_slab_row)` in bytes for an
/// `m × n` block of sites of `k` planes: fixed is the `m·n` f64 values
/// plus the tables of both operands (and their allele-count staging
/// table, `4k` bytes per site); every worker owns the u32 counts of `k`
/// plane rows per slab row against all `k·n` plane columns of B, so a
/// slab row costs `threads × n × 4k²`.
pub(crate) fn cross_footprint(
    m: usize,
    n: usize,
    threads: usize,
    k: usize,
) -> Result<(usize, usize), LdError> {
    let what = "cross footprint bytes";
    let sites = checked_add(m, n, what)?;
    let values = checked_mul(checked_mul(m, n, what)?, 8, what)?;
    let tables = checked_add(
        sink_footprint(sites, false, k)?,
        checked_mul(sites, 4 * k, what)?,
        what,
    )?;
    let per_row = checked_mul(checked_mul(threads.max(1), n, what)?, 4 * k * k, what)?;
    Ok((checked_add(values, tables, what)?, per_row))
}

/// Bytes of one worker's packed B̃ block on the memory arm. Every worker
/// packs its own B̃ for each slab it claims, so the block is sized per
/// worker rather than to the shared L3 the default `nc` targets (which at
/// 16 384 samples packs up to 6 MiB per worker per slab). 128 KiB is the
/// measured knee on a 2-vCPU x86-64 VM with glibc: at 1500–3000 sites ×
/// 16 384–32 768 samples it cut peak RSS by 10–30 % with wall time inside
/// the run-to-run spread, where 256 KiB and up left more freed pack
/// memory in the workers' allocator arenas (a 2000 × 2504 daemon preload:
/// +8 % at 256 KiB, +1 % here). Like the rest of the kernels' pack
/// buffers it is left out of the budget models.
const WORKER_B_BLOCK_BYTES: usize = 128 * 1024;

/// The memory arm's blocking: the configured sizes with `nc` cut so B̃
/// holds at most [`WORKER_B_BLOCK_BYTES`] (a multiple of 16 columns, so of
/// every kernel's `NR`; at least 16). Values never depend on blocking.
pub(crate) fn worker_blocks(blocks: BlockSizes, words_per_snp: usize) -> BlockSizes {
    let kc = blocks.kc.clamp(1, words_per_snp.max(1));
    let nc = (WORKER_B_BLOCK_BYTES / (8 * kc) / 16 * 16).max(16);
    blocks.with_nc(blocks.nc.min(nc))
}

/// The out-of-core budget model `(fixed, per_slab_row)` in bytes. Fixed
/// adds four chunk-sized buffers (compute + in-flight double buffer, and
/// the A-panel's chunk-alignment slack); each slab row adds one panel
/// row of packed words and one u32 row of the block-counts scratch (plus
/// one f64 output row of width `strip` for the row sink). **Not** scaled by
/// the thread count: the streamed GEMM threads internally over one
/// shared counts block — extra threads add no buffers.
fn store_footprint(
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

/// The resident budget model `(fixed, per_slab_row)` in bytes: the
/// in-memory model over the store's sites, plus the packed panel, plus
/// what one chunk load holds while it is decoded into the panel (its
/// encoded bytes).
fn resident_footprint(
    meta: &TileStoreMeta,
    threads: usize,
    packed: bool,
    strip: usize,
) -> Result<(usize, usize), LdError> {
    let (fixed, per_row) = memory_footprint(meta.n_snps, threads, packed, strip, 1)?;
    let what = "resident panel bytes";
    let panel = checked_mul(checked_mul(meta.n_snps, meta.words_per_snp, what)?, 8, what)?;
    let fixed = checked_add(checked_add(fixed, panel, what)?, meta.chunk_bytes(0), what)?;
    Ok((fixed, per_row))
}

/// Slab rows, at most `want`, that a `(fixed, per_row)` model fits under
/// `limit` bytes; 0 when not even one row does.
pub(crate) fn rows_within(limit: usize, (fixed, per_row): (usize, usize), want: usize) -> usize {
    match limit.checked_sub(fixed) {
        Some(room) if room >= per_row => want.min(room / per_row.max(1)).max(1),
        _ => 0,
    }
}

/// One run's budget model and, for a store, its arm.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Price {
    /// Slab-independent bytes.
    pub fixed: usize,
    /// Bytes per slab row.
    pub per_row: usize,
    /// A store run that reads its panel once and computes it as the
    /// memory source.
    pub resident: bool,
}

/// The one arm decision for a store run of slab height `want` under
/// `limit` bytes (`None`: no budget). The streamed arm is priced by
/// [`store_footprint`], the resident arm by [`resident_footprint`]; the
/// run is resident when it has a budget and the resident price fits a
/// slab at least as tall as the streamed one (and at least one row) —
/// residency never costs slab height. An unrepresentable resident price
/// fits no budget.
pub(crate) fn store_price(
    meta: &TileStoreMeta,
    threads: usize,
    packed: bool,
    strip: usize,
    limit: Option<usize>,
    want: usize,
) -> Result<Price, LdError> {
    let (fixed, per_row) = store_footprint(meta, packed, strip)?;
    let streamed = Price {
        fixed,
        per_row,
        resident: false,
    };
    let Some(limit) = limit else {
        return Ok(streamed);
    };
    let floor = rows_within(limit, (fixed, per_row), want).max(1);
    Ok(match resident_footprint(meta, threads, packed, strip) {
        Ok(model) if rows_within(limit, model, want) >= floor => Price {
            fixed: model.0,
            per_row: model.1,
            resident: true,
        },
        _ => streamed,
    })
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

    /// The run's [`Price`] — what one slab row costs is the source's to
    /// say, because it owns the buffers — for the packed (`true`) or row
    /// (`false`) sink at slab height `want` under `limit` bytes (`None`: no
    /// budget). `strip` is the widest slab's site count
    /// ([`crate::driver::strip_width`]); a site is `k` panel columns (only
    /// an LD panel, `k = 1`, lives in a store, whose arm [`store_price`]
    /// picks).
    pub(crate) fn price(
        &self,
        threads: usize,
        packed: bool,
        strip: usize,
        k: usize,
        limit: Option<usize>,
        want: usize,
    ) -> Result<Price, LdError> {
        match self {
            Self::Memory(v) => {
                let (fixed, per_row) = memory_footprint(v.n_snps() / k, threads, packed, strip, k)?;
                Ok(Price {
                    fixed,
                    per_row,
                    resident: false,
                })
            }
            Self::Store(s) => store_price(s.meta(), threads, packed, strip, limit, want),
        }
    }

    /// Outer workers of the slab loop. The store source runs one slab at
    /// a time — its parallelism is inside the per-chunk GEMM — which is
    /// also what delivers slabs to the sink in ascending order.
    pub(crate) fn schedule(&self, cfg: &Config) -> usize {
        match self {
            Self::Memory(_) => cfg.threads,
            Self::Store(_) => 1,
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
                let blocks = worker_blocks(cfg.blocks, v.words_per_snp());
                syrk_slab_counts(v, rows, counts, ld, cfg.kind, blocks);
                emit(&read(tables).tr, Block { cols, ld, counts });
                Ok(())
            }
            Self::Store(s) => stream_store_slab(*s, rows, cols_end, cfg, counts, tables, emit),
        }
    }
}

/// Counts one verified read of chunk `index`.
fn count_read(meta: &TileStoreMeta, index: usize) {
    ld_trace::add(Counter::ChunksRead, 1);
    ld_trace::add(Counter::StoreBytesRead, meta.chunk_bytes(index) as u64);
}

/// The one span filler: reads `chunks` of `src` in index order, each
/// verified by [`TileSource::read_chunk_into`] straight into its span of
/// `panel` (whose column 0 is chunk `chunks.start`'s first site), and
/// counts each read. `stop` is polled before each read; `false` means it
/// fired and `panel` is partial.
fn fill_span(
    src: &dyn TileSource,
    chunks: Range<usize>,
    panel: &mut [u64],
    stop: &dyn Fn() -> bool,
) -> Result<bool, LdError> {
    let meta = src.meta();
    let (wps, base) = (meta.words_per_snp, chunks.start * meta.chunk_snps);
    for c in chunks {
        if stop() {
            return Ok(false);
        }
        let (s, e) = meta.chunk_span(c);
        src.read_chunk_into(c, &mut panel[(s - base) * wps..(e - base) * wps])?;
        count_read(meta, c);
    }
    Ok(true)
}

/// The resident arm's data mover: reads the chunks holding panel columns
/// `cols` exactly once, on the calling thread ([`fill_span`]), into one
/// packed panel of every site — the columns outside the chunks read stay
/// zero, and no slab the caller computes reaches them. `None` when `stop`
/// fired (the caller computes nothing from a partial panel).
pub(crate) fn read_resident(
    src: &dyn TileSource,
    cols: Range<usize>,
    stop: &dyn Fn() -> bool,
) -> Result<Option<BitMatrix>, LdError> {
    let meta = src.meta();
    let wps = meta.words_per_snp;
    let mut panel = AlignedWords::zeroed(meta.n_snps * wps);
    if let Some((first, last)) = meta.chunks_covering(cols.start, cols.end) {
        let from = first * meta.chunk_snps * wps;
        if !fill_span(src, first..last + 1, &mut panel[from..], stop)? {
            return Ok(None);
        }
    }
    let panel = BitMatrix::from_words(meta.n_samples, meta.n_snps, panel)
        .map_err(|e| store_err(format!("resident panel: damaged packed words: {e}")))?;
    Ok(Some(panel))
}

/// Folds chunk `index`'s per-SNP allele counts into the transform tables,
/// on first sight.
fn ingest_chunk(
    tables: &RwLock<Tables>,
    meta: &TileStoreMeta,
    index: usize,
    words: &[u64],
) -> Result<(), LdError> {
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
    let span = Span::begin(SpanKind::Transform);
    let mut t = tables.write().unwrap_or_else(PoisonError::into_inner);
    t.tr.fill_span(s, &diag);
    t.seen[index] = true;
    span.end(index as u64);
    Ok(())
}

/// Assembles the A-panel for `rows`: reads the chunks covering the span
/// into one chunk-aligned matrix ([`fill_span`]), folds their allele
/// counts into the tables, and returns it with the row span's offset
/// inside it.
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
    fill_span(src, first..last + 1, &mut panel, &|| false)?;
    for c in first..=last {
        let (s, e) = meta.chunk_span(c);
        ingest_chunk(tables, meta, c, &panel[(s - base) * wps..(e - base) * wps])?;
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
                    let t0 = Instant::now();
                    let m = rx.recv().map_err(|_| early(c))?;
                    let stall = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    ld_trace::add(Counter::PrefetchStallNs, stall);
                    m
                }
                Err(mpsc::TryRecvError::Disconnected) => return Err(early(c)),
            };
            let words = msg?;
            count_read(meta, c);
            ingest_chunk(tables, meta, c, &words)?;
            let (c0, c1) = meta.chunk_span(c);
            let ld = c1 - c0;
            let b = BitMatrix::from_words(meta.n_samples, ld, words)
                .map_err(|e| store_err(format!("chunk {c}: damaged packed words: {e}")))?;
            let (b, counts) = (b.full_view(), &mut counts[..h * ld]);
            gemm_counts_mt(&a_view, &b, counts, ld, cfg.kind, cfg.blocks, cfg.threads)?;
            let cols = c0..c1;
            emit(&read(tables).tr, Block { cols, ld, counts });
        }
        Ok(())
    })
}
