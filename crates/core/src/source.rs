//! Sources: where the genotype panel lives, and how a slab's counts are
//! produced from it.
//!
//! The slab driver ([`crate::driver`]) is one loop nest. What differs
//! between an in-memory run and an out-of-core run is only the *data
//! mover* — the paper's "one five-loop nest, different pack routines"
//! one level up (and Fabregat-Traver & Bientinesi's point that in-core
//! and out-of-core are one algorithm, the resident blocks sized to the
//! memory there is). A [`Source`] answers exactly the questions the driver
//! cannot answer itself:
//!
//! | property              | [`Source::Memory`]                    | [`Source::Store`]                              |
//! |-----------------------|---------------------------------------|------------------------------------------------|
//! | dimensions, identity  | the view; fingerprint = one hash pass | the manifest (no chunk is read)                |
//! | parallel axis         | `threads` workers claim slabs         | `threads` workers claim a row window's slabs, one team per window pass |
//! | slab order at a sink  | unspecified under threading           | unspecified under threading                    |
//! | reads                 | none                                  | per row window, each chunk from its first row's to the one holding its last column, once |
//! | column blocks ≥ `r0`  | one block `[r0, n)` via SYRK, B̃ ≤ 128 KiB per worker | per column window: SYRK in the one holding the slab's rows, GEMM right of it, B̃ as memory |
//! | column band `w`       | SYRK on the sub-view `[0, r1 + w)`    | column windows stop at the chunk holding `r1 + w − 1` |
//! | transform tables      | built up front (one popcount sweep)   | each window's span filled from its words as it is read |
//! | budget model          | scratch scales with `threads × k² × strip` | `store_windows`: tables, windows, scratch |
//! | statistic             | any [`crate::Statistic`]: a site's `k` planes are `k` adjacent columns | [`crate::LdStats`] only (`k = 1`: a store is an LD panel) |
//!
//! (`strip` is `n`, or `min(n, slab + w)` under a band, in sites.) A source
//! knows nothing of planes: the driver asks a `Pass` for plane rows
//! `[k·r0, k·r1)` against plane columns up to `k·cols_end` — the same one
//! call at every `k`. Everything else — slab grid, shard window, band
//! clipping, polling, resume, the checkpoint ledger, the transform itself —
//! is the driver's.
//!
//! A store run is the memory arm over **windows**. A row window is a run
//! of `rows` slabs of the grid (those not done); its column windows are
//! runs of whole chunks from its first row's chunk to the one holding its
//! last `cols_end`, the first of them long enough to hold the row
//! window's rows. Each window is read and CRC-checked once per row window
//! (`read_window`) into a panel sized to it, and the worker team claims
//! the row window's slabs against it: SYRK in the first, GEMM in the rest.
//! `store_windows` sizes them to the budget; the window that holds every
//! pending slab and column is the one-window run, each needed chunk read
//! once. With no budget the windows are the smallest — `threads` slabs
//! by one chunk — because "unlimited" is no promise that the panel fits in
//! RAM.

use crate::checkpoint::matrix_fingerprint;
use crate::driver::Config;
use crate::error::{checked_add, checked_mul, checked_triangle_len, LdError};
use crate::fused::Transform;
use crate::stats::{NanPolicy, Statistic};
use crate::tilestore::{TileSource, TileStoreMeta};
use ld_bitmat::{AlignedWords, BitMatrix, BitMatrixView};
use ld_kernels::{gemm_counts_buf, syrk_slab_counts, BlockSizes};
use ld_trace::recorder::{Span, SpanKind};
use ld_trace::Counter;
use std::ops::Range;

/// The genotype panel of one run.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// Held in RAM and borrowed zero-copy.
    Memory(BitMatrixView<'a>),
    /// Held in a chunked tile store (a directory of CRC-checked chunks,
    /// or [`crate::MemoryTileStore`]) and read window by window, so it
    /// never has to fit in memory — or, when the run's budget holds the
    /// whole panel, read once as one window.
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

fn store_err(message: String) -> LdError {
    LdError::TileStore { message }
}

/// Slab-independent bytes of every model for `n` sites of `k` planes: the transform tables (≤ `(16 + 4k)·n`: u32 diag per plane + two
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
/// is `n` unless the run has a band ([`crate::driver::Reach::strip`]).
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

/// Slab rows, at most `want`, that a `(fixed, per_row)` model fits under
/// `limit` bytes; 0 when not even one row does.
pub(crate) fn rows_within(limit: usize, (fixed, per_row): (usize, usize), want: usize) -> usize {
    match limit.checked_sub(fixed) {
        Some(room) if room >= per_row => want.min(room / per_row.max(1)).max(1),
        _ => 0,
    }
}

/// A store run's windows: a row window is `rows` slabs of the grid, a
/// column window `cols` chunks; [`Windows::ONE`] in both is the one
/// window that holds every pending slab and column. `slab` is the height
/// they were fitted at (0: not even one row fits) and `bytes` their price.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Windows {
    pub slab: usize,
    pub rows: usize,
    pub cols: usize,
    pub bytes: usize,
}

impl Windows {
    /// `rows` and `cols` of the one window.
    pub const ONE: usize = usize::MAX;

    /// Columns of the widest block a slab meets in one pass: its strip,
    /// or the widest first column window when that is narrower — the
    /// chunks covering `rows` slabs wherever they start (`⌊(rows·slab +
    /// 2c − 2)/c⌋` chunks of `c` sites), or `cols` chunks if more, at
    /// most the store's `n`.
    pub fn width(&self, meta: &TileStoreMeta, strip: usize) -> usize {
        let c = meta.chunk_snps.max(1);
        let span = self.rows.saturating_mul(self.slab);
        let chunks = span.saturating_add((c - 1).saturating_mul(2)) / c;
        strip.min(meta.n_snps.min(chunks.max(self.cols).saturating_mul(c)))
    }
}

/// `Σ Π terms` in bytes, or [`LdError::SizeOverflow`].
fn bytes(terms: &[&[usize]]) -> Result<usize, LdError> {
    let what = "store window bytes";
    terms.iter().try_fold(0, |sum, t| {
        let product = t.iter().try_fold(1, |p, &x| checked_mul(p, x, what))?;
        checked_add(sum, product, what)
    })
}

/// The price in bytes of a store run of slab height `slab` over `threads`
/// workers, with `rows × cols` windows: the transform tables (and the
/// packed sink's triangle), one chunk load (its encoded bytes, held while
/// it is decoded), the widest first column window and one later one
/// (none for the one window), and per worker the u32 counts of its widest
/// block. The row sink adds its f64 values: per worker for the one
/// window, where a slab completes in one pass, and otherwise per slab of
/// the row window, held until its last column window. The one window's
/// price is the in-memory model plus the panel and one chunk load.
fn window_bytes(
    meta: &TileStoreMeta,
    threads: usize,
    packed: bool,
    strip: usize,
    (slab, rows, cols): (usize, usize, usize),
) -> Result<Windows, LdError> {
    let mut w = Windows {
        slab,
        rows,
        cols,
        bytes: 0,
    };
    let (n, one) = (meta.n_snps, rows == Windows::ONE);
    let later = if one {
        0
    } else {
        n.min(cols.saturating_mul(meta.chunk_snps))
    };
    let sites = w.width(meta, n).saturating_add(later);
    let slots = if one { threads } else { rows };
    let value = if packed { 0 } else { 8 };
    w.bytes = bytes(&[
        &[sink_footprint(n, packed, 1)?],
        &[meta.chunk_bytes(0)],
        &[sites, meta.words_per_snp, 8],
        &[threads, slab, w.width(meta, strip), 4],
        &[slots, slab, strip, value],
    ])?;
    Ok(w)
}

/// The largest `x ∈ [1, max]` with `fits(x)`; `None` when none does.
fn largest(max: usize, fits: impl Fn(usize) -> bool) -> Option<usize> {
    (1..=max).rev().find(|&x| fits(x))
}

/// The one sizing of a store run of slab height `want` under `limit`
/// bytes (`None`: no budget), priced by [`window_bytes`]:
///
/// * no budget: the smallest windows, `threads` slabs — one per worker, so
///   no worker idles in a pass — by one chunk;
/// * the configured height whenever the one window or the smallest
///   windows fit it — windows never cost slab height — and otherwise the
///   tallest slab one of them fits (one-row slabs, fewer to a row window,
///   when not even that);
/// * at that height the one window if it fits, else the most slabs per
///   row window with one-chunk column windows, then the most chunks per
///   column window.
///
/// When not even one row fits, `slab` is 0 and `bytes` the smaller price
/// of one row; an unrepresentable price fits no budget.
pub(crate) fn store_windows(
    meta: &TileStoreMeta,
    threads: usize,
    packed: bool,
    strip: usize,
    limit: Option<usize>,
    want: usize,
) -> Result<Windows, LdError> {
    let threads = threads.max(1);
    let price = |shape| window_bytes(meta, threads, packed, strip, shape);
    let (one, smallest) = (|h| (h, Windows::ONE, Windows::ONE), |h| (h, threads, 1));
    let Some(limit) = limit else {
        return price(smallest(want));
    };
    let fits = |shape| price(shape).is_ok_and(|w| w.bytes <= limit);
    let slab = largest(want, |h| fits(one(h)) || fits(smallest(h))).unwrap_or(1);
    if fits(one(slab)) {
        return price(one(slab));
    }
    let Some(rows) = largest(meta.n_snps.div_ceil(slab), |r| fits((slab, r, 1))) else {
        let small = price((1, 1, 1))?;
        let bytes = small
            .bytes
            .min(price(one(1)).map_or(usize::MAX, |w| w.bytes));
        return Ok(Windows {
            slab: 0,
            bytes,
            ..small
        });
    };
    let cols = largest(meta.n_chunks(), |c| fits((slab, rows, c))).unwrap_or(1);
    price((slab, rows, cols))
}

/// One run's budget model.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Price {
    /// `fixed + per_row × slab` bytes at any slab height: the memory
    /// source, the staircase, the cross matrix.
    Linear { fixed: usize, per_row: usize },
    /// A store run: its windows, fitted to the budget with their height.
    Windows(Windows),
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

    /// The run's [`Price`] — what a run costs is the source's to say,
    /// because it owns the buffers — for the packed (`true`) or row
    /// (`false`) sink at slab height `want` under `limit` bytes (`None`: no
    /// budget). `strip` is the widest slab's site count
    /// ([`crate::driver::Reach::strip`]); a site is `k` panel columns (only
    /// an LD panel, `k = 1`, lives in a store, whose windows
    /// [`store_windows`] sizes).
    pub(crate) fn price(
        &self,
        threads: usize,
        packed: bool,
        strip: usize,
        k: usize,
        limit: Option<usize>,
        want: usize,
    ) -> Result<Price, LdError> {
        Ok(match self {
            Self::Memory(v) => {
                let (fixed, per_row) = memory_footprint(v.n_snps() / k, threads, packed, strip, k)?;
                Price::Linear { fixed, per_row }
            }
            Self::Store(s) => Price::Windows(store_windows(
                s.meta(),
                threads,
                packed,
                strip,
                limit,
                want,
            )?),
        })
    }

    /// The run's transform tables: complete for the memory source (one
    /// popcount sweep over the resident matrix), all-zero for the store
    /// source, whose windows fill their spans as they are read
    /// ([`read_window`]) — no allele-count pre-pass over the store.
    pub(crate) fn tables(&self, stat: Statistic, policy: NanPolicy) -> Result<Transform, LdError> {
        match self {
            Self::Memory(v) => Transform::try_new(v, stat, policy),
            Self::Store(s) => {
                let m = s.meta();
                Transform::empty(m.n_snps, m.n_samples, stat, policy)
            }
        }
    }
}

/// The operands of one team pass: a slab's rows come from `a`, its
/// columns from `b`, each a view and the panel column its column 0 is.
/// Where `b` holds the slab's own rows the block is SYRK from the slab's
/// first row; right of them, GEMM of the rows against `b`.
pub(crate) struct Pass<'p> {
    pub a: (BitMatrixView<'p>, usize),
    pub b: (BitMatrixView<'p>, usize),
}

impl Pass<'_> {
    /// One past the last panel column the pass holds.
    pub fn end(&self) -> usize {
        self.b.1 + self.b.0.n_snps()
    }

    /// The counts of panel rows `rows` against this pass's columns, from
    /// the slab's first row or the pass's first column to `cols_end` or the
    /// pass's end, into `counts`, on the worker blocking.
    pub fn block<'c>(
        &self,
        rows: Range<usize>,
        cols_end: usize,
        cfg: &Config,
        counts: &'c mut [u32],
    ) -> Block<'c> {
        let ((a, a_base), (b, b_base)) = (self.a, self.b);
        let end = cols_end.min(self.end());
        let (cols, b) = (b_base.max(rows.start)..end, b.subview(0, end - b_base));
        let (ld, counts) = (cols.len(), &mut counts[..rows.len() * cols.len()]);
        let blocks = worker_blocks(cfg.blocks, b.words_per_snp());
        if b_base <= rows.start {
            let rows = rows.start - b_base..rows.end - b_base;
            syrk_slab_counts(&b, rows, counts, ld, cfg.kind, blocks);
        } else {
            let a = a.subview(rows.start - a_base, rows.end - a_base);
            gemm_counts_buf(&a, &b, counts, ld, cfg.kind, blocks);
        }
        Block { cols, ld, counts }
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

/// The store source's data mover: reads `chunks` once, on the calling
/// thread ([`fill_span`]), into one packed panel sized to them, and fills
/// their span of `tr` from its words before any pass reads it. `None` when
/// `stop` fired (the caller computes nothing from a partial panel).
pub(crate) fn read_window(
    src: &dyn TileSource,
    chunks: Range<usize>,
    tr: &mut Transform,
    stop: &dyn Fn() -> bool,
) -> Result<Option<BitMatrix>, LdError> {
    let meta = src.meta();
    let base = chunks.start * meta.chunk_snps;
    let sites = (chunks.end * meta.chunk_snps).min(meta.n_snps) - base;
    let mut panel = AlignedWords::zeroed(sites * meta.words_per_snp);
    if !fill_span(src, chunks.clone(), &mut panel, stop)? {
        return Ok(None);
    }
    let panel = BitMatrix::from_words(meta.n_samples, sites, panel)
        .map_err(|e| store_err(format!("chunks {chunks:?}: damaged packed words: {e}")))?;
    let span = Span::begin(SpanKind::Transform);
    let v = panel.full_view();
    let diag = (0..sites)
        .map(|j| {
            u32::try_from(v.ones_in_snp(j)).map_err(|_| LdError::SizeOverflow {
                what: "per-SNP allele count (> u32::MAX haplotypes)",
            })
        })
        .collect::<Result<Vec<u32>, _>>()?;
    tr.fill_span(base, &diag);
    span.end(chunks.start as u64);
    Ok(Some(panel))
}
