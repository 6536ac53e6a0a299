//! The store-run window model of DESIGN.md §13, re-derived for the tests
//! that hold the program to it: the price of a window geometry, the one
//! sizing rule, and the chunks a run reads. Deliberately *not* a call
//! into `ld-core`, so a driver bug cannot certify itself; the searches
//! are linear scans where the program bisects.

#![allow(dead_code)] // each test binary uses a different part

use ld_core::TileStoreMeta;

/// `rows` and `cols` of the one window: every pending slab and column.
pub const ONE: usize = usize::MAX;

/// A store run's windows: slab height, slabs per row window, chunks per
/// column window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
    pub slab: usize,
    pub rows: usize,
    pub cols: usize,
}

impl Geometry {
    pub fn one(slab: usize) -> Self {
        Self {
            slab,
            rows: ONE,
            cols: ONE,
        }
    }
}

/// The price in bytes of geometry `g` over `threads` workers, for the
/// packed (`true`) or row sink, `strip` sites per slab row: the `20·n`
/// bytes of `r²` tables (plus the `8·n(n+1)/2` triangle of the packed
/// sink) and one chunk load; then for the one window the packed panel and
/// per worker and slab row `strip` u32 counts (and f64 values for the row
/// sink); otherwise the first column window (the chunks any `rows` slabs
/// can cover, or `cols` chunks if more) plus one later window of `cols`
/// chunks, per worker and slab row u32 counts as wide as the first window
/// (at most `strip`), and for the row sink the f64 values of every slab of
/// a row window.
pub fn price(
    meta: &TileStoreMeta,
    threads: usize,
    packed: bool,
    strip: usize,
    g: Geometry,
) -> usize {
    let (n, c, site) = (meta.n_snps, meta.chunk_snps, meta.words_per_snp * 8);
    let triangle = if packed { 8 * n * (n + 1) / 2 } else { 0 };
    let fixed = 20 * n + triangle + meta.chunk_bytes(0);
    if g.rows == ONE {
        let per_value = if packed { 4 } else { 4 + 8 };
        return fixed + n * site + threads * g.slab * strip * per_value;
    }
    let first = n.min(((g.rows * g.slab + 2 * c - 2) / c).max(g.cols) * c);
    let later = n.min(g.cols * c);
    let counts = threads * g.slab * strip.min(first) * 4;
    let values = if packed {
        0
    } else {
        g.rows * g.slab * strip * 8
    };
    fixed + (first + later) * site + counts + values
}

/// The windows a run of slab height `want` takes under `budget` (`None`:
/// no budget — `threads` slabs by one chunk): the tallest slab at which
/// the one window or `threads` slabs by one chunk fit (one row when none
/// does); there the one window if it fits, else the most slabs per row
/// window with one-chunk column windows, then the most chunks per column
/// window.
pub fn fitted(
    meta: &TileStoreMeta,
    threads: usize,
    packed: bool,
    strip: usize,
    budget: Option<usize>,
    want: usize,
) -> Geometry {
    let small = |slab, rows, cols| Geometry { slab, rows, cols };
    let Some(budget) = budget else {
        return small(want, threads, 1);
    };
    let fits = |g: Geometry| price(meta, threads, packed, strip, g) <= budget;
    let slab = (1..=want)
        .rev()
        .find(|&h| fits(Geometry::one(h)) || fits(small(h, threads, 1)))
        .unwrap_or(1);
    if fits(Geometry::one(slab)) {
        return Geometry::one(slab);
    }
    let rows = (1..=meta.n_snps.div_ceil(slab))
        .rev()
        .find(|&r| fits(small(slab, r, 1)))
        .expect("one slab fits");
    let cols = (1..=meta.n_chunks())
        .rev()
        .find(|&c| fits(small(slab, rows, c)))
        .expect("one chunk fits");
    small(slab, rows, cols)
}

/// The chunks a run reads, in order: row windows are the slabs `rows`
/// at a time from the shard's first (`slabs.start`); one with a pending
/// slab reads each chunk once from the one holding its first pending row
/// to the one holding its last pending slab's last column, `min(n, r1 +
/// band) − 1` (`band = n`: no band). Whatever the column windows.
pub fn chunks_read(
    n: usize,
    chunk: usize,
    slab: usize,
    band: usize,
    rows: usize,
    slabs: std::ops::Range<usize>,
    pending: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let mut read = Vec::new();
    let mut w0 = slabs.start;
    while w0 < slabs.end {
        let w1 = w0.saturating_add(rows).min(slabs.end);
        let ks: Vec<usize> = (w0..w1).filter(|&k| pending(k)).collect();
        if let (Some(&p0), Some(&p1)) = (ks.first(), ks.last()) {
            let r1 = ((p1 + 1) * slab).min(n);
            let last_col = n.min(r1 + band) - 1;
            read.extend(p0 * slab / chunk..=last_col / chunk);
        }
        w0 = w1;
    }
    read
}

/// Encoded bytes of the chunks `read`.
pub fn bytes_read(meta: &TileStoreMeta, read: &[usize]) -> u64 {
    read.iter().map(|&c| meta.chunk_bytes(c) as u64).sum()
}
