//! The slab driver: one loop nest behind every all-pairs and every banded
//! computation.
//!
//! `run(source, sink, control)` walks the upper triangle of the
//! statistic matrix in bounded **row slabs**. Per slab it asks the
//! [`Source`] for the counts of the slab's rows against every column at
//! or right of the slab — out to the run's column band, when it has one
//! (`Source::slab_blocks` — one SYRK block from RAM, or one GEMM block
//! per streamed store chunk) — applies the statistic's epilogue, e.g. the
//! batched `D = H − p pᵀ` / `r²` transform (`Transform::apply_span`, the
//! only body that turns counts into statistics) from the still-hot
//! scratch straight into the `Sink`, and marks the slab complete. No
//! `n × n` counts matrix exists at any point and no mirror pass runs.
//!
//! The driver owns, once each, everything that is not data movement:
//!
//! * the slab grid and the two windows on it (`Grid`): the shard's row
//!   window and the column band `w` (row `i` keeps columns `i ..= i + w`;
//!   absent = every column), all in *sites* (see the statistics table
//!   below);
//! * interruption — a deadline pre-trip, then exactly one token/deadline
//!   poll per *computed* slab, never inside the kernel loops;
//! * resume — header validation, replay of recorded slabs, and a
//!   completed-slab ledger that makes the loop skip them without polling
//!   and without touching the source;
//! * checkpointing — header, snapshot, cadence, and a sticky first
//!   failure that drains the run instead of computing unpersistable work;
//! * the epilogue — judge by completeness (not token state), flush a
//!   final snapshot for a partial run, report [`LdError::Cancelled`];
//! * the `ld-trace` counters and spans of all of the above.
//!
//! Which properties come from where is tabulated in [`crate::source`];
//! the sinks differ only in "where does row `i`'s span `[j0, j0+len)` go"
//! and "slab `k` is complete":
//!
//! | sink              | row `i`, columns `[j0, j0+len)` land in          | slab complete                   | band                         |
//! |-------------------|--------------------------------------------------|---------------------------------|------------------------------|
//! | `Sink::Packed`  | `packed[off(i) + (j0 − i) ..]` (disjoint per slab) | ledger flag → checkpoint cadence | rejected (stores every pair) |
//! | `Sink::Rows`    | the worker's `slab × strip` f64 strip            | visitor called unlocked, on the worker that computed the slab | strip = `min(n, slab + w)`   |
//!
//! The statistic is the epilogue. A [`Statistic`] reads `k` bit planes
//! per site, stored as `k` adjacent panel columns; a slab asks the source
//! for plane rows `[k·r0, k·r1)` against plane columns `[k·r0, k·cols_end)`
//! — one SYRK at every `k` — and the epilogue reads each site pair's
//! `k × k` block of it:
//!
//! | statistic             | `k` | planes of site `j`      | runs under                                       |
//! |-----------------------|-----|-------------------------|--------------------------------------------------|
//! | `Ld(r² / D / D′)`     | 1   | `s_j`                   | every source, sink, window, checkpoint and shard |
//! | `Tanimoto`            | 1   | the fingerprint         | a memory source; packed or row sink, band        |
//! | `MaskedR2`            | 2   | `s_j ∧ c_j`, `c_j`      | as `Tanimoto`                                    |
//! | `ZaykinT`             | 5   | `A`, `C`, `G`, `T`, `c_j` | as `Tanimoto`                                  |
//!
//! A store holds an LD panel and checkpoint and shard headers encode an
//! [`LdStats`], so the last three are [`LdError::InvalidConfig`] there, as
//! is a panel whose column count is not a multiple of `k`.
//!
//! The row visitor is shared by the worker team (`Fn + Sync`): what it
//! does with a slab runs in parallel, and a visitor that needs exclusion
//! or ascending rows brings its own lock — [`crate::in_row_order`] locks
//! only its ordered hand-off. The shard form is the packed sink plus
//! `Grid::record`, in [`crate::LdEngine`]. The banded consumers ([`crate::banded`],
//! [`crate::decay`], [`crate::blocks`]) are row visitors under
//! [`RunControl::with_band`] — there is no second loop.

use crate::checkpoint::{CheckpointSink, CheckpointState, SlabRecord};
use crate::control::RunControl;
use crate::error::{fault, try_zeroed_vec, LdError};
use crate::fused::{packed_row_offset, RowSlabVisit, SyncSlice};
use crate::shard::SlabRange;
use crate::source::{read_resident, Price, Source};
use crate::stats::{LdStats, NanPolicy, Statistic};
use ld_kernels::micro::Kernel;
use ld_kernels::{BlockSizes, KernelKind};
use ld_parallel::{try_parallel_for_dynamic_init_ctl, CancelToken, Deadline};
use ld_trace::recorder::{Span, SpanKind};
use ld_trace::Counter;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// Poisoned-lock-tolerant lock (the panic trap already drains the region;
/// lock state after a contained panic is still consistent for our uses).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The concrete micro-kernel name the dispatcher would run — recorded in
/// checkpoint headers so a resume on a different kernel is rejected
/// explicitly instead of silently assumed equivalent.
pub(crate) fn resolved_kernel_name(kind: KernelKind) -> Result<&'static str, LdError> {
    Kernel::resolve(kind)
        .map(|k| k.kind().name())
        .map_err(|e| LdError::Checkpoint {
            message: format!("cannot resolve the micro-kernel for the checkpoint header: {e}"),
        })
}

/// Engine parameters of one run; `slab` is already budget-adjusted.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Config {
    pub kind: KernelKind,
    pub blocks: BlockSizes,
    pub threads: usize,
    pub policy: NanPolicy,
    /// Row-slab height: bounds each worker's scratch, and the
    /// scheduler's grain — one claim is one slab.
    pub slab: usize,
    /// The run's budget model at the configured height, and a store's
    /// arm ([`crate::source::store_price`] decides): a resident store is
    /// read once into one panel and computed as the memory source.
    pub price: Price,
}

/// Where finished statistics go.
pub(crate) enum Sink<'a> {
    /// The packed upper triangle (`n(n+1)/2` values); the only sink with
    /// engine-owned state, hence the only one that checkpoints.
    Packed(&'a mut [f64]),
    /// A per-slab visitor, called by whichever worker finished the slab
    /// with no lock held; slabs are the caller's once visited.
    Rows(&'a (dyn Fn(&RowSlabVisit<'_>) + Sync)),
}

/// The sink as the worker team sees it.
enum Dest<'a> {
    Packed {
        out: SyncSlice<'a, f64>,
        ckpt: Option<Ckpt<'a>>,
    },
    Rows(&'a (dyn Fn(&RowSlabVisit<'_>) + Sync)),
}

/// The slab grid of one run and the two windows on it: slab `k` covers
/// rows `[k·slab, min((k+1)·slab, n))`; only slabs in `[lo, hi)` are
/// computed, checkpointed and counted, and row `i` keeps columns
/// `i ..= i + band`. A shard window starts on a slab boundary, so slab
/// indices (and checkpoint record geometry) stay on the global grid.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Grid {
    pub n: usize,
    pub slab: usize,
    pub n_slabs: usize,
    pub lo: usize,
    pub hi: usize,
    /// Column band, clamped to `n` (= no band: every row reaches column
    /// `n − 1`).
    pub band: usize,
}

/// Columns of the widest slab of an `n`-SNP run at height `slab` under
/// `band`: what one slab row costs in scratch, and in the budget models.
pub(crate) fn strip_width(n: usize, slab: usize, band: Option<usize>) -> usize {
    band.map_or(n, |w| n.min(slab.saturating_add(w)))
}

impl Grid {
    pub fn new(
        n: usize,
        slab: usize,
        shard: Option<SlabRange>,
        band: Option<usize>,
    ) -> Result<Self, LdError> {
        let slab = slab.max(1).min(n.max(1));
        let n_slabs = n.div_ceil(slab);
        let (lo, hi) = match shard {
            Some(r) if r.is_empty() || r.end > n_slabs => {
                return Err(LdError::InvalidConfig {
                    message: "shard slab range does not fit the run's slab grid",
                })
            }
            Some(r) => (r.start, r.end),
            None => (0, n_slabs),
        };
        Ok(Self {
            n,
            slab,
            n_slabs,
            lo,
            hi,
            band: band.map_or(n, |w| w.min(n)),
        })
    }

    fn rows(&self, k: usize) -> Range<usize> {
        k * self.slab..((k + 1) * self.slab).min(self.n)
    }

    /// One past the last column any row of `rows` keeps.
    fn cols_end(&self, rows: &Range<usize>) -> usize {
        self.n.min(rows.end + self.band)
    }

    /// Slab `k`'s range in the packed triangle (row slabs are contiguous
    /// there).
    pub fn span(&self, k: usize) -> Range<usize> {
        let rows = self.rows(k);
        packed_row_offset(self.n, rows.start)..packed_row_offset(self.n, rows.end)
    }

    /// Lifts slab `k` out of its packed values into the checkpoint /
    /// shard interchange record.
    pub fn record(&self, k: usize, values: &[f64]) -> SlabRecord {
        let rows = self.rows(k);
        SlabRecord {
            index: k as u64,
            start_row: rows.start as u64,
            end_row: rows.end as u64,
            values: values.to_vec(),
        }
    }
}

/// Sites of `src` for `stat`: its columns are `k` planes per site, so a
/// column count that is not a multiple of `k` is no panel of `stat`.
pub(crate) fn sites(src: &Source<'_>, stat: Statistic) -> Result<usize, LdError> {
    let k = stat.planes();
    if !src.n_snps().is_multiple_of(k) {
        return Err(LdError::InvalidConfig {
            message:
                "the panel's column count is not a multiple of the statistic's planes per site",
        });
    }
    Ok(src.n_snps() / k)
}

/// The [`LdStats`] of a run that reads a tile store or writes a checkpoint
/// or shard: a store is an LD panel, and their headers encode an
/// `LdStats`.
fn ld_only(stat: Statistic) -> Result<LdStats, LdError> {
    match stat {
        Statistic::Ld(stat) => Ok(stat),
        _ => Err(LdError::InvalidConfig {
            message: "tile stores, checkpoints and shards carry LD statistics only",
        }),
    }
}

/// The record-less header of every checkpoint and shard output of a run:
/// its identity (dimensions + fingerprint), statistic, and slab grid.
pub(crate) fn header(
    src: &Source<'_>,
    stat: Statistic,
    policy: NanPolicy,
    kind: KernelKind,
    grid: &Grid,
) -> Result<CheckpointState, LdError> {
    Ok(CheckpointState {
        stat: ld_only(stat)?,
        policy,
        n_snps: grid.n as u64,
        n_samples: src.n_samples() as u64,
        matrix_hash: src.fingerprint(),
        slab: grid.slab as u64,
        n_slabs: grid.n_slabs as u64,
        kernel: resolved_kernel_name(kind)?.to_owned(),
        records: Vec::new(),
    })
}

/// The completed-slab ledger. A worker stores `true` with `Release`
/// *after* its sink writes; any reader `Acquire`-loads before touching
/// the slab's bytes, establishing the happens-before that makes
/// checkpoint snapshots of concurrent runs sound.
struct Ledger(Vec<AtomicBool>);

impl Ledger {
    fn is_done(&self, k: usize) -> bool {
        self.0[k].load(Ordering::Acquire)
    }

    fn mark(&self, k: usize) {
        self.0[k].store(true, Ordering::Release);
    }

    /// Completed slabs within the grid's window.
    fn done_in(&self, g: &Grid) -> usize {
        (g.lo..g.hi).filter(|&k| self.is_done(k)).count()
    }
}

/// Checkpoint target and cadence of one packed run. The cursor mutex
/// serializes writers (the write itself is cold: at most once per
/// `every_slabs` slabs or `every_secs` seconds).
struct Ckpt<'a> {
    sink: &'a dyn CheckpointSink,
    every_slabs: usize,
    every_secs: Option<f64>,
    header: CheckpointState,
    cursor: Mutex<Cursor>,
}

struct Cursor {
    /// Slabs completed since the last successful write.
    since_last: usize,
    last_write: Instant,
    /// A write failed: sticky, so slabs still in flight do not retry.
    failed: bool,
}

impl Ckpt<'_> {
    /// Snapshots every done slab of the window into a checkpoint image
    /// and hands it to the sink.
    ///
    /// # Safety-relevant invariant
    /// Reads only packed ranges whose ledger flag was `Acquire`-observed,
    /// which happens-after the owning worker's writes (see [`Ledger`]);
    /// those ranges have no live `&mut`.
    fn snapshot(
        &self,
        ledger: &Ledger,
        out: &SyncSlice<'_, f64>,
        grid: &Grid,
    ) -> Result<(), String> {
        let mut state = self.header.clone();
        for k in (grid.lo..grid.hi).filter(|&k| ledger.is_done(k)) {
            let span = grid.span(k);
            // SAFETY: done slab ⇒ writes finished (Release/Acquire pair)
            // and no live &mut covers this range.
            let values = unsafe { out.slice_ref(span.start, span.len()) };
            state.records.push(grid.record(k, values));
        }
        let span = Span::begin(SpanKind::CheckpointFlush);
        let r = self.sink.write_checkpoint(&state.to_bytes());
        span.end(state.records.len() as u64);
        r?;
        ld_trace::add(Counter::CheckpointsWritten, 1);
        Ok(())
    }

    /// One more slab is done: write a snapshot when the cadence says so.
    fn slab_done(
        &self,
        ledger: &Ledger,
        out: &SyncSlice<'_, f64>,
        grid: &Grid,
    ) -> Result<(), LdError> {
        let mut cur = lock(&self.cursor);
        cur.since_last += 1;
        let due = cur.since_last >= self.every_slabs
            || self
                .every_secs
                .is_some_and(|s| cur.last_write.elapsed().as_secs_f64() >= s);
        if !due || cur.failed {
            return Ok(());
        }
        match self.snapshot(ledger, out, grid) {
            Ok(()) => {
                cur.since_last = 0;
                cur.last_write = Instant::now();
                Ok(())
            }
            Err(msg) => {
                cur.failed = true;
                Err(LdError::Checkpoint {
                    message: format!("checkpoint write failed mid-run: {msg}"),
                })
            }
        }
    }
}

/// Validates a resume state against this run and replays its slabs into
/// `packed`, marking them done. The store source validates against the
/// manifest's identity, so no chunk is read just to hash the input.
fn replay(
    state: &CheckpointState,
    header: &CheckpointState,
    grid: &Grid,
    packed: &mut [f64],
    ledger: &Ledger,
) -> Result<(), LdError> {
    if let Some((field, stored, current)) = state.header_mismatch(header) {
        return Err(LdError::Checkpoint {
            message: format!(
                "resume rejected: checkpoint {field} is {stored} but the current run has \
                 {current} (a checkpoint resumes only the identical computation)"
            ),
        });
    }
    for rec in &state.records {
        let k = rec.index as usize;
        if k < grid.lo || k >= grid.hi {
            return Err(LdError::Checkpoint {
                message: format!(
                    "resume rejected: checkpoint slab {k} (rows {}..{}) lies outside \
                     this shard's slab range {}..{}",
                    rec.start_row, rec.end_row, grid.lo, grid.hi
                ),
            });
        }
        packed[grid.span(k)].copy_from_slice(&rec.values);
        ledger.mark(k);
    }
    ld_trace::add(Counter::ResumeSlabsSkipped, state.records.len() as u64);
    Ok(())
}

/// Converts a cancelled loop into the typed partial-progress error.
fn cancelled_error(token: Option<&CancelToken>, completed_slabs: usize) -> LdError {
    LdError::Cancelled {
        reason: token
            .and_then(CancelToken::reason)
            .unwrap_or_else(|| "cancelled".to_owned()),
        completed_slabs,
    }
}

/// Trips `token` when `deadline` has passed — the slab-granularity
/// deadline poll (one `Instant::now()` per slab, nothing per tile).
#[inline]
fn poll_deadline(deadline: Option<Deadline>, token: Option<&CancelToken>) {
    if let (Some(d), Some(t)) = (deadline, token) {
        if d.expired() && !t.is_cancelled() {
            t.cancel_with_reason("deadline exceeded");
        }
    }
}

/// Runs the statistic `stat` of `src` into `sink` under `ctl`.
///
/// Interruption contract: the run token is polled once per computed slab
/// (plus by the scheduler before every chunk grab — zero cost inside the
/// micro-kernel loops); a trip drains the team at the next slab boundary
/// — claimed slabs always complete — and returns [`LdError::Cancelled`]
/// with the completed-slab count, after flushing a final checkpoint when
/// one is configured. A resume state is validated field-by-field, its
/// slabs are replayed into the packed sink, and only the incomplete
/// slabs are recomputed — bit-identical to an uninterrupted run because
/// slab height never affects values. A panicking worker (kernel, source
/// or visitor) surfaces as [`LdError::Worker`] after the team drains; a
/// failing source read or checkpoint write is sticky, stops further
/// slabs, and is returned after the drain.
///
/// Checkpoint plans are **rejected** for [`Sink::Rows`]: each slab is
/// the caller's once visited, so there is no engine-owned state to
/// persist — callers streaming to durable storage already have their own
/// resume point. A column band is **rejected** for [`Sink::Packed`]: the
/// triangle (and every checkpoint and shard record cut from it) stores
/// every pair. A statistic other than [`LdStats`] is **rejected** from a
/// store source and under a shard range or checkpoint plan (see the
/// statistics table above).
pub(crate) fn run(
    src: &Source<'_>,
    stat: Statistic,
    cfg: &Config,
    sink: Sink<'_>,
    ctl: &RunControl<'_>,
) -> Result<(), LdError> {
    if matches!(src, Source::Store(_)) || ctl.shard.is_some() {
        ld_only(stat)?;
    }
    if ctl.checkpoint.is_some() && matches!(sink, Sink::Rows(_)) {
        return Err(LdError::InvalidConfig {
            message:
                "checkpointing requires the packed-matrix driver (streaming slabs are not retained)",
        });
    }
    if ctl.band.is_some() && matches!(sink, Sink::Packed(_)) {
        return Err(LdError::InvalidConfig {
            message:
                "a column band requires the row-slab driver (the packed triangle stores every pair)",
        });
    }
    let planes = stat.planes();
    let n = sites(src, stat)?;
    if n == 0 {
        return Ok(());
    }
    // Up front rather than as a panic inside the first kernel call (after
    // a store source already read chunks).
    resolved_kernel_name(cfg.kind)?;
    let grid = Grid::new(n, cfg.slab, ctl.shard, ctl.band)?;
    let slab = grid.slab;
    let run_token = ctl.run_token();
    let token = run_token.as_ref();
    let deadline = ctl.deadline;
    // An already-expired deadline stops the run before any chunk is
    // handed out (workers still honor claimed chunks, so without this
    // pre-trip up to `threads` slabs could run post-deadline).
    poll_deadline(deadline, token);
    let ledger = Ledger((0..grid.n_slabs).map(|_| AtomicBool::new(false)).collect());
    let dest = match sink {
        Sink::Packed(packed) => {
            debug_assert_eq!(packed.len(), packed_row_offset(n, n));
            let ckpt = match &ctl.checkpoint {
                Some(plan) => {
                    let header = header(src, stat, cfg.policy, cfg.kind, &grid)?;
                    if let Some(state) = &plan.resume {
                        replay(state, &header, &grid, packed, &ledger)?;
                    }
                    Some(Ckpt {
                        sink: plan.sink,
                        every_slabs: plan.every_slabs,
                        every_secs: plan.every_secs,
                        header,
                        cursor: Mutex::new(Cursor {
                            since_last: 0,
                            last_write: Instant::now(),
                            failed: false,
                        }),
                    })
                }
                None => None,
            };
            let out = SyncSlice::new(packed);
            Dest::Packed { out, ckpt }
        }
        Sink::Rows(visit) => Dest::Rows(visit),
    };
    // The resident arm: a store that fits its budget is read once, here,
    // and computed as the memory source it then is (the header and replay
    // above kept the manifest's identity). Only the chunks holding columns
    // some pending slab needs are read — from the first pending slab's
    // first row to the last one's `cols_end` — so a resume or a late shard
    // window skips the head of the store, as the streamed arm does. With
    // no slab pending, or a token tripped before the last chunk, no slab
    // will be computed: the store stays the source and nothing more is
    // read. `data` is what slabs are computed from; `src` keeps pricing
    // the run.
    let resident;
    let mut pending = (grid.lo..grid.hi).filter(|&k| !ledger.is_done(k));
    let data = match (src, pending.next()) {
        (Source::Store(s), Some(first)) if cfg.price.resident => {
            let last = pending.next_back().unwrap_or(first);
            let cols = grid.rows(first).start..grid.cols_end(&grid.rows(last));
            let stop = || {
                poll_deadline(deadline, token);
                token.is_some_and(CancelToken::is_cancelled)
            };
            resident = read_resident(*s, cols, &stop)?;
            resident.as_ref().map_or(*src, Source::from)
        }
        _ => *src,
    };
    // Table construction is part of producing the statistic layer: a
    // transform span, so the profile's layer sum covers the setup.
    let span = Span::begin(SpanKind::Transform);
    let tables = RwLock::new(data.tables(stat, cfg.policy)?);
    span.end(n as u64);
    // Bounded per-worker scratch: u32 counts for the widest block the
    // source emits, plus (row sink) a `slab × strip` f64 strip — the
    // widest slab (the first) spans all n columns, or `slab + band` of
    // them.
    let workers = data.schedule(cfg).max(1);
    let packed_sink = matches!(dest, Dest::Packed { .. });
    let strip = strip_width(n, slab, ctl.band);
    let counts_len = data.counts_len(planes * slab, planes * strip);
    let values_len = if packed_sink { 0 } else { slab * strip };
    let span = Span::begin(SpanKind::Alloc);
    // One buffer pair per worker, allocated fallibly *here*, on the calling
    // thread, so an allocation failure is a clean Err before any thread is
    // spawned; workers pop theirs in their init closure. (The spine is
    // `workers` pointers but stays on the fallible path for uniformity.)
    let mut pool = Vec::new();
    pool.try_reserve_exact(workers)
        .map_err(|_| LdError::AllocationFailed {
            what: "scratch pool spine",
            bytes: workers * std::mem::size_of::<(Vec<u32>, Vec<f64>)>(),
        })?;
    for _ in 0..workers {
        pool.push((
            try_zeroed_vec::<u32>(counts_len, "slab counts scratch")?,
            try_zeroed_vec::<f64>(values_len, "slab statistic scratch")?,
        ));
    }
    let pool = Mutex::new(pool);
    span.end((workers * (counts_len * 4 + values_len * 8)) as u64);
    // Modeled transient footprint of this run — its planned price (the
    // source's model, for its arm) at the slab height in use — recorded as
    // a high-water gauge so profiles can confirm the memory claim without
    // an allocator hook.
    let Price { fixed, per_row, .. } = cfg.price;
    ld_trace::record_peak(Counter::AllocPeakBytes, (fixed + per_row * slab) as u64);
    // First failure of a source read or checkpoint write: later slabs are
    // skipped (no point computing unpersistable work) and the error is
    // surfaced after the drain.
    let failure: Mutex<Option<LdError>> = Mutex::new(None);
    let one_slab = |counts: &mut [u32], values: &mut [f64], k: usize| -> Result<(), LdError> {
        // Slab-granular interruption point: the deadline→token conversion
        // and the poll accounting. The scheduler already refused to hand
        // out this slab if the token was tripped; nothing below ever
        // checks mid-kernel. A token tripped mid-slab stops the *next*
        // claim, not this one — claimed slabs always complete.
        poll_deadline(deadline, token);
        ld_trace::add(Counter::CancelPolls, 1);
        fault::check_kernel_panic();
        let rows = grid.rows(k);
        let cols_end = grid.cols_end(&rows);
        let (r0, h, width) = (rows.start, rows.len(), cols_end - rows.start);
        // the source's request in panel columns: plane rows [k·r0, k·r1)
        // against plane columns [k·r0, k·cols_end)
        let (rows, cols_end) = (planes * r0..planes * rows.end, planes * cols_end);
        data.slab_blocks(rows, cols_end, cfg, counts, &tables, &mut |tr, blk| {
            let span = Span::begin(SpanKind::Transform);
            for r in 0..h {
                let i = r0 + r;
                // row i's span of this block, clipped to its band (a block
                // starts and ends on a site boundary)
                let j0 = (blk.cols.start / planes).max(i);
                let j1 = (blk.cols.end / planes).min(i + grid.band + 1);
                if j0 >= j1 {
                    continue;
                }
                let len = j1 - j0;
                // site i's k plane rows from plane column k·j0 (at k = 1,
                // row r's `len` counts)
                let at = planes * (r * blk.ld + j0) - blk.cols.start;
                let from = &blk.counts[at..][..(planes - 1) * blk.ld + planes * len];
                let to = match &dest {
                    // SAFETY: slabs own disjoint packed ranges, and each
                    // slab is claimed by exactly one worker (see SyncSlice).
                    Dest::Packed { out, .. } => unsafe {
                        out.slice(packed_row_offset(n, i) + (j0 - i), len)
                    },
                    Dest::Rows(_) => &mut values[r * width + (j0 - r0)..][..len],
                };
                tr.apply_span(i, j0, from, blk.ld, to);
            }
            span.end(k as u64);
        })?;
        ld_trace::add(Counter::SlabsEmitted, 1);
        ld_trace::recorder::instant(SpanKind::SlabEmit, k as u64);
        if let Dest::Rows(visit) = &dest {
            visit(&RowSlabVisit {
                row_start: r0,
                n_rows: h,
                n_snps: n,
                band: grid.band,
                ldv: width,
                values: &values[..h * width],
            });
        }
        // Release *after* the sink writes above: the flag is the
        // publication point for checkpoint readers.
        ledger.mark(k);
        match &dest {
            Dest::Packed { out, ckpt: Some(c) } => c.slab_done(&ledger, out, &grid),
            _ => Ok(()),
        }
    };
    try_parallel_for_dynamic_init_ctl(
        workers,
        // The scheduler iterates the shard's row window; its start is a
        // slab multiple, so offsetting keeps chunks slab-aligned.
        (grid.hi * slab).min(n) - grid.lo * slab,
        // One claim is one slab: chunk `c` is slab `grid.lo + c`.
        slab,
        token,
        // The scheduler runs each worker's init once and spawns at most
        // `workers` of them, so the pool never runs dry; the default only
        // keeps the pop panic-free by construction.
        |_tid| lock(&pool).pop().unwrap_or_default(),
        |(counts, values), rows| {
            // Slabs replayed from a checkpoint are skipped without polling
            // and without touching the source.
            let k = grid.lo + rows.start / slab;
            if ledger.is_done(k) || lock(&failure).is_some() {
                return;
            }
            if let Err(e) = one_slab(counts, values, k) {
                lock(&failure).get_or_insert(e);
            }
        },
    )?;
    if let Some(e) = lock(&failure).take() {
        return Err(e);
    }
    // Judge by completeness, not token state — a token that trips after
    // the last slab finished changes nothing.
    let completed = ledger.done_in(&grid);
    if completed == grid.hi - grid.lo {
        return Ok(());
    }
    // Final flush: make the partial run resumable before reporting it.
    if let Dest::Packed { out, ckpt: Some(c) } = &dest {
        c.snapshot(&ledger, out, &grid)
            .map_err(|msg| LdError::Checkpoint {
                message: format!("final checkpoint flush failed: {msg}"),
            })?;
    }
    Err(cancelled_error(token, completed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_bitmat::BitMatrix;

    fn pseudo(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
        let mut g = BitMatrix::zeros(n_samples, n_snps);
        let mut s = seed | 1;
        for j in 0..n_snps {
            for smp in 0..n_samples {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s.is_multiple_of(3) {
                    g.set(smp, j, true);
                }
            }
        }
        g
    }

    fn cfg(threads: usize, slab: usize) -> Config {
        Config {
            kind: KernelKind::Auto,
            blocks: BlockSizes::default(),
            threads,
            policy: NanPolicy::Zero,
            slab,
            price: Price {
                fixed: 0,
                per_row: 0,
                resident: false,
            },
        }
    }

    #[test]
    fn packed_sink_matches_per_pair_reference() {
        let g = pseudo(90, 17, 3);
        let v = g.full_view();
        let n = 17usize;
        for stat in [LdStats::RSquared, LdStats::D, LdStats::DPrime] {
            for (threads, slab) in [(1usize, 4usize), (3, 5), (2, 17), (4, 1)] {
                let mut packed = vec![0.0f64; n * (n + 1) / 2];
                let sink = Sink::Packed(&mut packed);
                run(
                    &v.into(),
                    stat.into(),
                    &cfg(threads, slab),
                    sink,
                    &RunControl::new(),
                )
                .unwrap();
                for i in 0..n {
                    for j in i..n {
                        let c_ij = ld_popcount::and_popcount(v.snp_words(i), v.snp_words(j));
                        let want = crate::stats::ld_pair_from_counts(
                            v.ones_in_snp(i),
                            v.ones_in_snp(j),
                            c_ij,
                            90,
                            NanPolicy::Zero,
                        );
                        let want = match stat {
                            LdStats::RSquared => want.r2,
                            LdStats::D => want.d,
                            LdStats::DPrime => want.d_prime,
                        };
                        let got = packed[packed_row_offset(n, i) + (j - i)];
                        assert!(
                            (got - want).abs() < 1e-10,
                            "{stat:?} t{threads} s{slab} ({i},{j}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_sink_covers_every_pair_once_from_both_sources() {
        let g = pseudo(60, 13, 7);
        let store = crate::MemoryTileStore::from_matrix(&g, 4).unwrap();
        let n = 13usize;
        for src in [Source::from(&g), Source::Store(&store)] {
            for (threads, slab) in [(1usize, 3usize), (2, 4), (7, 1), (2, 100)] {
                let seen = Mutex::new(vec![0u32; n * (n + 1) / 2]);
                let visit = |s: &RowSlabVisit<'_>| {
                    for (i, row) in s.rows() {
                        assert_eq!(row.len(), n - i);
                        for t in 0..row.len() {
                            lock(&seen)[packed_row_offset(n, i) + t] += 1;
                        }
                    }
                };
                let sink = Sink::Rows(&visit);
                run(
                    &src,
                    LdStats::RSquared.into(),
                    &cfg(threads, slab),
                    sink,
                    &RunControl::new(),
                )
                .unwrap();
                assert!(lock(&seen).iter().all(|&c| c == 1), "t{threads} s{slab}");
            }
        }
    }
}
