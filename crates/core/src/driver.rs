//! The slab driver: one loop nest behind every all-pairs and every banded
//! computation.
//!
//! `run(source, sink, control)` walks the upper triangle of the
//! statistic matrix in bounded **row slabs**. Per slab it asks a window
//! pass (`Pass`) for the counts of the slab's rows against every column
//! at or right of the slab — out to the run's column band, when it has
//! one: one SYRK block from RAM; from a store, one SYRK block in the
//! window holding the slab's rows and one GEMM block per column window
//! right of it — applies the statistic's epilogue, e.g. the
//! batched `D = H − p pᵀ` / `r²` transform (`Transform::apply_span`, the
//! only body that turns counts into statistics) from the still-hot
//! scratch straight into the `Sink`, and marks the slab complete. No
//! `n × n` counts matrix exists at any point and no mirror pass runs.
//!
//! The driver owns, once each, everything that is not data movement:
//!
//! * the slab grid and the two windows on it (`Grid`): the shard's row
//!   window and how far each row reaches (`Reach`): row `i` keeps columns
//!   `i .. e(i)` for a non-decreasing `e` — every column (`e(i) = n`), the
//!   column band `w` (`e(i) = i + w + 1`), or the staircase of a
//!   thresholded `r²` run (`e` from allele frequencies, see
//!   [`crate::staircase`]) — all in *sites* (see the statistics table
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
//! | sink              | row `i`, columns `[j0, j0+len)` land in          | slab complete                   | reach                        |
//! |-------------------|--------------------------------------------------|---------------------------------|------------------------------|
//! | `Sink::Packed`  | `packed[off(i) + (j0 − i) ..]` (disjoint per slab) | ledger flag → checkpoint cadence | every column (stores every pair) |
//! | `Sink::Rows`    | the worker's `slab × strip` f64 strip            | visitor called unlocked, on the worker that computed the slab | every column, or a band: strip = `min(n, slab + w)` |
//! | `Sink::Pairs`   | one f64 row, then one bit per pair in the run's bitset, set for the pairs that pass, diagonal skipped | ledger flag; after the grid the hand-off recounts the kept pairs on the run's tables and hands them over in row order ([`crate::staircase`]) | the staircase: strip = the widest slab's `e(r1 − 1) − r0` |
//!
//! The pair sink runs a panel permuted into sorted order, so its rows and
//! columns are sorted positions; each pair is transformed at its original
//! indices `(min, max)` — the tables are a pure function of a site's
//! count, so sorted tables at sorted positions are the original tables at
//! original indices — which keeps its values bit-identical to the same
//! pairs of the other sinks.
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
//! [`RunControl::with_band`], and a thresholded `r²` run of
//! [`crate::LdEngine::try_rows_in_order_with`] is the pair sink on its
//! staircase when that pays — there is no second loop.

use crate::checkpoint::{CheckpointSink, CheckpointState, SlabRecord};
use crate::control::RunControl;
use crate::error::{fault, try_zeroed_vec, LdError};
use crate::fused::{packed_row_offset, RowSlabVisit, SyncSlice, Transform};
use crate::shard::SlabRange;
use crate::source::{read_window, Pass, Price, Source, Windows};
use crate::staircase::R2Staircase;
use crate::stats::{LdStats, NanPolicy, Statistic};
use ld_kernels::micro::Kernel;
use ld_kernels::{BlockSizes, KernelKind};
use ld_parallel::{try_parallel_for_dynamic_init_ctl, CancelToken, Deadline};
use ld_trace::recorder::{Span, SpanKind};
use ld_trace::Counter;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One worker's buffers: the source's counts, the row sink's values (the
/// pair sink's one row).
#[derive(Default)]
struct Scratch {
    counts: Vec<u32>,
    values: Vec<f64>,
}

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
    /// The run's budget model; a store's carries its windows
    /// ([`crate::source::store_windows`] sizes them).
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
    /// The pairs of a staircase run that pass, one bit each; once every
    /// slab is done the hand-off gets the run's tables, on the calling
    /// thread.
    Pairs(&'a PairSink<'a>, &'a mut HandOff<'a>),
}

/// What a staircase run does with its tables after the grid: recount and
/// hand over the pairs its bits mark.
pub(crate) type HandOff<'a> = dyn FnMut(&Transform) -> Result<(), LdError> + 'a;

/// A staircase run's sink: the source is the panel in sorted order, the
/// plan maps its sites back and says how far each sorted row reaches, and
/// `bits` receives a bit for each pair that passes the plan's threshold.
pub(crate) struct PairSink<'a> {
    pub plan: &'a R2Staircase,
    pub bits: &'a [AtomicU64],
}

impl PairSink<'_> {
    /// Sorted row `i` against sorted columns `cols`, whose counts are
    /// `counts`: each pair's `r²` at its original `(min, max)` order into
    /// `row` (one row of scratch), then a bit for each pair that passes.
    fn keep(&self, tr: &Transform, i: usize, cols: Range<usize>, counts: &[u32], row: &mut [f64]) {
        let (order, row) = (&self.plan.order, &mut row[..cols.len()]);
        tr.r2_span_ordered(i, order[i], cols.start, &order[cols.clone()], counts, row);
        self.plan.keep(self.bits, i, cols.start, row);
    }
}

/// The sink as the worker team sees it.
enum Dest<'a> {
    Packed {
        out: SyncSlice<'a, f64>,
        ckpt: Option<Ckpt<'a>>,
    },
    Rows(&'a (dyn Fn(&RowSlabVisit<'_>) + Sync)),
    Pairs(&'a PairSink<'a>),
}

/// How far the rows of a run reach: row `i` keeps columns `i .. e(i)`,
/// `e` non-decreasing and `> i`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Reach<'a> {
    /// `e(i) = min(n, i + w + 1)`: the column band `w`, clamped to `n`
    /// (`w = n`: every column).
    Band(usize),
    /// `e(i) = ends[i]`: the staircase of a thresholded `r²` run.
    Stair(&'a [usize]),
}

impl Reach<'_> {
    /// The reach of an `n`-site run under an optional column band.
    pub fn band(n: usize, band: Option<usize>) -> Self {
        Self::Band(band.map_or(n, |w| w.min(n)))
    }

    /// One past the last column row `i` of an `n`-site run keeps.
    pub fn end(&self, n: usize, i: usize) -> usize {
        match *self {
            Self::Band(w) => n.min(i + w + 1),
            Self::Stair(ends) => ends[i],
        }
    }

    /// Columns of the widest slab of height `slab` on an `n`-site run:
    /// what one slab row costs in scratch, and in the budget models. The
    /// staircase takes the widest at any start row, not only on the grid,
    /// so a budget-shrunk run stays inside the strip it was priced at.
    pub fn strip(&self, n: usize, slab: usize) -> usize {
        match *self {
            Self::Band(w) => n.min(slab.saturating_add(w)),
            Self::Stair(ends) => (0..n)
                .map(|r0| ends[(r0 + slab.max(1)).min(n) - 1] - r0)
                .max()
                .unwrap_or(0),
        }
    }
}

/// The slab grid of one run and the two windows on it: slab `k` covers
/// rows `[k·slab, min((k+1)·slab, n))`; only slabs in `[lo, hi)` are
/// computed, checkpointed and counted, and row `i` keeps columns
/// `i .. e(i)` of its [`Reach`]. A shard window starts on a slab
/// boundary, so slab indices (and checkpoint record geometry) stay on the
/// global grid.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Grid<'a> {
    pub n: usize,
    pub slab: usize,
    pub n_slabs: usize,
    pub lo: usize,
    pub hi: usize,
    pub reach: Reach<'a>,
}

impl<'a> Grid<'a> {
    pub fn new(
        n: usize,
        slab: usize,
        shard: Option<SlabRange>,
        reach: Reach<'a>,
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
            reach,
        })
    }

    fn rows(&self, k: usize) -> Range<usize> {
        k * self.slab..((k + 1) * self.slab).min(self.n)
    }

    /// One past the last column row `i` keeps.
    fn end(&self, i: usize) -> usize {
        self.reach.end(self.n, i)
    }

    /// One past the last column any row of `rows` keeps: the last row's,
    /// the reach being non-decreasing.
    fn cols_end(&self, rows: &Range<usize>) -> usize {
        self.end(rows.end - 1)
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
pub(crate) fn cancelled_error(token: Option<&CancelToken>, completed_slabs: usize) -> LdError {
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
pub(crate) fn poll_deadline(deadline: Option<Deadline>, token: Option<&CancelToken>) {
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
/// Checkpoint plans are **rejected** for [`Sink::Rows`] and
/// [`Sink::Pairs`]: each slab is the caller's once visited, so there is
/// no engine-owned state to persist — callers streaming to durable
/// storage already have their own resume point. A column band is
/// **rejected** for [`Sink::Packed`]: the triangle (and every checkpoint
/// and shard record cut from it) stores every pair. A statistic other
/// than [`LdStats`] is **rejected** from a store source and under a shard
/// range or checkpoint plan (see the statistics table above). The pair
/// sink runs `r²` from a memory source over its own staircase, so a
/// store, another statistic, a band or a shard range is **rejected**
/// there.
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
    if ctl.checkpoint.is_some() && !matches!(sink, Sink::Packed(_)) {
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
    let stair_ok = |p: &PairSink<'_>| {
        matches!(src, Source::Memory(_))
            && stat == Statistic::Ld(LdStats::RSquared)
            && ctl.band.is_none()
            && ctl.shard.is_none()
            && p.plan.ends.len() == src.n_snps()
    };
    if matches!(sink, Sink::Pairs(p, _) if !stair_ok(p)) {
        return Err(LdError::InvalidConfig {
            message: "the pair sink runs r² from a memory source over its own staircase \
                      (no store, other statistic, band or shard range)",
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
    let reach = match &sink {
        Sink::Pairs(p, _) => Reach::Stair(&p.plan.ends),
        _ => Reach::band(n, ctl.band),
    };
    let grid = Grid::new(n, cfg.slab, ctl.shard, reach)?;
    let run_token = ctl.run_token();
    let token = run_token.as_ref();
    let deadline = ctl.deadline;
    // An already-expired deadline stops the run before any chunk is
    // handed out (workers still honor claimed chunks, so without this
    // pre-trip up to `threads` slabs could run post-deadline).
    poll_deadline(deadline, token);
    let ledger = Ledger((0..grid.n_slabs).map(|_| AtomicBool::new(false)).collect());
    let mut hand_off = None;
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
        Sink::Pairs(pairs, hand) => {
            hand_off = Some(hand);
            Dest::Pairs(pairs)
        }
    };
    // Table construction is part of producing the statistic layer: a
    // transform span, so the profile's layer sum covers the setup.
    let span = Span::begin(SpanKind::Transform);
    let mut tr = src.tables(stat, cfg.policy)?;
    span.end(n as u64);
    // A store run's windows (a memory run is one pass over its view, the
    // one-window case), and with them the widest block a worker meets and
    // how many slabs of a row window hold their row-sink values across
    // passes (0: none do).
    let (slab, strip) = (grid.slab, grid.reach.strip(n, grid.slab));
    let (width, held_rows) = match (*src, cfg.price) {
        (Source::Store(s), Price::Windows(w)) if w.rows != Windows::ONE => {
            (w.width(s.meta(), strip), w.rows.min(grid.hi - grid.lo))
        }
        (Source::Store(s), Price::Windows(w)) => (w.width(s.meta(), strip), 0),
        _ => (strip, 0),
    };
    // Per worker: u32 counts of the widest block a pass hands it, plus (row
    // sink) a `slab × strip` f64 strip — the widest slab spans all n
    // columns, `slab + band` of them, or the staircase's widest step —
    // unless a windowed store run holds each row-window slab's strip
    // instead. The pair sink has one f64 row.
    let counts_len = planes * slab * planes * width;
    let (values_len, held_len) = match dest {
        Dest::Rows(_) if held_rows > 0 => (0, held_rows),
        Dest::Rows(_) => (slab * strip, 0),
        // one row, transformed before it is filtered
        Dest::Pairs(_) => (strip, 0),
        Dest::Packed { .. } => (0, 0),
    };
    let span = Span::begin(SpanKind::Alloc);
    // Every buffer is allocated fallibly *here*, on the calling thread, so
    // an allocation failure is a clean Err before any thread is spawned;
    // worker `tid` locks scratch `tid` for each team it joins. (The spine
    // is `threads` entries but stays on the fallible path for uniformity.)
    let workers = cfg.threads.max(1);
    let mut pool = Vec::new();
    pool.try_reserve_exact(workers)
        .map_err(|_| LdError::AllocationFailed {
            what: "scratch pool spine",
            bytes: workers * std::mem::size_of::<Mutex<Scratch>>(),
        })?;
    for _ in 0..workers {
        pool.push(Mutex::new(Scratch {
            counts: try_zeroed_vec::<u32>(counts_len, "slab counts scratch")?,
            values: try_zeroed_vec::<f64>(values_len, "slab statistic scratch")?,
        }));
    }
    // The row-sink values of a row window's slab `k`, held at
    // `(k − lo) mod held_len` from its first column window to its last;
    // which are complete, and the row window's slabs still to visit.
    let strip_values = || try_zeroed_vec::<f64>(slab * strip, "held slab values").map(Mutex::new);
    let held = (0..held_len)
        .map(|_| strip_values())
        .collect::<Result<Vec<_>, _>>()?;
    let ready: Vec<AtomicBool> = (0..held_len).map(|_| AtomicBool::new(false)).collect();
    let next = Mutex::new(0..0);
    span.end((workers * (counts_len * 4 + values_len * 8) + held_len * slab * strip * 8) as u64);
    // Modeled transient footprint of this run — its planned price (the
    // source's model) at the slab height in use — recorded as a high-water
    // gauge so profiles can confirm the memory claim without an allocator
    // hook.
    let modeled = match cfg.price {
        Price::Linear { fixed, per_row } => fixed.saturating_add(per_row.saturating_mul(slab)),
        Price::Windows(w) => w.bytes,
    };
    ld_trace::record_peak(Counter::AllocPeakBytes, modeled as u64);
    // First failure of a source read or checkpoint write: later slabs are
    // skipped (no point computing unpersistable work) and the error is
    // surfaced after the drain.
    let failure: Mutex<Option<LdError>> = Mutex::new(None);
    let halted = || token.is_some_and(CancelToken::is_cancelled) || lock(&failure).is_some();
    let visit = |visit: &(dyn Fn(&RowSlabVisit<'_>) + Sync), k: usize, values: &[f64]| {
        let rows = grid.rows(k);
        let width = grid.cols_end(&rows) - rows.start;
        visit(&RowSlabVisit {
            row_start: rows.start,
            n_rows: rows.len(),
            n_snps: n,
            band: match grid.reach {
                Reach::Band(w) => w,
                Reach::Stair(_) => unreachable!("a staircase runs the pair sink"),
            },
            ldv: width,
            values: &values[..rows.len() * width],
        });
    };
    // Hands the row window's completed held slabs to the visitor in
    // ascending order: the worker that completes the next one visits it
    // and every completed one after it, so a windowed store run delivers
    // its slabs in row order. A held slab is the caller's — and done in
    // the ledger — once visited. The strip's mutex publishes its values;
    // the flag's Release store (after the strip is unlocked) pairs with
    // this Acquire swap only to say the slab is complete.
    let visit_held = |to: &(dyn Fn(&RowSlabVisit<'_>) + Sync)| {
        let mut next = lock(&next);
        while next.start < next.end {
            let slot = (next.start - grid.lo) % held_len;
            if !ready[slot].swap(false, Ordering::AcqRel) {
                break;
            }
            visit(to, next.start, &lock(&held[slot]));
            ledger.mark(next.start);
            next.start += 1;
        }
    };
    // Slab `k` against `pass`'s columns; the pass that holds its last
    // column completes it.
    let one_slab = |scratch: &mut Scratch, tr: &Transform, pass: &Pass<'_>, k: usize| {
        let rows = grid.rows(k);
        let cols_end = grid.cols_end(&rows);
        let (r0, h, width) = (rows.start, rows.len(), cols_end - rows.start);
        let complete = pass.end() >= planes * cols_end;
        if complete {
            // Slab-granular interruption point: the deadline→token
            // conversion and the poll accounting, once per computed slab.
            // The scheduler already refused to hand out this slab if the
            // token was tripped; nothing below ever checks mid-kernel. A
            // token tripped mid-slab stops the *next* claim, not this one
            // — claimed slabs always complete.
            poll_deadline(deadline, token);
            ld_trace::add(Counter::CancelPolls, 1);
        }
        fault::check_kernel_panic();
        let slot = held.get((k - grid.lo) % held_len.max(1));
        let mut strip = slot.map(lock);
        let values = match &mut strip {
            Some(held) => &mut held[..],
            None => &mut scratch.values[..],
        };
        // the pass's request in panel columns: plane rows [k·r0, k·r1)
        // against plane columns up to k·cols_end
        let rows_in_panel = planes * r0..planes * rows.end;
        let blk = pass.block(rows_in_panel, planes * cols_end, cfg, &mut scratch.counts);
        let span = Span::begin(SpanKind::Transform);
        // values transformed by this block: one counter add per block
        let mut transformed = 0;
        for r in 0..h {
            let i = r0 + r;
            // row i's span of this block, clipped to its reach (a block
            // starts and ends on a site boundary)
            let j0 = (blk.cols.start / planes).max(i);
            let j1 = (blk.cols.end / planes).min(grid.end(i));
            if let Dest::Pairs(p) = &dest {
                // the diagonal is no pair
                let j0 = j0.max(i + 1);
                if j0 < j1 {
                    let from = &blk.counts[r * blk.ld + (j0 - blk.cols.start)..][..j1 - j0];
                    p.keep(tr, i, j0..j1, from, values);
                    transformed += j1 - j0;
                }
                continue;
            }
            if j0 >= j1 {
                continue;
            }
            let len = j1 - j0;
            transformed += len;
            // site i's k plane rows from plane column k·j0 (at k = 1,
            // row r's `len` counts)
            let at = planes * (r * blk.ld + j0) - blk.cols.start;
            let from = &blk.counts[at..][..(planes - 1) * blk.ld + planes * len];
            let to = match &dest {
                // SAFETY: slabs own disjoint packed ranges, and within a
                // pass each slab is claimed by exactly one worker; passes
                // are joined one after another (see SyncSlice).
                Dest::Packed { out, .. } => unsafe {
                    out.slice(packed_row_offset(n, i) + (j0 - i), len)
                },
                Dest::Rows(_) => &mut values[r * width + (j0 - r0)..][..len],
                Dest::Pairs(_) => unreachable!("the pair sink transforms above"),
            };
            tr.apply_span(i, j0, from, blk.ld, to);
        }
        span.end(k as u64);
        ld_trace::add(Counter::PairsTransformed, transformed as u64);
        if !complete {
            return Ok(());
        }
        ld_trace::add(Counter::SlabsEmitted, 1);
        ld_trace::recorder::instant(SpanKind::SlabEmit, k as u64);
        match (&dest, slot) {
            // held: handed over in row order, this slab's strip released
            // first
            (Dest::Rows(to), Some(_)) => {
                drop(strip);
                ready[(k - grid.lo) % held_len].store(true, Ordering::Release);
                visit_held(*to);
                return Ok(());
            }
            (Dest::Rows(to), None) => visit(*to, k, values),
            (Dest::Pairs(_) | Dest::Packed { .. }, _) => {}
        }
        // Release *after* the sink writes above: the flag is the
        // publication point for checkpoint readers.
        ledger.mark(k);
        match &dest {
            Dest::Packed { out, ckpt: Some(c) } => c.slab_done(&ledger, out, &grid),
            _ => Ok(()),
        }
    };
    // One team over slabs `ks` against `pass`'s columns: one claim is one
    // slab, and slabs already done (replayed from a checkpoint) are skipped
    // without polling and without touching the source.
    let team = |tr: &Transform, pass: &Pass<'_>, ks: Range<usize>| {
        try_parallel_for_dynamic_init_ctl(
            workers,
            // a shard's row window starts on a slab multiple, so offsetting
            // keeps chunks slab-aligned: chunk `c` is slab `ks.start + c`
            (ks.end * slab).min(n) - ks.start * slab,
            slab,
            token,
            // the scheduler spawns at most `threads` workers
            |tid| lock(&pool[tid]),
            |scratch, claim| {
                let k = ks.start + claim.start / slab;
                if ledger.is_done(k) || lock(&failure).is_some() {
                    return;
                }
                if let Err(e) = one_slab(scratch, tr, pass, k) {
                    lock(&failure).get_or_insert(e);
                }
            },
        )
    };
    match (*src, cfg.price) {
        // A store run's window loop. Row windows are the grid's slabs
        // `rows` at a time from the shard's first; one with a pending slab
        // reads its chunks from its first pending row's to the one holding
        // its last pending slab's `cols_end`, each once: the first column
        // window — at least the row window's rows, and `cols` chunks when
        // that is more — runs one SYRK pass, each later window of `cols`
        // chunks one GEMM pass for the slabs that reach it (a suffix: the
        // reach is non-decreasing). A stop during a read, a tripped token
        // or a sticky failure ends the loop; nothing is computed from a
        // partial window.
        (Source::Store(s), Price::Windows(w)) => {
            let stop = || {
                poll_deadline(deadline, token);
                token.is_some_and(CancelToken::is_cancelled)
            };
            let c = s.meta().chunk_snps;
            let ends = |k: usize| grid.cols_end(&grid.rows(k));
            let mut k0 = grid.lo;
            while k0 < grid.hi && !halted() {
                let window = k0..k0.saturating_add(w.rows).min(grid.hi);
                k0 = window.end;
                let mut pending = window.filter(|&k| !ledger.is_done(k));
                let Some(first) = pending.next() else {
                    continue;
                };
                let last = pending.next_back().unwrap_or(first);
                let (r0, r1) = (grid.rows(first).start, grid.rows(last).end);
                let (c0, c1) = (r0 / c, (ends(last) - 1) / c + 1);
                let mut at = ((r1 - 1) / c + 1).max(c0.saturating_add(w.cols)).min(c1);
                let Some(a_panel) = read_window(s, c0..at, &mut tr, &stop)? else {
                    break;
                };
                let a = (a_panel.full_view(), c0 * c);
                *lock(&next) = first..last + 1;
                team(&tr, &Pass { a, b: a }, first..last + 1)?;
                while at < c1 && !halted() {
                    let chunks = at..at.saturating_add(w.cols).min(c1);
                    at = chunks.end;
                    let Some(b_panel) = read_window(s, chunks.clone(), &mut tr, &stop)? else {
                        break;
                    };
                    let b = (b_panel.full_view(), chunks.start * c);
                    let from = (first..=last).find(|&k| ends(k) > b.1);
                    team(&tr, &Pass { a, b }, from.unwrap_or(last + 1)..last + 1)?;
                }
            }
        }
        (Source::Store(_), Price::Linear { .. }) => {
            unreachable!("a store run is priced by its windows")
        }
        // a panel in memory is one pass over its view
        (Source::Memory(v), _) => {
            team(&tr, &Pass::whole(v), grid.lo..grid.hi)?;
        }
    }
    if let Some(e) = lock(&failure).take() {
        return Err(e);
    }
    // Judge by completeness, not token state — a token that trips after
    // the last slab finished changes nothing.
    let completed = ledger.done_in(&grid);
    if completed == grid.hi - grid.lo {
        let Some(hand) = hand_off else {
            return Ok(());
        };
        // recounting the kept pairs is statistic-layer work, on the tables
        // the grid used; the workers' scratch is freed first
        drop(pool);
        let span = Span::begin(SpanKind::Transform);
        let handed = hand(&tr);
        span.end(n as u64);
        return handed;
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

    /// An unbudgeted run of `src` at `slab` rows, priced by its source.
    fn cfg(src: &Source<'_>, threads: usize, slab: usize) -> Config {
        let n = src.n_snps();
        Config {
            kind: KernelKind::Auto,
            blocks: BlockSizes::default(),
            threads,
            policy: NanPolicy::Zero,
            slab,
            price: src.price(threads, false, n, 1, None, slab.min(n)).unwrap(),
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
                    &cfg(&v.into(), threads, slab),
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
                    &cfg(&src, threads, slab),
                    sink,
                    &RunControl::new(),
                )
                .unwrap();
                assert!(lock(&seen).iter().all(|&c| c == 1), "t{threads} s{slab}");
            }
        }
    }
}
