//! The [`LdEngine`]: configuration, budgeting, and the entry points —
//! each all-pairs form is "validate, build a `(source, sink)`, call
//! [`crate::driver`]'s `run`".

use crate::checkpoint::CheckpointState;
use crate::control::RunControl;
use crate::driver::{self, lock, Config, Grid, PairSink, Reach, Sink};
use crate::error::{checked_add, checked_mul, fault, try_zeroed_vec, LdError, MemoryBudget};
use crate::fused::{in_row_order, RowSlabVisit, Rows, Transform, PART_ROWS};
use crate::matrix::{CrossLdMatrix, LdMatrix};
use crate::shard::{plan_shards, SlabRange};
use crate::source::{
    bytes, cross_footprint, read_panel, rows_within, store_windows, worker_blocks, Input, Price,
    Source, Windows,
};
use crate::staircase::{R2Staircase, CROSSOVER};
use crate::stats::{ld_pair_from_counts, LdPair, LdStats, NanPolicy, Statistic};
use crate::tilestore::{TileSource, TileStoreMeta};
use ld_bitmat::{BitMatrix, BitMatrixView};
use ld_kernels::{gemm_counts_buf, syrk_counts_buf, BlockSizes, KernelKind};
use ld_parallel::{available_threads, try_for_each_part};
use ld_popcount::and_popcount;
use ld_trace::recorder::{Span, SpanKind};
use std::sync::Mutex;

/// Configured entry point for all matrix-level LD computations.
///
/// ```
/// use ld_bitmat::BitMatrix;
/// use ld_core::{LdEngine, LdStats};
///
/// let g = BitMatrix::from_rows(4, 2, [[1u8, 1], [1, 1], [0, 0], [0, 0]]).unwrap();
/// let r2 = LdEngine::new().try_stat_matrix(&g, LdStats::RSquared)?;
/// assert!((r2.get(0, 1) - 1.0).abs() < 1e-12); // identical SNPs: perfect LD
/// # Ok::<(), ld_core::LdError>(())
/// ```
///
/// # Memory model
///
/// The all-pairs entry points ([`LdEngine::try_stat_matrix`] and friends)
/// all run the one slab driver ([`crate::driver`]): workers walk the upper
/// triangle in bounded row slabs, so transient memory is
/// `O(threads × slab × n)` u32 (see [`LdEngine::slab_rows`]) on top of the
/// `n(n+1)/2 × f64` packed result — never the `n × n` u32 counts matrix of
/// the classical two-pass formulation. When even the packed triangle is too
/// large, stream row slabs with [`LdEngine::try_stat_rows_with`] instead —
/// and when only pairs within a window matter, give the row stream a
/// column band
/// ([`RunControl::with_band`]); when the genotype matrix itself is
/// too large, run the same entry points from a tile store
/// ([`Source::Store`]): the memory arm over windows of the store sized to
/// the configured [`MemoryBudget`] — a row window of slabs and column
/// windows of whole chunks, each read once per row window — so its working
/// set is the windows, per-worker counts as wide as a window and (row
/// visitor) the row window's values, whatever the panel's size. A store
/// whose whole packed panel fits the budget is one window, read once (see
/// [`crate::source`]); with no budget the windows are the smallest,
/// `threads` slabs by one chunk.
///
/// A thresholded `r²` run of [`LdEngine::try_rows_in_order_with`] that
/// takes the staircase holds the transform tables, its plan and one bit
/// per pair it computes — known before any pair is, whatever passes — plus
/// one f64 row and a slab of u32 counts per worker; the panel is the one
/// the run was handed, sorted in place. From a store the budget holds
/// whole it is the panel read once, charged with one chunk load on top.
#[derive(Clone, Debug)]
pub struct LdEngine {
    pub(crate) kind: KernelKind,
    pub(crate) blocks: BlockSizes,
    pub(crate) threads: usize,
    pub(crate) policy: NanPolicy,
    pub(crate) slab: usize,
    pub(crate) budget: MemoryBudget,
}

impl Default for LdEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Default row-slab height of the slab driver: tall enough to amortize
/// the SYRK rank-k setup per slab, small enough that per-worker scratch
/// (`slab × n × 4` bytes) stays cache-friendly for typical panel sizes.
pub(crate) const DEFAULT_SLAB_ROWS: usize = 64;

impl LdEngine {
    /// An engine with automatic kernel selection, default blocking, all
    /// available hardware threads and NaN propagation for monomorphic SNPs.
    pub fn new() -> Self {
        Self {
            kind: KernelKind::Auto,
            blocks: BlockSizes::default(),
            threads: available_threads(),
            policy: NanPolicy::default(),
            slab: DEFAULT_SLAB_ROWS,
            budget: MemoryBudget::unlimited(),
        }
    }

    /// Selects the micro-kernel.
    pub fn kernel(mut self, kind: KernelKind) -> Self {
        self.kind = kind;
        self
    }

    /// Overrides the cache-blocking parameters.
    pub fn blocks(mut self, blocks: BlockSizes) -> Self {
        self.blocks = blocks;
        self
    }

    /// Sets the worker-thread count (clamped to ≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the monomorphic-SNP reporting policy.
    pub fn nan_policy(mut self, policy: NanPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps the transient memory of a run (see [`MemoryBudget`]), priced
    /// by the run's source ([`LdEngine::slab_for`]). Every entry point
    /// shrinks the slab height to fit the cap before failing with
    /// [`LdError::BudgetExceeded`]; results are bit-exact regardless of
    /// slab height. The budget also sizes a store's windows: one that
    /// holds the whole packed panel is read once (see [`crate::source`]).
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured memory budget.
    pub fn budget(&self) -> MemoryBudget {
        self.budget
    }

    /// Sets the row-slab height of the slab driver (clamped to ≥ 1).
    ///
    /// From an in-memory matrix each worker owns one scratch buffer of
    /// `slab × n_snps` u32 (plus the same in f64 for the row visitor), so
    /// peak transient memory is `threads × slab × n_snps × 4` bytes.
    /// Larger slabs amortize more SYRK setup per grab; smaller slabs bound
    /// memory and load-balance better.
    pub fn slab_rows(mut self, rows: usize) -> Self {
        self.slab = rows.max(1);
        self
    }

    /// The configured kernel kind.
    pub fn kernel_kind(&self) -> KernelKind {
        self.kind
    }

    /// The configured thread count.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The configured row-slab height (see [`LdEngine::slab_rows`]).
    pub fn slab_row_count(&self) -> usize {
        self.slab
    }

    /// The configured cache-blocking parameters.
    pub fn block_sizes(&self) -> BlockSizes {
        self.blocks
    }

    /// Validates the configured [`BlockSizes`] against the kernel's
    /// register tile at the fallible entry points: zero or
    /// `MR`/`NR`-incompatible blocks surface as
    /// [`LdError::InvalidConfig`] instead of a debug-assert deep in the
    /// drivers. An unresolvable kernel is left for the drivers to
    /// report (their error text names the kernel).
    fn validate_blocks(&self) -> Result<(), LdError> {
        if let Ok(k) = ld_kernels::Kernel::resolve(self.kind) {
            self.blocks
                .validate_for(k.mr(), k.nr())
                .map_err(|e| LdError::InvalidConfig { message: e.message })?;
        }
        Ok(())
    }

    /// Raw symmetric co-occurrence counts `C = GᵀG` (row-major `n × n`).
    /// `C[i,i]` is the derived-allele count of SNP `i`; `C[i,j]` the
    /// derived-derived haplotype count of the pair.
    ///
    /// This materializes the full `n × n` buffer — the all-pairs statistic
    /// drivers do *not* go through it (they use the fused slab pipeline);
    /// it exists for callers that want the raw integer counts. The size is
    /// computed with checked arithmetic and allocated via `try_reserve`.
    pub fn try_counts_matrix<'a>(
        &self,
        g: impl Into<BitMatrixView<'a>>,
    ) -> Result<Vec<u32>, LdError> {
        self.validate_blocks()?;
        let v: BitMatrixView<'a> = g.into();
        let n = v.n_snps();
        let len = checked_mul(n, n, "n × n counts matrix")?;
        let mut c = try_zeroed_vec::<u32>(len, "n × n counts matrix")?;
        syrk_counts_buf(&v, &mut c, n, self.kind, self.blocks, self.threads)?;
        Ok(c)
    }

    /// The configured slab height, at most the `n` sites of a run.
    fn want(&self, n: usize) -> usize {
        self.slab.min(n.max(1))
    }

    /// The one pricing call: the run's [`Price`] ([`Source::price`]) at
    /// the configured slab height for an `n`-site run — and, for a store,
    /// the windows that price fitted. Every planner and every run asks here,
    /// so the grid that shards and checkpoints are cut on is the grid the
    /// run uses.
    fn price(
        &self,
        src: &Source<'_>,
        n: usize,
        packed: bool,
        strip: usize,
        k: usize,
    ) -> Result<Price, LdError> {
        let limit = self.budget.limit();
        src.price(self.threads, packed, strip, k, limit, self.want(n))
    }

    /// The one budget shrink: the slab height for an `n`-site run priced
    /// at `price` — the configured height, shrunk to
    /// `⌊(budget − fixed) / per_row⌋` (a store's windows were fitted with
    /// theirs), and [`LdError::BudgetExceeded`] only when even one row
    /// over-runs.
    fn fit_slab(&self, n: usize, price: Price) -> Result<usize, LdError> {
        let Some(limit) = self.budget.limit() else {
            return Ok(self.want(n));
        };
        let (rows, required) = match price {
            Price::Linear { fixed, per_row } => (
                rows_within(limit, (fixed, per_row), self.want(n)),
                checked_add(fixed, per_row, "minimum footprint")?,
            ),
            Price::Windows(w) => (w.slab, w.bytes),
        };
        match rows {
            0 => Err(LdError::BudgetExceeded {
                required,
                budget: limit,
            }),
            rows => Ok(rows),
        }
    }

    /// [`LdEngine::fit_slab`] for a run rather than a plan: a budget that
    /// forced the slab below the configured height is a deterministic
    /// event worth counting, once per run (the planners `slab_for` and
    /// `shard_plan_from` do not count) — results stay bit-exact but
    /// throughput changes, and a regression here means the budget/shape
    /// mix drifted.
    fn run_slab(&self, n: usize, price: Price) -> Result<usize, LdError> {
        let slab = self.fit_slab(n, price)?;
        if slab < self.want(n) {
            ld_trace::add(ld_trace::Counter::BudgetShrinks, 1);
        }
        Ok(slab)
    }

    /// Validation and budgeting shared by every slab-driver entry point;
    /// `None` when the panel has no sites (nothing to compute). `packed`
    /// names the sink (its triangle is part of the footprint); `held` is
    /// what a run holds beside a panel in memory (a store read once: the
    /// panel and one chunk load, which makes its price the one window's).
    /// Under a `band` a slab row is priced at the strip the *configured*
    /// height needs, so the model stays linear in the shrunk one.
    fn plan(
        &self,
        src: &Source<'_>,
        stat: Statistic,
        packed: bool,
        band: Option<usize>,
        held: usize,
    ) -> Result<Option<Config>, LdError> {
        self.validate_blocks()?;
        let n = driver::sites(src, stat)?;
        let strip = Reach::band(n, band).strip(n, self.slab);
        // overflow before emptiness: a size that cannot be represented is
        // reported even when the sample set is also degenerate
        let price = match self.price(src, n, packed, strip, stat.planes())? {
            Price::Linear { fixed, per_row } => Price::Linear {
                fixed: checked_add(fixed, held, "resident footprint bytes")?,
                per_row,
            },
            windows => windows,
        };
        if n == 0 {
            return Ok(None);
        }
        // the other statistics are defined on zero samples
        if src.n_samples() == 0 && matches!(stat, Statistic::Ld(_)) {
            return Err(LdError::EmptyInput);
        }
        let slab = self.run_slab(n, price)?;
        Ok(Some(Config {
            kind: self.kind,
            blocks: self.blocks,
            threads: self.threads,
            policy: self.policy,
            slab,
            price,
        }))
    }

    /// The packed sink: plan, allocate the triangle, run. Also returns the
    /// slab height used, for callers that lift slabs back out.
    fn run_packed(
        &self,
        src: &Source<'_>,
        stat: Statistic,
        ctl: &RunControl<'_>,
    ) -> Result<(LdMatrix, usize), LdError> {
        let Some(cfg) = self.plan(src, stat, true, None, 0)? else {
            return Ok((LdMatrix::try_zeros(0)?, 1));
        };
        // Materializing the packed output (a zeroed n(n+1)/2 f64 triangle)
        // is part of producing the statistic layer (an `Alloc` span
        // charges `transform_ns`), which keeps the profile's layer sum
        // honest about where the compute region's time actually goes.
        let span = Span::begin(SpanKind::Alloc);
        let mut out = LdMatrix::try_zeros(src.n_snps() / stat.planes())?;
        span.end((out.packed().len() * 8) as u64);
        driver::run(src, stat, &cfg, Sink::Packed(out.packed_mut()), ctl)?;
        Ok((out, cfg.slab))
    }

    /// All-pairs statistic matrix (triangle-packed).
    ///
    /// Runs the fused counts→statistic pipeline: per-SNP allele counts from
    /// a standalone popcount pass seed the batched §II-B rank-1 correction
    /// (`D = H − p pᵀ`, then the `r²` normalization as precomputed
    /// reciprocal-variance products — no divide, no branch per pair);
    /// workers then grab bounded row slabs of the upper triangle, compute
    /// each slab's counts into per-thread scratch, and transform them into
    /// the packed output while still cache-hot. No `n × n` counts matrix is
    /// ever materialized and no mirror pass runs (see [`crate::driver`]).
    ///
    /// It is the panic-free boundary for long-running services:
    ///
    /// * shape validation up front ([`LdError::EmptyInput`] for zero
    ///   samples, [`LdError::SizeOverflow`] when `n(n+1)/2` or any byte
    ///   count overflows `usize`);
    /// * the packed output and all scratch are allocated via `try_reserve`
    ///   ([`LdError::AllocationFailed`] instead of an abort);
    /// * the estimated transient footprint is held under the configured
    ///   [`MemoryBudget`] by shrinking the slab height (bit-exact — slab
    ///   height never affects values), failing with
    ///   [`LdError::BudgetExceeded`] only when one row is already too much;
    /// * a panicking worker drains the team and comes back as
    ///   [`LdError::Worker`] with the payload message preserved.
    ///
    /// `stat` is an [`LdStats`] or any other [`Statistic`]; the latter
    /// read `k` planes per site from a panel of `k` adjacent columns per
    /// site (a column count that is not a multiple of `k` is
    /// [`LdError::InvalidConfig`]), are defined on zero samples, and run
    /// from a memory source only (see [`crate::driver`]).
    pub fn try_stat_matrix<'a>(
        &self,
        src: impl Into<Source<'a>>,
        stat: impl Into<Statistic>,
    ) -> Result<LdMatrix, LdError> {
        self.try_stat_matrix_with(src, stat, &RunControl::new())
    }

    /// [`LdEngine::try_stat_matrix`] under a [`RunControl`], from either
    /// [`Source`] (a matrix or view converts into the memory source): the
    /// run honors a shared [`crate::CancelToken`], a monotonic
    /// [`crate::Deadline`] and an optional [`crate::CheckpointPlan`], all at
    /// **slab granularity** — the micro-kernel loops are never polled, so an
    /// inert control is exactly as fast as the plain form. The packed
    /// triangle is **bit-identical** across sources, chunk sizes, slab
    /// heights and thread counts, and a checkpoint written from one source
    /// resumes on the other.
    ///
    /// * A token trip or deadline expiry drains the worker team at the next
    ///   slab boundary and returns [`LdError::Cancelled`] with the
    ///   completed-slab count; when a checkpoint sink is attached, a final
    ///   snapshot is flushed first, so the run is always resumable.
    /// * A checkpoint plan persists completed slabs every `K` slabs /
    ///   `T` seconds; [`crate::CheckpointPlan::resume_from`] validates the
    ///   stored header against this input + configuration, replays the
    ///   completed slabs (a store source does not re-read their chunks),
    ///   and recomputes only the rest — the resumed triangle is
    ///   **bit-identical** to an uninterrupted run.
    /// * A shard range ([`RunControl::with_shard`]) restricts the run to
    ///   one contiguous range of row slabs: only those slabs are
    ///   computed, checkpointed and counted; out-of-shard triangle
    ///   entries stay zero. Use [`LdEngine::try_stat_shard_with`] to get
    ///   the shard's spans in the merge-ready interchange form.
    /// * A column band ([`RunControl::with_band`]) is rejected with
    ///   [`LdError::InvalidConfig`]: the triangle stores every pair. Band
    ///   the row stream ([`LdEngine::try_stat_rows_with`]) instead.
    pub fn try_stat_matrix_with<'a>(
        &self,
        src: impl Into<Source<'a>>,
        stat: impl Into<Statistic>,
        ctl: &RunControl<'_>,
    ) -> Result<LdMatrix, LdError> {
        Ok(self.run_packed(&src.into(), stat.into(), ctl)?.0)
    }

    /// The slab height a run over `src` will actually use after memory
    /// budgeting, for the packed (`true`) or row (`false`) sink — the slab
    /// grid every shard plan, shard range and checkpoint resume of that
    /// run is built on. The budget model is the source's own (for a
    /// store, its windows' price), so a binding budget
    /// may give the two sources different grids for the same data (with
    /// no budget they share one grid, and their checkpoints
    /// interoperate). Shard processes must run with identical engine
    /// configuration so this value agrees across them; the checkpoint
    /// header records it, and the merge rejects inputs whose grids
    /// disagree.
    pub fn slab_for(&self, src: &Source<'_>, packed: bool) -> Result<usize, LdError> {
        let n = src.n_snps();
        self.fit_slab(n, self.price(src, n, packed, n, 1)?)
    }

    /// [`LdEngine::slab_for`] a store from its manifest alone (the same
    /// windows). Kept for `benchmark/`; see ROADMAP 8a.
    pub fn outofcore_slab_for(
        &self,
        meta: &TileStoreMeta,
        with_packed_output: bool,
    ) -> Result<usize, LdError> {
        let (n, limit, packed) = (meta.n_snps, self.budget.limit(), with_packed_output);
        let windows = store_windows(meta, self.threads, packed, n, limit, self.want(n))?;
        self.fit_slab(n, Price::Windows(windows))
    }

    /// A work-balanced contiguous shard plan over the slab grid a packed
    /// run of `src` uses ([`LdEngine::slab_for`]): `[0, ⌈n_snps/slab⌉)`
    /// cut into `n_shards` ranges holding roughly equal numbers of *pair
    /// values* (see [`crate::shard::plan_shards`]). Feed each range to
    /// [`RunControl::with_shard`] + [`LdEngine::try_stat_shard_with`] in
    /// its own process, then stitch the outputs with
    /// [`crate::shard::merge_shard_states`].
    pub fn shard_plan_from(
        &self,
        src: &Source<'_>,
        n_shards: usize,
    ) -> Result<Vec<SlabRange>, LdError> {
        plan_shards(src.n_snps(), self.slab_for(src, true)?, n_shards)
    }

    /// Computes one shard of the all-pairs statistic and returns it in
    /// the shard interchange form: a [`CheckpointState`] whose records
    /// are exactly the shard's completed slabs (the header keeps the
    /// global slab grid, the matrix fingerprint, and the resolved kernel
    /// name, so merges can validate every input). Requires
    /// [`RunControl::with_shard`]; checkpointing/resume/cancellation
    /// behave as in [`LdEngine::try_stat_matrix_with`], scoped to the
    /// shard's slabs. A store's manifest fingerprint equals the in-memory
    /// matrix fingerprint of the same data, so shards computed from the
    /// store and from RAM merge interchangeably when the slab grids agree.
    pub fn try_stat_shard_with<'a>(
        &self,
        src: impl Into<Source<'a>>,
        stat: impl Into<Statistic>,
        ctl: &RunControl<'_>,
    ) -> Result<CheckpointState, LdError> {
        let (src, stat) = (src.into(), stat.into());
        if ctl.shard().is_none() || src.n_snps() == 0 {
            return Err(LdError::InvalidConfig {
                message: "a shard run needs a shard range (RunControl::with_shard) \
                          and a non-empty panel",
            });
        }
        let (m, slab) = self.run_packed(&src, stat, ctl)?;
        // Lift the shard's slabs out of the packed triangle, on the grid
        // the driver used.
        let n = src.n_snps();
        let grid = Grid::new(n, slab, ctl.shard(), Reach::band(n, None))?;
        let mut state = driver::header(&src, stat, self.policy, self.kind, &grid)?;
        state.records = (grid.lo..grid.hi)
            .map(|k| grid.record(k, &m.packed()[grid.span(k)]))
            .collect();
        Ok(state)
    }

    /// The classical two-pass driver: full `n × n` SYRK counts, then a
    /// separate transform sweep into the packed triangle.
    ///
    /// Kept as the **reference** for the slab driver (their `r²`
    /// transforms are the same batched operations, so results are
    /// bit-identical). Peak transient memory is `4n²` bytes; prefer
    /// [`LdEngine::try_stat_matrix`] everywhere else.
    ///
    /// The transform sweep hands out the triangle's rows eight at a time
    /// ([`ld_parallel::try_for_each_part`]): row `i` holds `n − i` pairs,
    /// so dynamic claims absorb the skew an even row split would leave.
    pub fn stat_matrix_twopass<'a>(
        &self,
        g: impl Into<BitMatrixView<'a>>,
        stat: LdStats,
    ) -> LdMatrix {
        let v: BitMatrixView<'a> = g.into();
        let n = v.n_snps();
        assert!(v.n_samples() > 0, "cannot compute LD with zero samples");
        let counts = match self.try_counts_matrix(v) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        };
        let tr = Transform::new(&v, stat, self.policy);
        let mut out = LdMatrix::zeros(n);
        let (counts, tr) = (&counts, &tr);
        try_for_each_part(self.threads, 8, out.rows_mut(), |i, dst| {
            let span = Span::begin(SpanKind::Transform);
            tr.apply_span(i, i, &counts[i * n + i..i * n + n], n, dst);
            span.end(0);
        })
        .unwrap_or_else(|p| panic!("{}", p.message));
        out
    }

    /// Streams the all-pairs statistic as **row slabs** of the upper
    /// triangle without materializing any matrix — the lowest-overhead
    /// streaming form (each value is produced exactly once, no mirroring)
    /// — from either [`Source`], under a [`RunControl`].
    ///
    /// Slabs are produced by the same slab driver as
    /// [`LdEngine::try_stat_matrix`]; `visit` is called once per slab by
    /// whichever worker finished it, **concurrently** and with no lock
    /// held, so what it does per slab (formatting, filtering, copying)
    /// scales with the team. A visitor that must see ascending rows wraps
    /// its ordered part in [`crate::in_row_order`]; one that mutates
    /// shared state holds it behind its own lock. Validation, budgeting
    /// and panic containment are as in [`LdEngine::try_stat_matrix`]; the
    /// streaming form has no packed output, so its budget covers only
    /// tables + scratch.
    ///
    /// * Token and deadline are honored at slab granularity (see
    ///   [`LdEngine::try_stat_matrix_with`]); a trip stops the stream at
    ///   the next slab boundary and returns [`LdError::Cancelled`] with the
    ///   count of slabs already delivered to `visit`. Checkpoint plans are
    ///   rejected with [`LdError::InvalidConfig`] — each slab is the
    ///   caller's once visited, so there is no state to persist.
    /// * Slab order and peak memory are the source's: a memory source
    ///   delivers slabs in **unspecified order** under threading from
    ///   `O(threads × slab × strip)` scratch — 12 bytes per value: u32
    ///   counts plus f64 values; a store read in more than one window
    ///   delivers them **in ascending row order** from its windows, the
    ///   counts of blocks as wide as a window and the values of a row
    ///   window's slabs — independent of holding the full genotype matrix;
    ///   a store the budget holds whole is one window and delivers them in
    ///   unspecified order, as memory does. A visitor that needs order
    ///   uses [`crate::in_row_order`] whatever the source.
    /// * A column band `w` ([`RunControl::with_band`]) makes each row hold
    ///   only columns `i ..= i + w` and `strip = min(n, slab + w)` instead
    ///   of `n`: time, scratch and (store source) bytes read are
    ///   `O(n · w)`. Values are bit-identical to the same pairs of the
    ///   unbanded run.
    /// * A visitor that keeps only `r² ≥ t` computes every pair here;
    ///   [`LdEngine::try_rows_in_order_with`] computes only the pairs whose
    ///   allele frequencies let them pass when that pays, on the same
    ///   driver, and hands over the kept pairs with the same bits.
    pub fn try_stat_rows_with<'a, F>(
        &self,
        src: impl Into<Source<'a>>,
        stat: impl Into<Statistic>,
        visit: F,
        ctl: &RunControl<'_>,
    ) -> Result<(), LdError>
    where
        F: Fn(&RowSlabVisit<'_>) + Sync,
    {
        let (src, stat) = (src.into(), stat.into());
        match self.plan(&src, stat, false, ctl.band, 0)? {
            Some(cfg) => driver::run(&src, stat, &cfg, Sink::Rows(&visit), ctl),
            None => Ok(()),
        }
    }

    /// Hands the rows of the statistic's upper triangle, without the
    /// diagonal, to `deliver` **in ascending original-row order** — the
    /// one row verb of a thresholded pair table or listing. Which pairs
    /// are computed, and from what, is the engine's plan:
    ///
    /// * an `r²` run with `min > 0` and no shard range, checkpoint plan or
    ///   column band in `ctl` reads a store whose one window the budget
    ///   holds into memory once (each chunk read and CRC-checked once, on
    ///   the calling thread, and counted), and then computes only the pairs
    ///   whose allele frequencies let them reach `min` — the
    ///   frequency-sorted staircase ([`crate::staircase`]), on the panel
    ///   sorted in place — when the staircase holds under 60 % of the
    ///   off-diagonal pairs and one slab row of it fits the budget;
    /// * otherwise the dense row sink of [`LdEngine::try_stat_rows_with`]
    ///   runs, on the panel (a store read once included), or over the
    ///   store's windows.
    ///
    /// `make` turns rows into a payload on whichever thread produced them
    /// — a worker that finished a dense slab, cut into parts of 16 rows,
    /// or the calling thread for a staircase row, handed over after the
    /// grid — and `deliver` receives every payload exactly once, lowest
    /// rows first. A dense part holds every column of each row
    /// ([`crate::Cols::Range`]); a staircase row only the columns whose
    /// value passes [`crate::r2_keeps`] at `min` ([`crate::Cols::Kept`]),
    /// and a row with none is skipped. A consumer that keeps `r2_keeps` of
    /// the values therefore sees the same pairs with the same bits from
    /// either plan. The run must start at row 0 (no shard range).
    ///
    /// The panel is taken over: it is sorted in place by a staircase and
    /// dropped when the run ends, so no run holds it twice. Token,
    /// deadline, budget and panic containment are as in
    /// [`LdEngine::try_stat_rows_with`]; a staircase run cancelled before
    /// its grid completes hands nothing over.
    pub fn try_rows_in_order_with<T, M, D>(
        &self,
        input: Input<'_>,
        stat: impl Into<Statistic>,
        min: f64,
        make: M,
        deliver: D,
        ctl: &RunControl<'_>,
    ) -> Result<(), LdError>
    where
        T: Send,
        M: Fn(&Rows<'_>) -> T + Sync,
        D: FnMut(T) + Send,
    {
        let stat = stat.into();
        let thresholded = stat == Statistic::Ld(LdStats::RSquared)
            && min > 0.0
            && ctl.shard.is_none()
            && ctl.checkpoint.is_none()
            && ctl.band.is_none();
        let read = match input {
            Input::Panel(g) => Ok((g, 0)),
            Input::Store(s) if thresholded => self.read_resident(s, ctl)?.ok_or(s),
            Input::Store(s) => Err(s),
        };
        // a store that was not read once runs over its windows
        let (panel, held) = match read {
            Ok(read) => read,
            Err(s) => return self.rows_dense(Source::Store(s), 0, stat, make, deliver, ctl),
        };
        if thresholded {
            if let Some(plan) = self.plan_staircase(&panel, min, held)? {
                let mut deliver = deliver;
                let visit = |i: usize, cols: &[usize], values: &[f64]| {
                    deliver(make(&Rows::kept(i, cols, values)))
                };
                return self.run_staircase(&plan, panel, visit, ctl);
            }
        }
        self.rows_dense(Source::from(&panel), held, stat, make, deliver, ctl)
    }

    /// The dense row sink of [`LdEngine::try_rows_in_order_with`]: slabs
    /// cut into parts of [`PART_ROWS`] rows, each made on the worker and
    /// delivered in row order ([`in_row_order`]). `held` is what the run
    /// holds beside a panel in memory (a store read once).
    fn rows_dense<T: Send>(
        &self,
        src: Source<'_>,
        held: usize,
        stat: Statistic,
        make: impl Fn(&Rows<'_>) -> T + Sync,
        deliver: impl FnMut(T) + Send,
        ctl: &RunControl<'_>,
    ) -> Result<(), LdError> {
        let in_order = in_row_order(|part: &RowSlabVisit<'_>| make(&Rows::dense(part)), deliver);
        let by_parts = |s: &RowSlabVisit<'_>| s.parts(PART_ROWS).for_each(|part| in_order(&part));
        match self.plan(&src, stat, false, ctl.band, held)? {
            Some(cfg) => driver::run(&src, stat, &cfg, Sink::Rows(&by_parts), ctl),
            None => Ok(()),
        }
    }

    /// A tile store's whole panel read into memory once, with the bytes it
    /// holds beside the memory model, when the budget holds the store's one
    /// window — the window decision ([`crate::source`]) that makes a
    /// budgeted store run read each chunk once. `ctl`'s token and deadline
    /// are polled before each read ([`LdError::Cancelled`] when one fires).
    /// `None` with no budget, when the one window does not fit, or for a
    /// store without sites or samples.
    fn read_resident(
        &self,
        store: &dyn TileSource,
        ctl: &RunControl<'_>,
    ) -> Result<Option<(BitMatrix, usize)>, LdError> {
        let (meta, limit) = (store.meta(), self.budget.limit());
        let n = meta.n_snps;
        if n == 0 || meta.n_samples == 0 || limit.is_none() {
            return Ok(None);
        }
        let one = store_windows(meta, self.threads, false, n, limit, self.want(n))?;
        if one.rows != Windows::ONE {
            return Ok(None);
        }
        let token = ctl.run_token();
        let stop = || {
            driver::poll_deadline(ctl.deadline, token.as_ref());
            token.as_ref().is_some_and(|t| t.is_cancelled())
        };
        let Some(panel) = read_panel(store, 0..meta.n_chunks(), &stop)? else {
            return Err(driver::cancelled_error(token.as_ref(), 0));
        };
        // the panel and one chunk load, as the one window charges them
        let held = bytes(&[&[meta.chunk_bytes(0)], &[n, meta.words_per_snp, 8]])?;
        Ok(Some((panel, held)))
    }

    /// The staircase of an `r² ≥ min_r2` run over `panel` when it pays;
    /// `None` when the run should take the dense grid instead:
    ///
    /// * `min_r2` is not positive (or `NaN`): every pair can pass; or the
    ///   panel has no samples or fewer than two sites;
    /// * the staircase holds 60 % of the off-diagonal pairs or more — the
    ///   measured crossover, past which sorting and the pair sink cost
    ///   more than the pairs they skip (see [`crate::staircase`]);
    /// * under a [`MemoryBudget`], not even one slab row fits beside the
    ///   plan, its one bit per pair and the `held` bytes (a store read
    ///   once: the panel and one chunk load).
    ///
    /// Planning is one popcount sweep and a sort of the site counts.
    fn plan_staircase(
        &self,
        panel: &BitMatrix,
        min_r2: f64,
        held: usize,
    ) -> Result<Option<R2Staircase>, LdError> {
        let v = panel.full_view();
        if min_r2.is_nan() || min_r2 <= 0.0 || v.n_snps() < 2 || v.n_samples() == 0 {
            return Ok(None);
        }
        // planning is statistic-layer setup, as the tables are
        let span = Span::begin(SpanKind::Transform);
        let plan = R2Staircase::new(v, min_r2);
        span.end(v.n_snps() as u64);
        let mut plan = plan?;
        plan.held = held;
        if plan.share() >= CROSSOVER {
            return Ok(None);
        }
        let fits = self.fit_slab(v.n_snps(), self.staircase_price(&plan)?);
        Ok(fits.is_ok().then_some(plan))
    }

    /// The budget model of a staircase run: the plan's fixed bytes
    /// (`R2Staircase`'s tables, plan, bitset, hand-off and what it holds
    /// of a store) plus one f64 row per worker, and per slab row
    /// `threads × strip` u32 counts, `strip` the widest step at the
    /// configured height.
    fn staircase_price(&self, plan: &R2Staircase) -> Result<Price, LdError> {
        let what = "staircase slab row bytes";
        let n = plan.ends.len();
        let strip = Reach::Stair(&plan.ends).strip(n, self.want(n));
        let row = checked_mul(self.threads.max(1), strip.max(1), what)?;
        Ok(Price::Linear {
            fixed: checked_add(plan.fixed_bytes()?, checked_mul(row, 8, what)?, what)?,
            per_row: checked_mul(row, 4, what)?,
        })
    }

    /// Runs a staircase (`R2Staircase`) over `panel`, the matrix it was
    /// planned on: `r²` of exactly the pairs the plan reaches, computed on
    /// the panel's sites in sorted order — the panel is taken over and
    /// sorted in place, so it is never held twice — with one bit set per
    /// pair that passes the plan's threshold ([`crate::r2_keeps`]).
    ///
    /// After the grid the kept pairs are handed to `visit` on the calling
    /// thread, **per original row `i` in ascending order**, as `(i, cols,
    /// values)`: the row's kept columns `j > i` ascending, with their `r²`.
    /// Rows without a kept pair are skipped. Every pair the unpruned run
    /// keeps is handed over exactly once, its value bit-identical to that
    /// run's (see [`crate::staircase`]).
    ///
    /// Token, deadline, budget and panic containment are as in
    /// [`LdEngine::try_stat_rows_with`]; a run cancelled before its grid
    /// completes hands nothing over. A checkpoint plan, a shard range or a
    /// column band is [`LdError::InvalidConfig`]: the run keeps nothing to
    /// persist and has its own reach.
    pub(crate) fn run_staircase(
        &self,
        plan: &R2Staircase,
        panel: BitMatrix,
        mut visit: impl FnMut(usize, &[usize], &[f64]),
        ctl: &RunControl<'_>,
    ) -> Result<(), LdError> {
        self.validate_blocks()?;
        let n = plan.ends.len();
        let price = self.staircase_price(plan)?;
        if n == 0 {
            return Ok(());
        }
        if plan.n_samples() == 0 {
            return Err(LdError::EmptyInput);
        }
        let slab = self.run_slab(n, price)?;
        let cfg = Config {
            kind: self.kind,
            blocks: self.blocks,
            threads: self.threads,
            policy: self.policy,
            slab,
            price,
        };
        // sorting the panel is statistic-layer setup, as planning is
        let span = Span::begin(SpanKind::Transform);
        let sorted = plan.sorted(panel);
        span.end(n as u64);
        let sorted = sorted?;
        let bits = plan.try_bits()?;
        let stat = Statistic::Ld(LdStats::RSquared);
        let sink = PairSink { plan, bits: &bits };
        let mut hand_over =
            |tr: &Transform| plan.hand_over(sorted.full_view(), &bits, tr, &mut visit);
        let sink = Sink::Pairs(&sink, &mut hand_over);
        driver::run(&Source::from(&sorted), stat, &cfg, sink, ctl)
    }

    /// [`LdEngine::try_stat_rows_with`] over [`Source::Store`]. Kept for
    /// `benchmark/`; see ROADMAP 8a.
    pub fn try_stat_rows_outofcore_with<F>(
        &self,
        src: &dyn TileSource,
        stat: impl Into<Statistic>,
        visit: F,
        ctl: &RunControl<'_>,
    ) -> Result<(), LdError>
    where
        F: Fn(&RowSlabVisit<'_>) + Sync,
    {
        self.try_stat_rows_with(Source::Store(src), stat, visit, ctl)
    }

    /// Cross-matrix statistic between two SNP sets sharing the same sample
    /// set (Fig. 4: long-range LD, distant genes): mismatched sample sets
    /// are [`LdError::DimensionMismatch`], `m × n` sizes are checked, every
    /// buffer and table goes through `try_reserve`, per-SNP allele counts
    /// are converted with `u32::try_from` (no silent truncation past
    /// `u32::MAX` haplotypes), and an operand with no SNPs gives an empty
    /// matrix. Values are bit-identical to the same pairs of the all-pairs
    /// matrix of the panel `[A | B]`: both run `Transform::apply_span`.
    /// Any [`Statistic`] runs here, each operand `k` adjacent columns per
    /// site.
    ///
    /// Runs one slab of A's sites per claim of the worker team: each
    /// worker owns one `slab × k²·n` u32 counts scratch, allocated before
    /// the team starts, and a slab is one single-threaded GEMM of its rows
    /// against all of B followed by the transform of its rows — the
    /// `m·n·k²` counts matrix never exists. The slab height is the
    /// configured [`LdEngine::slab_rows`], shrunk so the `m·n` f64 values,
    /// the tables and `threads` scratch slabs fit the [`MemoryBudget`]
    /// ([`LdError::BudgetExceeded`] only when one row does not); values do
    /// not depend on it. A panicking worker drains the team and comes back
    /// as [`LdError::Worker`] with the payload message preserved.
    pub fn try_cross_stat_matrix<'a, 'b>(
        &self,
        a: impl Into<BitMatrixView<'a>>,
        b: impl Into<BitMatrixView<'b>>,
        stat: impl Into<Statistic>,
    ) -> Result<CrossLdMatrix, LdError> {
        self.validate_blocks()?;
        let va: BitMatrixView<'a> = a.into();
        let vb: BitMatrixView<'b> = b.into();
        let stat = stat.into();
        if va.n_samples() != vb.n_samples() {
            return Err(LdError::DimensionMismatch {
                context: "sample sets must match",
                left: va.n_samples(),
                right: vb.n_samples(),
            });
        }
        let n_samples = va.n_samples();
        if n_samples == 0 && matches!(stat, Statistic::Ld(_)) {
            return Err(LdError::EmptyInput);
        }
        let (m, n) = (
            driver::sites(&va.into(), stat)?,
            driver::sites(&vb.into(), stat)?,
        );
        let len = checked_mul(m, n, "m × n cross matrix")?;
        if len == 0 {
            return Ok(CrossLdMatrix::from_dense(m, n, Vec::new()));
        }
        let k = stat.planes();
        let (fixed, per_row) = cross_footprint(m, n, self.threads, k)?;
        let slab = self.run_slab(m, Price::Linear { fixed, per_row })?;
        let mut values = try_zeroed_vec::<f64>(len, "m × n cross values")?;
        // One table set holding both operands end to end — A's sites at
        // [0, m), B's at [m, m + n) — so row i of the cross block is the
        // span `(i, m..m + n)` of the one counts→statistic body.
        let (ka, cols) = (
            va.n_snps(),
            checked_add(va.n_snps(), vb.n_snps(), "m + n SNPs")?,
        );
        let mut tr = Transform::empty(cols, n_samples, stat, self.policy)?;
        let mut diag = try_zeroed_vec::<u32>(cols, "per-SNP allele-count table")?;
        for (j, d) in diag.iter_mut().enumerate() {
            let ones = if j < ka {
                va.ones_in_snp(j)
            } else {
                vb.ones_in_snp(j - ka)
            };
            *d = u32::try_from(ones).map_err(|_| LdError::SizeOverflow {
                what: "per-SNP allele count (> u32::MAX haplotypes)",
            })?;
        }
        tr.fill_span(0, &diag);
        drop(diag);
        // site row i's k plane rows against B's k·n plane columns
        let ld = k * n;
        let workers = self.threads.min(m.div_ceil(slab));
        let counts_len = checked_mul(slab * k, ld, "cross slab counts")?;
        let pool = (0..workers)
            .map(|_| try_zeroed_vec::<u32>(counts_len, "cross slab counts scratch"))
            .collect::<Result<Vec<_>, _>>()?;
        // At most `workers` slabs are in flight, each holding one buffer,
        // so a claim always finds one.
        let pool = Mutex::new(pool);
        let blocks = worker_blocks(self.blocks, va.words_per_snp());
        let tr = &tr;
        try_for_each_part(workers, 1, values.chunks_mut(slab * n), |s, dst| {
            fault::check_kernel_panic();
            let (r0, h) = (s * slab, dst.len() / n);
            let mut counts = lock(&pool).pop().unwrap_or_default();
            let a = va.subview(k * r0, k * (r0 + h));
            gemm_counts_buf(&a, &vb, &mut counts, ld, self.kind, blocks);
            let span = Span::begin(SpanKind::Transform);
            for (r, row) in dst.chunks_mut(n).enumerate() {
                tr.apply_span(r0 + r, m, &counts[k * r * ld..][..k * ld], ld, row);
            }
            span.end(s as u64);
            lock(&pool).push(counts);
        })?;
        Ok(CrossLdMatrix::from_dense(m, n, values))
    }

    /// Statistics for a single SNP pair (no matrix materialized).
    pub fn ld_pair(&self, g: &BitMatrix, i: usize, j: usize) -> LdPair {
        let n = g.n_samples() as u64;
        let si = g.snp_words(i);
        let sj = g.snp_words(j);
        let c_ij = and_popcount(si, sj);
        ld_pair_from_counts(g.ones_in_snp(i), g.ones_in_snp(j), c_ij, n, self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::lock;
    use std::sync::Mutex;

    fn toy() -> BitMatrix {
        // 6 samples × 4 SNPs with known relationships:
        // snp0 == snp1 (perfect LD), snp2 independent-ish, snp3 complement of snp0
        BitMatrix::from_rows(
            6,
            4,
            [
                [1u8, 1, 1, 0],
                [1, 1, 0, 0],
                [1, 1, 1, 0],
                [0, 0, 0, 1],
                [0, 0, 1, 1],
                [0, 0, 0, 1],
            ],
        )
        .unwrap()
    }

    #[test]
    fn r2_of_identical_snps_is_one() {
        let g = toy();
        let r2 = LdEngine::new()
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        assert!((r2.get(0, 1) - 1.0).abs() < 1e-12);
        assert!(
            (r2.get(0, 3) - 1.0).abs() < 1e-12,
            "complement is also perfect r²"
        );
    }

    #[test]
    fn diagonal_is_one_for_polymorphic() {
        let g = toy();
        let r2 = LdEngine::new()
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        for j in 0..4 {
            assert!((r2.get(j, j) - 1.0).abs() < 1e-12, "snp {j}");
        }
    }

    #[test]
    fn engine_matches_pairwise() {
        let g = toy();
        let e = LdEngine::new();
        let r2 = e.try_stat_matrix(&g, LdStats::RSquared).expect("LD matrix");
        let d = e.try_stat_matrix(&g, LdStats::D).expect("LD matrix");
        let dp = e.try_stat_matrix(&g, LdStats::DPrime).expect("LD matrix");
        for i in 0..4 {
            for j in 0..4 {
                let p = e.ld_pair(&g, i, j);
                assert!((r2.get(i, j) - p.r2).abs() < 1e-12, "r2 ({i},{j})");
                assert!((d.get(i, j) - p.d).abs() < 1e-12, "d ({i},{j})");
                assert!((dp.get(i, j) - p.d_prime).abs() < 1e-12, "d' ({i},{j})");
            }
        }
    }

    #[test]
    fn counts_matrix_diagonal() {
        let g = toy();
        let c = LdEngine::new().try_counts_matrix(&g).unwrap();
        assert_eq!(c[0], 3); // |snp0|
        assert_eq!(c[5], 3); // |snp1|
        assert_eq!(c[1], 3); // row 0, col 1: snp0 ∧ snp1
        assert_eq!(c[3], 0); // row 0, col 3: snp0 ∧ snp3 (complement)
    }

    #[test]
    fn monomorphic_snp_policy() {
        let g = BitMatrix::from_rows(4, 2, [[0u8, 1], [0, 0], [0, 1], [0, 0]]).unwrap();
        let nan = LdEngine::new()
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        assert!(nan.get(0, 1).is_nan());
        let zero = LdEngine::new()
            .nan_policy(NanPolicy::Zero)
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        assert_eq!(zero.get(0, 1), 0.0);
    }

    #[test]
    fn cross_matrix_consistent_with_square() {
        let g = toy();
        let e = LdEngine::new();
        let full = e.try_stat_matrix(&g, LdStats::RSquared).expect("LD matrix");
        let a = g.view(0, 2);
        let b = g.view(2, 4);
        let cross = e.try_cross_stat_matrix(a, b, LdStats::RSquared).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    (cross.get(i, j) - full.get(i, j + 2)).abs() < 1e-12,
                    "({i},{j})"
                );
            }
        }
    }

    /// Every slab height cuts the same triangle: the row slabs of heights
    /// 1 through 7 (past `n`) together hold every upper-triangle value of
    /// the packed matrix.
    #[test]
    fn tiled_matches_full() {
        let g = toy();
        let e = LdEngine::new();
        let full = e.try_stat_matrix(&g, LdStats::RSquared).expect("LD matrix");
        for tile in [1usize, 2, 3, 4, 7] {
            let seen = Mutex::new(std::collections::HashMap::new());
            let visit = |s: &RowSlabVisit<'_>| {
                for (i, row) in s.rows() {
                    for (t, &v) in row.iter().enumerate() {
                        lock(&seen).insert((i, i + t), v);
                    }
                }
            };
            e.clone()
                .slab_rows(tile)
                .try_stat_rows_with(&g, LdStats::RSquared, visit, &RunControl::new())
                .unwrap();
            let seen = seen.into_inner().unwrap();
            for i in 0..4 {
                for j in i..4 {
                    let got = seen[&(i, j)];
                    let want = full.get(i, j);
                    assert!(
                        got.to_bits() == want.to_bits(),
                        "tile={tile} ({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    /// Each row slab starts on a multiple of the slab height and reports
    /// its rows whole: row `i` holds `n − i` values, diagonal first.
    #[test]
    fn diagonal_tiles_report_full_square() {
        let g = toy();
        let visit = |s: &RowSlabVisit<'_>| {
            assert_eq!(s.row_start() % 3, 0);
            for (r, (i, row)) in s.rows().enumerate() {
                assert_eq!(row.len(), 4 - i);
                assert_eq!(row[0].to_bits(), s.value(r, i).to_bits());
                assert!((row[0] - 1.0).abs() < 1e-12, "diagonal of SNP {i}");
            }
        };
        LdEngine::new()
            .slab_rows(3)
            .try_stat_rows_with(&g, LdStats::RSquared, visit, &RunControl::new())
            .unwrap();
    }

    #[test]
    fn multithreaded_engine_matches_single() {
        let g = toy();
        let one = LdEngine::new()
            .threads(1)
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        let four = LdEngine::new()
            .threads(4)
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        assert_eq!(one.packed().len(), four.packed().len());
        for (a, b) in one.packed().iter().zip(four.packed()) {
            assert!((a - b).abs() < 1e-15 || (a.is_nan() && b.is_nan()));
        }
    }

    #[test]
    fn fused_matches_twopass_bit_exact() {
        let g = toy();
        for stat in [LdStats::RSquared, LdStats::D, LdStats::DPrime] {
            let e = LdEngine::new().threads(2).slab_rows(2);
            let fused = e.try_stat_matrix(&g, stat).expect("LD matrix");
            let oracle = e.stat_matrix_twopass(&g, stat);
            for (a, b) in fused.packed().iter().zip(oracle.packed()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{stat:?}");
            }
        }
    }

    #[test]
    fn stat_rows_streams_every_row() {
        let g = toy();
        let e = LdEngine::new().slab_rows(2);
        let full = e.try_stat_matrix(&g, LdStats::RSquared).expect("LD matrix");
        let seen = Mutex::new([false; 4]);
        let visit = |s: &RowSlabVisit<'_>| {
            for (i, row) in s.rows() {
                assert!(!std::mem::replace(&mut lock(&seen)[i], true));
                assert_eq!(row.len(), 4 - i);
                for (t, &v) in row.iter().enumerate() {
                    assert!((v - full.get(i, i + t)).abs() < 1e-15);
                }
            }
        };
        e.try_stat_rows_with(&g, LdStats::RSquared, visit, &RunControl::new())
            .unwrap();
        assert!(seen.into_inner().unwrap().iter().all(|&s| s));
    }

    /// The row visitor is called unlocked: at two threads and four slabs,
    /// two calls are inside it at once. The first call waits until a second
    /// arrives; the timeout only bounds a failure.
    #[test]
    fn row_visitor_calls_overlap() {
        use std::sync::Condvar;
        use std::time::Duration;
        // (calls so far, calls inside now, most inside at once)
        let state = Mutex::new((0usize, 0usize, 0usize));
        let arrived = Condvar::new();
        let visit = |_: &RowSlabVisit<'_>| {
            let mut st = lock(&state);
            st.0 += 1;
            st.1 += 1;
            st.2 = st.2.max(st.1);
            arrived.notify_all();
            if st.0 == 1 {
                let timeout = Duration::from_secs(10);
                st = arrived
                    .wait_timeout_while(st, timeout, |st| st.2 < 2)
                    .unwrap()
                    .0;
            }
            st.1 -= 1;
        };
        LdEngine::new()
            .threads(2)
            .slab_rows(1)
            .try_stat_rows_with(&toy(), LdStats::RSquared, visit, &RunControl::new())
            .unwrap();
        let (calls, _, most) = *lock(&state);
        assert_eq!(calls, 4);
        assert_eq!(most, 2, "the visitor calls never overlapped");
    }

    #[test]
    fn builder_accessors() {
        let e = LdEngine::new()
            .threads(3)
            .kernel(KernelKind::Scalar)
            .slab_rows(17);
        assert_eq!(e.thread_count(), 3);
        assert_eq!(e.kernel_kind(), KernelKind::Scalar);
        assert_eq!(e.slab_row_count(), 17);
        assert_eq!(LdEngine::new().slab_rows(0).slab_row_count(), 1);
    }

    #[test]
    fn invalid_blocks_are_typed_errors_not_panics() {
        let g = toy();
        // kc = 0 can never drive the rank-k loop.
        let e = LdEngine::new().blocks(BlockSizes::default().with_kc(0));
        match e.try_stat_matrix(&g, LdStats::RSquared) {
            Err(LdError::InvalidConfig { message }) => {
                assert!(message.contains("kc"), "{message}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // mc incompatible with the 4-row register tile.
        let e = LdEngine::new()
            .kernel(KernelKind::Scalar)
            .blocks(BlockSizes::default().with_mc(6));
        assert!(matches!(
            e.try_counts_matrix(&g),
            Err(LdError::InvalidConfig { .. })
        ));
        // The streaming forms validate too.
        assert!(matches!(
            e.try_stat_rows_with(&g, LdStats::RSquared, |_| {}, &RunControl::new()),
            Err(LdError::InvalidConfig { .. })
        ));
        assert!(matches!(
            e.try_cross_stat_matrix(&g, &g, LdStats::RSquared),
            Err(LdError::InvalidConfig { .. })
        ));
        // Valid overrides still pass.
        let ok = LdEngine::new()
            .kernel(KernelKind::Scalar)
            .blocks(BlockSizes::default().with_mc(8))
            .try_stat_matrix(&g, LdStats::RSquared);
        assert!(ok.is_ok());
    }

    #[test]
    fn allele_frequencies_match() {
        let g = toy();
        let p = g.full_view().allele_frequencies();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
    }

    /// The control contract holds for the statistics beyond `LdStats`: a
    /// tripped token and an expired deadline stop the run before its first
    /// slab, a budget below one row is refused, and what only an LD panel
    /// can carry — a store, a checkpoint, a shard — is a typed refusal, as
    /// is a panel that is not `k` columns per site.
    #[test]
    fn other_statistics_honour_the_run_controls() {
        use crate::{CancelToken, CheckpointPlan, Deadline, MemorySink, MemoryTileStore};
        use std::time::Duration;
        let g = toy(); // 4 columns: 4 compounds, 2 masked sites, no T panel
        let e = LdEngine::new().threads(2).slab_rows(1);
        let cancelled = |r: Result<LdMatrix, LdError>| {
            matches!(
                r,
                Err(LdError::Cancelled {
                    completed_slabs: 0,
                    ..
                })
            )
        };
        for stat in [Statistic::Tanimoto, Statistic::MaskedR2] {
            let token = CancelToken::new();
            token.cancel();
            let ctl = RunControl::new().with_token(&token);
            assert!(
                cancelled(e.try_stat_matrix_with(&g, stat, &ctl)),
                "{stat:?}"
            );
            let ctl = RunControl::new().with_deadline(Deadline::after(Duration::ZERO));
            assert!(
                cancelled(e.try_stat_matrix_with(&g, stat, &ctl)),
                "{stat:?}"
            );
        }
        // masked r² over 2 sites: the triangle and tables, then one row
        // of 2 × 2 plane counts per site per worker
        let one_row = 3 * 8 + 2 * (16 + 4 * 2) + 2 * 2 * 16;
        let tight = e.clone().memory_budget(MemoryBudget::bytes(one_row - 1));
        assert!(matches!(
            tight.try_stat_matrix(&g, Statistic::MaskedR2),
            Err(LdError::BudgetExceeded { required, .. }) if required == one_row
        ));
        let refused =
            |r: Result<LdMatrix, LdError>| matches!(r, Err(LdError::InvalidConfig { .. }));
        let store = MemoryTileStore::from_matrix(&g, 2).unwrap();
        let sink = MemorySink::new();
        let shard = crate::SlabRange::new(0, 1);
        assert!(refused(
            e.try_stat_matrix(Source::Store(&store), Statistic::Tanimoto)
        ));
        let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&sink));
        assert!(refused(e.try_stat_matrix_with(
            &g,
            Statistic::Tanimoto,
            &ctl
        )));
        let ctl = RunControl::new().with_shard(shard);
        assert!(refused(e.try_stat_matrix_with(
            &g,
            Statistic::Tanimoto,
            &ctl
        )));
        assert!(matches!(
            e.try_stat_shard_with(&g, Statistic::Tanimoto, &ctl),
            Err(LdError::InvalidConfig { .. })
        ));
        assert!(refused(
            e.try_stat_matrix(g.view(0, 3), Statistic::MaskedR2)
        ));
        assert!(refused(e.try_stat_matrix(&g, Statistic::ZaykinT)));
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn zero_samples_panics() {
        let g = BitMatrix::zeros(0, 3);
        LdEngine::new().stat_matrix_twopass(&g, LdStats::RSquared);
    }
}
