//! Slab-range shards: partitioning one LD run across processes, and the
//! fingerprint-validated merge that stitches shard outputs back together.
//!
//! The slab driver already decomposes the packed triangle into row
//! slabs (see [`crate::driver`]); a **shard** is nothing more than a
//! contiguous range of those slab indices, promoted to a first-class
//! execution unit:
//!
//! * [`SlabRange`] names the range; [`plan_shards`] cuts `[0, n_slabs)`
//!   into `N` contiguous ranges balanced by *packed-triangle work* (row
//!   `i` holds `n − i` pairs, so an even slab split would give the first
//!   shard ~2× the work of the last);
//! * [`crate::RunControl::with_shard`] restricts a `_with` driver to one
//!   range — only those slabs are computed, checkpointed and counted;
//! * a shard's output is an ordinary [`CheckpointState`] whose records
//!   are exactly the shard's slabs (the header keeps the *global* slab
//!   grid), so the shard interchange format inherits the checkpoint
//!   format's CRC-32 discipline, its matrix fingerprint, and its
//!   versioning — unchanged;
//! * [`merge_shard_states`] validates every input against every other
//!   (fingerprint, statistic, NaN policy, slab geometry, kernel),
//!   rejects overlapping spans ([`LdError::ShardMismatch`]) and
//!   incomplete coverage ([`LdError::IncompleteShardSet`] — a gap
//!   report, never a silently truncated panel), and returns the single
//!   complete state [`state_to_matrix`] turns back into an [`LdMatrix`]
//!   bit-identical to a single-process run.

use crate::checkpoint::CheckpointState;
use crate::error::LdError;
use crate::fused::packed_row_offset;
use crate::matrix::LdMatrix;
use ld_trace::Counter;

/// A contiguous, half-open range `[start, end)` of row-slab indices — the
/// unit of work a shard owns. Slab indices refer to the global slab grid
/// of the run (`slab` rows per slab, `⌈n_snps / slab⌉` slabs total), so a
/// range is only meaningful together with that geometry; the checkpoint
/// header carries both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabRange {
    /// First slab index in the range.
    pub start: usize,
    /// One past the last slab index in the range.
    pub end: usize,
}

impl SlabRange {
    /// The range `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }

    /// Number of slabs in the range.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True when the range contains no slabs.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// True when slab index `k` falls inside the range.
    pub fn contains(&self, k: usize) -> bool {
        self.start <= k && k < self.end
    }

    /// The row window `[r0, r1)` this range covers on a grid of `slab`
    /// rows per slab over `n_snps` rows.
    pub fn rows(&self, slab: usize, n_snps: usize) -> (usize, usize) {
        (
            (self.start * slab).min(n_snps),
            (self.end * slab).min(n_snps),
        )
    }
}

impl std::fmt::Display for SlabRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Packed-triangle work of slab `k` on an (`n_snps`, `slab`) grid: the
/// number of pair values its rows hold, `Σ_{i∈rows(k)} (n − i)`.
fn slab_work(n_snps: usize, slab: usize, k: usize) -> u128 {
    let r0 = k * slab;
    let r1 = ((k + 1) * slab).min(n_snps);
    let h = (r1 - r0) as u128;
    // arithmetic series: first term n − r0, last term n − (r1 − 1)
    h * ((n_snps - r0) as u128 + (n_snps - r1 + 1) as u128) / 2
}

/// Cuts the slab grid of an `n_snps`-row run into `n_shards` contiguous
/// [`SlabRange`]s balanced by packed-triangle work, not slab count: the
/// top rows of the triangle hold the most pairs, so the first shards get
/// fewer slabs than the last. The ranges tile `[0, n_slabs)` exactly and
/// every shard owns at least one slab.
///
/// Errors with [`LdError::InvalidConfig`] on a zero shard count, an empty
/// matrix, or more shards than slabs (each shard must own work).
pub fn plan_shards(n_snps: usize, slab: usize, n_shards: usize) -> Result<Vec<SlabRange>, LdError> {
    if n_shards == 0 {
        return Err(LdError::InvalidConfig {
            message: "shard count must be positive",
        });
    }
    if n_snps == 0 {
        return Err(LdError::InvalidConfig {
            message: "cannot shard an empty matrix",
        });
    }
    let slab = slab.max(1).min(n_snps);
    let n_slabs = n_snps.div_ceil(slab);
    if n_shards > n_slabs {
        return Err(LdError::InvalidConfig {
            message: "more shards than row slabs (lower the shard count or the slab height)",
        });
    }
    let mut remaining: u128 = (0..n_slabs).map(|k| slab_work(n_snps, slab, k)).sum();
    let mut plan = Vec::with_capacity(n_shards);
    let mut k = 0usize;
    for s in 0..n_shards {
        let shards_left = n_shards - s;
        let target = remaining.div_ceil(shards_left as u128);
        // leave at least one slab for every shard still to come
        let max_end = n_slabs - (shards_left - 1);
        let start = k;
        let mut acc = 0u128;
        while k < max_end && (k == start || acc < target) {
            acc += slab_work(n_snps, slab, k);
            k += 1;
        }
        remaining -= acc;
        plan.push(SlabRange { start, end: k });
    }
    debug_assert_eq!(plan.last().map(|r| r.end), Some(n_slabs));
    Ok(plan)
}

/// Formats half-open slab spans for gap reports: `"0..2, 5..6"`.
pub(crate) fn format_spans(spans: &[(u64, u64)]) -> String {
    spans
        .iter()
        .map(|&(a, b)| format!("{a}..{b}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Collapses a sorted list of slab indices' *complement* over
/// `[0, n_slabs)` into contiguous half-open spans.
fn missing_spans(covered: &[bool]) -> Vec<(u64, u64)> {
    let mut spans = Vec::new();
    let mut k = 0usize;
    while k < covered.len() {
        if covered[k] {
            k += 1;
            continue;
        }
        let start = k;
        while k < covered.len() && !covered[k] {
            k += 1;
        }
        spans.push((start as u64, k as u64));
    }
    spans
}

/// Stitches shard outputs into one complete [`CheckpointState`].
///
/// Every input must describe the *same* run: matrix fingerprint,
/// `n_snps`/`n_samples`, statistic, NaN policy, slab geometry and kernel
/// are compared pairwise against the first input, and any disagreement is
/// a [`LdError::ShardMismatch`] naming the input and the field. Slab
/// spans must be disjoint (overlap ⇒ [`LdError::ShardMismatch`]) and
/// complete (gaps ⇒ [`LdError::IncompleteShardSet`] listing the missing
/// spans — the caller reports which shard to re-run instead of writing a
/// truncated panel). Record geometry is re-verified even though
/// [`CheckpointState::from_bytes`] already checked it, so in-memory
/// states get the same scrutiny as parsed files.
///
/// Each record that passes validation bumps the
/// `merge_spans_validated` trace counter.
pub fn merge_shard_states(states: Vec<CheckpointState>) -> Result<CheckpointState, LdError> {
    let Some(first) = states.first() else {
        return Err(LdError::InvalidConfig {
            message: "no shard inputs to merge",
        });
    };
    for (i, s) in states.iter().enumerate().skip(1) {
        if let Some((field, a, b)) = s.header_mismatch(first) {
            return Err(LdError::ShardMismatch {
                message: format!(
                    "input {i} disagrees with input 0 on {field}: {a} vs {b} — \
                     these shards do not come from the same run"
                ),
            });
        }
    }
    let (n_snps, slab, n_slabs) = (first.n_snps, first.slab, first.n_slabs);
    let n_slabs_us = usize::try_from(n_slabs).map_err(|_| LdError::SizeOverflow {
        what: "shard slab count",
    })?;
    let mut owner: Vec<Option<usize>> = vec![None; n_slabs_us];
    let mut header = CheckpointState {
        records: Vec::new(),
        kernel: first.kernel.clone(),
        ..*first
    };
    let mut merged = Vec::new();
    for (i, s) in states.into_iter().enumerate() {
        for rec in s.records {
            let k = rec.index;
            if k >= n_slabs {
                return Err(LdError::ShardMismatch {
                    message: format!(
                        "input {i}: slab index {k} out of range (n_slabs = {n_slabs})"
                    ),
                });
            }
            let (r0, r1) = (k * slab, ((k + 1) * slab).min(n_snps));
            let span: u64 = (r0..r1).map(|r| n_snps - r).sum();
            if rec.start_row != r0 || rec.end_row != r1 || rec.values.len() as u64 != span {
                return Err(LdError::ShardMismatch {
                    message: format!(
                        "input {i}: slab {k} rows {}..{} with {} values does not match \
                         the {slab}-row grid over {n_snps} SNPs (expected rows {r0}..{r1}, \
                         {span} values)",
                        rec.start_row,
                        rec.end_row,
                        rec.values.len()
                    ),
                });
            }
            if let Some(prev) = owner[k as usize] {
                return Err(LdError::ShardMismatch {
                    message: format!(
                        "overlapping spans: slab {k} (rows {r0}..{r1}) appears in both \
                         input {prev} and input {i}"
                    ),
                });
            }
            owner[k as usize] = Some(i);
            ld_trace::add(Counter::MergeSpansValidated, 1);
            merged.push(rec);
        }
    }
    let covered: Vec<bool> = owner.iter().map(Option::is_some).collect();
    let missing = missing_spans(&covered);
    if !missing.is_empty() {
        return Err(LdError::IncompleteShardSet { missing, n_slabs });
    }
    merged.sort_by_key(|r| r.index);
    header.records = merged;
    Ok(header)
}

/// Reassembles a *complete* [`CheckpointState`] (every slab present) into
/// the packed [`LdMatrix`] a single-process run would have produced —
/// bit-identical, because the records hold the exact f64 bit patterns.
///
/// An incomplete state is [`LdError::IncompleteShardSet`]; this function
/// never fabricates values for missing spans.
pub fn state_to_matrix(state: &CheckpointState) -> Result<LdMatrix, LdError> {
    let n = usize::try_from(state.n_snps).map_err(|_| LdError::SizeOverflow {
        what: "shard matrix dimension",
    })?;
    let n_slabs = usize::try_from(state.n_slabs).map_err(|_| LdError::SizeOverflow {
        what: "shard slab count",
    })?;
    let mut covered = vec![false; n_slabs];
    for rec in &state.records {
        if let Some(c) = covered.get_mut(rec.index as usize) {
            *c = true;
        }
    }
    let missing = missing_spans(&covered);
    if !missing.is_empty() {
        return Err(LdError::IncompleteShardSet {
            missing,
            n_slabs: state.n_slabs,
        });
    }
    let mut out = LdMatrix::try_zeros(n)?;
    for rec in &state.records {
        let (r0, r1) = (rec.start_row as usize, (rec.end_row as usize).min(n));
        let off = packed_row_offset(n, r0);
        let len = packed_row_offset(n, r1) - off;
        if rec.values.len() != len {
            return Err(LdError::ShardMismatch {
                message: format!(
                    "slab {}: {} values but rows {r0}..{r1} pack {len}",
                    rec.index,
                    rec.values.len()
                ),
            });
        }
        out.packed_mut()[off..off + len].copy_from_slice(&rec.values);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::RunControl;
    use crate::engine::LdEngine;
    use crate::source::Source;
    use crate::stats::LdStats;
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

    #[test]
    fn plan_tiles_the_grid_and_balances_work() {
        for (n, slab, shards) in [
            (100usize, 1usize, 4usize),
            (97, 8, 3),
            (64, 64, 1),
            (10, 3, 4),
        ] {
            let plan = plan_shards(n, slab, shards).expect("plan");
            assert_eq!(plan.len(), shards);
            assert_eq!(plan[0].start, 0);
            assert_eq!(plan.last().unwrap().end, n.div_ceil(slab.min(n)));
            for w in plan.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
            }
            assert!(plan.iter().all(|r| !r.is_empty()), "no empty shard");
        }
        // triangle weighting: the first shard takes fewer slabs than the last
        let plan = plan_shards(100, 1, 4).expect("plan");
        assert!(
            plan[0].len() < plan[3].len(),
            "top-of-triangle shard must be narrower: {plan:?}"
        );
    }

    #[test]
    fn plan_rejects_degenerate_requests() {
        assert!(matches!(
            plan_shards(10, 2, 0),
            Err(LdError::InvalidConfig { .. })
        ));
        assert!(matches!(
            plan_shards(0, 2, 1),
            Err(LdError::InvalidConfig { .. })
        ));
        // 10 rows at slab 4 → 3 slabs < 5 shards
        assert!(matches!(
            plan_shards(10, 4, 5),
            Err(LdError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn slab_range_accessors() {
        let r = SlabRange::new(2, 5);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(r.contains(2) && r.contains(4) && !r.contains(5));
        assert_eq!(r.rows(3, 100), (6, 15));
        assert_eq!(r.rows(3, 13), (6, 13));
        assert_eq!(r.to_string(), "2..5");
        assert!(SlabRange::new(4, 4).is_empty());
    }

    #[test]
    fn sharded_run_merges_bit_identical_to_single_run() {
        let g = pseudo(60, 37, 5);
        let e = LdEngine::new().threads(2).slab_rows(4);
        for stat in [LdStats::RSquared, LdStats::D] {
            let full = e.try_stat_matrix(&g, stat).expect("single run");
            let plan = e.shard_plan_from(&Source::from(&g), 3).expect("plan");
            let mut states = Vec::new();
            for range in plan {
                let ctl = RunControl::new().with_shard(range);
                states.push(e.try_stat_shard_with(&g, stat, &ctl).expect("shard"));
            }
            // shard outputs survive the interchange format losslessly
            let states: Vec<_> = states
                .iter()
                .map(|s| CheckpointState::from_bytes(&s.to_bytes()).expect("roundtrip"))
                .collect();
            let merged = merge_shard_states(states).expect("merge");
            let m = state_to_matrix(&merged).expect("assemble");
            assert_eq!(m.packed().len(), full.packed().len());
            for (a, b) in m.packed().iter().zip(full.packed()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{stat:?}");
            }
        }
    }

    /// Regression: a binding budget gives the two sources different slab
    /// grids (their budget models differ), so a store run must be planned
    /// on the *store's* grid. Planning it with the in-memory model used to
    /// hand the last shards ranges past the end of the grid actually run.
    #[test]
    fn store_shards_are_planned_on_the_grid_the_store_runs() {
        use crate::error::MemoryBudget;
        use crate::tilestore::MemoryTileStore;
        let (n, threads) = (200usize, 2usize);
        let g = pseudo(512, n, 21);
        let store = MemoryTileStore::from_matrix(&g, 8).expect("import");
        let src = Source::Store(&store);
        // room for exactly 10 slab rows under the in-memory model; the
        // store model (no per-thread scratch) fits the configured 64
        let budget = 8 * (n * (n + 1) / 2) + 20 * n + 10 * threads * n * 4;
        let e = LdEngine::new()
            .threads(threads)
            .slab_rows(64)
            .memory_budget(MemoryBudget::bytes(budget));
        assert_eq!(e.slab_for(&Source::from(&g), true).unwrap(), 10);
        assert_eq!(e.slab_for(&src, true).unwrap(), 64);
        let oracle = e.stat_matrix_twopass(&g, LdStats::RSquared);
        for n_shards in [2usize, 3] {
            let plan = e.shard_plan_from(&src, n_shards).expect("plan");
            let in_memory = e.shard_plan_from(&Source::from(&g), n_shards).unwrap();
            assert_ne!(plan, in_memory, "the grids differ");
            let states = plan
                .into_iter()
                .map(|range| {
                    let ctl = RunControl::new().with_shard(range);
                    e.try_stat_shard_with(src, LdStats::RSquared, &ctl)
                        .unwrap_or_else(|err| panic!("{n_shards}-way shard {range}: {err}"))
                })
                .collect();
            let m = state_to_matrix(&merge_shard_states(states).expect("merge")).unwrap();
            for (a, b) in m.packed().iter().zip(oracle.packed()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{n_shards}-way");
            }
        }
    }

    #[test]
    fn merge_rejects_overlap_and_reports_gaps() {
        let g = pseudo(40, 20, 9);
        let e = LdEngine::new().threads(1).slab_rows(4); // 5 slabs
        let plan = e.shard_plan_from(&Source::from(&g), 2).expect("plan");
        let shard = |r: SlabRange| {
            let ctl = RunControl::new().with_shard(r);
            e.try_stat_shard_with(&g, LdStats::RSquared, &ctl)
                .expect("shard")
        };
        let (a, b) = (shard(plan[0]), shard(plan[1]));
        // overlap: the same shard twice
        let err = merge_shard_states(vec![a.clone(), a.clone()]).unwrap_err();
        match err {
            LdError::ShardMismatch { message } => {
                assert!(message.contains("overlapping"), "{message}")
            }
            other => panic!("expected ShardMismatch, got {other}"),
        }
        // gap: second shard missing → typed report naming its spans
        let err = merge_shard_states(vec![a.clone()]).unwrap_err();
        match &err {
            LdError::IncompleteShardSet { missing, n_slabs } => {
                assert_eq!(*n_slabs, 5);
                assert_eq!(missing, &[(plan[1].start as u64, plan[1].end as u64)]);
            }
            other => panic!("expected IncompleteShardSet, got {other}"),
        }
        assert!(err.to_string().contains("missing"), "{err}");
        // assembling an incomplete state is refused the same way
        assert!(matches!(
            state_to_matrix(&a),
            Err(LdError::IncompleteShardSet { .. })
        ));
        // complete set is fine
        assert!(merge_shard_states(vec![a, b]).is_ok());
    }

    #[test]
    fn merge_rejects_cross_run_inputs_field_by_field() {
        let g = pseudo(40, 20, 9);
        let e = LdEngine::new().threads(1).slab_rows(4);
        let plan = e.shard_plan_from(&Source::from(&g), 2).expect("plan");
        let mk = |stat, range: SlabRange| {
            let ctl = RunControl::new().with_shard(range);
            e.try_stat_shard_with(&g, stat, &ctl).expect("shard")
        };
        let a = mk(LdStats::RSquared, plan[0]);
        let b = mk(LdStats::RSquared, plan[1]);
        let cases: Vec<(CheckpointState, &str)> = vec![
            (
                CheckpointState {
                    matrix_hash: b.matrix_hash ^ 1,
                    ..b.clone()
                },
                "fingerprint",
            ),
            (
                CheckpointState {
                    n_samples: 99,
                    ..b.clone()
                },
                "n_samples",
            ),
            (mk(LdStats::D, plan[1]), "statistic"),
            (
                CheckpointState {
                    kernel: "other-kernel".to_owned(),
                    ..b.clone()
                },
                "kernel",
            ),
            (
                CheckpointState {
                    slab: 5,
                    ..b.clone()
                },
                "slab geometry",
            ),
        ];
        for (bad, needle) in cases {
            let err = merge_shard_states(vec![a.clone(), bad]).unwrap_err();
            let msg = err.to_string();
            assert!(
                matches!(err, LdError::ShardMismatch { .. }),
                "expected ShardMismatch for {needle}: {msg}"
            );
            assert!(msg.contains(needle), "wanted {needle} in: {msg}");
        }
        // empty input set is a config error, not a silent empty panel
        assert!(matches!(
            merge_shard_states(vec![]),
            Err(LdError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn shard_resume_rejects_out_of_range_snapshot() {
        use crate::checkpoint::MemorySink;
        use crate::control::CheckpointPlan;
        let g = pseudo(40, 20, 11);
        let e = LdEngine::new().threads(1).slab_rows(4); // 5 slabs
        let plan = e.shard_plan_from(&Source::from(&g), 2).expect("plan");
        // checkpoint written by shard 1 ...
        let sink = MemorySink::new();
        let ctl = RunControl::new()
            .with_shard(plan[1])
            .with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
        e.try_stat_shard_with(&g, LdStats::RSquared, &ctl)
            .expect("shard 1");
        let snap = CheckpointState::from_bytes(&sink.latest().expect("snapshot")).expect("parse");
        assert!(!snap.records.is_empty());
        // ... must be rejected when resuming shard 0 (spans out of range)
        let ctl = RunControl::new()
            .with_shard(plan[0])
            .with_checkpoint(CheckpointPlan::new(&sink).resume_from(snap));
        let err = e
            .try_stat_shard_with(&g, LdStats::RSquared, &ctl)
            .unwrap_err();
        match &err {
            LdError::Checkpoint { message } => {
                assert!(message.contains("outside"), "{message}");
                assert!(message.contains("shard"), "{message}");
            }
            other => panic!("expected Checkpoint error, got {other}"),
        }
    }

    #[test]
    fn shard_range_must_fit_the_grid() {
        let g = pseudo(40, 20, 13);
        let e = LdEngine::new().threads(1).slab_rows(4); // 5 slabs
        for bad in [
            SlabRange::new(3, 3),
            SlabRange::new(4, 6),
            SlabRange::new(5, 4),
        ] {
            let ctl = RunControl::new().with_shard(bad);
            assert!(
                matches!(
                    e.try_stat_shard_with(&g, LdStats::RSquared, &ctl),
                    Err(LdError::InvalidConfig { .. })
                ),
                "{bad}"
            );
        }
        // and the shard entry point requires a shard
        assert!(matches!(
            e.try_stat_shard_with(&g, LdStats::RSquared, &RunControl::new()),
            Err(LdError::InvalidConfig { .. })
        ));
    }
}
