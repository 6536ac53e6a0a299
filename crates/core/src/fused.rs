//! The numeric pieces of the fused counts→statistic pipeline.
//!
//! The classical two-pass formulation materializes the full `n × n` u32
//! counts matrix (`SYRK` + mirror), then transforms it into the packed
//! statistic triangle — `4n²` bytes of transient memory and a full second
//! sweep over cold data. The slab driver ([`crate::driver`]) fuses the
//! two; this module holds what it fuses *with*:
//!
//! * `Transform` — the per-SNP tables `p` and `1/(p(1−p))` and the one
//!   body (`Transform::apply_span`) that turns a span of counts into
//!   statistics: the batched §II-B rank-1 correction `D = H − p pᵀ`, then
//!   `r²` as two multiplies and a subtract per pair, applied while the
//!   counts are still hot in the worker's scratch — and, for the
//!   statistics over several bit planes per site ([`crate::Statistic`]),
//!   the tail that reads a site pair's `k × k` block of plane products;
//! * `SyncSlice` — the slab driver's disjoint-range access to the packed
//!   output (and the read side of the checkpoint done-flag protocol);
//! * [`RowSlabVisit`] — what a streaming visitor
//!   ([`crate::LdEngine::try_stat_rows_with`]) sees of one finished slab,
//!   and [`in_row_order`], the two-phase adaptor for visitors that need
//!   the slabs in ascending row order: per-slab work unlocked, ordered
//!   hand-off under its own lock.

use crate::driver::lock;
use crate::error::{try_zeroed_vec, LdError};
use crate::stats::{
    ld_pair_from_counts, stat_from_counts, tanimoto_from_counts, LdStats, NanPolicy, Statistic,
};
use ld_bitmat::BitMatrixView;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Mutex;

/// Row offset of row `i` in the packed upper triangle of an `n × n`
/// symmetric matrix: `Σ_{t<i}(n−t) = i·n − i(i−1)/2` (underflow-free form).
#[inline]
pub(crate) fn packed_row_offset(n: usize, i: usize) -> usize {
    i * n - (i * i - i) / 2
}

/// Per-SNP transform tables, precomputed once from the standalone popcount
/// pass — the batched §II-B rank-1 correction.
pub(crate) struct Transform {
    stat: Statistic,
    policy: NanPolicy,
    inv_n: f64,
    /// Set bits per panel column `|s_j|` (the SYRK diagonal, obtained
    /// without SYRK); site `j`'s planes are columns `k·j .. k·j + k`.
    diag: Vec<u32>,
    /// `p_j = |s_j|/N` (RSquared only).
    p: Vec<f64>,
    /// `1/(p_j(1−p_j))`, or NaN/0 per policy when monomorphic (RSquared only).
    inv_var: Vec<f64>,
}

impl Transform {
    /// Builds the tables for `stat` over the SNPs of `v`.
    ///
    /// # Panics
    /// If `v` has zero samples, or a per-SNP allele count exceeds
    /// `u32::MAX` (see [`Transform::try_new`]).
    pub fn new(v: &BitMatrixView<'_>, stat: LdStats, policy: NanPolicy) -> Self {
        match Self::try_new(v, stat.into(), policy) {
            Ok(tr) => tr,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Transform::new`]: zero samples is [`LdError::EmptyInput`]
    /// for an LD statistic; a per-SNP allele count above `u32::MAX` (a
    /// haplotype set too large for the u32 counts pipeline) is
    /// [`LdError::SizeOverflow`] instead of a silent `as u32` truncation;
    /// table allocation goes through `try_reserve`.
    pub fn try_new(
        v: &BitMatrixView<'_>,
        stat: Statistic,
        policy: NanPolicy,
    ) -> Result<Self, LdError> {
        let n = v.n_snps();
        let mut tr = Self::empty(n, v.n_samples(), stat, policy)?;
        let mut diag: Vec<u32> = try_zeroed_vec(n, "per-SNP allele-count table")?;
        for (j, d) in diag.iter_mut().enumerate() {
            *d = u32::try_from(v.ones_in_snp(j)).map_err(|_| LdError::SizeOverflow {
                what: "per-SNP allele count (> u32::MAX haplotypes)",
            })?;
        }
        tr.fill_span(0, &diag);
        Ok(tr)
    }

    /// All-zero tables for `n` SNPs, to be populated span-by-span with
    /// [`fill_span`] as allele counts become known. The store source
    /// fills each chunk's span when the chunk first streams past;
    /// [`try_new`] is the everything-at-once case over a resident matrix,
    /// so every construction path runs the same per-element arithmetic —
    /// the bit-identity argument needs exactly one body computing `p` and
    /// `1/(p(1−p))`, and the counts are exact `u32`s either way.
    ///
    /// [`fill_span`]: Transform::fill_span
    /// [`try_new`]: Transform::try_new
    pub fn empty(
        n: usize,
        n_samples: usize,
        stat: Statistic,
        policy: NanPolicy,
    ) -> Result<Self, LdError> {
        // the other statistics are defined on zero samples (and never
        // read `inv_n`)
        if n_samples == 0 && matches!(stat, Statistic::Ld(_)) {
            return Err(LdError::EmptyInput);
        }
        let inv_n = 1.0 / n_samples as f64;
        let diag: Vec<u32> = try_zeroed_vec(n, "per-SNP allele-count table")?;
        let (p, inv_var) = if stat == Statistic::Ld(LdStats::RSquared) {
            (
                try_zeroed_vec::<f64>(n, "allele-frequency table")?,
                try_zeroed_vec::<f64>(n, "reciprocal-variance table")?,
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(Self {
            stat,
            policy,
            inv_n,
            diag,
            p,
            inv_var,
        })
    }

    /// Populates columns `j0 .. j0 + diag_span.len()` of the tables from
    /// their allele counts. Idempotent (the values are pure functions of
    /// the counts), so re-filling a span a later slab streams past again
    /// is harmless.
    pub fn fill_span(&mut self, j0: usize, diag_span: &[u32]) {
        self.diag[j0..j0 + diag_span.len()].copy_from_slice(diag_span);
        if self.stat == Statistic::Ld(LdStats::RSquared) {
            let undef = self.policy.undefined();
            for (t, &c) in diag_span.iter().enumerate() {
                let pj = c as f64 * self.inv_n;
                self.p[j0 + t] = pj;
                let var = pj * (1.0 - pj);
                self.inv_var[j0 + t] = if var > 0.0 {
                    1.0 / var
                } else {
                    undef // NaN/0 propagates through the products
                };
            }
        }
    }

    /// Transforms a span of site row `i` against sites `j0 .. j0 + len`,
    /// writing the statistic into `dst[t]` — the one counts→statistic
    /// body. With `k` planes per site, plane `a` of site `i` against plane
    /// `b` of site `j0 + t` is `counts[a·ld + k·t + b]` (`ld`, the stride
    /// between plane rows, is unused at `k = 1`, where `counts[t] =
    /// s_iᵀ s_{j0+t}`). The two-pass driver transforms whole rows
    /// (`j0 = i`); the slab driver uses arbitrary `j0` because a store
    /// source delivers a row's columns one chunk at a time, and the cross
    /// driver tables that hold both operands end to end. The expression
    /// order is identical, so spans concatenate to a bit-identical row. The
    /// `r²` branch is the batched form — two multiplies and a subtract per
    /// pair, no divide, no branch.
    ///
    /// The other statistics are bit-identical to their pairwise oracles
    /// (`ld-ext`) because every count is an exact integer and the tail is
    /// the oracle's own expression over it:
    ///
    /// * Tanimoto is [`tanimoto_from_counts`]`(diag_i, diag_j, x)`;
    /// * masked `r²` is `ld_pair_from_counts(d_i·v_j, v_i·d_j, d_i·d_j,
    ///   v_i·v_j, policy).r2` over the planes `d = s ∧ v`, `v` — the
    ///   division form the oracle uses — and undefined where `v_i·v_j = 0`;
    /// * Zaykin's `T` is `t_statistic`'s sum in its `(si, sj)` order, with
    ///   `v_i` the nucleotide planes of site `i` with a non-zero diagonal
    ///   and the masked counts as plane products — `ones_i = p_si,i·c_j`,
    ///   `ones_j = c_i·p_sj,j`, `both = p_si,i·p_sj,j`, `v_ij = c_i·c_j` —
    ///   which hold because a nucleotide plane lies inside the validity
    ///   plane (gaps set no plane).
    ///
    /// SYRK leaves entries left of the diagonal unspecified, so the
    /// diagonal site block is read at `(min(a, b), max(a, b))`.
    #[inline]
    pub fn apply_span(&self, i: usize, j0: usize, counts: &[u32], ld: usize, dst: &mut [f64]) {
        let k = self.stat.planes();
        debug_assert_eq!(counts.len(), (k - 1) * ld + k * dst.len());
        // plane `a` of site `i` against plane `b` of site `j0 + t`
        let at = |t: usize, a: usize, b: usize| {
            let (a, b) = if j0 + t == i {
                (a.min(b), a.max(b))
            } else {
                (a, b)
            };
            u64::from(counts[a * ld + k * t + b])
        };
        match self.stat {
            Statistic::Ld(LdStats::RSquared) => {
                let (p_i, iv_i) = (self.p[i], self.inv_var[i]);
                for (t, (&c, d)) in counts.iter().zip(dst.iter_mut()).enumerate() {
                    let j = j0 + t;
                    *d = r2_of(c, self.inv_n, (p_i, iv_i), (self.p[j], self.inv_var[j]));
                }
            }
            Statistic::Ld(stat) => {
                let c_ii = self.diag[i];
                for (t, (&c, d)) in counts.iter().zip(dst.iter_mut()).enumerate() {
                    *d =
                        stat_from_counts(stat, c_ii, self.diag[j0 + t], c, self.inv_n, self.policy);
                }
            }
            Statistic::Tanimoto => {
                let p = u64::from(self.diag[i]);
                for (t, (&x, d)) in counts.iter().zip(dst.iter_mut()).enumerate() {
                    *d = tanimoto_from_counts(p, u64::from(self.diag[j0 + t]), u64::from(x));
                }
            }
            Statistic::MaskedR2 => {
                for (t, d) in dst.iter_mut().enumerate() {
                    let valid = at(t, 1, 1);
                    *d = if valid == 0 {
                        self.policy.undefined()
                    } else {
                        let (ones_i, ones_j, both) = (at(t, 0, 1), at(t, 1, 0), at(t, 0, 0));
                        ld_pair_from_counts(ones_i, ones_j, both, valid, self.policy).r2
                    };
                }
            }
            Statistic::ZaykinT => {
                let states = |s: usize| self.diag[5 * s..5 * s + 4].iter().filter(|&&c| c > 0);
                let v_i = states(i).count();
                for (t, d) in dst.iter_mut().enumerate() {
                    let (v_j, v_ij) = (states(j0 + t).count(), at(t, 4, 4));
                    if v_i <= 1 || v_j <= 1 || v_ij == 0 {
                        *d = self.policy.undefined();
                        continue;
                    }
                    let mut sum_r2 = 0.0;
                    for si in 0..4 {
                        for sj in 0..4 {
                            let (ones_i, ones_j, both) =
                                (at(t, si, 4), at(t, 4, sj), at(t, si, sj));
                            sum_r2 +=
                                ld_pair_from_counts(ones_i, ones_j, both, v_ij, NanPolicy::Zero).r2;
                        }
                    }
                    let (v_i, v_j, v_ij) = (v_i as f64, v_j as f64, v_ij as f64);
                    *d = ((v_i - 1.0) * (v_j - 1.0) * v_ij / (v_i * v_j)) * sum_r2;
                }
            }
        }
    }

    /// The `r²` of site `i` against sites `j0 .. j0 + dst.len()` into
    /// `dst`, each pair as [`Transform::apply_span`]'s `r²` arm computes it
    /// with the site of lower original index as the row: `oi` is site
    /// `i`'s original index and `order[t]` site `j0 + t`'s. The staircase's
    /// pair sink runs on sites in sorted order, and this keeps its values
    /// bit-identical to the rows'. Only the reciprocal variances need the
    /// order — `p_i·p_j` is one IEEE product either way — so it is a
    /// select per pair rather than a branch, and the row is transformed
    /// whole before the sink filters it.
    #[inline]
    pub(crate) fn r2_span_ordered(
        &self,
        i: usize,
        oi: usize,
        j0: usize,
        order: &[usize],
        counts: &[u32],
        dst: &mut [f64],
    ) {
        let len = dst.len();
        let (p_i, iv_i) = (self.p[i], self.inv_var[i]);
        let (p, iv) = (&self.p[j0..j0 + len], &self.inv_var[j0..j0 + len]);
        let (order, counts) = (&order[..len], &counts[..len]);
        for t in 0..len {
            let (row, col) = if oi < order[t] {
                (iv_i, iv[t])
            } else {
                (iv[t], iv_i)
            };
            dst[t] = r2_of(counts[t], self.inv_n, (p_i, row), (p[t], col));
        }
    }
}

/// The one `r²` expression: `D = c/N − p_i p_j`, then `(D²·iv_i)·iv_j`
/// from the row site's `(p_i, iv_i)` and the column site's `(p_j, iv_j)`.
/// The order of the operands is part of the value: `(D²·iv_j)·iv_i`
/// rounds differently.
#[inline(always)]
fn r2_of(c: u32, inv_n: f64, (p_i, iv_i): (f64, f64), (p_j, iv_j): (f64, f64)) -> f64 {
    let dev = c as f64 * inv_n - p_i * p_j;
    (dev * dev) * iv_i * iv_j
}

/// A Send+Sync raw-pointer wrapper for handing disjoint subslices of one
/// buffer to a worker team. Soundness argument: the slab driver
/// partitions the packed output by row slab, and each slab is claimed by
/// exactly one worker (the atomic counter in
/// `try_parallel_for_dynamic_init_ctl` hands out disjoint ranges).
///
/// The slab driver is its one user because its checkpoint writer reads
/// *finished* slabs ([`SyncSlice::slice_ref`]) while workers are still
/// writing others — a shared read beside live writes into the same
/// buffer, which a split borrow cannot express. Every other parallel fill
/// splits its output into `&mut` parts and hands them to
/// `ld_parallel::try_for_each_part`, with no `unsafe`.
pub(crate) struct SyncSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Holds the exclusive borrow of the buffer for `'a`: nothing else can
    /// read, write or free it while slices handed out here may be live.
    _buf: PhantomData<&'a mut [T]>,
}

// SAFETY: the wrapper is a `&'a mut [T]` in pointer form. Moving it to
// another thread lets that thread write (and drop the overwritten) `T`s
// through `slice`, which is sending `T`s across threads: `T: Send`.
unsafe impl<T: Send> Send for SyncSlice<'_, T> {}
// SAFETY: sharing `&SyncSlice` lets several threads call `slice` (each on
// its own disjoint range, by that method's contract — again `T: Send`)
// and `slice_ref`, which hands the same `&T`s to more than one thread:
// `T: Sync`.
unsafe impl<T: Send + Sync> Sync for SyncSlice<'_, T> {}

impl<'a, T> SyncSlice<'a, T> {
    /// Takes over `buf`'s exclusive borrow; from here on the aliasing
    /// discipline inside the buffer is [`SyncSlice::slice`]'s contract.
    pub(crate) fn new(buf: &'a mut [T]) -> Self {
        Self {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _buf: PhantomData,
        }
    }

    /// `ptr + off`, after checking `[off, off + len)` lies in the buffer.
    fn start(&self, off: usize, len: usize) -> *mut T {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "range {off}+{len} outside a buffer of {}",
            self.len
        );
        // SAFETY: `off <= self.len` was just checked, so the offset stays
        // inside (or one past) the allocation `ptr` was taken from.
        unsafe { self.ptr.add(off) }
    }

    /// Reborrows the disjoint subrange `[off, off + len)`.
    ///
    /// # Safety
    /// Callers must guarantee no two live slices returned from this method
    /// overlap (the engine's slab partitioning does).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice(&self, off: usize, len: usize) -> &mut [T] {
        // SAFETY: the range is in bounds (`start`), the buffer is
        // exclusively borrowed for `'a` (`_buf`), and the caller promises
        // no other live slice overlaps it.
        unsafe { std::slice::from_raw_parts_mut(self.start(off, len), len) }
    }

    /// Read-only reborrow of `[off, off + len)` — used by the checkpoint
    /// writer to snapshot *completed* slab ranges while other workers are
    /// still writing *their own* (disjoint) ranges.
    ///
    /// # Safety
    /// The range must not overlap any live `&mut` from
    /// [`SyncSlice::slice`]; completed-slab ranges satisfy this because a
    /// slab's mutable slice is dropped before its done flag is released,
    /// and readers acquire that flag first.
    pub(crate) unsafe fn slice_ref(&self, off: usize, len: usize) -> &[T] {
        // SAFETY: in bounds (`start`), buffer borrowed for `'a`, and the
        // caller promises no live `&mut` overlaps the range.
        unsafe { std::slice::from_raw_parts(self.start(off, len), len) }
    }
}

/// One row slab of a streamed LD computation (see
/// [`crate::LdEngine::try_stat_rows_with`]).
///
/// The slab covers rows `row_start..row_start + n_rows` of the upper
/// triangle; row `r` holds the statistics for SNP `i = row_start + r`
/// against every SNP `j ≥ i` — under a column band `w`
/// ([`crate::RunControl::with_band`]), every `j` in `i ..= i + w`.
#[derive(Debug)]
pub struct RowSlabVisit<'a> {
    pub(crate) row_start: usize,
    pub(crate) n_rows: usize,
    pub(crate) n_snps: usize,
    /// The run's column band, clamped to `n_snps` (= none).
    pub(crate) band: usize,
    /// Stride between consecutive slab rows in `values`.
    pub(crate) ldv: usize,
    /// Slab-local values: row `r`, column `j` at
    /// `values[r · ldv + (j − row_start)]` for `j ≥ row_start + r`.
    pub(crate) values: &'a [f64],
}

impl RowSlabVisit<'_> {
    /// Global index of the first row SNP in this slab.
    pub fn row_start(&self) -> usize {
        self.row_start
    }

    /// Number of rows in this slab.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Total SNP count of the underlying matrix.
    pub fn n_snps(&self) -> usize {
        self.n_snps
    }

    /// The statistic for slab row `r` (global SNP `row_start + r`) against
    /// global SNP `j`; requires `j ≥ row_start + r` (the slab stores only
    /// the upper triangle) and `j` inside the run's band.
    pub fn value(&self, r: usize, j: usize) -> f64 {
        let i = self.row_start + r;
        assert!(r < self.n_rows, "slab row {r} out of range");
        assert!(
            i <= j && j < self.n_snps && j - i <= self.band,
            "column {j} outside row {i}'s upper triangle or band"
        );
        self.values[r * self.ldv + (j - self.row_start)]
    }

    /// The statistics of slab row `r` (global SNP `i = row_start + r`)
    /// against SNPs `i ..= n_snps − 1` — `i ..= i + w` under a band `w`,
    /// cut at the last SNP — in order; `row(r)[0]` is the diagonal entry.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.n_rows, "slab row {r} out of range");
        let i = self.row_start + r;
        let end = self.n_snps.min(i + self.band + 1);
        &self.values[r * self.ldv + r..r * self.ldv + (end - self.row_start)]
    }

    /// Iterates `(global_row, stats)` pairs over the slab's rows.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[f64])> + '_ {
        (0..self.n_rows).map(move |r| (self.row_start + r, self.row(r)))
    }

    /// The slab cut into consecutive sub-slabs of `rows` rows (the last
    /// may be shorter), lowest rows first — views of the same values. A
    /// visitor whose per-slab product is much larger than the slab (a
    /// formatted table block is) works through the parts to bound what it
    /// holds at a time.
    pub fn parts(&self, rows: usize) -> impl Iterator<Item = RowSlabVisit<'_>> + '_ {
        let rows = rows.max(1);
        (0..self.n_rows).step_by(rows).map(move |r0| RowSlabVisit {
            row_start: self.row_start + r0,
            n_rows: rows.min(self.n_rows - r0),
            // row `r0`'s own column is the part's column 0
            values: &self.values[r0 * self.ldv + r0..],
            ..*self
        })
    }
}

/// The ordered hand-off behind [`in_row_order`]: payloads that arrived
/// early, the row the next delivery starts at, and the consumer.
struct RowQueue<T, D> {
    pending: BTreeMap<usize, (usize, T)>,
    next_row: usize,
    deliver: D,
}

/// [`in_row_order`]'s two phases around its one lock.
struct RowOrdered<T, M, D> {
    make: M,
    queue: Mutex<RowQueue<T, D>>,
}

impl<T, M, D> RowOrdered<T, M, D>
where
    M: Fn(&RowSlabVisit<'_>) -> T,
    D: FnMut(T),
{
    fn visit(&self, s: &RowSlabVisit<'_>) {
        let payload = (self.make)(s);
        let mut guard = lock(&self.queue);
        let q = &mut *guard;
        q.pending.insert(s.row_start(), (s.n_rows(), payload));
        while let Some((rows, payload)) = q.pending.remove(&q.next_row) {
            q.next_row += rows;
            (q.deliver)(payload);
        }
    }
}

/// A row-slab visitor in two phases, for consumers that need the slabs
/// **in ascending row order** whatever order they finish in.
///
/// `make` turns each finished slab into a payload (a formatted table
/// block, a candidate list, a copy of the values an order-sensitive fold
/// needs). It runs on the worker that computed the slab with **no lock
/// held**, so payloads of different slabs are made in parallel. Only the
/// hand-off is serialised: under the adaptor's lock, payloads that are
/// early are held, and `deliver` receives every payload exactly once,
/// lowest rows first. From a store read in more than one window (which
/// hands slabs over in ascending order) nothing is ever held past the
/// slab just made; a store read in one window, like memory, delivers in
/// any order. The run must start at row 0 — a shard window that does not
/// would never deliver.
///
/// Pass the result to [`crate::LdEngine::try_stat_rows_with`].
pub fn in_row_order<'a, T: Send + 'a>(
    make: impl Fn(&RowSlabVisit<'_>) -> T + Sync + 'a,
    deliver: impl FnMut(T) + Send + 'a,
) -> impl Fn(&RowSlabVisit<'_>) + Sync + 'a {
    let ordered = RowOrdered {
        make,
        queue: Mutex::new(RowQueue {
            pending: BTreeMap::new(),
            next_row: 0,
            deliver,
        }),
    };
    move |s| ordered.visit(s)
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

    #[test]
    fn packed_offsets_tile_the_triangle() {
        let n = 9;
        assert_eq!(packed_row_offset(n, 0), 0);
        assert_eq!(packed_row_offset(n, n), n * (n + 1) / 2);
        for i in 0..n {
            assert_eq!(
                packed_row_offset(n, i + 1) - packed_row_offset(n, i),
                n - i,
                "row {i}"
            );
        }
    }

    /// Every arrival order of five slabs: `deliver` gets each payload
    /// once, lowest rows first, as soon as its predecessors have arrived;
    /// `make` runs with the adaptor's lock free and `deliver` with it held.
    #[test]
    fn in_row_order_locks_only_the_ordered_hand_off() {
        use std::cell::{OnceCell, RefCell};
        use std::rc::Rc;
        // (first row, rows) of slabs of uneven height tiling rows 0..12
        let slabs = [(0usize, 3usize), (3, 1), (4, 5), (9, 2), (11, 1)];
        let mut orders = vec![vec![]];
        for k in 0..slabs.len() {
            orders = orders
                .iter()
                .flat_map(|o: &Vec<usize>| {
                    (0..=o.len()).map(move |at| {
                        let mut o = o.clone();
                        o.insert(at, k);
                        o
                    })
                })
                .collect();
        }
        assert_eq!(orders.len(), 120);
        for order in orders {
            // "is the adaptor's lock free right now?", answerable from
            // inside its own closures
            let lock_is_free: Rc<OnceCell<Box<dyn Fn() -> bool>>> = Rc::default();
            let (in_make, in_deliver) = (lock_is_free.clone(), lock_is_free.clone());
            let delivered = Rc::new(RefCell::new(Vec::new()));
            let sink = delivered.clone();
            let ordered = Rc::new(RowOrdered {
                make: move |s: &RowSlabVisit<'_>| {
                    assert!(in_make.get().unwrap()(), "make ran under the lock");
                    s.row_start()
                },
                queue: Mutex::new(RowQueue {
                    pending: BTreeMap::new(),
                    next_row: 0,
                    deliver: move |row: usize| {
                        assert!(!in_deliver.get().unwrap()(), "deliver ran unlocked");
                        sink.borrow_mut().push(row);
                    },
                }),
            });
            let weak = Rc::downgrade(&ordered);
            let probe = move || weak.upgrade().unwrap().queue.try_lock().is_ok();
            assert!(lock_is_free.set(Box::new(probe)).is_ok());
            let mut arrived = [false; 5];
            for &k in &order {
                ordered.visit(&RowSlabVisit {
                    row_start: slabs[k].0,
                    n_rows: slabs[k].1,
                    n_snps: 12,
                    band: 12,
                    ldv: 12,
                    values: &[],
                });
                arrived[k] = true;
                let ready = arrived.iter().take_while(|&&a| a).count();
                let want: Vec<usize> = slabs[..ready].iter().map(|s| s.0).collect();
                assert_eq!(*delivered.borrow(), want, "{order:?} after slab {k}");
            }
            assert_eq!(delivered.borrow().len(), 5, "{order:?}");
        }
    }

    #[test]
    fn transform_pair_matches_row() {
        let g = pseudo(50, 8, 11);
        let v = g.full_view();
        let tr = Transform::new(&v, LdStats::RSquared, NanPolicy::Propagate);
        assert_eq!(tr.diag.len(), 8);
        let c_03 = ld_popcount::and_popcount(v.snp_words(0), v.snp_words(3)) as u32;
        let mut row = vec![0.0f64; 8];
        let counts: Vec<u32> = (0..8)
            .map(|j| ld_popcount::and_popcount(v.snp_words(0), v.snp_words(j)) as u32)
            .collect();
        tr.apply_span(0, 0, &counts, 8, &mut row);
        let mut pair = [0.0f64];
        tr.apply_span(0, 3, &[c_03], 1, &mut pair);
        assert_eq!(pair[0].to_bits(), row[3].to_bits());
    }
}
