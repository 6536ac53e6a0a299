//! The frequency-sorted staircase band of a thresholded `r²` run.
//!
//! A run that keeps only the pairs with `r² ≥ t` need not compute the
//! others, and allele frequencies alone say which those are. With
//! minor-allele frequencies `q_i ≤ q_j ≤ ½`, Lewontin's bound on `|D|` is
//! `q_i(1 − q_j)` for either sign of `D` (`q_i q_j ≤ q_i(1 − q_j)` because
//! `q_j ≤ ½`), so
//!
//! ```text
//! r² = D² / (q_i(1−q_i) q_j(1−q_j)) ≤ q_i(1−q_j) / ((1−q_i) q_j) = odds(q_i) / odds(q_j),
//! ```
//!
//! `odds(q) = q / (1 − q)`; `r²` is unchanged by which allele a site
//! codes as 1, so the bound holds for every coding. In allele counts
//! `a = min(c, N − c)` it is `a_i (N − a_j) / (a_j (N − a_i))`, exact in
//! integers. A site with `a = 0` (monomorphic, or carried by every
//! sample) has an undefined `r²` — `NaN` or `0` by [`crate::NanPolicy`] — which
//! no positive threshold keeps.
//!
//! Sort the sites by `a` (stable: ties keep index order). For sorted row
//! `s` the bound falls along the row, and rises from row to row, so the
//! pairs that can pass form a staircase: row `s` keeps sorted columns
//! `s .. e(s)` with `e` non-decreasing. `R2Staircase` is that plan; the
//! slab driver runs it as a grid whose rows end at `e(s)` instead of at
//! `s + w + 1` (a column band is the staircase `e(s) = s + w + 1`), over
//! the panel's sites in sorted order, permuted in place so that the
//! sorted panel replaces the run's instead of sitting beside it.
//!
//! **No pair an unpruned run keeps is cut.** The computed `r²` is not the
//! exact one: `D = c/N − p_i p_j` is formed in `f64` with an absolute
//! error of a few units in the last place of `max(c/N, p_i p_j) ≤ 1`,
//! while the bound's `|D| ≤ q_i(1 − q_j) ≥ 1/(2N)`; relative to the
//! bound that is below `16·u·N` on `|D|`, `u = 2⁻⁵³`, so the computed
//! value exceeds the bound by a relative `32·u·N` plus a dozen `u` of
//! the products at most. A column is therefore cut only when its bound
//! is below `t · (1 − m)` with the relative margin `m = 10⁻⁹ + N·2⁻⁴⁶`
//! (`128·u·N`, twice the analysis), compared from the exact integer
//! products. Nested carrier sets attain the bound exactly, and the
//! property suite pins such pairs at `t` equal to their computed value.
//!
//! Each computed pair is transformed in original index order `(min,
//! max)` — `(D²·iv_i)·iv_j` does not round like `(D²·iv_j)·iv_i` — so a
//! kept value is bit-identical to the same pair of the unpruned run, and
//! kept with [`r2_keeps`], the rule of the pair table.
//!
//! **One bit per candidate pair.** A kept pair is not stored: the worker
//! that computes sorted row `s` sets bit `t` of the row's `e(s) − s − 1`
//! bits for column `s + 1 + t`, each row on its own words, so the memory a
//! run holds is known from the plan before any pair is computed. After
//! the grid the pairs are handed over **per original row `i`, ascending,
//! each row's `j` ascending**: one pass over the bitset's words finds the
//! rows that own a kept pair (the pair's lower original index), and each
//! such row collects its partners from its sorted row's words and its
//! sorted column's bits. Each value is recounted from the exact integer
//! count — one `and_popcount` of the two sorted sites — through the same
//! `r²` expression at the same `(min, max)` order, so it carries the bits
//! the grid computed.
//!
//! **Where the plan is chosen.** Nothing outside this crate builds or runs
//! a staircase: [`crate::LdEngine::try_rows_in_order_with`] — the one row
//! verb of a thresholded table or listing — plans one for an `r²` run with
//! a positive threshold and no shard range, checkpoint plan or column
//! band, and runs it when it pays: under 60 % of the off-diagonal
//! pairs, with one slab row fitting the budget beside the plan. Otherwise
//! the same verb runs the dense row sink, and both hand their rows over in
//! row order in the one row shape ([`crate::Rows`]).
//!
//! **A store is read once first.** A tile store's windows hold sites in
//! store order and the staircase needs them sorted, so a thresholded run
//! from a store whose one window the budget holds reads the whole panel
//! into memory once (each chunk read and CRC-checked once) before it
//! plans, and the plan prices the panel and one chunk load beside its own
//! bytes. The panel is then sorted in place as a panel in memory is; when
//! the staircase does not pay, the dense grid runs on the same panel,
//! priced as the one window, with no second read. A store the budget does
//! not hold whole, or one with no budget, keeps its windows and the dense
//! grid.

use crate::error::{checked_add, checked_mul, try_default_vec, try_zeroed_vec, LdError};
use crate::fused::Transform;
use ld_bitmat::{BitMatrix, BitMatrixView};
use ld_popcount::simd::and_popcount_vpopcntdq;
use std::sync::atomic::{AtomicU64, Ordering};

/// The keep rule of every thresholded `r²` output: not `NaN`, and at or
/// above the threshold.
#[inline]
pub fn r2_keeps(v: f64, min_r2: f64) -> bool {
    !v.is_nan() && v >= min_r2
}

/// The staircase's share of the off-diagonal pairs below which
/// [`crate::LdEngine::try_rows_in_order_with`] takes it. Measured on a 2-vCPU
/// x86-64 VM (AVX-512 kernel), `r2 --min-r2 t` with the staircase forced
/// against the dense row sink, median of 5, 1 and 2 threads: on 8000 ×
/// 512 (the listing) the staircase is faster up to a share of 0.79
/// (0.87–0.93× the dense wall) and 1.13× slower at 0.96; on 1500 ×
/// 32 768 (`-o`) it is faster up to 0.55 (0.76–0.84×) and even at 0.71
/// (0.92–1.04×) and 0.82 (0.96–1.02×) — the sort, the per-pair select
/// and filter pass and a wide staircase's narrow slabs are what the dense
/// run does not pay. Below 0.6 it was faster in every configuration
/// measured (0.13–0.17× at 0.09).
pub(crate) const CROSSOVER: f64 = 0.6;

/// The relative margin of the bound test for `n_samples` samples (see
/// the module docs).
fn margin(n_samples: usize) -> f64 {
    1e-9 + n_samples as f64 * (2.0f64).powi(-46)
}

/// The plan of one thresholded `r²` run: the panel's sites sorted by
/// minor-allele count, and how far each sorted row reaches.
///
/// Build it with [`R2Staircase::new`] (always) or `LdEngine::plan_staircase`
/// (only when it pays); run it with `LdEngine::run_staircase` over the
/// panel it was built from.
#[derive(Clone, Debug)]
pub(crate) struct R2Staircase {
    min_r2: f64,
    /// Samples of the panel, which a run checks its panel against.
    n_samples: usize,
    /// Sorted position → original site index.
    pub(crate) order: Vec<usize>,
    /// One past the last sorted column sorted row `s` keeps: `> s`,
    /// non-decreasing.
    pub(crate) ends: Vec<usize>,
    /// The first word of sorted row `s`'s kept-pair bits, and one past the
    /// last row's at `n`.
    pub(crate) rows: Vec<usize>,
    /// Bytes of a tile store's panel and one chunk load the run holds
    /// beside the plan (0 for a panel in memory, which is the caller's).
    pub(crate) held: usize,
}

impl R2Staircase {
    /// The staircase of `r² ≥ min_r2` over the sites of `src`, from one
    /// popcount sweep. A threshold that is not positive (or `NaN`) is
    /// [`LdError::InvalidConfig`]: at or below 0 every pair can pass.
    pub(crate) fn new<'a>(src: impl Into<BitMatrixView<'a>>, min_r2: f64) -> Result<Self, LdError> {
        if min_r2.is_nan() || min_r2 <= 0.0 {
            return Err(LdError::InvalidConfig {
                message: "an r² staircase needs a positive threshold",
            });
        }
        let view: BitMatrixView<'a> = src.into();
        let (n, big_n) = (view.n_snps(), view.n_samples() as u64);
        let minor: Vec<u64> = (0..n)
            .map(|j| {
                let c = view.ones_in_snp(j);
                c.min(big_n - c)
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        // stable: equal counts keep index order
        order.sort_by_key(|&j| minor[j]);
        let cut = min_r2 * (1.0 - margin(view.n_samples()));
        // may sorted row `s` (count `a`) reach a sorted column of count `b ≥ a`?
        let reaches = |a: u64, b: u64| {
            let num = u128::from(a) * u128::from(big_n - b);
            let den = u128::from(b) * u128::from(big_n - a);
            a > 0 && num as f64 >= cut * den as f64
        };
        let (mut ends, mut rows) = (Vec::with_capacity(n), Vec::with_capacity(n + 1));
        let (mut e, mut words) = (0, 0);
        for s in 0..n {
            // the bound rises with the row's count: a column row `s − 1`
            // reached, row `s` reaches too
            e = e.max(s + 1);
            while e < n && reaches(minor[order[s]], minor[order[e]]) {
                e += 1;
            }
            ends.push(e);
            rows.push(words);
            words += (e - s - 1).div_ceil(64);
        }
        rows.push(words);
        Ok(Self {
            min_r2,
            n_samples: view.n_samples(),
            order,
            ends,
            rows,
            held: 0,
        })
    }

    /// Off-diagonal pairs the plan computes: `Σ_s (e(s) − s − 1)`.
    pub(crate) fn pairs(&self) -> usize {
        self.ends.iter().enumerate().map(|(s, &e)| e - s - 1).sum()
    }

    /// [`R2Staircase::pairs`] over all `n(n − 1)/2` off-diagonal pairs
    /// (0 with fewer than two sites).
    pub(crate) fn share(&self) -> f64 {
        let n = self.ends.len();
        match n * n.saturating_sub(1) / 2 {
            0 => 0.0,
            all => self.pairs() as f64 / all as f64,
        }
    }

    /// Words of the kept-pair bitset: one bit per pair the plan computes,
    /// each sorted row from its own word.
    pub(crate) fn bit_words(&self) -> usize {
        self.rows.last().copied().unwrap_or(0)
    }

    /// Slab-independent bytes of a run, `68·n + 8 + 8·(bit_words + 3⌈n/64⌉)`
    /// plus what it holds of a store: per site the transform tables (20),
    /// the plan's `order`, `ends` and `rows` (24, `rows` one entry longer)
    /// and the hand-off's inverse order and one row of columns and values
    /// (24); the bitset's words, and the hand-off's three maps of one bit
    /// per site. A panel in memory is the caller's, sorted in place, and priced
    /// as the memory arm prices it: not at all; a store's panel and one
    /// chunk load are `held`.
    pub(crate) fn fixed_bytes(&self) -> Result<usize, LdError> {
        let what = "staircase footprint bytes";
        let n = self.ends.len();
        let words = checked_add(self.bit_words(), 3 * n.div_ceil(64), what)?;
        let sites = checked_add(checked_mul(n, 68, what)?, 8, what)?;
        let fixed = checked_add(sites, checked_mul(words, 8, what)?, what)?;
        checked_add(fixed, self.held, what)
    }

    /// The zeroed kept-pair bitset of a run.
    pub(crate) fn try_bits(&self) -> Result<Vec<AtomicU64>, LdError> {
        try_default_vec(self.bit_words(), "kept-pair bitset")
    }

    /// Sets the bits of sorted row `i`'s columns `j0 ..` whose values
    /// `row` pass the threshold ([`r2_keeps`]). The row's words are its
    /// own and one worker computes its slab, so nothing else writes them.
    pub(crate) fn keep(&self, bits: &[AtomicU64], i: usize, j0: usize, row: &[f64]) {
        let words = &bits[self.rows[i]..self.rows[i + 1]];
        for (t, &v) in (j0 - i - 1..).zip(row) {
            if r2_keeps(v, self.min_r2) {
                words[t / 64].fetch_or(1 << (t % 64), Ordering::Relaxed);
            }
        }
    }

    /// Hands the pairs marked in `bits` (after the grid of a run on
    /// `sorted`, this plan's panel in sorted order, whose tables are `tr`)
    /// to `visit` per original row `i` ascending, as `(i, cols, values)`:
    /// the row's kept columns `j > i` ascending and their `r²`, each
    /// recounted by one `and_popcount` of the two sorted sites (`VPOPCNTQ`
    /// where the CPU has it, the scalar count otherwise: the same integer)
    /// and transformed at `(min, max)` order ([`Transform::r2_pair`]), so
    /// bit-identical to the grid's value. The work is one pass over the
    /// bitset's words to find the rows that own a kept pair, then for
    /// each of them its sorted row's words, its sorted column's bits and
    /// one recount per kept pair.
    pub(crate) fn hand_over(
        &self,
        sorted: BitMatrixView<'_>,
        bits: &[AtomicU64],
        tr: &Transform,
        mut visit: impl FnMut(usize, &[usize], &[f64]),
    ) -> Result<(), LdError> {
        let (n, what) = (self.order.len(), "kept-pair hand-off");
        let load = |w: usize| bits[w].load(Ordering::Relaxed);
        // the columns of sorted row `s` whose bits are set
        let kept_in = |s: usize| {
            let (w0, w1) = (self.rows[s], self.rows[s + 1]);
            (w0..w1).flat_map(move |w| ones(load(w), s + 1 + (w - w0) * 64))
        };
        let is_kept = |s: usize, c: usize| {
            let t = c - s - 1;
            load(self.rows[s] + t / 64) >> (t % 64) & 1 == 1
        };
        let mut rank = try_zeroed_vec::<usize>(n, what)?;
        for (s, &i) in self.order.iter().enumerate() {
            rank[i] = s;
        }
        // one pass over the words: the rows that own a kept pair, by
        // original index, and the sorted columns holding a pair their
        // column site owns
        let map = || try_zeroed_vec::<u64>(n.div_ceil(64), what);
        let (mut owners, mut owned_above, mut partners) = (map()?, map()?, map()?);
        let set = |map: &mut [u64], i: usize| map[i / 64] |= 1 << (i % 64);
        for (w, word) in bits.iter().enumerate() {
            let word = word.load(Ordering::Relaxed);
            if word == 0 {
                continue;
            }
            // the row whose words hold word `w`
            let s = self.rows.partition_point(|&r| r <= w) - 1;
            for c in ones(word, s + 1 + (w - self.rows[s]) * 64) {
                let (os, oc) = (self.order[s], self.order[c]);
                set(&mut owners, os.min(oc));
                if oc < os {
                    set(&mut owned_above, c);
                }
            }
        }
        let mut cols = try_zeroed_vec::<usize>(n, what)?;
        let mut values = try_zeroed_vec::<f64>(n, what)?;
        for (w, &word) in owners.iter().enumerate() {
            for i in ones(word, w * 64) {
                let s = rank[i];
                // right of the diagonal: sorted row `s`'s columns; left of
                // it: the sorted rows above whose reach covers column `s`
                let right = kept_in(s).map(|c| self.order[c]);
                let above = match owned_above[s / 64] >> (s % 64) & 1 {
                    1 => self.ends.partition_point(|&e| e <= s)..s,
                    _ => s..s,
                };
                let left = above.filter(|&r| is_kept(r, s)).map(|r| self.order[r]);
                // the words of `partners` this row touches
                let (mut lo, mut hi) = (partners.len(), 0);
                for j in right.chain(left).filter(|&j| j > i) {
                    set(&mut partners, j);
                    (lo, hi) = (lo.min(j / 64), hi.max(j / 64 + 1));
                }
                let mut len = 0;
                for (pw, word) in partners.iter_mut().enumerate().take(hi).skip(lo) {
                    for j in ones(std::mem::take(word), pw * 64) {
                        let (a, b) = (sorted.snp_words(s), sorted.snp_words(rank[j]));
                        let c = and_popcount_vpopcntdq(a, b);
                        cols[len] = j;
                        values[len] = tr.r2_pair(s, rank[j], c as u32);
                        len += 1;
                    }
                }
                visit(i, &cols[..len], &values[..len]);
            }
        }
        Ok(())
    }

    /// Samples of the panel the plan was built from.
    pub(crate) fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// `panel`, the matrix the plan was built from, with its sites
    /// permuted into sorted order in place — cycle by cycle through two
    /// one-site buffers, each site written once — so no second panel
    /// exists. A panel of another shape than the plan's is
    /// [`LdError::InvalidConfig`].
    pub(crate) fn sorted(&self, mut g: BitMatrix) -> Result<BitMatrix, LdError> {
        let (n, wps) = (self.order.len(), g.words_per_snp());
        if g.n_snps() != n || g.n_samples() != self.n_samples {
            return Err(LdError::InvalidConfig {
                message: "the panel is not the one the r² staircase was planned on",
            });
        }
        // site `s` of the result is site `order[s]` of the input: walk each
        // cycle of the permutation once, holding its first site aside
        let (mut first, mut next) = (vec![0u64; wps], vec![0u64; wps]);
        let mut done = vec![false; n];
        for s0 in 0..n {
            if done[s0] {
                continue;
            }
            first.copy_from_slice(g.snp_words(s0));
            let mut s = s0;
            loop {
                done[s] = true;
                let from = self.order[s];
                if from == s0 {
                    g.snp_words_mut(s).copy_from_slice(&first);
                    break;
                }
                next.copy_from_slice(g.snp_words(from));
                g.snp_words_mut(s).copy_from_slice(&next);
                s = from;
            }
        }
        Ok(g)
    }
}

/// `base + b` for each set bit `b` of `word`, ascending.
fn ones(mut word: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            base + b
        })
    })
}

#[cfg(test)]
mod tests {
    //! The staircase forced, whether or not it pays: the plan and its run
    //! against the unpruned triangle.

    use super::*;
    use crate::{LdEngine, LdStats, NanPolicy, RunControl};
    use ld_rng::SmallRng;

    /// A panel of the staircase's edge cases: random sites beside monomorphic
    /// and all-carrier ones (no minor allele), duplicates and complements of
    /// earlier sites (`r² = 1`), and nested carrier sets — a site carried by
    /// a subset of another's carriers attains the frequency bound exactly.
    fn staircase_panel(rng: &mut SmallRng, n_samples: usize) -> BitMatrix {
        let n_snps = rng.gen_range(2usize..40);
        let mut cols: Vec<Vec<u8>> = Vec::with_capacity(n_snps);
        for _ in 0..n_snps {
            let density = rng.gen_range(0.0f64..1.0);
            let random = |rng: &mut SmallRng| -> Vec<u8> {
                (0..n_samples)
                    .map(|_| u8::from(rng.gen_bool(density)))
                    .collect()
            };
            let col = match (rng.gen_range(0u32..7), cols.len()) {
                (1, _) => vec![0; n_samples],
                (2, _) => vec![1; n_samples],
                (3, k) if k > 0 => cols[rng.gen_range(0..k)].clone(),
                (4, k) if k > 0 => cols[rng.gen_range(0..k)].iter().map(|&b| 1 - b).collect(),
                (5 | 6, k) if k > 0 => {
                    let outer = cols[rng.gen_range(0..k)].clone();
                    outer
                        .iter()
                        .map(|&b| b & u8::from(rng.gen_bool(0.6)))
                        .collect()
                }
                _ => random(rng),
            };
            cols.push(col);
        }
        BitMatrix::from_columns(n_samples, cols).unwrap()
    }

    /// A kept pair `(i, j, r²)`, `i < j`.
    type Pair = (usize, usize, f64);

    /// The pairs a staircase run hands over, in the order it hands them over,
    /// after checking that order: rows ascending, each handed over once and
    /// only with a kept pair, and each row's columns ascending and right of
    /// its diagonal.
    fn staircase_pairs(e: &LdEngine, g: &BitMatrix, plan: &R2Staircase) -> Vec<Pair> {
        let mut kept: Vec<Pair> = Vec::new();
        let mut last_row = None;
        let visit = |i: usize, cols: &[usize], values: &[f64]| {
            assert!(last_row < Some(i), "row {i} after row {last_row:?}");
            last_row = Some(i);
            assert!(!cols.is_empty() && cols.len() == values.len(), "row {i}");
            assert!(
                i < cols[0] && cols.windows(2).all(|w| w[0] < w[1]),
                "row {i}: {cols:?}"
            );
            kept.extend(cols.iter().zip(values).map(|(&j, &v)| (i, j, v)));
        };
        e.run_staircase(plan, g.clone(), visit, &RunControl::new())
            .expect("staircase run");
        kept
    }

    /// A panel whose sites are all one site or its complement: every pair
    /// has `r² = 1` and every site the same minor count, so the staircase is
    /// the whole triangle and every pair of it is kept — the hand-off's most
    /// work.
    fn all_pass_panel(rng: &mut SmallRng, n_samples: usize) -> BitMatrix {
        let site: Vec<u8> = (0..n_samples).map(|s| u8::from(s % 3 == 0)).collect();
        let cols: Vec<Vec<u8>> = (0..rng.gen_range(2usize..40))
            .map(|_| match rng.gen_bool(0.5) {
                true => site.clone(),
                false => site.iter().map(|&b| 1 - b).collect(),
            })
            .collect();
        BitMatrix::from_columns(n_samples, cols).unwrap()
    }

    /// A staircase run keeps exactly the pairs the unpruned packed triangle
    /// keeps under the table's rule, with the same bits, and hands them over
    /// in the table's order (rows ascending, each row's columns ascending,
    /// each pair once) — over panels of 1, 63, 64, 65 and 600 samples full of
    /// the bound's edge cases and one where every pair passes, at random
    /// thresholds, at thresholds equal to an attained `r²` (nested carriers
    /// on the bound among them) and at 1, at slab heights 1/7/64, 1/2/7
    /// threads and both NaN policies.
    #[test]
    fn staircase_keeps_exactly_the_pairs_that_pass() {
        let mut rng = SmallRng::seed_from_u64(0xb7);
        let mut runs = 0;
        for n_samples in [1usize, 63, 64, 65, 600] {
            for case in 0..5 {
                let g = match case {
                    4 if n_samples > 1 => all_pass_panel(&mut rng, n_samples),
                    _ => staircase_panel(&mut rng, n_samples),
                };
                for policy in [NanPolicy::Zero, NanPolicy::Propagate] {
                    let oracle = LdEngine::new()
                        .nan_policy(policy)
                        .try_stat_matrix(&g, LdStats::RSquared)
                        .expect("LD matrix");
                    let attained: Vec<f64> = oracle
                        .iter_pairs()
                        .map(|(_, _, v)| v)
                        .filter(|&v| v > 0.0)
                        .collect();
                    let mut thresholds = vec![rng.gen_range(0.0f64..1.0).max(1e-3), 1.0];
                    if !attained.is_empty() {
                        thresholds.push(attained[rng.gen_range(0..attained.len())]);
                    }
                    for t in thresholds {
                        let want: Vec<Pair> = oracle
                            .iter_pairs()
                            .filter(|&(_, _, v)| r2_keeps(v, t))
                            .collect();
                        let plan = R2Staircase::new(&g, t).expect("plan");
                        for (slab, threads) in [(1usize, 1usize), (7, 2), (64, 7), (1, 7), (7, 1)] {
                            let e = LdEngine::new()
                                .nan_policy(policy)
                                .slab_rows(slab)
                                .threads(threads);
                            let got = staircase_pairs(&e, &g, &plan);
                            let bits = |p: &[Pair]| -> Vec<(usize, usize, u64)> {
                                p.iter().map(|&(i, j, v)| (i, j, v.to_bits())).collect()
                            };
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "N={n_samples} case {case} {policy:?} t={t} slab {slab} t{threads}"
                            );
                            runs += 1;
                        }
                    }
                }
            }
        }
        assert!(runs >= 5 * 5 * 2 * 2 * 5);
    }

    /// The plan's staircase is the frequency bound's: every sorted row's
    /// reach is non-decreasing, covers its diagonal, and holds exactly the
    /// columns whose bound `a_i (N − a_j) / (a_j (N − a_i))` clears the
    /// threshold (thresholds here sit far from every attained bound, so the
    /// margin does not decide).
    #[test]
    fn staircase_reach_is_the_frequency_bound() {
        let mut rng = SmallRng::seed_from_u64(0xb8);
        for case in 0..24 {
            let n_samples = rng.gen_range(1usize..300);
            let g = staircase_panel(&mut rng, n_samples);
            let big_n = n_samples as u64;
            let minor: Vec<u64> = (0..g.n_snps())
                .map(|j| g.ones_in_snp(j).min(big_n - g.ones_in_snp(j)))
                .collect();
            for t in [0.05, 0.3, 0.77, 1.0 - 1e-6] {
                let plan = R2Staircase::new(&g, t).unwrap();
                let (order, ends) = (&plan.order, &plan.ends);
                for s in 0..order.len() {
                    assert!(ends[s] > s && (s == 0 || ends[s] >= ends[s - 1]));
                    for c in s + 1..order.len() {
                        let (a, b) = (minor[order[s]], minor[order[c]]);
                        assert!(a <= b, "case {case}: sorted by minor count");
                        let bound = if a == 0 {
                            0.0
                        } else {
                            (a * (big_n - b)) as f64 / (b * (big_n - a)) as f64
                        };
                        let far = (bound - t).abs() > 1e-6;
                        assert!(
                            !far || (c < ends[s]) == (bound >= t),
                            "case {case} t={t}: row {s} column {c}, bound {bound}, end {}",
                            ends[s]
                        );
                    }
                }
            }
        }
    }
}
