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
//! `s .. e(s)` with `e` non-decreasing. [`R2Staircase`] is that plan; the
//! slab driver runs it as a grid whose rows end at `e(s)` instead of at
//! `s + w + 1` (a column band is the staircase `e(s) = s + w + 1`), over
//! the panel's sites in sorted order ([`crate::LdEngine::try_r2_pairs_with`]),
//! permuted in place so that the sorted panel replaces the caller's
//! instead of sitting beside it.
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

use crate::error::{checked_add, checked_mul, LdError};
use ld_bitmat::{BitMatrix, BitMatrixView};

/// A kept pair `(i, j, r²)` of original site indices, `i < j`.
pub type KeptPair = (usize, usize, f64);

/// Bytes of one [`KeptPair`]: what the budget model charges per pair a
/// pair sink may hold.
pub(crate) const KEPT_PAIR_BYTES: usize = std::mem::size_of::<KeptPair>();

/// The keep rule of every thresholded `r²` output: not `NaN`, and at or
/// above the threshold.
#[inline]
pub fn r2_keeps(v: f64, min_r2: f64) -> bool {
    !v.is_nan() && v >= min_r2
}

/// The staircase's share of the off-diagonal pairs below which
/// [`crate::LdEngine::r2_staircase`] takes it. Measured on a 2-vCPU
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
/// Build it with [`R2Staircase::new`] (always) or
/// [`crate::LdEngine::r2_staircase`] (only when it pays); run it with
/// [`crate::LdEngine::try_r2_pairs_with`] over the panel it was built from.
#[derive(Clone, Debug)]
pub struct R2Staircase {
    min_r2: f64,
    /// Samples of the panel, which a run checks its panel against.
    n_samples: usize,
    /// Sorted position → original site index.
    pub(crate) order: Vec<usize>,
    /// One past the last sorted column sorted row `s` keeps: `> s`,
    /// non-decreasing.
    pub(crate) ends: Vec<usize>,
    /// The most kept pairs the caller retains across slabs, which the
    /// price charges (at most the plan's pairs): every one unless
    /// [`crate::LdEngine::r2_staircase`] was told fewer.
    pub(crate) retained: usize,
}

impl R2Staircase {
    /// The staircase of `r² ≥ min_r2` over the sites of `src`, from one
    /// popcount sweep. A threshold that is not positive (or `NaN`) is
    /// [`LdError::InvalidConfig`]: at or below 0 every pair can pass.
    pub fn new<'a>(src: impl Into<BitMatrixView<'a>>, min_r2: f64) -> Result<Self, LdError> {
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
        let mut ends = Vec::with_capacity(n);
        let mut e = 0;
        for s in 0..n {
            // the bound rises with the row's count: a column row `s − 1`
            // reached, row `s` reaches too
            e = e.max(s + 1);
            while e < n && reaches(minor[order[s]], minor[order[e]]) {
                e += 1;
            }
            ends.push(e);
        }
        Ok(Self {
            min_r2,
            n_samples: view.n_samples(),
            order,
            ends,
            retained: usize::MAX,
        })
    }

    /// The threshold the plan was cut for.
    pub fn min_r2(&self) -> f64 {
        self.min_r2
    }

    /// Sorted position → original site index.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// One past the last sorted column each sorted row keeps (its own
    /// diagonal included): `ends()[s] > s`, non-decreasing.
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// Off-diagonal pairs the plan computes: `Σ_s (e(s) − s − 1)`.
    pub fn pairs(&self) -> usize {
        self.ends.iter().enumerate().map(|(s, &e)| e - s - 1).sum()
    }

    /// [`R2Staircase::pairs`] over all `n(n − 1)/2` off-diagonal pairs
    /// (0 with fewer than two sites).
    pub fn share(&self) -> f64 {
        let n = self.ends.len();
        match n * n.saturating_sub(1) / 2 {
            0 => 0.0,
            all => self.pairs() as f64 / all as f64,
        }
    }

    /// Slab-independent bytes of a run: the transform tables and the
    /// kept-pair list its caller retains — as long as the plan for a
    /// caller that keeps every passing pair, a listing's cap for a
    /// listing. The panel is the caller's, sorted in place, and priced as
    /// the memory arm prices it: not at all.
    pub(crate) fn fixed_bytes(&self) -> Result<usize, LdError> {
        let what = "staircase footprint bytes";
        let kept = checked_mul(self.retained.min(self.pairs()), KEPT_PAIR_BYTES, what)?;
        checked_add(checked_mul(self.ends.len(), 20, what)?, kept, what)
    }

    /// Samples of the panel the plan was built from.
    pub fn n_samples(&self) -> usize {
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
