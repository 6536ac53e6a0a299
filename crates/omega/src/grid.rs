//! Grid-based ω scanning with variable region borders — the actual
//! OmegaPlus algorithm (Alachiotis et al. 2012).
//!
//! The fixed-window scan of [`crate::OmegaScan`] evaluates one window per
//! grid position and maximizes only over the split. OmegaPlus does more:
//! for every grid position `c` it maximizes ω over the *extents* of the
//! left region `[c−a, c)` and right region `[c, c+b)` independently,
//! `a, b ∈ [minwin, maxwin]` — a sweep's footprint is unknown a priori, so
//! the borders must adapt.
//!
//! Complexity per grid point is `O(maxwin²)` with O(1) incremental updates:
//! left-left sums `LL(a)`, right-right sums `RR(b)` and a cumulative
//! row-sum table for the cross term, all read from the `2·maxwin` window
//! around `c` of one banded `r²` run over the panel (computed by the
//! blocked GEMM engine — which is exactly the paper's pitch: the LD
//! harvest is the bottleneck, so cast it as DLA).

use crate::prefix::omega_ratio;
use crate::{scan_band, strongest, window_of, OmegaPoint};
use ld_bitmat::BitMatrix;
use ld_core::{BandedLdMatrix, LdEngine, LdError, LdStats, NanPolicy, Source};

/// Grid-based ω scanner with adaptive region borders.
#[derive(Clone, Debug)]
pub struct GridScan {
    engine: LdEngine,
    max_win: usize,
    min_win: usize,
    grid_step: usize,
}

impl GridScan {
    /// A scanner evaluating every `grid_step`-th SNP as a candidate sweep
    /// position, with region extents between `min_win` and `max_win` SNPs.
    pub fn new(min_win: usize, max_win: usize, grid_step: usize) -> Self {
        assert!(min_win >= 2, "regions need at least 2 SNPs");
        assert!(max_win >= min_win, "max_win must be >= min_win");
        assert!(grid_step >= 1, "grid step must be positive");
        Self {
            engine: LdEngine::new().nan_policy(NanPolicy::Zero),
            max_win,
            min_win,
            grid_step,
        }
    }

    /// Overrides the LD engine.
    pub fn engine(mut self, engine: LdEngine) -> Self {
        self.engine = engine.nan_policy(NanPolicy::Zero);
        self
    }

    /// The widest regions `(left, right)` around `center` of `n` SNPs.
    fn caps(&self, n: usize, center: usize) -> (usize, usize) {
        (center.min(self.max_win), (n - center).min(self.max_win))
    }

    /// Evaluates ω at one grid position, maximizing over region borders:
    /// `(ω_max, best_a, best_b)`, zeros too close to an edge. Runs `r²` over
    /// the `2·max_win` SNPs around `center` only, all pairs (the band clamps).
    pub fn omega_at(&self, g: &BitMatrix, center: usize) -> Result<(f64, usize, usize), LdError> {
        let (a_cap, b_cap) = self.caps(g.n_snps(), center);
        if a_cap < self.min_win || b_cap < self.min_win {
            return Ok((0.0, 0, 0));
        }
        let around = g.view(center - a_cap, center + b_cap);
        let r2 = BandedLdMatrix::compute(&self.engine, around, usize::MAX, LdStats::RSquared)?;
        Ok(self.best_extents(a_cap, b_cap, window_of(&r2, 0)))
    }

    /// The maximization over extents `a ≤ a_cap`, `b ≤ b_cap`, from the pair
    /// lookup (local `i < j`) of the window `[center − a_cap, center + b_cap)`.
    fn best_extents(
        &self,
        a_cap: usize,
        b_cap: usize,
        r2: impl Fn(usize, usize) -> f64,
    ) -> (f64, usize, usize) {
        let c_local = a_cap;
        // LL(a): pairs within the a SNPs left of the split; grow leftwards.
        let mut ll = vec![0.0f64; a_cap + 1];
        for a in 2..=a_cap {
            // adding SNP (c_local - a): its pairs with the a-1 existing
            let new = c_local - a;
            let mut add = 0.0;
            for i in new + 1..c_local {
                add += r2(new, i);
            }
            ll[a] = ll[a - 1] + add;
        }
        // RR(b): pairs within the b SNPs right of the split; grow rightwards.
        let mut rr = vec![0.0f64; b_cap + 1];
        for b in 2..=b_cap {
            let new = c_local + b - 1;
            let mut add = 0.0;
            for j in c_local..new {
                add += r2(j, new);
            }
            rr[b] = rr[b - 1] + add;
        }
        // cross(a, b) = Σ_{i in left-a, j in right-b}: `row[b]` is row `i`'s
        // cumulative sum over the right side, `cross[b]` its prefix over rows
        // (`i` from split − 1 leftwards, as `a` grows).
        let mut best = (0.0f64, 0usize, 0usize);
        let mut cross = vec![0.0f64; b_cap + 1];
        let mut row = vec![0.0f64; b_cap + 1];
        for (a, &ll_a) in ll.iter().enumerate().take(a_cap + 1).skip(1) {
            let i = c_local - a;
            row[0] = 0.0;
            for b in 1..=b_cap {
                row[b] = row[b - 1] + r2(i, c_local + b - 1);
            }
            for b in 0..=b_cap {
                cross[b] += row[b];
            }
            if a < self.min_win {
                continue;
            }
            let c2a = (a * (a - 1) / 2) as f64;
            for b in self.min_win..=b_cap {
                let c2b = (b * (b - 1) / 2) as f64;
                let within_pairs = c2a + c2b;
                if within_pairs == 0.0 {
                    continue;
                }
                let numerator = (ll_a + rr[b]) / within_pairs;
                let cross_pairs = (a * b) as f64;
                let w = omega_ratio(numerator, cross[b] / cross_pairs);
                if w > best.0 {
                    best = (w, a, b);
                }
            }
        }
        best
    }

    /// Scans `src`, one [`OmegaPoint`] per grid position, in position
    /// order: one `r²` run with band `2·max_win − 1`, held for the scan,
    /// then the positions distributed across the engine's threads.
    /// Bit-identical for every thread count, slab height and source.
    pub fn scan<'a>(&self, src: impl Into<Source<'a>>) -> Result<Vec<OmegaPoint>, LdError> {
        let src = src.into();
        let n = src.n_snps();
        let last = (n + 1).saturating_sub(self.min_win);
        let centers: Vec<usize> = (self.min_win..last).step_by(self.grid_step).collect();
        let point = |r2: &BandedLdMatrix, c: usize| {
            let (a_cap, b_cap) = self.caps(n, c);
            let (omega, a, b) = self.best_extents(a_cap, b_cap, window_of(r2, c - a_cap));
            OmegaPoint {
                window_start: c - a,
                window_end: c + b,
                best_split: c,
                omega,
            }
        };
        scan_band(&self.engine, src, 2 * self.max_win - 1, &centers, point)
    }

    /// The strongest grid position of a scan.
    pub fn scan_max<'a>(&self, src: impl Into<Source<'a>>) -> Result<Option<OmegaPoint>, LdError> {
        self.scan(src).map(strongest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{assert_same_points, for_each_run, panel};
    use crate::WindowSums;

    fn sweep_matrix() -> BitMatrix {
        // 64 samples, 60 SNPs: blocks [14..30) and [30..46) correlated
        // within (with ~6% per-SNP noise so the ω surface is not flat),
        // weakly across; neutral noise elsewhere.
        let mut g = BitMatrix::zeros(64, 60);
        let mut s = 4242u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for j in 0..60 {
            for smp in 0..64 {
                if next() % 2 == 0 {
                    g.set(smp, j, true);
                }
            }
        }
        for j in 14..30 {
            for smp in 0..64 {
                let noise = next() % 16 == 0;
                g.set(smp, j, (smp < 30) ^ noise);
            }
        }
        for j in 30..46 {
            for smp in 0..64 {
                let noise = next() % 16 == 0;
                // carriers 16..46: overlap 14/64 with the left block's
                // 0..30 ⇒ P(AB) ≈ P(A)P(B), i.e. the flanks are
                // decorrelated, as recombination during a sweep makes them
                g.set(smp, j, (16..46).contains(&smp) ^ noise);
            }
        }
        g
    }

    #[test]
    fn grid_omega_matches_fixed_window_special_case() {
        // With a = b = maxwin forced (min_win == max_win), the grid value
        // must equal the fixed-window ω at the central split.
        let g = sweep_matrix();
        let w = 10;
        let scan = GridScan::new(w, w, 1);
        let (omega, a, b) = scan.omega_at(&g, 30).unwrap();
        assert_eq!((a, b), (w, w));
        let r2 = LdEngine::new()
            .nan_policy(NanPolicy::Zero)
            .try_stat_matrix(g.view(30 - w, 30 + w), LdStats::RSquared)
            .expect("LD matrix");
        let fixed = WindowSums::new(&r2).omega_at(w);
        assert!((omega - fixed).abs() < 1e-9, "{omega} vs {fixed}");
    }

    #[test]
    fn incremental_sums_match_brute_force() {
        let g = sweep_matrix();
        let scan = GridScan::new(3, 12, 1);
        let center = 30usize;
        let (omega, a, b) = scan.omega_at(&g, center).unwrap();
        // brute force the same maximization
        let r2full = LdEngine::new()
            .nan_policy(NanPolicy::Zero)
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        let mut best = 0.0f64;
        let mut best_ab = (0, 0);
        for aa in 3..=12usize {
            for bb in 3..=12usize {
                let (mut ll, mut rr, mut lr) = (0.0, 0.0, 0.0);
                for i in center - aa..center + bb {
                    for j in i + 1..center + bb {
                        let v = r2full.get(i, j);
                        if j < center && i >= center - aa {
                            ll += v;
                        } else if i >= center {
                            rr += v;
                        } else if i >= center - aa {
                            lr += v;
                        }
                    }
                }
                let c2 = |k: usize| (k * (k - 1) / 2) as f64;
                let num = (ll + rr) / (c2(aa) + c2(bb));
                let den = lr / (aa * bb) as f64;
                let w = if den > 0.0 { num / den } else { 0.0 };
                if w > best {
                    best = w;
                    best_ab = (aa, bb);
                }
            }
        }
        assert!(
            (omega - best).abs() < 1e-9 * best.max(1.0),
            "{omega} vs {best}"
        );
        // Ties on flat ω surfaces break by FP accumulation order, so only
        // require the found extents to be within the tied set.
        let _ = best_ab;
        assert!((3..=12).contains(&a) && (3..=12).contains(&b));
    }

    #[test]
    fn adaptive_borders_find_the_block_extents() {
        let g = sweep_matrix();
        let scan = GridScan::new(4, 20, 1);
        let (omega, a, b) = scan.omega_at(&g, 30).unwrap();
        assert!(omega > 10.0, "sweep signal expected, got {omega}");
        // the planted blocks are 16 SNPs each: the chosen extents must not
        // spill far into the neutral flanks, where ω drops
        assert!((4..=18).contains(&a), "left extent {a}");
        assert!((4..=18).contains(&b), "right extent {b}");
        // and extending both regions over the full neutral window must be
        // strictly worse than the chosen extents
        let forced = GridScan::new(20, 20, 1);
        let (omega_wide, _, _) = forced.omega_at(&g, 30).unwrap();
        assert!(omega_wide < omega, "wide {omega_wide} vs adaptive {omega}");
    }

    #[test]
    fn scan_locates_center() {
        let g = sweep_matrix();
        let best = GridScan::new(4, 20, 2).scan_max(&g).unwrap().unwrap();
        assert!(
            (26..=34).contains(&best.best_split),
            "expected center near 30, got {} (omega {})",
            best.best_split,
            best.omega
        );
    }

    #[test]
    fn edges_are_skipped_gracefully() {
        let g = sweep_matrix();
        let scan = GridScan::new(8, 16, 1);
        let (omega, a, b) = scan.omega_at(&g, 2).unwrap(); // too close to the edge
        assert_eq!((omega, a, b), (0.0, 0, 0));
        // and a scan over a tiny matrix yields nothing
        let tiny = BitMatrix::zeros(8, 6);
        assert!(GridScan::new(8, 16, 1).scan(&tiny).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "max_win must be >= min_win")]
    fn bad_window_order_panics() {
        GridScan::new(10, 5, 1);
    }
    /// The scan as it ran before the band: one `r²` matrix per position.
    fn per_window(scan: &GridScan, g: &BitMatrix) -> Vec<OmegaPoint> {
        let engine = LdEngine::new().nan_policy(NanPolicy::Zero);
        let n = g.n_snps();
        let centers = (scan.min_win..=n - scan.min_win).step_by(scan.grid_step);
        let point = |c: usize| {
            let (a_cap, b_cap) = scan.caps(n, c);
            let r2 = engine
                .try_stat_matrix(g.view(c - a_cap, c + b_cap), LdStats::RSquared)
                .expect("LD matrix");
            let (omega, a, b) = scan.best_extents(a_cap, b_cap, |i, j| r2.get(i, j));
            OmegaPoint {
                window_start: c - a,
                window_end: c + b,
                best_split: c,
                omega,
            }
        };
        centers.map(point).collect()
    }

    #[test]
    fn scan_equals_the_per_window_oracle() {
        let g = panel(96, 150, 11);
        for (min_win, max_win, step) in [(3, 12, 1), (5, 25, 10), (8, 8, 4)] {
            let scan = GridScan::new(min_win, max_win, step);
            let want = per_window(&scan, &g);
            assert!(want.iter().any(|p| p.omega > 0.0), "a flat oracle");
            for_each_run(&g, |engine, src, what| {
                let got = scan.clone().engine(engine).scan(src).unwrap();
                assert_same_points(
                    &got,
                    &want,
                    &format!("({min_win}, {max_win}, {step}) {what}"),
                );
            });
            // one centre on its own sub-view reads the same bits
            for p in want.iter().step_by(7) {
                let (omega, a, b) = scan.omega_at(&g, p.best_split).unwrap();
                assert_eq!(omega.to_bits(), p.omega.to_bits(), "{p:?}");
                assert_eq!(
                    (p.best_split - a, p.best_split + b),
                    (p.window_start, p.window_end)
                );
            }
        }
    }
}
