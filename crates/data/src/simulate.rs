//! Li–Stephens copying-model haplotype simulator.

use ld_bitmat::{BitMatrix, BitMatrixBuilder};
use ld_rng::SmallRng;

/// Simulates haplotypes as mosaics of a founder panel.
///
/// Founder alleles are drawn from the neutral site-frequency spectrum
/// (`P(derived frequency = f) ∝ 1/f`); each sample walks along the SNPs
/// copying one founder, switching founders with probability `switch_rate`
/// per SNP (recombination) and flipping the copied allele with probability
/// `mutation_rate` (new mutation / genotyping error). Small founder panels
/// and low switch rates give long-range LD; large panels and high switch
/// rates approach linkage equilibrium.
///
/// ```
/// use ld_data::HaplotypeSimulator;
/// let g = HaplotypeSimulator::new(100, 50).seed(7).generate();
/// assert_eq!(g.n_samples(), 100);
/// assert_eq!(g.n_snps(), 50);
/// ```
#[derive(Clone, Debug)]
pub struct HaplotypeSimulator {
    n_samples: usize,
    n_snps: usize,
    n_founders: usize,
    switch_rate: f64,
    mutation_rate: f64,
    min_maf: f64,
    seed: u64,
}

impl HaplotypeSimulator {
    /// A simulator with human-ish defaults: 16 founders, 2 % switch rate,
    /// 0.5 % flip rate, minor-allele-frequency floor 1 %.
    pub fn new(n_samples: usize, n_snps: usize) -> Self {
        Self {
            n_samples,
            n_snps,
            n_founders: 16,
            switch_rate: 0.02,
            mutation_rate: 0.005,
            min_maf: 0.01,
            seed: 0x5eed_1d5e,
        }
    }

    /// Sets the founder-panel size (≥ 2).
    pub fn founders(mut self, n: usize) -> Self {
        self.n_founders = n.max(2);
        self
    }

    /// Sets the per-SNP founder-switch probability (recombination).
    pub fn switch_rate(mut self, r: f64) -> Self {
        self.switch_rate = r.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-SNP allele-flip probability (mutation).
    pub fn mutation_rate(mut self, r: f64) -> Self {
        self.mutation_rate = r.clamp(0.0, 1.0);
        self
    }

    /// Sets the minor-allele-frequency floor used when drawing founder
    /// allele frequencies (0 disables).
    pub fn min_maf(mut self, maf: f64) -> Self {
        self.min_maf = maf.clamp(0.0, 0.5);
        self
    }

    /// Sets the RNG seed (simulations are fully deterministic given it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the simulation.
    pub fn generate(&self) -> BitMatrix {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // 1. founder panel: per SNP, draw a derived-allele frequency from
        //    the neutral SFS and assign founder alleles at that frequency.
        let f = self.n_founders;
        let mut founder_cols: Vec<Vec<bool>> = Vec::with_capacity(self.n_snps);
        for _ in 0..self.n_snps {
            let p = sfs_frequency(&mut rng, self.min_maf);
            let col: Vec<bool> = (0..f).map(|_| rng.gen::<f64>() < p).collect();
            founder_cols.push(col);
        }
        // 2. samples: mosaic walks over the panel.
        let mut current: Vec<usize> = (0..self.n_samples).map(|_| rng.gen_range(0..f)).collect();
        let mut b = BitMatrixBuilder::with_capacity(self.n_samples, self.n_snps);
        let mut col = vec![0u8; self.n_samples];
        for founders in &founder_cols {
            for (s, cur) in current.iter_mut().enumerate() {
                if rng.gen::<f64>() < self.switch_rate {
                    *cur = rng.gen_range(0..f);
                }
                let mut allele = founders[*cur];
                if rng.gen::<f64>() < self.mutation_rate {
                    allele = !allele;
                }
                col[s] = u8::from(allele);
            }
            b.push_snp_bytes(&col).expect("column length is fixed");
        }
        let mut g = b.finish();
        self.fix_monomorphic(&mut g, &mut rng);
        g
    }

    /// LD computations are undefined on monomorphic columns; real SNP
    /// callers never emit them (a site without variation is not a SNP), so
    /// flip a random allele to restore polymorphism where the mosaic
    /// collapsed.
    fn fix_monomorphic(&self, g: &mut BitMatrix, rng: &mut SmallRng) {
        if self.n_samples < 2 {
            return;
        }
        for j in 0..g.n_snps() {
            let ones = g.ones_in_snp(j);
            if ones == 0 {
                g.set(rng.gen_range(0..self.n_samples), j, true);
            } else if ones == self.n_samples as u64 {
                g.set(rng.gen_range(0..self.n_samples), j, false);
            }
        }
    }
}

/// Draws a derived-allele frequency from the neutral SFS (`density ∝ 1/f`)
/// truncated to `[maf_floor, 1 − maf_floor]`.
fn sfs_frequency(rng: &mut SmallRng, maf_floor: f64) -> f64 {
    let lo = maf_floor.max(1e-4);
    let hi = 1.0 - lo;
    // inverse-CDF sample of 1/x on [lo, hi]
    let u = rng.gen::<f64>();
    lo * (hi / lo).powf(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::{LdEngine, LdStats};

    #[test]
    fn deterministic_given_seed() {
        let a = HaplotypeSimulator::new(80, 40).seed(1).generate();
        let b = HaplotypeSimulator::new(80, 40).seed(1).generate();
        let c = HaplotypeSimulator::new(80, 40).seed(2).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn all_sites_polymorphic() {
        let g = HaplotypeSimulator::new(60, 100).seed(3).generate();
        for j in 0..g.n_snps() {
            let ones = g.ones_in_snp(j);
            assert!(ones > 0 && ones < 60, "SNP {j} monomorphic");
        }
        g.check_padding().unwrap();
    }

    #[test]
    fn ld_decays_with_distance() {
        // neighbouring SNPs share founder mosaics; distant ones don't.
        let g = HaplotypeSimulator::new(300, 200)
            .seed(4)
            .founders(8)
            .switch_rate(0.05)
            .generate();
        let r2 = LdEngine::new()
            .nan_policy(ld_core::NanPolicy::Zero)
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        let mut near = Vec::new();
        let mut far = Vec::new();
        for i in 0..200 {
            if i + 1 < 200 {
                near.push(r2.get(i, i + 1));
            }
            if i + 100 < 200 {
                far.push(r2.get(i, i + 100));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&near) > 2.0 * mean(&far),
            "LD should decay: near {} far {}",
            mean(&near),
            mean(&far)
        );
    }

    #[test]
    fn sfs_is_skewed_toward_rare() {
        let mut rng = SmallRng::seed_from_u64(9);
        let draws: Vec<f64> = (0..5000).map(|_| sfs_frequency(&mut rng, 0.01)).collect();
        let rare = draws.iter().filter(|&&p| p < 0.1).count();
        let common = draws.iter().filter(|&&p| p > 0.5).count();
        assert!(rare > 2 * common, "rare {rare} common {common}");
        assert!(draws.iter().all(|&p| (0.009..=0.991).contains(&p)));
    }

    #[test]
    fn builder_knobs_apply() {
        let g = HaplotypeSimulator::new(50, 30)
            .founders(4)
            .switch_rate(0.5)
            .mutation_rate(0.0)
            .min_maf(0.1)
            .seed(5)
            .generate();
        assert_eq!(g.n_samples(), 50);
        assert_eq!(g.n_snps(), 30);
    }

    #[test]
    fn tiny_inputs_do_not_panic() {
        let g = HaplotypeSimulator::new(1, 3).seed(6).generate();
        assert_eq!(g.n_samples(), 1);
        let g = HaplotypeSimulator::new(2, 0).seed(7).generate();
        assert_eq!(g.n_snps(), 0);
    }
}
