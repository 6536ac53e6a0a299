//! A neutral coalescent simulator (Hudson's `ms` without recombination,
//! plus an independent-blocks approximation of recombination).
//!
//! The paper's Datasets B and C are `ms`-style neutral simulations. The
//! standard coalescent generates them as follows (Hudson 1990):
//!
//! 1. simulate the genealogy of `n` samples backwards in time: while `k`
//!    lineages remain, the next coalescence happens after an
//!    `Exp(k(k−1)/2)` waiting time (in units of `2N` generations) between
//!    a uniformly random lineage pair;
//! 2. drop mutations on the tree as a Poisson process with total rate
//!    `θ/2` per unit branch length (or exactly `s` mutations placed on
//!    branches chosen proportionally to their length, the `-s` switch of
//!    `ms`); each mutation defines one segregating site whose derived
//!    carriers are the leaves under that branch — the infinite sites model
//!    of §II-A.
//!
//! Without recombination every site shares one genealogy, producing the
//! strong within-locus LD the coalescent is known for. [`CoalescentSimulator`]
//! optionally splits the region into `blocks` independent genealogies — the
//! free-recombination-between-blocks approximation — so LD decays across
//! block boundaries, qualitatively matching recombining `ms` runs.

use ld_bitmat::{BitMatrix, BitMatrixBuilder};
use ld_rng::SmallRng;

/// One node of a coalescent tree (leaves first, internal nodes appended).
#[derive(Clone, Debug)]
struct Node {
    /// Children (empty for leaves).
    children: [usize; 2],
    /// Is this a leaf?
    leaf: bool,
    /// Length of the branch *above* this node, in coalescent time units.
    branch: f64,
}

/// A random coalescent genealogy of `n` samples.
#[derive(Clone, Debug)]
pub struct CoalescentTree {
    nodes: Vec<Node>,
    n_samples: usize,
    total_length: f64,
}

impl CoalescentTree {
    /// Simulates the standard neutral coalescent for `n ≥ 1` samples.
    pub fn simulate(n: usize, rng: &mut SmallRng) -> Self {
        assert!(n >= 1, "need at least one sample");
        let mut nodes: Vec<Node> = (0..n)
            .map(|_| Node {
                children: [0, 0],
                leaf: true,
                branch: 0.0,
            })
            .collect();
        let mut active: Vec<usize> = (0..n).collect();
        let mut time = 0.0f64;
        let mut node_time = vec![0.0f64; n];
        while active.len() > 1 {
            let k = active.len() as f64;
            let rate = k * (k - 1.0) / 2.0;
            // Exp(rate) waiting time
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            time += -u.ln() / rate;
            // uniform random pair
            let i = rng.gen_range(0..active.len());
            let mut j = rng.gen_range(0..active.len() - 1);
            if j >= i {
                j += 1;
            }
            let (a, b) = (active[i], active[j]);
            let parent = nodes.len();
            nodes.push(Node {
                children: [a, b],
                leaf: false,
                branch: 0.0,
            });
            node_time.push(time);
            // branch lengths of the two children
            nodes[a].branch = time - node_time[a];
            nodes[b].branch = time - node_time[b];
            // replace the pair with the parent (order-stable removal)
            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            active.swap_remove(hi);
            active.swap_remove(lo);
            active.push(parent);
        }
        let total_length = nodes.iter().map(|nd| nd.branch).sum();
        Self {
            nodes,
            n_samples: n,
            total_length,
        }
    }

    /// Number of leaf samples.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Sum of all branch lengths (`E = Σ 2/i` in expectation).
    pub fn total_length(&self) -> f64 {
        self.total_length
    }

    /// The leaves below `node`.
    fn leaves_under(&self, node: usize, out: &mut Vec<usize>) {
        if self.nodes[node].leaf {
            out.push(node);
        } else {
            let [a, b] = self.nodes[node].children;
            self.leaves_under(a, out);
            self.leaves_under(b, out);
        }
    }

    /// Drops one mutation on a branch chosen ∝ length and returns the
    /// derived carrier set. `None` for a single-sample tree (no branches).
    pub fn drop_mutation(&self, rng: &mut SmallRng) -> Option<Vec<usize>> {
        if self.total_length <= 0.0 {
            return None;
        }
        let mut target = rng.gen_range(0.0..self.total_length);
        // the root has branch 0 and can never be selected
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.branch > 0.0 {
                if target < node.branch {
                    let mut leaves = Vec::new();
                    self.leaves_under(idx, &mut leaves);
                    return Some(leaves);
                }
                target -= node.branch;
            }
        }
        None // floating-point edge; treat as no mutation
    }
}

/// Simulates haplotype matrices from independent coalescent genealogies.
///
/// ```
/// use ld_data::CoalescentSimulator;
/// let g = CoalescentSimulator::new(50, 100).blocks(5).seed(1).generate();
/// assert_eq!(g.n_samples(), 50);
/// assert_eq!(g.n_snps(), 100);
/// ```
#[derive(Clone, Debug)]
pub struct CoalescentSimulator {
    n_samples: usize,
    n_snps: usize,
    blocks: usize,
    seed: u64,
}

impl CoalescentSimulator {
    /// `n_samples` haplotypes × exactly `n_snps` segregating sites
    /// (the `ms -s` fixed-sites mode, which is what benchmark datasets
    /// with exact SNP counts need).
    pub fn new(n_samples: usize, n_snps: usize) -> Self {
        Self {
            n_samples,
            n_snps,
            blocks: 1,
            seed: 0xc0a1,
        }
    }

    /// Number of independent genealogies the sites are spread over
    /// (1 = single non-recombining locus; more blocks ≈ more recombination).
    pub fn blocks(mut self, b: usize) -> Self {
        self.blocks = b.max(1);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the simulation. Sites that would be monomorphic (possible only
    /// for `n_samples == 1`) fall back to singleton columns.
    pub fn generate(&self) -> BitMatrix {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut b = BitMatrixBuilder::with_capacity(self.n_samples, self.n_snps);
        if self.n_snps == 0 {
            return b.finish();
        }
        let blocks = self.blocks.min(self.n_snps);
        let sites_per_block = crate::even_split(self.n_snps, blocks);
        let mut col = vec![false; self.n_samples];
        for &sites in &sites_per_block {
            let tree = CoalescentTree::simulate(self.n_samples, &mut rng);
            for _ in 0..sites {
                col.iter_mut().for_each(|c| *c = false);
                match tree.drop_mutation(&mut rng) {
                    Some(carriers) if !carriers.is_empty() && carriers.len() < self.n_samples => {
                        for s in carriers {
                            col[s] = true;
                        }
                    }
                    _ => {
                        // degenerate tree (n = 1) or the mutation hit a
                        // branch covering everyone: force a polymorphic
                        // singleton so downstream LD stays defined
                        col[rng.gen_range(0..self.n_samples.max(1))] = true;
                    }
                }
                b.push_snp_bits(col.iter().copied()).expect("fixed length");
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::{LdEngine, LdStats, NanPolicy};

    #[test]
    fn tree_has_correct_expected_length() {
        // E[total length] = 2 Σ_{i=1}^{n-1} 1/i ; check the sample mean.
        let n = 10;
        let expect: f64 = 2.0 * (1..n).map(|i| 1.0 / i as f64).sum::<f64>();
        let mut rng = SmallRng::seed_from_u64(1);
        let mean: f64 = (0..2000)
            .map(|_| CoalescentTree::simulate(n, &mut rng).total_length())
            .sum::<f64>()
            / 2000.0;
        assert!(
            (mean - expect).abs() < 0.15 * expect,
            "mean total length {mean} vs expected {expect}"
        );
    }

    #[test]
    fn mutations_are_proper_subsets() {
        let mut rng = SmallRng::seed_from_u64(2);
        let tree = CoalescentTree::simulate(20, &mut rng);
        for _ in 0..200 {
            let carriers = tree.drop_mutation(&mut rng).unwrap();
            assert!(!carriers.is_empty());
            assert!(carriers.len() < 20, "root branch has length 0");
            assert!(carriers.iter().all(|&s| s < 20));
            let mut sorted = carriers.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), carriers.len(), "no duplicate leaves");
        }
    }

    #[test]
    fn matrix_shape_and_polymorphism() {
        let g = CoalescentSimulator::new(40, 60).seed(3).generate();
        assert_eq!(g.n_samples(), 40);
        assert_eq!(g.n_snps(), 60);
        for j in 0..60 {
            let ones = g.ones_in_snp(j);
            assert!(ones > 0 && ones < 40, "site {j} monomorphic");
        }
        g.check_padding().unwrap();
    }

    #[test]
    fn single_tree_has_more_ld_than_many_blocks() {
        let one = CoalescentSimulator::new(100, 60)
            .blocks(1)
            .seed(4)
            .generate();
        let many = CoalescentSimulator::new(100, 60)
            .blocks(30)
            .seed(4)
            .generate();
        let e = LdEngine::new().nan_policy(NanPolicy::Zero);
        let ld_one = e
            .try_stat_matrix(&one, LdStats::RSquared)
            .expect("LD matrix")
            .mean_offdiagonal();
        let ld_many = e
            .try_stat_matrix(&many, LdStats::RSquared)
            .expect("LD matrix")
            .mean_offdiagonal();
        assert!(
            ld_one > 1.5 * ld_many,
            "shared genealogy should inflate LD: {ld_one} vs {ld_many}"
        );
    }

    #[test]
    fn blocks_decorrelate_across_boundaries() {
        let g = CoalescentSimulator::new(200, 40)
            .blocks(2)
            .seed(5)
            .generate();
        let e = LdEngine::new().nan_policy(NanPolicy::Zero);
        let r2 = e.try_stat_matrix(&g, LdStats::RSquared).expect("LD matrix");
        // within block 0 (sites 0..20) vs across blocks
        let mut within = Vec::new();
        let mut across = Vec::new();
        for i in 0..20 {
            for j in i + 1..20 {
                within.push(r2.get(i, j));
            }
            for j in 20..40 {
                across.push(r2.get(i, j));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&within) > 2.0 * mean(&across));
    }

    #[test]
    fn deterministic_by_seed() {
        let a = CoalescentSimulator::new(30, 20).seed(6).generate();
        let b = CoalescentSimulator::new(30, 20).seed(6).generate();
        let c = CoalescentSimulator::new(30, 20).seed(7).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn frequency_spectrum_is_skewed() {
        // neutral coalescent: singletons dominate (SFS ∝ 1/i)
        let g = CoalescentSimulator::new(50, 500)
            .blocks(100)
            .seed(8)
            .generate();
        let mut rare = 0;
        let mut common = 0;
        for j in 0..500 {
            let ones = g.ones_in_snp(j).min(50 - g.ones_in_snp(j));
            if ones <= 2 {
                rare += 1;
            } else if ones >= 15 {
                common += 1;
            }
        }
        assert!(rare > common, "rare {rare} vs common {common}");
    }

    #[test]
    fn degenerate_inputs() {
        let g = CoalescentSimulator::new(1, 5).seed(9).generate();
        assert_eq!(g.n_samples(), 1);
        assert_eq!(g.n_snps(), 5);
        let g = CoalescentSimulator::new(10, 0).seed(10).generate();
        assert_eq!(g.n_snps(), 0);
    }
}
