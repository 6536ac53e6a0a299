//! The engine forms of the §VII statistics against their pairwise
//! oracles, `to_bits`: Tanimoto vs `tanimoto_pair` (and `tanimoto_cross`
//! vs the same pairs of the symmetric form), masked `r²` vs
//! `masked_r2_matrix`, Zaykin's `T` vs `t_statistic` — over threads ×
//! slab heights × {no budget, a budget that shrinks the slab}, on seeded
//! shapes that include a 0-sample panel, one site, a site count that is
//! not a multiple of the slab height, heavy missingness and sites with
//! 1–4 states.

use ld_bitmat::{BitMatrix, ValidityMask};
use ld_core::{LdEngine, LdMatrix, MemoryBudget, NanPolicy};
use ld_ext::fsm::NucleotideMatrix;
use ld_ext::gaps::masked_r2_matrix;
use ld_ext::gaps_blocked::masked_r2_matrix_blocked;
use ld_ext::tanimoto::{tanimoto_cross, tanimoto_matrix, tanimoto_pair};

const POLICIES: [NanPolicy; 2] = [NanPolicy::Propagate, NanPolicy::Zero];

/// xorshift64: seeded, dependency-free.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Every engine the sweep runs `n` sites of `k` planes on: threads
/// {1, 2, 7} × slab heights {1, 3, 64} × {no budget, a budget that holds
/// the triangle, the tables and two slab rows — the packed in-memory
/// model: `8·n(n+1)/2 + (16 + 4k)·n + threads · n · 4k²` per row}.
fn engines(n: usize, k: usize, policy: NanPolicy) -> Vec<(String, LdEngine)> {
    let mut out = Vec::new();
    for threads in [1, 2, 7] {
        for slab in [1, 3, 64] {
            let e = LdEngine::new()
                .threads(threads)
                .slab_rows(slab)
                .nan_policy(policy);
            let fixed = n * (n + 1) / 2 * 8 + n * (16 + 4 * k);
            let budget = MemoryBudget::bytes(fixed + 2 * threads * n * 4 * k * k);
            out.push((format!("t{threads} s{slab}"), e.clone()));
            out.push((
                format!("t{threads} s{slab} budget"),
                e.memory_budget(budget),
            ));
        }
    }
    out
}

fn assert_upper_bits(what: &str, got: &LdMatrix, want: impl Fn(usize, usize) -> f64) {
    for i in 0..got.n_snps() {
        for j in i..got.n_snps() {
            let (g, w) = (got.get(i, j), want(i, j));
            assert!(g.to_bits() == w.to_bits(), "{what} ({i},{j}): {g} vs {w}");
        }
    }
}

fn fingerprints(bits: usize, count: usize, seed: u64) -> BitMatrix {
    let mut next = rng(seed);
    let mut fp = BitMatrix::zeros(bits, count);
    for j in 0..count {
        for b in 0..bits {
            fp.set(b, j, next().is_multiple_of(5));
        }
    }
    fp
}

#[test]
fn tanimoto_forms_equal_the_pairwise_oracle() {
    for (bits, count, seed) in [(0, 5, 1), (64, 1, 2), (130, 37, 3), (200, 70, 4)] {
        let fp = fingerprints(bits, count, seed);
        let v = fp.full_view();
        for (name, e) in engines(count, 1, NanPolicy::Propagate) {
            let what = format!("{bits}x{count} {name}");
            let sim = tanimoto_matrix(&e, &v).unwrap();
            assert_eq!(sim.n_snps(), count, "{what}");
            assert_upper_bits(&what, &sim, |i, j| tanimoto_pair(&v, i, j));
            let split = count / 3;
            let cross = tanimoto_cross(&e, &fp.view(0, split), &fp.view(split, count)).unwrap();
            for i in 0..split {
                for j in 0..count - split {
                    let (c, s) = (cross.get(i, j), sim.get(i, split + j));
                    assert!(c.to_bits() == s.to_bits(), "{what} cross ({i},{j})");
                }
            }
        }
    }
}

#[test]
fn masked_r2_equals_the_pairwise_oracle() {
    for (samples, snps, missing_pct, seed) in [
        (0, 4, 0, 5),
        (50, 1, 10, 6),
        (97, 37, 10, 7),
        (120, 70, 70, 8),
    ] {
        let mut next = rng(seed);
        let mut g = BitMatrix::zeros(samples, snps);
        let mut mask = ValidityMask::all_valid(samples, snps);
        for j in 0..snps {
            for s in 0..samples {
                g.set(s, j, next().is_multiple_of(3));
                if next() % 100 < missing_pct {
                    mask.set_missing(s, j);
                }
            }
        }
        let v = g.full_view();
        for policy in POLICIES {
            let oracle = masked_r2_matrix(&v, &mask, 1, policy);
            for (name, e) in engines(snps, 2, policy) {
                let what = format!("{samples}x{snps} {policy:?} {name}");
                let got = masked_r2_matrix_blocked(&e, &v, &mask).unwrap();
                assert_eq!(got.n_snps(), snps, "{what}");
                assert_upper_bits(&what, &got, |i, j| oracle.get(i, j));
            }
        }
    }
}

#[test]
fn zaykin_t_equals_the_pairwise_oracle() {
    for (samples, sites, gap_pct, seed) in [
        (0, 3, 0, 9),
        (40, 1, 5, 10),
        (77, 37, 5, 11),
        (150, 70, 40, 12),
    ] {
        let mut next = rng(seed);
        // site j draws from its first 1 + j % 4 states, plus gaps
        let cols: Vec<String> = (0..sites)
            .map(|j| {
                (0..samples)
                    .map(|_| {
                        if next() % 100 < gap_pct {
                            '-'
                        } else {
                            b"ACGT"[(next() % (1 + j as u64 % 4)) as usize] as char
                        }
                    })
                    .collect()
            })
            .collect();
        let m = NucleotideMatrix::from_site_strings(samples, cols);
        for policy in POLICIES {
            for (name, e) in engines(sites, 5, policy) {
                let what = format!("{samples}x{sites} {policy:?} {name}");
                let got = m.t_matrix(&e).unwrap();
                assert_eq!(got.n_snps(), sites, "{what}");
                assert_upper_bits(&what, &got, |i, j| m.t_statistic(i, j, policy));
            }
        }
    }
}
