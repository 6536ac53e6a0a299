//! Property-based tests for the bit-packed matrix substrate.
//! Seeded `ld-rng` cases replace `proptest` (unavailable offline).

use ld_bitmat::{tail_mask, words_for, BitMatrix, BitMatrixBuilder, GenotypeMatrix, ValidityMask};
use ld_rng::SmallRng;

/// Draws a (n_samples, n_snps, dense rows) triple.
fn dense_matrix(rng: &mut SmallRng) -> (usize, usize, Vec<Vec<u8>>) {
    let n = rng.gen_range(1usize..200);
    let m = rng.gen_range(1usize..30);
    let rows = (0..n)
        .map(|_| (0..m).map(|_| u8::from(rng.gen::<bool>())).collect())
        .collect();
    (n, m, rows)
}

#[test]
fn round_trip_rows() {
    let mut rng = SmallRng::seed_from_u64(1);
    for case in 0..32 {
        let (n, m, rows) = dense_matrix(&mut rng);
        let g = BitMatrix::from_rows(n, m, rows.iter()).unwrap();
        assert_eq!(g.n_samples(), n, "case {case}");
        assert_eq!(g.n_snps(), m, "case {case}");
        g.check_padding().unwrap();
        for (s, row) in rows.iter().enumerate() {
            for (j, &a) in row.iter().enumerate() {
                assert_eq!(g.get(s, j), a == 1, "case {case}: ({s},{j})");
            }
        }
    }
}

#[test]
fn allele_counts_match_naive() {
    let mut rng = SmallRng::seed_from_u64(2);
    for case in 0..32 {
        let (n, m, rows) = dense_matrix(&mut rng);
        let g = BitMatrix::from_rows(n, m, rows.iter()).unwrap();
        for j in 0..m {
            let naive: u64 = rows.iter().map(|r| r[j] as u64).sum();
            assert_eq!(g.ones_in_snp(j), naive, "case {case}: snp {j}");
        }
    }
}

#[test]
fn builder_equals_from_rows() {
    let mut rng = SmallRng::seed_from_u64(3);
    for case in 0..32 {
        let (n, m, rows) = dense_matrix(&mut rng);
        let by_rows = BitMatrix::from_rows(n, m, rows.iter()).unwrap();
        let mut b = BitMatrixBuilder::new(n);
        for j in 0..m {
            let col: Vec<u8> = rows.iter().map(|r| r[j]).collect();
            b.push_snp_bytes(&col).unwrap();
        }
        assert_eq!(b.finish(), by_rows, "case {case}");
    }
}

#[test]
fn view_get_agrees_with_parent() {
    let mut rng = SmallRng::seed_from_u64(4);
    for case in 0..32 {
        let (n, m, rows) = dense_matrix(&mut rng);
        let g = BitMatrix::from_rows(n, m, rows.iter()).unwrap();
        let start = rng.gen_range(0..m);
        let end = rng.gen_range(start..m + 1).min(m);
        let v = g.view(start, end);
        for j in 0..v.n_snps() {
            assert_eq!(v.ones_in_snp(j), g.ones_in_snp(start + j), "case {case}");
            for s in 0..n {
                assert_eq!(v.get(s, j), g.get(s, start + j), "case {case}: ({s},{j})");
            }
        }
    }
}

#[test]
fn tail_mask_popcount() {
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..200 {
        let bits = rng.gen_range(1usize..1000);
        // tail_mask has exactly `bits % 64` set bits (or 64 when divisible).
        let expect = if bits.is_multiple_of(64) {
            64
        } else {
            bits % 64
        };
        assert_eq!(tail_mask(bits).count_ones() as usize, expect);
        // words_for * 64 covers bits
        assert!(words_for(bits) * 64 >= bits);
        assert!(words_for(bits) * 64 < bits + 64);
    }
}

#[test]
fn select_snps_preserves_columns() {
    let mut rng = SmallRng::seed_from_u64(6);
    for case in 0..32 {
        let (n, m, rows) = dense_matrix(&mut rng);
        let g = BitMatrix::from_rows(n, m, rows.iter()).unwrap();
        // pick a pseudo-random subset
        let idx: Vec<usize> = (0..m).filter(|_| rng.gen::<bool>()).collect();
        let sel = g.select_snps(&idx).unwrap();
        assert_eq!(sel.n_snps(), idx.len(), "case {case}");
        for (dst, &src) in idx.iter().enumerate() {
            assert_eq!(sel.snp_to_bytes(dst), g.snp_to_bytes(src), "case {case}");
        }
    }
}

#[test]
fn validity_pair_counts_symmetric() {
    let mut rng = SmallRng::seed_from_u64(7);
    for case in 0..16 {
        let (n, m, rows) = dense_matrix(&mut rng);
        if m < 2 {
            continue;
        }
        let g = BitMatrix::from_rows(n, m, rows.iter()).unwrap();
        let mask = ValidityMask::from_bitmatrix(&g);
        for i in 0..m.min(5) {
            for j in 0..m.min(5) {
                assert_eq!(
                    mask.pair_valid_count(i, j),
                    mask.pair_valid_count(j, i),
                    "case {case}: ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn genotype_set_get() {
    use ld_bitmat::Genotype;
    let mut rng = SmallRng::seed_from_u64(8);
    for case in 0..32 {
        let n = rng.gen_range(1usize..100);
        let vals: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..4)).collect();
        let mut m = GenotypeMatrix::all_missing(n, 1);
        let gts = [
            Genotype::HomA1,
            Genotype::Het,
            Genotype::HomA2,
            Genotype::Missing,
        ];
        for (i, &v) in vals.iter().enumerate() {
            m.set(i, 0, gts[v as usize]);
        }
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(m.get(i, 0), gts[v as usize], "case {case}: sample {i}");
        }
    }
}

#[test]
fn genotype_bed_round_trip() {
    use ld_bitmat::Genotype;
    let mut rng = SmallRng::seed_from_u64(9);
    for case in 0..32 {
        let n = rng.gen_range(1usize..150);
        let gts = [
            Genotype::HomA1,
            Genotype::Het,
            Genotype::HomA2,
            Genotype::Missing,
        ];
        let col: Vec<Genotype> = (0..n).map(|_| gts[rng.gen_range(0usize..4)]).collect();
        let m = GenotypeMatrix::from_columns(n, [col.clone()]).unwrap();
        let bytes = m.snp_to_bed_bytes(0);
        let back = GenotypeMatrix::snp_from_bed_bytes(n, &bytes).unwrap();
        assert_eq!(back, col, "case {case}");
    }
}

#[test]
fn hstack_is_concatenation() {
    let mut rng = SmallRng::seed_from_u64(10);
    for case in 0..16 {
        let (n, m, rows) = dense_matrix(&mut rng);
        let g = BitMatrix::from_rows(n, m, rows.iter()).unwrap();
        let h = g.hstack(&g).unwrap();
        assert_eq!(h.n_snps(), 2 * m, "case {case}");
        for j in 0..m {
            assert_eq!(h.snp_to_bytes(j), g.snp_to_bytes(j), "case {case}");
            assert_eq!(h.snp_to_bytes(m + j), g.snp_to_bytes(j), "case {case}");
        }
    }
}

/// The cache-blocked transpose against one `set` per bit, for shapes on
/// both sides of every boundary it blocks on — 64 (a tile), 512 (a
/// super-tile of eight) and their neighbours — in both directions, and
/// `from_rows` (the same path behind the byte→bit core) against both.
#[test]
fn blocked_transpose_matches_per_bit_reference() {
    let mut rng = SmallRng::seed_from_u64(12);
    let edges = [1usize, 63, 64, 65, 511, 512, 513, 577, 1025];
    for &n_samples in &edges {
        for &n_snps in &edges {
            // sample-major words and the SNP-major matrix, each bit by bit
            let wpr = words_for(n_snps);
            let mut sample_major = vec![0u64; n_samples * wpr];
            let mut reference = BitMatrix::zeros(n_samples, n_snps);
            let mut rows = vec![vec![0u8; n_snps]; n_samples];
            for (s, row) in rows.iter_mut().enumerate() {
                for (j, allele) in row.iter_mut().enumerate() {
                    if rng.gen_bool(0.37) {
                        *allele = 1;
                        sample_major[s * wpr + j / 64] |= 1 << (j % 64);
                        reference.set(s, j, true);
                    }
                }
            }
            let shape = format!("{n_samples} samples x {n_snps} SNPs");
            let g = BitMatrix::from_sample_major_words(n_samples, n_snps, &sample_major).unwrap();
            assert_eq!(g, reference, "{shape}: from_sample_major_words");
            g.check_padding().unwrap();
            assert_eq!(
                reference.to_sample_major_words(),
                sample_major,
                "{shape}: to_sample_major_words"
            );
            assert_eq!(
                BitMatrix::from_rows(n_samples, n_snps, &rows).unwrap(),
                reference,
                "{shape}: from_rows"
            );
        }
    }
}

/// Stray bits beyond `n_snps` in a sample-major row are ignored, never
/// transposed into a neighbouring SNP or a padding bit.
#[test]
fn blocked_transpose_ignores_source_padding() {
    for (n_samples, n_snps) in [(513usize, 65usize), (64, 63), (1, 1), (600, 129)] {
        let wpr = words_for(n_snps);
        let all_ones = vec![u64::MAX; n_samples * wpr];
        let g = BitMatrix::from_sample_major_words(n_samples, n_snps, &all_ones).unwrap();
        g.check_padding().unwrap();
        for j in 0..n_snps {
            assert_eq!(g.ones_in_snp(j), n_samples as u64, "SNP {j}");
        }
    }
}
