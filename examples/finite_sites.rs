//! Finite-sites LD from a FASTA alignment — the paper's §VII "facilitating
//! finite sites models" extension, end to end.
//!
//! Real alignments carry more than two states per column, plus gaps and
//! ambiguity codes. This example builds an alignment with biallelic,
//! triallelic and gapped sites, runs Zaykin's T statistic (the paper's
//! Eq. 6) over all site pairs, and shows its agreement with r² on the
//! strictly biallelic subset.
//!
//! ```sh
//! cargo run --release --example finite_sites
//! ```

use gemm_ld::prelude::*;
use ld_ext::fsm::NucleotideMatrix;
use ld_io::fasta::{read_alignment, write_fasta, FastaRecord};
use ld_rng::SmallRng;

fn main() {
    // 1. Synthesize an alignment: 120 sequences × 80 sites.
    //    Sites 0..60: biallelic with block structure; 60..70: triallelic;
    //    70..80: biallelic with 5% gaps.
    let n_seq = 120usize;
    let mut rng = SmallRng::seed_from_u64(2026);
    let mut cols: Vec<Vec<char>> = Vec::new();
    let mut pattern: Vec<bool> = (0..n_seq).map(|_| rng.gen()).collect();
    for j in 0..60 {
        if j % 10 == 0 {
            pattern = (0..n_seq).map(|_| rng.gen()).collect();
        }
        cols.push(
            pattern
                .iter()
                .map(|&p| {
                    if p ^ (rng.gen::<f64>() < 0.03) {
                        'A'
                    } else {
                        'G'
                    }
                })
                .collect(),
        );
    }
    for _ in 60..70 {
        cols.push(
            (0..n_seq)
                .map(|_| match rng.gen_range(0..3) {
                    0 => 'A',
                    1 => 'C',
                    _ => 'T',
                })
                .collect(),
        );
    }
    for _ in 70..80 {
        cols.push(
            (0..n_seq)
                .map(|_| {
                    if rng.gen::<f64>() < 0.05 {
                        '-'
                    } else if rng.gen() {
                        'C'
                    } else {
                        'T'
                    }
                })
                .collect(),
        );
    }
    let records: Vec<FastaRecord> = (0..n_seq)
        .map(|s| FastaRecord {
            id: format!("seq{s}"),
            seq: (0..80).map(|j| cols[j][s]).collect(),
        })
        .collect();

    // 2. Round-trip through FASTA (what a real pipeline would load).
    let mut buf = Vec::new();
    write_fasta(&mut buf, &records).unwrap();
    let aln = read_alignment(std::io::BufReader::new(buf.as_slice())).unwrap();
    println!(
        "alignment: {} sequences x {} sites, {} variable",
        aln.n_sequences(),
        aln.length(),
        aln.variable_sites().len()
    );

    // 3. FSM machinery: 4 bit-planes + validity mask.
    let m = NucleotideMatrix::from_site_columns(n_seq, aln.variable_columns());
    let tri = (0..m.n_sites())
        .filter(|&j| m.states_present(j) > 2)
        .count();
    println!(
        "sites with >2 states: {tri}; missing rate: {:.3}",
        m.mask().missing_rate()
    );

    // 4. All-pairs Zaykin T.
    let t0 = std::time::Instant::now();
    let engine = LdEngine::new().nan_policy(NanPolicy::Zero);
    let t = m.t_matrix(&engine).expect("Zaykin T matrix");
    println!("Zaykin T over {} pairs in {:?}", t.n_values(), t0.elapsed());

    // 5. Within-block biallelic pairs score far above cross-block pairs.
    let (mut within, mut nw) = (0.0, 0);
    let (mut across, mut na) = (0.0, 0);
    for i in 0..60 {
        for j in i + 1..60 {
            let v = t.get(i, j);
            if i / 10 == j / 10 {
                within += v;
                nw += 1;
            } else {
                across += v;
                na += 1;
            }
        }
    }
    let (within, across) = (within / nw as f64, across / na as f64);
    println!("mean T within LD blocks: {within:.2}; across blocks: {across:.2}");
    assert!(within > 5.0 * across, "block structure must dominate");

    // 6. For biallelic pairs, T = N_valid · r² — verify on a gap-free pair.
    let (bi, kept) = aln.to_biallelic_matrix();
    let r2 = engine.r2_matrix(&bi);
    // sites 0 and 1 are biallelic and gap-free: find their positions in `kept`
    let k0 = kept
        .iter()
        .position(|&s| s == aln.variable_sites()[0])
        .unwrap();
    let k1 = kept
        .iter()
        .position(|&s| s == aln.variable_sites()[1])
        .unwrap();
    let expect = n_seq as f64 * r2.get(k0, k1);
    let got = t.get(0, 1);
    println!("biallelic pair check: T = {got:.3} vs N*r² = {expect:.3}");
    assert!((got - expect).abs() < 1e-6);

    println!("\nworst-case FSM cost is 16 popcount products per pair (4 states x 4 states),");
    println!("the 16x factor the paper quotes for finite-sites support.");
}
