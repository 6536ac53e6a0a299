//! Chemical-fingerprint similarity screening — the paper's §VII domain
//! transfer (Eq. 7): Tanimoto coefficients are the same AND/POPCNT GEMM.
//!
//! Simulates a compound library with cluster structure, runs an all-vs-all
//! similarity screen through the blocked SYRK engine, and shows that
//! nearest neighbours recover the clusters.
//!
//! ```sh
//! cargo run --release --example tanimoto_similarity
//! ```

use gemm_ld::prelude::*;
use ld_data::fingerprints::clustered_fingerprints;
use ld_ext::tanimoto::{tanimoto_matrix, top_k_neighbors};

fn main() {
    // 512 compounds, 2048-bit fingerprints, 16 structural clusters.
    const N: usize = 512;
    const CLUSTERS: usize = 16;
    let fp = clustered_fingerprints(N, 2048, CLUSTERS, 0.08, 0.01, 77);
    println!(
        "library: {} compounds x {} fingerprint bits (density {:.3})",
        fp.n_snps(),
        fp.n_samples(),
        fp.density()
    );

    // All-vs-all similarity in one blocked SYRK.
    let t0 = std::time::Instant::now();
    let sim = tanimoto_matrix(&LdEngine::new(), &fp.full_view()).expect("Tanimoto matrix");
    println!(
        "all-vs-all Tanimoto: {} values in {:?}",
        sim.n_values(),
        t0.elapsed()
    );

    // Cluster recovery via nearest neighbours (compound i belongs to
    // cluster i % CLUSTERS by construction).
    let nn = top_k_neighbors(&sim, 3);
    let mut correct = 0;
    let mut total = 0;
    for (i, row) in nn.iter().enumerate() {
        for &(j, _) in row {
            total += 1;
            if j % CLUSTERS == i % CLUSTERS {
                correct += 1;
            }
        }
    }
    println!(
        "nearest-neighbour cluster purity: {}/{} ({:.1}%)",
        correct,
        total,
        100.0 * correct as f64 / total as f64
    );
    assert!(correct * 10 >= total * 9, "clusters should be recoverable");

    // Show one compound's neighbourhood.
    println!("\ncompound 0 (cluster 0) — top neighbours:");
    for &(j, s) in &nn[0] {
        println!(
            "  compound {j:<4} (cluster {:>2})  tanimoto = {s:.3}",
            j % CLUSTERS
        );
    }

    // Within- vs between-cluster similarity summary.
    let (mut within, mut between, mut nw, mut nb) = (0.0, 0.0, 0usize, 0usize);
    for (i, j, s) in sim.iter_pairs() {
        if i % CLUSTERS == j % CLUSTERS {
            within += s;
            nw += 1;
        } else {
            between += s;
            nb += 1;
        }
    }
    println!(
        "\nmean Tanimoto: within-cluster {:.3}, between-cluster {:.3}",
        within / nw as f64,
        between / nb as f64
    );
}
