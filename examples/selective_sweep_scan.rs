//! Selective-sweep detection with the ω statistic — the OmegaPlus use
//! case that motivates fast LD (paper §I and §VI).
//!
//! Simulates a chromosome with a sweep planted at a known SNP, scans with
//! sliding ω windows, and prints an ASCII profile of the signal.
//!
//! ```sh
//! cargo run --release --example selective_sweep_scan
//! ```

use gemm_ld::prelude::*;
use ld_data::SweepSimulator;

fn main() {
    const N_SNPS: usize = 600;
    const SWEEP_AT: usize = 420;

    // Neutral background + sweep overlay at SNP 420.
    let base = HaplotypeSimulator::new(500, N_SNPS)
        .seed(2024)
        .founders(24)
        .switch_rate(0.08);
    let g = SweepSimulator::new(base, SWEEP_AT, 40)
        .carrier_fraction(0.85)
        .seed(9)
        .generate();
    println!(
        "chromosome: {} SNPs x {} haplotypes, sweep planted at SNP {SWEEP_AT}",
        g.n_snps(),
        g.n_samples()
    );

    // Scan: 80-SNP windows, advancing 10 SNPs; one banded r² run of the
    // blocked engine, then an O(S) split maximization per window read off
    // it. min_region keeps at least 20 SNPs on each side of a candidate
    // split, suppressing the boundary artifacts small sub-regions produce.
    let scan = OmegaScan::new(80, 10)
        .min_region(20)
        .engine(LdEngine::new().kernel(KernelKind::Auto));
    let t0 = std::time::Instant::now();
    let points = scan
        .scan(&g)
        .expect("a non-empty panel and a valid min_region");
    println!("scanned {} windows in {:?}\n", points.len(), t0.elapsed());

    // ASCII profile (log-scaled bars).
    let max_omega = points.iter().map(|p| p.omega).fold(0.0f64, f64::max);
    println!("window-center   omega");
    for p in &points {
        let center = (p.window_start + p.window_end) / 2;
        let bar_len = if max_omega > 0.0 {
            ((p.omega.max(1.0).ln() / max_omega.max(1.0).ln()) * 50.0) as usize
        } else {
            0
        };
        println!("{center:>6}  {:>9.2}  {}", p.omega, "#".repeat(bar_len));
    }

    let best = points
        .iter()
        .max_by(|a, b| a.omega.total_cmp(&b.omega))
        .expect("windows were scanned");
    println!(
        "\npeak omega = {:.2} with best split at SNP {} (true sweep: {SWEEP_AT})",
        best.omega, best.best_split
    );
    let err = best.best_split.abs_diff(SWEEP_AT);
    println!("localization error: {err} SNPs");
    // The sweep's flanks span ±40 SNPs; the strongest split must land
    // inside the affected region.
    assert!(
        err <= 45,
        "scan should land within the sweep region (err = {err})"
    );
}
