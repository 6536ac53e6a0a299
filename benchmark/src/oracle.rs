//! The correctness oracle: every r² recomputed by `ld_baselines`'
//! unblocked pairwise kernel (no packing, no blocking, no fused
//! transform) and rendered with the program's own format strings. An
//! output is right when it is byte-equal to the oracle's — or differs
//! only by one unit in the last printed place: the engine's fused
//! transform and the pairwise kernel round the last bit differently, and
//! about one value in two million then falls on the other side of a
//! `{:.6}` rounding boundary (or of the `--min-r2` threshold).

use ld_baselines::OmegaPlusKernel;
use ld_bitmat::BitMatrix;
use ld_core::{LdMatrix, NanPolicy};
use std::fmt::Write;

/// All-pairs r² of `g`; monomorphic pairs read 0, as in the CLI.
pub fn r2_matrix(g: &BitMatrix) -> LdMatrix {
    OmegaPlusKernel::new()
        .nan_policy(NanPolicy::Zero)
        .r2_matrix(&g.full_view(), crate::THREADS)
}

/// The pair table of rows `[r0, r1)` — what `r2 -o` writes for
/// `0..n` and what a `Region` request returns for a window.
pub fn pair_table(m: &LdMatrix, r0: usize, r1: usize, min_r2: f64) -> Vec<u8> {
    let mut out = String::with_capacity(64 + (r1 - r0) * (r1 - r0) * 12);
    out.push_str("SNP_A\tSNP_B\tR2\n");
    for i in r0..r1 {
        for j in i + 1..r1 {
            let v = m.get(i, j);
            if !v.is_nan() && v >= min_r2 {
                let _ = writeln!(out, "snp{i}\tsnp{j}\t{v:.6}");
            }
        }
    }
    out.into_bytes()
}

/// The "top pairs" listing `r2` prints without `-o`: the 20 largest
/// values at or above the threshold, ties in pair order.
pub fn top_listing(m: &LdMatrix, min_r2: f64) -> Vec<u8> {
    let mut kept: Vec<(usize, usize, f64)> = m
        .iter_pairs()
        .filter(|&(_, _, v)| !v.is_nan() && v >= min_r2)
        .collect();
    kept.sort_by(|a, b| b.2.total_cmp(&a.2));
    let mut out = format!("top pairs (threshold {min_r2}):\n");
    for (i, j, v) in kept.into_iter().take(20) {
        let _ = writeln!(out, "  snp{i:<6} snp{j:<6} {v:.4}");
    }
    out.into_bytes()
}

/// One unit of the last place of a `{:.6}` value, with slack for the
/// rounding of the two renderings.
const LAST_PLACE: f64 = 1.5e-6;

/// `snp12 snp34 0.123456`, tab- or space-separated → `(12, 34, 0.123456)`:
/// a line of a pair table or of a top-pairs listing.
fn pair_line(line: &str) -> Option<(usize, usize, f64)> {
    let mut f = line.split_whitespace();
    let mut snp = || f.next()?.strip_prefix("snp")?.parse::<usize>().ok();
    Some((snp()?, snp()?, f.next()?.parse().ok()?))
}

/// Whether pair table `out` is `expected` up to one unit in the last
/// printed place; a pair only one of them lists must sit on `min_r2`.
pub fn table_matches(out: &[u8], expected: &[u8], min_r2: f64) -> bool {
    if out == expected {
        return true;
    }
    let (Ok(out), Ok(expected)) = (std::str::from_utf8(out), std::str::from_utf8(expected)) else {
        return false;
    };
    let (mut a, mut b) = (out.lines(), expected.lines());
    if a.next() != b.next() {
        return false; // header
    }
    // Merge the two sorted tables; an exhausted one reads as a pair that
    // sorts after every real pair.
    const END: (usize, usize, f64) = (usize::MAX, usize::MAX, 0.0);
    let (mut a, mut b) = (a.map(pair_line).peekable(), b.map(pair_line).peekable());
    loop {
        let (Some(x), Some(y)) = (
            a.peek().map_or(Some(END), |l| *l),
            b.peek().map_or(Some(END), |l| *l),
        ) else {
            return false; // unparsable line
        };
        let on_threshold = |v: f64| (v - min_r2).abs() <= LAST_PLACE;
        match (x.0, x.1).cmp(&(y.0, y.1)) {
            std::cmp::Ordering::Equal if x == END => return true,
            std::cmp::Ordering::Equal if (x.2 - y.2).abs() <= LAST_PLACE => {
                a.next();
                b.next();
            }
            std::cmp::Ordering::Less if on_threshold(x.2) => drop(a.next()),
            std::cmp::Ordering::Greater if on_threshold(y.2) => drop(b.next()),
            _ => return false,
        }
    }
}

/// Whether top-pairs listing `out` is `expected` up to one unit in the
/// last printed place: the same number of lines, the same values in
/// order, and every listed pair carrying its own oracle value (ties may
/// be listed in another order).
pub fn listing_matches(out: &[u8], expected: &[u8], m: &LdMatrix) -> bool {
    if out == expected {
        return true;
    }
    let (Ok(out), Ok(expected)) = (std::str::from_utf8(out), std::str::from_utf8(expected)) else {
        return false;
    };
    let (mut a, mut b) = (out.lines(), expected.lines());
    if a.next() != b.next() || out.lines().count() != expected.lines().count() {
        return false;
    }
    a.zip(b).all(|(l, r)| match (pair_line(l), pair_line(r)) {
        (Some((i, j, v)), Some((_, _, u))) => {
            i < m.n_snps()
                && j < m.n_snps()
                && (v - u).abs() <= 1.5e-4
                && (v - m.get(i, j)).abs() <= 1.5e-4
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAD: &str = "SNP_A\tSNP_B\tR2\n";

    fn table(lines: &[&str]) -> Vec<u8> {
        format!("{HEAD}{}", lines.concat()).into_bytes()
    }

    #[test]
    fn tables_match_up_to_the_last_place_only() {
        let expected = table(&["snp0\tsnp1\t0.500000\n", "snp0\tsnp2\t0.000313\n"]);
        assert!(table_matches(&expected, &expected, 0.5));
        let last_place = table(&["snp0\tsnp1\t0.500000\n", "snp0\tsnp2\t0.000312\n"]);
        assert!(table_matches(&last_place, &expected, 0.0));
        let wrong = table(&["snp0\tsnp1\t0.500000\n", "snp0\tsnp2\t0.000310\n"]);
        assert!(!table_matches(&wrong, &expected, 0.0));
        let other_pair = table(&["snp0\tsnp1\t0.500000\n", "snp0\tsnp3\t0.000313\n"]);
        assert!(!table_matches(&other_pair, &expected, 0.0));
    }

    #[test]
    fn a_pair_on_the_threshold_may_be_missing_on_either_side() {
        let with = table(&["snp0\tsnp1\t0.500000\n", "snp2\tsnp3\t0.700000\n"]);
        let without = table(&["snp2\tsnp3\t0.700000\n"]);
        assert!(table_matches(&with, &without, 0.5));
        assert!(table_matches(&without, &with, 0.5));
        assert!(!table_matches(&without, &with, 0.4));
        assert!(!table_matches(&table(&[]), &with, 0.5));
    }
}
