//! Order statistics.

/// Sorts `v` ascending (values are never NaN: they are measured times).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) — the acceptance check is stated in
/// those terms.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    sort(&mut s);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need two samples");
    [1, 2, 3].map(|i| {
        let (j, delta) = ((i * (ld + 1)) / 4, (i * (ld + 1)) % 4);
        let j = j.clamp(1, ld - 1);
        (s[j - 1] * (4 - delta) as f64 + s[j] * delta as f64) / 4.0
    })
}

/// p95 of a latency sample by nearest rank; the caller sees to it that
/// the sample is large enough (200 samples leave ten beyond it).
pub fn p95(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    assert!(!s.is_empty(), "p95 of an empty sample");
    s[(0.95 * s.len() as f64).ceil() as usize - 1]
}
