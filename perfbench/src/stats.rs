//! Order statistics shared by the runner and the `compare` tool.

/// Samples a reported tail percentile needs beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n > 0` samples.
pub fn rank(n: usize, p: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    (p * n).div_ceil(100).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
/// A tail percentile means something only when at least
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn samples_beyond(n: usize, p: usize) -> usize {
    n - rank(n, p)
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`. Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}
