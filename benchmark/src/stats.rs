//! Order statistics: per-repetition percentiles and the across-repetition
//! estimators (best, median, quartile spread).

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`), the
/// rule `geometa_net::loadgen` uses. 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx] as f64
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the spread the driver computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med
    }
}

/// Smallest value (the best repetition of a time or a size).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value (the best repetition of a rate).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Time `body` (which performs `ops` operations) once untimed and then
/// `reps` times; return the fastest repetition in nanoseconds per
/// operation — interference only ever adds time.
pub fn best_ns_per_op(reps: u32, ops: u64, mut body: impl FnMut()) -> f64 {
    body();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        body();
        best = best.min(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}
