//! Order statistics and the rate bisection.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// `v` sorted ascending (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank `p`-th percentile of an ascending slice, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it (the sample does not
/// support that percentile).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// [`percentile`], falling back to the maximum when the sample is too
/// small to support `p` (the conservative reading of a short tail).
pub fn percentile_or_max(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or_else(|| sorted.last().copied().unwrap_or(0.0))
}

/// First, second and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so spreads printed here match ones computed in Python.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Host throughput of a run from its per-unit throughputs: the upper
/// quartile. Host interference only ever slows a unit down, so the fast
/// end of the distribution tracks the code's own speed; episodes that
/// slow fewer than three quarters of the units cannot move it.
pub fn host_rate(per_unit: &[f64]) -> f64 {
    quartiles(per_unit).2
}

/// Highest `x` in `[lo, hi]` at which `pass(x)` holds, for a predicate
/// that holds at `lo`, fails at `hi` and is monotone in between: a
/// bisection in log space until the bracket is within `rel_tol`. The
/// endpoints are assumed, not evaluated. Returns the last passing point.
pub fn bisect_max(lo: f64, hi: f64, rel_tol: f64, mut pass: impl FnMut(f64) -> bool) -> f64 {
    let (mut lo, mut hi) = (lo, hi);
    while hi / lo > 1.0 + rel_tol {
        let mid = (lo * hi).sqrt();
        if pass(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // p99.5 leaves 5 samples beyond: unsupported.
        assert_eq!(percentile(&v, 99.5), None);
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&short, 90.0), Some(90.0));
        assert_eq!(percentile(&short, 99.0), None);
        assert_eq!(percentile_or_max(&short, 99.0), 100.0);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: it
        // extrapolates past the ends of a two-point sample.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn bisection_lands_within_two_percent_of_the_boundary() {
        for boundary in [5_300.0, 41_234.5, 99_999.0, 300_000.0] {
            let mut calls = 0;
            let got = bisect_max(5_000.0, 320_000.0, 0.02, |x| {
                calls += 1;
                x <= boundary
            });
            assert!(
                got <= boundary && got >= boundary / 1.02,
                "{got} vs {boundary}"
            );
            assert!(calls <= 8, "{calls} probes");
        }
    }
}
