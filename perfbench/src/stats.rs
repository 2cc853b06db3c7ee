//! Summaries of measured samples.

/// Median of `v` (mean of the middle two for an even count); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of a sample that still has at least ten samples
/// beyond it, with the percentile it sits at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// Samples needed beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The `(n - 10)`-th smallest of `n` samples, i.e. the `100·(n-10)/n`
/// percentile. With ten samples or fewer there is no such percentile and
/// the maximum is reported at percentile 100.
pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: s.last().copied().unwrap_or(f64::NAN),
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: s[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    }
}

/// One-sided 95% Clopper–Pearson upper bound on the failure probability
/// after `failed` failures in `attempted` trials. It is never zero, so a
/// run with no failures still reports how many operations vouch for it.
pub fn failure_rate_upper_bound(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "no operations attempted");
    if failed >= attempted {
        return 1.0;
    }
    // P(X <= failed; attempted, p) falls as p rises; find where it is 5%.
    let (mut lo, mut hi) = (failed as f64 / attempted as f64, 1.0f64);
    for _ in 0..100 {
        let mid = (lo + hi) / 2.0;
        if binomial_cdf(failed, attempted, mid) > 0.05 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

fn binomial_cdf(x: u64, n: u64, p: f64) -> f64 {
    let (lp, lq) = (p.ln(), (1.0 - p).ln());
    let mut log_choose = 0.0f64;
    let mut sum = 0.0;
    for i in 0..=x {
        if i > 0 {
            log_choose += ((n - i + 1) as f64).ln() - (i as f64).ln();
        }
        sum += (log_choose + i as f64 * lp + (n - i) as f64 * lq).exp();
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.percentile, t.samples), (90.0, 90.0, 100));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(tail(&v[..5]).value, 5.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn upper_bound_matches_the_closed_form_without_failures() {
        for n in [10u64, 300, 5000] {
            let closed = 1.0 - 0.05f64.powf(1.0 / n as f64);
            assert!((failure_rate_upper_bound(0, n) - closed).abs() < 1e-9);
        }
        let b = failure_rate_upper_bound(5, 1000);
        assert!(b > 0.005 && b < 0.02, "{b}");
    }
}
