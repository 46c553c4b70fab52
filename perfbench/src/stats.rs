//! Order statistics over one run's samples.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile `p` whose nearest-rank value still has at
/// least `beyond` samples above it, with that value; `None` when the sample
/// count cannot support even the median that way.
pub fn tail_percentile(xs: &[f64], beyond: usize) -> Option<(u32, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (50..=99u32).rev().find_map(|p| {
        // nearest rank: the smallest k with k/n >= p/100
        let k = (p as usize * n).div_ceil(100).max(1);
        (n - k >= beyond).then(|| (p, v[k - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((90, 90.0)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((50, 10.0)));
        assert_eq!(tail_percentile(&xs[..15], 10), None);
    }
}
