//! Order statistics with the benchmark's reporting rules.

/// Fewest samples that must lie beyond a percentile before it is
/// reported: a tail estimated from fewer points is noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    let (_, x, _) = v.select_nth_unstable_by(rank - 1, f64::total_cmp);
    Some(*x)
}

/// Median of a handful of repeated measurements (rounds of a run), where
/// the tail rule does not apply. Zero for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 is rank 990: exactly ten samples lie beyond it.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // p99 of 999 would leave only nine.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // A median needs twenty samples.
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&v, 0.9);
        v.reverse();
        assert_eq!(a, percentile(&v, 0.9));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
