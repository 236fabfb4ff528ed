//! The benchmark's own arithmetic: percentile ranks, medians and
//! quartiles.

/// Fewest samples that must lie strictly above a reported percentile;
/// a percentile with a thinner tail is not reported at all.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p · n)` (1-based). `None` when the sample is empty or when
/// fewer than [`MIN_TAIL`] samples lie beyond that rank, so a reported
/// tail percentile always rests on at least ten slower observations.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample (mean of the middle pair for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Interquartile mean: the mean of what is left after dropping the
/// lowest and the highest quarter (`n / 4` values each) of a sample — a
/// rate estimate that ignores bursts at either end like a median does,
/// but still averages over the middle half. `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    (!mid.is_empty()).then(|| mid.iter().sum::<f64>() / mid.len() as f64)
}

/// First, second and third quartile of an unsorted sample with the
/// same interpolation as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method). `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the spread a
/// benchmark metric's bound is compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_uses_the_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // Rank 90 of 100 leaves exactly ten above: reportable.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        // Rank 91 leaves nine: not reportable.
        assert_eq!(percentile(&ramp(100), 0.91), None);
        // p99 needs at least 1000 samples.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // The maximum is never reportable, and tiny samples have no p50.
        assert_eq!(percentile(&ramp(5000), 1.0), None);
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        // 1..=8: drop 1, 2 and 7, 8; mean of 3..=6.
        assert_eq!(interquartile_mean(&ramp(8)), Some(4.5));
        // A burst at either end does not move it.
        assert_eq!(
            interquartile_mean(&[1e9, 4.0, 5.0, 3.0, 6.0, 0.0, -1e9, 4.5]),
            Some(4.125)
        );
        // Fewer than four values: nothing is dropped.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3.11:
        //   statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        //   statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        //   statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        //   statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0]),
            Some([12.5, 25.0, 37.5])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let s = relative_spread(&ramp(10)).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[7.0; 10]), Some(0.0));
        assert_eq!(relative_spread(&[0.0; 4]), None);
    }
}
