//! Order statistics for host-time samples and result comparison.

/// Returns a sorted copy (NaN-free input assumed: every sample is a
/// measured duration or a count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of `values` (mean of the two middle samples when even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the contract's spread is defined in those terms. One sample yields
/// that sample three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let m = v.len();
    if m == 1 {
        return [v[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the contract and `--compare` judge bounds against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// min, quartiles and max of host samples, for printing beside a median.
pub fn five_numbers(values: &[f64]) -> [f64; 5] {
    let v = sorted(values);
    let [q1, q2, q3] = quartiles(values);
    [v[0], q1, q2, q3, v[v.len() - 1]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.0, 4.0, 6.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25-2.75)/5.5
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    /// `sim_op_p50_ms` and `sim_op_p99_ms` are reported as exact
    /// quantiles. The samples are private to `LatencyStats`, so the
    /// benchmark relies on its `quantile` being an order statistic (rank
    /// `round((n-1)q)`) and not a bucket estimate; this pins that down.
    #[test]
    fn reported_latency_quantiles_are_exact_order_statistics() {
        let mut l = slice_sim::LatencyStats::new();
        let raw: Vec<u64> = (0..1000u64)
            .map(|i| (i * 7919) % 1009 * 1000 + 17)
            .collect();
        for &ns in &raw {
            l.record(slice_sim::SimDuration::from_nanos(ns));
        }
        let mut sorted = raw.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
            assert_eq!(l.quantile(q).as_nanos(), sorted[rank], "q = {q}");
        }
    }

    #[test]
    fn five_numbers_bracket_the_quartiles() {
        let f = five_numbers(&[4.0, 2.0, 9.0, 1.0, 7.0]);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[2], 4.0);
        assert_eq!(f[4], 9.0);
        assert!(f[1] <= f[2] && f[2] <= f[3]);
    }
}
