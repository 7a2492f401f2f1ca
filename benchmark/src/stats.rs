//! Order statistics over latency samples.

use std::time::Duration;

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by nearest rank. With fewer
/// than 20 samples the 0.95 quantile is the slowest sample; callers report
/// the sample count beside every percentile so that is visible.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The middle sample, or the mean of the two middle ones.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values.to_vec());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the rule the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
