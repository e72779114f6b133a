//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so from three samples on, a quartile
//! printed here is the number a reader gets from the same samples in
//! Python.

/// Quantile `p` in `(0, 1)` by the exclusive method: position
/// `p * (n + 1)` in the sorted samples, linearly interpolated and clamped
/// to the first and last sample. `NaN` when `samples` is empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            if lo >= n {
                v[n - 1]
            } else {
                v[lo - 1] + frac * (v[lo] - v[lo - 1])
            }
        }
    }
}

/// The median (the mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First and third quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    (quantile(samples, 0.25), quantile(samples, 0.75))
}

/// The highest of the percentiles 50, 90, 95, 99 and 99.9 that still
/// has at least ten samples beyond it — the tail a sample of this size
/// can state with some confidence. `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In tenths of a percent, so the count beyond is exact.
    [999, 990, 950, 900, 500]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// One line summarising a timing: median, quartiles, sample count, and
/// the tail percentile when the sample is large enough to have one.
pub fn summary(name: &str, unit: &str, samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples);
    let mut line = format!(
        "{name}: median {:.4} {unit} (q1 {q1:.4}, q3 {q3:.4}, n {})",
        median(samples),
        samples.len()
    );
    if let Some(p) = tail_percentile(samples.len()) {
        line.push_str(&format!(", p{p} {:.4}", quantile(samples, p / 100.0)));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(300), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
