//! Summary statistics the benchmark reports: medians, supported
//! percentiles, geometric means and the quartile spread used by `agree`.

/// Median of `values` (mean of the two middle values when even); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..1`) of `values`, refused unless at
/// least ten samples lie beyond it: a tail read off fewer samples is the
/// position of one or two outliers, not a percentile.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + 10 {
        return Err(format!(
            "p{} needs at least 10 samples beyond it, have {} of {n}",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Geometric mean of strictly positive `values`; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_requires_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is the 990th; exactly ten lie beyond it.
        assert_eq!(percentile(&v, 0.99), Ok(990.0));
        assert!(percentile(&v[..999], 0.99).is_err());
        // The median of 20 samples has ten beyond it; of 19 only nine.
        assert_eq!(percentile(&v[..20], 0.5), Ok(10.0));
        assert!(percentile(&v[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn geomean_weighs_every_value_the_same() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
