//! Order statistics over host-time samples.

/// The nearest-rank `q` quantile of `samples` (`q` in `[0, 1]`): the
/// smallest sample with at least `⌈q·n⌉` samples at or below it. `NaN`
/// for no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (mean of the two middle samples for an even count).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 5.0);
        assert_eq!(quantile(&samples, 0.9), 9.0);
        assert_eq!(quantile(&samples, 1.0), 10.0);
        assert_eq!(median(&samples), 5.5);
        assert!(median(&[]).is_nan());
    }
}
