//! Fixed-bucket histograms: the latency distributions the telemetry
//! shards aggregate, the Prometheus exporter renders, and experiments
//! fold from delivered traces.

/// Fixed upper bucket bounds for virtual-time (SimClock tick) histograms.
pub const TICK_BUCKETS: &[u64] = &[
    10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000,
];

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples `v` with `v <= bounds[i]` (and greater than
/// the previous bound); samples above the last bound land in the overflow
/// bucket. Bounds must be strictly increasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given upper bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded samples, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            #[allow(clippy::cast_precision_loss)]
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest recorded sample, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The upper bucket bounds.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts, aligned with [`bounds`](Self::bounds).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples above the last bound.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Reassembles a histogram from externally accumulated parts (the
    /// telemetry shards aggregate in relaxed atomics and only build a
    /// `Histogram` at snapshot time). `counts` must align with `bounds`;
    /// the total count is derived, and `min`/`max` are normalised to the
    /// empty-histogram sentinels when no samples were recorded.
    pub(crate) fn from_parts(
        bounds: &[u64],
        counts: Vec<u64>,
        overflow: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Self {
        assert_eq!(
            bounds.len(),
            counts.len(),
            "histogram parts must align with bounds"
        );
        let count = counts.iter().sum::<u64>() + overflow;
        Histogram {
            bounds: bounds.to_vec(),
            counts,
            overflow,
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max: if count == 0 { 0 } else { max },
        }
    }

    /// Approximate quantile (0.0..=1.0) from bucket upper bounds: returns
    /// the upper bound of the bucket containing the `q`-quantile sample
    /// (or the observed max for the overflow bucket). `None` if empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds[i]);
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        h.record(0); // first bucket
        h.record(10); // first bucket (<= bound)
        h.record(11); // second bucket
        h.record(100); // second bucket
        h.record(101); // third bucket
        h.record(1000); // third bucket
        h.record(1001); // overflow
        assert_eq!(h.bucket_counts(), &[2, 2, 2]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1001));
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let mut h = Histogram::new(&[10, 100]);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        for v in [5, 5, 5, 50] {
            h.record(v);
        }
        assert_eq!(h.mean(), Some(16.25));
        assert_eq!(h.quantile(0.5), Some(10), "median is in the first bucket");
        assert_eq!(h.quantile(1.0), Some(100));
        h.record(10_000);
        assert_eq!(
            h.quantile(1.0),
            Some(10_000),
            "overflow reports observed max"
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn empty_histogram_answers_every_query_without_panicking() {
        let h = Histogram::new(TICK_BUCKETS);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
    }

    #[test]
    fn single_sample_histogram_pins_every_quantile_to_its_bucket() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Some(42.0));
        assert_eq!((h.min(), h.max()), (Some(42), Some(42)));
        // Every quantile of a one-sample histogram is that sample's
        // bucket upper bound — including q=0.0, whose rank clamps to 1.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(100));
        }
    }

    #[test]
    fn overflow_only_histogram_reports_observed_max_for_all_quantiles() {
        let mut h = Histogram::new(&[10]);
        h.record(5_000);
        h.record(70_000);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bucket_counts(), &[0]);
        // No finite bucket reaches any rank, so quantiles fall through
        // to the observed max rather than inventing a bound.
        assert_eq!(h.quantile(0.5), Some(70_000));
        assert_eq!(h.quantile(1.0), Some(70_000));
        // Out-of-range q is clamped, not propagated.
        assert_eq!(h.quantile(7.5), Some(70_000));
        assert_eq!(h.quantile(-1.0), Some(70_000));
    }

    #[test]
    fn from_parts_round_trips_a_recorded_histogram() {
        let mut recorded = Histogram::new(&[10, 100]);
        for v in [1, 50, 5_000] {
            recorded.record(v);
        }
        let rebuilt = Histogram::from_parts(&[10, 100], vec![1, 1], 1, 5_051, 1, 5_000);
        assert_eq!(rebuilt, recorded);
        // Empty parts normalise min/max to the empty sentinels.
        let empty = Histogram::from_parts(&[10, 100], vec![0, 0], 0, 0, u64::MAX, 0);
        assert_eq!(empty, Histogram::new(&[10, 100]));
    }
}
