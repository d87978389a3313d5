//! Statistical summaries for experiment results.

use std::fmt;

/// Two-sided 95% Student-t critical values for `df = n - 1` in `1..=28`.
///
/// Small Monte-Carlo cells (the per-row replicates of Table 2 are often
/// single digits) need the t distribution: at n = 5 the normal
/// approximation's 1.96 understates the true half-width by almost 30%.
/// From n = 30 on the difference is under 2.5% and the normal z = 1.96 is
/// used instead.
const T_CRIT_95: [f64; 28] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048,
];

/// The two-sided 95% critical value for a sample of size `n`: Student-t
/// for `n < 30`, the normal approximation `z = 1.96` from 30 up.
fn critical_value_95(n: usize) -> f64 {
    match n {
        0 | 1 => 0.0, // no spread is estimable from fewer than two samples
        _ if n < 30 => T_CRIT_95[n - 2],
        _ => 1.96,
    }
}

/// A mean with a 95% confidence interval (Student-t below 30 samples,
/// normal approximation from 30 up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator).
    pub stddev: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
    /// Sample count.
    pub n: usize,
}

impl Estimate {
    /// The interval lower bound.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.mean - self.ci95
    }

    /// The interval upper bound.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.mean + self.ci95
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.ci95)
    }
}

/// Computes mean, standard deviation and a 95% CI for `samples`.
///
/// The interval half-width uses the Student-t critical value for samples
/// smaller than 30 (with `n - 1` degrees of freedom) and the normal
/// approximation `z = 1.96` from 30 samples up. A single sample has no
/// estimable spread and reports a zero-width interval.
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn mean_ci(samples: &[f64]) -> Estimate {
    assert!(!samples.is_empty(), "cannot summarize an empty sample");
    let [estimate] = mean_ci_fields(samples, |&x| [x]);
    estimate
}

/// [`mean_ci`] of each of the `K` samples `fields` reads from every
/// record, in one sum pass and one squared-deviation pass over the
/// records. Each field is summed in record order from `-0.0`, exactly as
/// `mean_ci` sums a slice of it, so every estimate is bit-identical to
/// `mean_ci` over that field alone — without collecting the field into
/// a vector, or reading the records twice per field.
pub(crate) fn mean_ci_fields<T, const K: usize>(
    records: &[T],
    fields: impl Fn(&T) -> [f64; K],
) -> [Estimate; K] {
    let n = records.len();
    let mut sums = [-0.0; K];
    for record in records {
        for (sum, x) in sums.iter_mut().zip(fields(record)) {
            *sum += x;
        }
    }
    let means = sums.map(|sum| sum / n as f64);
    let mut squares = [-0.0; K];
    if n > 1 {
        for record in records {
            for ((square, x), mean) in squares.iter_mut().zip(fields(record)).zip(means) {
                *square += (x - mean).powi(2);
            }
        }
    }
    std::array::from_fn(|k| {
        let var = if n > 1 {
            squares[k] / (n - 1) as f64
        } else {
            0.0
        };
        let stddev = var.sqrt();
        Estimate {
            mean: means[k],
            stddev,
            ci95: critical_value_95(n) * stddev / (n as f64).sqrt(),
            n,
        }
    })
}

/// A binomial proportion with a Wilson 95% interval — the right summary
/// for success/recovery rates, stable even at 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportion {
    /// Successes.
    pub successes: usize,
    /// Trials.
    pub trials: usize,
    /// Point estimate.
    pub rate: f64,
    /// Wilson interval lower bound.
    pub lo: f64,
    /// Wilson interval upper bound.
    pub hi: f64,
}

impl fmt::Display for Proportion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} [{:.4}, {:.4}] ({}/{})",
            self.rate, self.lo, self.hi, self.successes, self.trials
        )
    }
}

/// Computes the Wilson score interval at 95% confidence.
///
/// # Panics
///
/// Panics if `trials == 0` or `successes > trials`.
#[must_use]
pub fn wilson_interval(successes: usize, trials: usize) -> Proportion {
    assert!(trials > 0, "need at least one trial");
    assert!(successes <= trials, "more successes than trials");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z = 1.96_f64;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt());
    Proportion {
        successes,
        trials,
        rate: p,
        lo: (center - half).max(0.0),
        hi: (center + half).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ci_of_constant_sample() {
        let e = mean_ci(&[5.0; 10]);
        assert!((e.mean - 5.0).abs() < 1e-12);
        assert!(e.stddev.abs() < 1e-12);
        assert!(e.ci95.abs() < 1e-12);
        assert_eq!(e.n, 10);
        assert!((e.lo() - 5.0).abs() < 1e-12);
        assert!((e.hi() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mean_ci_known_values() {
        let e = mean_ci(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((e.mean - 3.0).abs() < 1e-12);
        // var = 2.5, sd ≈ 1.5811
        assert!((e.stddev - 2.5f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn small_samples_use_student_t() {
        // n = 5 → df = 4 → t = 2.776, not z = 1.96.
        let e = mean_ci(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let expected = 2.776 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((e.ci95 - expected).abs() < 1e-9, "ci {}", e.ci95);

        // n = 2 → df = 1 → t = 12.706: a two-sample interval is huge.
        let e2 = mean_ci(&[0.0, 1.0]);
        let sd2 = 0.5f64.sqrt();
        let expected2 = 12.706 * sd2 / 2f64.sqrt();
        assert!((e2.ci95 - expected2).abs() < 1e-9, "ci {}", e2.ci95);
    }

    #[test]
    fn large_samples_use_normal_approximation() {
        // n = 30: alternating 0/1 → mean 0.5, sd of ~0.5085.
        let samples: Vec<f64> = (0..30).map(|i| f64::from(i % 2)).collect();
        let e = mean_ci(&samples);
        let expected = 1.96 * e.stddev / 30f64.sqrt();
        assert!((e.ci95 - expected).abs() < 1e-12, "ci {}", e.ci95);
    }

    #[test]
    fn t_interval_is_wider_than_normal_for_same_spread() {
        // The same per-sample spread must yield a *wider* scaled interval
        // at n = 5 than z would give — the bug this pins was using 1.96
        // everywhere.
        let e = mean_ci(&[10.0, 12.0, 14.0, 16.0, 18.0]);
        let z_width = 1.96 * e.stddev / 5f64.sqrt();
        assert!(
            e.ci95 > z_width * 1.4,
            "t width {} vs z {}",
            e.ci95,
            z_width
        );
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let e = mean_ci(&[7.0]);
        assert_eq!(e.n, 1);
        assert!(e.stddev.abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = mean_ci(&[]);
    }

    /// The fused passes must not move a bit: each field's estimate is
    /// the one `mean_ci` gives for a separately collected vector of it,
    /// computed here the way `mean_ci` always has.
    #[test]
    fn field_estimates_match_separately_collected_samples_bit_for_bit() {
        fn reference(samples: &[f64]) -> Estimate {
            let n = samples.len();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = if n > 1 {
                samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
            } else {
                0.0
            };
            let stddev = var.sqrt();
            Estimate {
                mean,
                stddev,
                ci95: critical_value_95(n) * stddev / (n as f64).sqrt(),
                n,
            }
        }
        let bits = |e: Estimate| (e.mean.to_bits(), e.stddev.to_bits(), e.ci95.to_bits(), e.n);
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for n in [1, 2, 3, 29, 30, 31, 1000] {
            let records: Vec<[f64; 3]> = (0..n)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    [
                        (x % 1000) as f64,
                        (x >> 20) as f64 * 1e-3 - 7.5,
                        -0.0 * i as f64,
                    ]
                })
                .collect();
            let fused = mean_ci_fields(&records, |&r| r);
            for (k, estimate) in fused.into_iter().enumerate() {
                let field: Vec<f64> = records.iter().map(|r| r[k]).collect();
                assert_eq!(bits(estimate), bits(reference(&field)), "n={n}, field {k}");
                assert_eq!(bits(estimate), bits(mean_ci(&field)), "n={n}, field {k}");
            }
        }
    }

    #[test]
    fn wilson_interval_contains_point() {
        let p = wilson_interval(30, 100);
        assert!((p.rate - 0.3).abs() < 1e-12);
        assert!(p.lo < 0.3 && 0.3 < p.hi);
        assert!(p.lo > 0.2 && p.hi < 0.41);
    }

    #[test]
    fn wilson_interval_degenerate_ends() {
        let zero = wilson_interval(0, 50);
        assert!((zero.rate).abs() < 1e-12);
        assert!(zero.lo.abs() < 1e-12);
        assert!(zero.hi > 0.0 && zero.hi < 0.12, "hi {}", zero.hi);
        let one = wilson_interval(50, 50);
        assert!((one.rate - 1.0).abs() < 1e-12);
        assert!(one.lo > 0.9);
        assert!((one.hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wilson_narrows_with_n() {
        let small = wilson_interval(5, 10);
        let large = wilson_interval(500, 1000);
        assert!(large.hi - large.lo < small.hi - small.lo);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn wilson_zero_trials_panics() {
        let _ = wilson_interval(0, 0);
    }

    #[test]
    fn displays_are_nonempty() {
        assert!(!mean_ci(&[1.0, 2.0]).to_string().is_empty());
        assert!(!wilson_interval(1, 2).to_string().is_empty());
    }
}
