//! Descriptive statistics: percentiles, quartiles/IQR (for the box-and-whisker
//! plot of Fig. 19), standard deviation and confidence intervals (the error
//! bars / bands of Figs. 2 and 10).

/// Percentile of a sample set using linear interpolation between order
/// statistics (the same convention as common plotting libraries).
///
/// `p` is in `[0, 100]`.
///
/// # Panics
/// Panics if `samples` is empty or `p` is outside `[0, 100]`.
///
/// # Examples
/// ```
/// use bh_stats::percentile;
/// let xs = [10.0, 20.0, 30.0, 40.0];
/// assert_eq!(percentile(&xs, 0.0), 10.0);
/// assert_eq!(percentile(&xs, 100.0), 40.0);
/// assert_eq!(percentile(&xs, 50.0), 25.0);
/// ```
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set is undefined");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    percentile_of_sorted(&sorted, p)
}

/// Percentile of an already-sorted sample set (ascending).
///
/// # Panics
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set is undefined");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Five-number summary plus IQR whiskers, matching the paper's
/// box-and-whisker description (footnote 12): box is Q1..Q3, whiskers mark
/// the central 1.5·IQR range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxPlot {
    /// Smallest sample.
    pub min: f64,
    /// Lower whisker (Q1 − 1.5·IQR, clamped to the data range).
    pub whisker_lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker (Q3 + 1.5·IQR, clamped to the data range).
    pub whisker_hi: f64,
    /// Largest sample.
    pub max: f64,
}

impl BoxPlot {
    /// Computes the box-plot summary of `samples`.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "box plot of an empty sample set is undefined");
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
        let q1 = percentile_of_sorted(&sorted, 25.0);
        let median = percentile_of_sorted(&sorted, 50.0);
        let q3 = percentile_of_sorted(&sorted, 75.0);
        let iqr = q3 - q1;
        let min = sorted[0];
        let max = *sorted.last().expect("non-empty");
        BoxPlot {
            min,
            whisker_lo: (q1 - 1.5 * iqr).max(min),
            q1,
            median,
            q3,
            whisker_hi: (q3 + 1.5 * iqr).min(max),
            max,
        }
    }

    /// The interquartile range (Q3 − Q1).
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Mean, standard deviation and a confidence interval of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for a single sample).
    pub std_dev: f64,
    /// Half-width of the confidence interval around the mean.
    pub ci_half_width: f64,
}

impl Summary {
    /// Summarises `samples` with a normal-approximation confidence interval at
    /// the given z-score (1.96 ≈ 95%, 2.576 ≈ 99%).
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn with_z(samples: &[f64], z: f64) -> Self {
        assert!(!samples.is_empty(), "summary of an empty sample set is undefined");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        let ci_half_width = z * std_dev / (n as f64).sqrt();
        Summary { n, mean, std_dev, ci_half_width }
    }

    /// 95%-confidence summary.
    pub fn ci95(samples: &[f64]) -> Self {
        Summary::with_z(samples, 1.96)
    }

    /// Lower edge of the confidence interval.
    pub fn ci_low(&self) -> f64 {
        self.mean - self.ci_half_width
    }

    /// Upper edge of the confidence interval.
    pub fn ci_high(&self) -> f64 {
        self.mean + self.ci_half_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints_and_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for p in [0.0, 10.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&a, p), percentile(&b, p));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn box_plot_matches_quartiles() {
        let xs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let b = BoxPlot::from_samples(&xs);
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q1, 3.0);
        assert_eq!(b.q3, 7.0);
        assert_eq!(b.iqr(), 4.0);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 9.0);
        // Whiskers clamp to the observed range.
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 9.0);
    }

    #[test]
    fn box_plot_whiskers_exclude_outliers() {
        let mut xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        xs.push(1000.0);
        let b = BoxPlot::from_samples(&xs);
        assert!(b.whisker_hi < 1000.0);
        assert_eq!(b.max, 1000.0);
    }

    #[test]
    fn summary_of_constant_samples_has_zero_spread() {
        let s = Summary::ci95(&[3.0, 3.0, 3.0, 3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci_half_width, 0.0);
        assert_eq!(s.ci_low(), 3.0);
        assert_eq!(s.ci_high(), 3.0);
    }

    #[test]
    fn summary_interval_shrinks_with_more_samples() {
        let few = vec![1.0, 2.0, 3.0, 4.0];
        let many: Vec<f64> = few.iter().cycle().take(64).copied().collect();
        let s_few = Summary::ci95(&few);
        let s_many = Summary::ci95(&many);
        assert!((s_few.mean - s_many.mean).abs() < 1e-9);
        assert!(s_many.ci_half_width < s_few.ci_half_width);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::ci95(&[7.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }
}
