//! Compact memory-latency histograms used for Figs. 11 and 17.

use bh_dram::Cycle;

/// Width of one histogram bucket in DRAM cycles.
const BUCKET_WIDTH: u64 = 4;
/// Number of regular buckets; latencies beyond the covered range fall into the
/// overflow bucket.
const BUCKETS: usize = 4096;

/// A fixed-bucket histogram of read latencies (in DRAM cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { buckets: vec![0; BUCKETS], overflow: 0, count: 0, sum: 0, max: 0 }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Cycle) {
        let idx = (latency / BUCKET_WIDTH) as usize;
        if idx < BUCKETS {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in cycles (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> Cycle {
        self.max
    }

    /// The `p`-th percentile latency in cycles (`p` in `[0, 100]`).
    ///
    /// Returns 0 for an empty histogram. The value is resolved to bucket
    /// granularity (4 cycles), which is far finer than the figures need.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Cycle {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return (i as u64) * BUCKET_WIDTH + BUCKET_WIDTH / 2;
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn mean_max_and_percentiles_track_samples() {
        let mut h = LatencyHistogram::new();
        for v in [40u64, 40, 40, 40, 40, 40, 40, 40, 40, 400] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert!((h.mean() - 76.0).abs() < 1e-9);
        assert_eq!(h.max(), 400);
        // 50th percentile is in the 40-cycle bucket, 100th near 400.
        assert!(h.percentile(50.0) >= 40 && h.percentile(50.0) < 48);
        assert!(h.percentile(100.0) >= 396);
        // 90th percentile still in the low bucket (9 of 10 samples are 40).
        assert!(h.percentile(90.0) < 48);
    }

    #[test]
    fn overflow_samples_are_counted() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        h.record(10);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.percentile(100.0), 1_000_000);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(30);
        b.record(50);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 50);
        assert!((a.mean() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotonic() {
        let mut h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(i % 500);
        }
        let mut prev = 0;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
    }
}
