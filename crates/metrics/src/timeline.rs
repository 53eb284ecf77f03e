//! Binned time series for utilization plots (Figures 3 and 16).

use ffs_sim::{SimDuration, SimTime};

/// A fixed-bin time series: values recorded at instants are averaged per
/// bin, yielding the per-second utilization curves of the paper's figures.
#[derive(Clone, Debug)]
pub struct BinnedSeries {
    bin: SimDuration,
    sums: Vec<f64>,
    counts: Vec<u32>,
}

impl BinnedSeries {
    /// Creates a series with the given bin width.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero());
        BinnedSeries {
            bin,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Records a sample at time `t`.
    pub fn record(&mut self, t: SimTime, value: f64) {
        let idx = (t.as_micros() / self.bin.as_micros()) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
    }

    /// Pre-sizes the series through `horizon`, so recording during a run
    /// whose end is known up front never reallocates.
    pub fn reserve_until(&mut self, horizon: SimTime) {
        let bins = (horizon.as_micros() / self.bin.as_micros()) as usize + 1;
        self.sums.reserve(bins.saturating_sub(self.sums.len()));
        self.counts.reserve(bins.saturating_sub(self.counts.len()));
    }

    /// The bin width.
    pub fn bin(&self) -> SimDuration {
        self.bin
    }

    /// Number of bins (including empty ones up to the last sample).
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// The mean value in bin `idx`, or `None` for empty bins.
    pub fn bin_mean(&self, idx: usize) -> Option<f64> {
        if idx < self.counts.len() && self.counts[idx] > 0 {
            Some(self.sums[idx] / self.counts[idx] as f64)
        } else {
            None
        }
    }

    /// All bins as `(bin_start_secs, mean)` pairs; empty bins carry the
    /// previous bin's value (sample-and-hold), starting from 0.0.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.sums.len());
        let mut last = 0.0;
        for i in 0..self.sums.len() {
            if let Some(m) = self.bin_mean(i) {
                last = m;
            }
            out.push((i as f64 * self.bin.as_secs_f64(), last));
        }
        out
    }

    /// Mean over all recorded samples.
    pub fn overall_mean(&self) -> f64 {
        let total: f64 = self.sums.iter().sum();
        let n: u32 = self.counts.iter().sum();
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Maximum bin mean.
    pub fn peak(&self) -> f64 {
        (0..self.sums.len())
            .filter_map(|i| self.bin_mean(i))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn samples_average_within_bins() {
        let mut s = BinnedSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::from_millis(100), 2.0);
        s.record(SimTime::from_millis(900), 4.0);
        s.record(SimTime::from_millis(1500), 10.0);
        assert_eq!(s.bin_mean(0), Some(3.0));
        assert_eq!(s.bin_mean(1), Some(10.0));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn curve_holds_last_value_through_gaps() {
        let mut s = BinnedSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::from_millis(500), 5.0);
        s.record(SimTime::from_millis(3500), 7.0);
        let curve = s.curve();
        assert_eq!(curve.len(), 4);
        assert_eq!(curve[1].1, 5.0, "gap bins hold the last value");
        assert_eq!(curve[2].1, 5.0);
        assert_eq!(curve[3].1, 7.0);
    }

    #[test]
    fn overall_mean_and_peak() {
        let mut s = BinnedSeries::new(SimDuration::from_millis(100));
        for i in 0..10 {
            s.record(SimTime::from_millis(i * 100), i as f64);
        }
        assert!((s.overall_mean() - 4.5).abs() < 1e-12);
        assert_eq!(s.peak(), 9.0);
    }

    #[test]
    fn empty_series() {
        let s = BinnedSeries::new(SimDuration::from_secs(1));
        assert!(s.is_empty());
        assert_eq!(s.overall_mean(), 0.0);
        assert_eq!(s.peak(), 0.0);
        assert!(s.curve().is_empty());
    }
}
