//! Latency CDFs and percentiles (Figures 11–13).
//!
//! A run's latencies are whole microseconds at source, so the run-level
//! CDFs are built by [`LatencyCdf::from_micros`]: an LSD radix sort of the
//! integer keys, then the same µs → ms map
//! [`RequestRecord::latency_ms`](crate::RequestRecord::latency_ms) applies.
//! That map is monotone, so the result is bit-identical to sorting the
//! `f64` latencies with `total_cmp`. [`LatencyCdf::new`] stays for
//! arbitrary `f64` samples.

use serde::{Deserialize, Serialize};

use crate::record::micros_to_ms;

/// Bits of key consumed per radix pass: 2,048 buckets, whose counts fit
/// in L1.
const RADIX_BITS: u32 = 11;

/// Below this many keys a comparison sort beats the radix passes' fixed
/// cost of clearing and scanning the bucket counts.
const RADIX_MIN_LEN: usize = 256;

/// Sorts `keys` ascending: an LSD radix sort with [`RADIX_BITS`]-bit
/// digits and as many passes as the largest key needs, or a comparison
/// sort for short inputs.
fn radix_sort(keys: &mut Vec<u64>) {
    if keys.len() < RADIX_MIN_LEN {
        keys.sort_unstable();
        return;
    }
    let max = keys.iter().copied().max().unwrap_or(0);
    let passes = (u64::BITS - max.leading_zeros()).div_ceil(RADIX_BITS);
    let mask = (1u64 << RADIX_BITS) - 1;
    let mut counts = vec![0usize; 1 << RADIX_BITS];
    let mut scratch = vec![0u64; keys.len()];
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        counts.fill(0);
        for &k in keys.iter() {
            counts[((k >> shift) & mask) as usize] += 1;
        }
        let mut next = 0;
        for c in &mut counts {
            let n = *c;
            *c = next;
            next += n;
        }
        for &k in keys.iter() {
            let d = ((k >> shift) & mask) as usize;
            scratch[counts[d]] = k;
            counts[d] += 1;
        }
        std::mem::swap(keys, &mut scratch);
    }
}

/// An empirical latency distribution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyCdf {
    sorted_ms: Vec<f64>,
}

impl LatencyCdf {
    /// Builds a CDF from latency samples (ms). Non-finite samples (NaN,
    /// ±∞) indicate an upstream accounting bug but must not crash a whole
    /// sweep: they are dropped here and counted against the process-wide
    /// [`ffs_obs::nonfinite_latency_samples`] counter so the loss stays
    /// visible.
    pub fn new(mut samples: Vec<f64>) -> Self {
        let before = samples.len();
        samples.retain(|x| x.is_finite());
        for _ in samples.len()..before {
            ffs_obs::note_nonfinite_latency_sample();
        }
        // Values `total_cmp` calls equal are bit-identical, so an unstable
        // sort yields the same vector as a stable one, without its buffer.
        samples.sort_unstable_by(f64::total_cmp);
        LatencyCdf { sorted_ms: samples }
    }

    /// Builds a CDF from whole-microsecond latencies, reported in ms as
    /// [`RequestRecord::latency_ms`](crate::RequestRecord::latency_ms)
    /// does. Bit-identical to `LatencyCdf::new` over those ms values, at
    /// the cost of a radix sort instead of a comparison sort.
    pub fn from_micros(mut micros: Vec<u64>) -> Self {
        radix_sort(&mut micros);
        LatencyCdf {
            sorted_ms: micros.into_iter().map(micros_to_ms).collect(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted_ms.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted_ms.is_empty()
    }

    /// The `q`-quantile (0.0 ..= 1.0) by nearest-rank. Returns `None` when
    /// empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.sorted_ms.is_empty() {
            return None;
        }
        debug_assert!((0.0..=1.0).contains(&q));
        let n = self.sorted_ms.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted_ms[rank - 1])
    }

    /// Median latency.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// 95th-percentile (the paper's tail-latency metric).
    pub fn p95(&self) -> Option<f64> {
        self.percentile(0.95)
    }

    /// 99th-percentile.
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }

    /// Fraction of samples at or below `x` ms.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted_ms.is_empty() {
            return 0.0;
        }
        let idx = self.sorted_ms.partition_point(|&v| v <= x);
        idx as f64 / self.sorted_ms.len() as f64
    }

    /// `points` evenly spaced CDF points `(latency_ms, cumulative_fraction)`
    /// for plotting.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted_ms.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = self.sorted_ms.len();
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let rank = ((frac * n as f64).ceil() as usize).clamp(1, n);
                (self.sorted_ms[rank - 1], frac)
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_data() {
        let cdf = LatencyCdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(cdf.p50(), Some(50.0));
        assert_eq!(cdf.p95(), Some(95.0));
        assert_eq!(cdf.p99(), Some(99.0));
        assert_eq!(cdf.percentile(1.0), Some(100.0));
        assert_eq!(cdf.percentile(0.0), Some(1.0));
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let cdf = LatencyCdf::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(cdf.p50(), Some(3.0));
    }

    #[test]
    fn fraction_below() {
        let cdf = LatencyCdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf.fraction_below(25.0), 0.5);
        assert_eq!(cdf.fraction_below(40.0), 1.0);
        assert_eq!(cdf.fraction_below(5.0), 0.0);
    }

    #[test]
    fn curve_is_monotone() {
        let cdf = LatencyCdf::new((0..500).map(|i| (i % 97) as f64).collect());
        let curve = cdf.curve(20);
        assert_eq!(curve.len(), 20);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unstable_sort_matches_stable_sort_bit_for_bit() {
        // Duplicates, both zeros and non-finite samples (dropped before the
        // sort), in a scrambled order.
        let mut samples = vec![
            -0.0,
            0.0,
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            samples.push((x % 37) as f64 * 0.25 - 3.0);
            if x.is_multiple_of(11) {
                samples.push(if x.is_multiple_of(2) { -0.0 } else { 0.0 });
            }
        }
        let mut stable: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        stable.sort_by(f64::total_cmp);
        let cdf = LatencyCdf::new(samples);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&cdf.sorted_ms), bits(&stable));
        // -0.0 orders before +0.0 under total_cmp, on both sides.
        let first_pos_zero = stable.iter().position(|v| v.to_bits() == 0).unwrap();
        assert!(stable[..first_pos_zero]
            .iter()
            .all(|v| v.is_sign_negative()));
    }

    #[test]
    fn nonfinite_samples_are_dropped_and_counted() {
        let before = ffs_obs::nonfinite_latency_samples();
        let cdf = LatencyCdf::new(vec![f64::NAN, 2.0, f64::INFINITY, 1.0, f64::NEG_INFINITY]);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.p50(), Some(1.0));
        assert_eq!(cdf.percentile(1.0), Some(2.0));
        assert_eq!(ffs_obs::nonfinite_latency_samples() - before, 3);
    }

    /// `from_micros` against the comparison sort it replaces: the ms
    /// values `RequestRecord::latency_ms` reports, sorted by `total_cmp`.
    fn assert_matches_comparison_sort(micros: Vec<u64>) {
        let mut expect: Vec<f64> = micros.iter().map(|&us| micros_to_ms(us)).collect();
        expect.sort_unstable_by(f64::total_cmp);
        let cdf = LatencyCdf::from_micros(micros);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&cdf.sorted_ms), bits(&expect));
    }

    #[test]
    fn from_micros_matches_comparison_sort_bit_for_bit() {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        assert_matches_comparison_sort(vec![]);
        assert_matches_comparison_sort(vec![1_234]);
        assert_matches_comparison_sort(vec![0; 1_000]);
        assert_matches_comparison_sort(vec![77_777; 1_000]);
        // Keys above 2^33 µs need four 11-bit passes; u64::MAX needs six.
        let big: Vec<u64> = (0..2_000)
            .map(|i| (1u64 << 33) + next() % (1u64 << 40) + i % 3)
            .chain([0, u64::MAX, 1u64 << 33])
            .collect();
        assert_matches_comparison_sort(big);
        // Sizes on both sides of the small-input cutoff, with zeros and
        // duplicates mixed in.
        for n in [RADIX_MIN_LEN - 1, RADIX_MIN_LEN, RADIX_MIN_LEN + 1, 20_000] {
            let v: Vec<u64> = (0..n)
                .map(|_| {
                    let r = next();
                    if r.is_multiple_of(7) {
                        0
                    } else {
                        r % 5_000_000
                    }
                })
                .collect();
            assert_matches_comparison_sort(v);
        }
    }

    #[test]
    fn empty_cdf() {
        let cdf = LatencyCdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.p95(), None);
        assert!(cdf.curve(10).is_empty());
        assert_eq!(cdf.fraction_below(1.0), 0.0);
    }
}
