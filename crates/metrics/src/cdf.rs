//! Latency CDFs and percentiles (Figures 11–13).
//!
//! A [`LatencyCdf`] keeps its samples unsorted, as `u64` keys whose
//! unsigned order is the order of the ms values they stand for. A
//! percentile is one order statistic, so [`LatencyCdf::percentile`] (and
//! `p50`/`p95`/`p99`) finds it by exact k-th-order selection
//! (`select_nth_unstable`, O(n)); only [`LatencyCdf::curve`] and
//! [`LatencyCdf::fraction_below`] need the whole order, and the first of
//! them sorts the keys in place for every later query.
//!
//! A run's latencies are whole microseconds at source, so run-level CDFs
//! are built by [`LatencyCdf::from_micros`], whose keys are the µs values
//! themselves, reported through the same µs → ms map
//! [`RequestRecord::latency_ms`](crate::RequestRecord::latency_ms)
//! applies. That map is monotone, so every answer is bit-identical to
//! sorting the `f64` latencies with `total_cmp` and reading the
//! nearest rank. [`LatencyCdf::new`] takes arbitrary `f64` samples and
//! keys them by their `total_cmp` order.

use std::cell::{Cell, RefCell};

use crate::record::micros_to_ms;

/// The key of a finite `f64`: a `u64` whose unsigned order is
/// `f64::total_cmp`'s (so `-0.0` sorts below `+0.0`).
fn f64_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Inverse of [`f64_key`].
fn key_f64(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// An empirical latency distribution.
///
/// Queries take `&self`: selection reorders the keys behind a `RefCell`
/// (the multiset, and so every answer, is unchanged), which keeps the
/// value `Send` but not `Sync`.
#[derive(Clone, Debug)]
pub struct LatencyCdf {
    /// One key per sample, in no particular order until `sorted` is set.
    keys: RefCell<Vec<u64>>,
    /// True once the keys are sorted ascending.
    sorted: Cell<bool>,
    /// Maps a key to its latency in ms; monotone non-decreasing.
    to_ms: fn(u64) -> f64,
}

impl LatencyCdf {
    /// Builds a CDF from latency samples (ms). Non-finite samples (NaN,
    /// ±∞) indicate an upstream accounting bug but must not crash a whole
    /// sweep: they are dropped here and counted against the process-wide
    /// [`ffs_obs::nonfinite_latency_samples`] counter so the loss stays
    /// visible.
    pub fn new(samples: Vec<f64>) -> Self {
        let before = samples.len();
        let keys: Vec<u64> = samples
            .into_iter()
            .filter(|x| x.is_finite())
            .map(f64_key)
            .collect();
        for _ in keys.len()..before {
            ffs_obs::note_nonfinite_latency_sample();
        }
        Self::from_keys(keys, key_f64)
    }

    /// Builds a CDF from whole-microsecond latencies, reported in ms as
    /// [`RequestRecord::latency_ms`](crate::RequestRecord::latency_ms)
    /// does. Bit-identical to `LatencyCdf::new` over those ms values; the
    /// µs values are the keys, so building costs no pass over the data.
    pub fn from_micros(micros: Vec<u64>) -> Self {
        Self::from_keys(micros, micros_to_ms)
    }

    fn from_keys(keys: Vec<u64>, to_ms: fn(u64) -> f64) -> Self {
        LatencyCdf {
            keys: RefCell::new(keys),
            sorted: Cell::new(false),
            to_ms,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.keys.borrow().len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `q`-quantile (0.0 ..= 1.0) by nearest-rank. Returns `None` when
    /// empty. Found by selection unless the keys are already sorted.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        debug_assert!((0.0..=1.0).contains(&q));
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let mut keys = self.keys.borrow_mut();
        let key = if self.sorted.get() {
            keys[rank - 1]
        } else {
            *keys.select_nth_unstable(rank - 1).1
        };
        Some((self.to_ms)(key))
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

    /// The keys in ascending order, sorting them on first use.
    fn sorted_keys(&self) -> std::cell::Ref<'_, Vec<u64>> {
        if !self.sorted.get() {
            self.keys.borrow_mut().sort_unstable();
            self.sorted.set(true);
        }
        self.keys.borrow()
    }

    /// Fraction of samples at or below `x` ms.
    pub fn fraction_below(&self, x: f64) -> f64 {
        let keys = self.sorted_keys();
        if keys.is_empty() {
            return 0.0;
        }
        let idx = keys.partition_point(|&k| (self.to_ms)(k) <= x);
        idx as f64 / keys.len() as f64
    }

    /// `points` evenly spaced CDF points `(latency_ms, cumulative_fraction)`
    /// for plotting.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        let keys = self.sorted_keys();
        if keys.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = keys.len();
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let rank = ((frac * n as f64).ceil() as usize).clamp(1, n);
                ((self.to_ms)(keys[rank - 1]), frac)
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    impl LatencyCdf {
        /// Every sample in ms, ascending.
        fn sorted_ms(&self) -> Vec<f64> {
            self.sorted_keys()
                .iter()
                .map(|&k| (self.to_ms)(k))
                .collect()
        }
    }

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
        assert_eq!(bits(&cdf.sorted_ms()), bits(&stable));
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

    /// `from_micros` against a comparison sort of the ms values
    /// `RequestRecord::latency_ms` reports, ordered by `total_cmp`: the
    /// selected percentiles first, then the whole sorted order.
    fn assert_matches_comparison_sort(micros: Vec<u64>) {
        let mut expect: Vec<f64> = micros.iter().map(|&us| micros_to_ms(us)).collect();
        expect.sort_unstable_by(f64::total_cmp);
        let cdf = LatencyCdf::from_micros(micros);
        let n = expect.len();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
            let want = expect.get(rank - 1).map(|v| v.to_bits());
            assert_eq!(cdf.percentile(q).map(f64::to_bits), want, "q = {q}");
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&cdf.sorted_ms()), bits(&expect));
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
        // Keys from 2^33 µs up to u64::MAX.
        let big: Vec<u64> = (0..2_000)
            .map(|i| (1u64 << 33) + next() % (1u64 << 40) + i % 3)
            .chain([0, u64::MAX, 1u64 << 33])
            .collect();
        assert_matches_comparison_sort(big);
        // Small and large inputs, with zeros and duplicates mixed in.
        for n in [2, 255, 256, 257, 20_000] {
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
