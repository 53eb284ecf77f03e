//! Property tests for [`LatencyCdf`]: percentiles found by selection on
//! unsorted keys equal the nearest-rank values of the fully sorted
//! samples, bit for bit, whatever order the queries come in.
//!
//! The reference is the plainest CDF there is: drop non-finite samples,
//! sort the rest with `f64::total_cmp` and read ranks off the sorted
//! vector. `LatencyCdf` answers `percentile` by k-th-order selection until
//! a `curve` or `fraction_below` call sorts its keys, so each case runs a
//! random sequence of all three queries on one value and checks every
//! answer, before and after the sort.

use ffs_metrics::LatencyCdf;
use proptest::prelude::*;

/// The quantiles every case checks, besides random ones.
const FIXED_Q: [f64; 6] = [0.0, 1e-9, 0.5, 0.95, 0.99, 1.0];

/// The µs → ms map of `RequestRecord::latency_ms`.
fn micros_to_ms(us: u64) -> f64 {
    ffs_sim::SimDuration::from_micros(us).as_secs_f64() * 1_000.0
}

/// A sample drawn from a small palette of edge cases (both zeros,
/// non-finite values, a few duplicated values) or from any finite bit
/// pattern.
fn sample(code: u64) -> f64 {
    match code % 16 {
        0 => -0.0,
        1 => 0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5..=10 => ((code >> 4) % 9) as f64 * 0.5 - 2.0,
        _ => {
            let v = f64::from_bits(code >> 4 | (code & 1) << 63);
            if v.is_finite() {
                v
            } else {
                1.0
            }
        }
    }
}

/// The sorted-order reference over the finite samples.
struct Reference(Vec<f64>);

impl Reference {
    fn new(samples: &[f64]) -> Self {
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(f64::total_cmp);
        Reference(v)
    }

    fn percentile(&self, q: f64) -> Option<u64> {
        let n = self.0.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        self.0.get(rank - 1).map(|v| v.to_bits())
    }

    fn fraction_below(&self, x: f64) -> u64 {
        if self.0.is_empty() {
            return 0.0f64.to_bits();
        }
        let below = self.0.iter().filter(|&&v| v <= x).count();
        (below as f64 / self.0.len() as f64).to_bits()
    }

    fn curve(&self, points: usize) -> Vec<(u64, u64)> {
        let n = self.0.len();
        if n == 0 || points == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let rank = ((frac * n as f64).ceil() as usize).clamp(1, n);
                (self.0[rank - 1].to_bits(), frac.to_bits())
            })
            .collect()
    }
}

/// Runs `ops` on `cdf` and the reference, comparing every answer's bits.
/// An op is `(kind, arg)`: kind 0–1 a percentile (fixed `q` then random
/// `q`), 2 `fraction_below` at a sample-palette value, 3 `curve`.
fn check(cdf: &LatencyCdf, reference: &Reference, ops: &[(u8, u64)]) -> Result<(), String> {
    prop_assert_eq!(cdf.len(), reference.0.len());
    prop_assert_eq!(cdf.is_empty(), reference.0.is_empty());
    for &(kind, arg) in ops {
        match kind {
            0 | 1 => {
                let q = if kind == 0 {
                    FIXED_Q[(arg % FIXED_Q.len() as u64) as usize]
                } else {
                    (arg >> 11) as f64 / (1u64 << 53) as f64
                };
                prop_assert_eq!(
                    cdf.percentile(q).map(f64::to_bits),
                    reference.percentile(q),
                    "percentile({})",
                    q
                );
            }
            2 => {
                let x = sample(arg);
                prop_assert_eq!(
                    cdf.fraction_below(x).to_bits(),
                    reference.fraction_below(x),
                    "fraction_below({})",
                    x
                );
            }
            _ => {
                let points = (arg % 24) as usize;
                let got: Vec<(u64, u64)> = cdf
                    .curve(points)
                    .into_iter()
                    .map(|(ms, frac)| (ms.to_bits(), frac.to_bits()))
                    .collect();
                prop_assert_eq!(got, reference.curve(points), "curve({})", points);
            }
        }
    }
    // The named percentiles agree too, after whatever the ops did.
    for (got, q) in [(cdf.p50(), 0.5), (cdf.p95(), 0.95), (cdf.p99(), 0.99)] {
        prop_assert_eq!(got.map(f64::to_bits), reference.percentile(q));
    }
    Ok(())
}

/// Every fixed quantile first, then the random ops.
fn with_fixed_quantiles(ops: Vec<(u8, u64)>) -> Vec<(u8, u64)> {
    (0..FIXED_Q.len() as u64)
        .map(|i| (0, i))
        .chain(ops)
        .collect()
}

proptest! {
    /// `LatencyCdf::new` over `f64` samples with duplicates, both zeros
    /// and non-finite values: non-finite samples are dropped and counted,
    /// and every query matches the sorted reference.
    #[test]
    fn new_matches_sorted_reference(
        codes in proptest::collection::vec(any::<u64>(), 0..300),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 0..12),
    ) {
        let samples: Vec<f64> = codes.iter().map(|&c| sample(c)).collect();
        let reference = Reference::new(&samples);
        let dropped = (samples.len() - reference.0.len()) as u64;
        // This is the only test in the binary with non-finite samples, so
        // the process-wide counter moves by exactly this case's drops.
        let before = ffs_obs::nonfinite_latency_samples();
        let cdf = LatencyCdf::new(samples);
        prop_assert_eq!(ffs_obs::nonfinite_latency_samples() - before, dropped);
        check(&cdf, &reference, &with_fixed_quantiles(ops))?;
    }

    /// `LatencyCdf::from_micros` over integer µs latencies (many ties,
    /// zeros, and values up to `u64::MAX`) answers like the sorted ms
    /// values `RequestRecord::latency_ms` would report.
    #[test]
    fn from_micros_matches_sorted_reference(
        micros in proptest::collection::vec(
            prop_oneof![0u64..8, 0u64..5_000_000, any::<u64>()],
            0..300,
        ),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 0..12),
    ) {
        let ms: Vec<f64> = micros.iter().map(|&us| micros_to_ms(us)).collect();
        let reference = Reference::new(&ms);
        let cdf = LatencyCdf::from_micros(micros);
        check(&cdf, &reference, &with_fixed_quantiles(ops))?;
    }

    /// A clone taken mid-sequence answers like its original: selection
    /// only reorders the keys, never changes them.
    #[test]
    fn clones_answer_alike(
        micros in proptest::collection::vec(0u64..1_000_000, 1..200),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 0..8),
    ) {
        let ms: Vec<f64> = micros.iter().map(|&us| micros_to_ms(us)).collect();
        let reference = Reference::new(&ms);
        let cdf = LatencyCdf::from_micros(micros);
        check(&cdf, &reference, &ops)?;
        let copy = cdf.clone();
        check(&copy, &reference, &with_fixed_quantiles(ops))?;
    }
}
