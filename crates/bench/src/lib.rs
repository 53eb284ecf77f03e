//! # ffs-bench — hot-path microbenchmarks for the FluidFaaS reproduction
//!
//! `benches/hotpath.rs` times each kept hot-path mechanism against the
//! fallback it replaced (run with `cargo bench -p ffs-bench --bench
//! hotpath`). This library is the timer it runs on: each arm is one
//! warm-up call and then 20 timed calls, reported as the median and
//! interquartile range of the per-call times.
//!
//! Under cargo's `--test` flag (`cargo bench -- --test`) every arm runs
//! once with no warm-up, which checks that the arms still run.

use std::hint::black_box;
use std::time::Instant;

/// Timed calls per arm.
const SAMPLES: usize = 20;

/// Runs and reports benchmark arms.
pub struct Bench {
    smoke: bool,
}

impl Bench {
    /// A timer in smoke mode if the process got cargo's `--test` flag.
    pub fn from_args() -> Self {
        Bench {
            smoke: std::env::args().any(|a| a == "--test"),
        }
    }

    /// Times `f` over 20 calls after one warm-up call, and prints the
    /// median and IQR of the per-call times under `name`.
    pub fn run<O>(&self, name: &str, mut f: impl FnMut() -> O) {
        if self.smoke {
            black_box(f());
            println!("bench {name:<44} ok");
            return;
        }
        black_box(f());
        let ns: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_nanos() as f64
            })
            .collect();
        let s = summarize(&ns);
        let (div, unit) = match s.median {
            m if m >= 1e9 => (1e9, "s"),
            m if m >= 1e6 => (1e6, "ms"),
            m if m >= 1e3 => (1e3, "us"),
            _ => (1.0, "ns"),
        };
        println!(
            "bench {name:<44} median {:>9.3} {unit}/iter (IQR {:.3}; {} samples)",
            s.median / div,
            s.iqr / div,
            ns.len()
        );
    }
}

/// Median and interquartile range of a benchmark's samples, in ns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Summary {
    median: f64,
    iqr: f64,
}

/// Summarizes per-sample times (ns). Quartiles interpolate linearly
/// between order statistics; no samples summarize to zeros.
fn summarize(samples_ns: &[f64]) -> Summary {
    if samples_ns.is_empty() {
        return Summary::default();
    }
    let mut sorted = samples_ns.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    Summary {
        median: quantile(0.5),
        iqr: quantile(0.75) - quantile(0.25),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_median_and_iqr() {
        // Sorted: 1, 2, 3, 4, 100. Quartiles at positions 1 and 3.
        let s = summarize(&[4.0, 100.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.iqr, 2.0);
        // Even count: the median and quartiles interpolate.
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.median, 25.0);
        assert_eq!(s.iqr, 15.0);
        let s = summarize(&[7.0]);
        assert_eq!((s.median, s.iqr), (7.0, 0.0));
        assert_eq!(summarize(&[]), Summary::default());
    }
}
