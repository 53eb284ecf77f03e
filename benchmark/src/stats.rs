//! Medians and quartiles, computed exactly as Python's
//! `statistics.quantiles(values, n=4)` computes them (its default
//! "exclusive" method).

/// First quartile, median and third quartile of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

impl Quartiles {
    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of `xs`. A single value is its own quartiles; an empty
/// sample gives zeros with `n = 0`.
pub fn quartiles(xs: &[f64]) -> Quartiles {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return Quartiles {
            q1: v,
            median: v,
            q3: v,
            n,
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: median_sorted(&d),
        q3: cut(3),
        n,
    }
}

/// Median of `xs` (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).median
}

fn median_sorted(d: &[f64]) -> f64 {
    let n = d.len();
    if n % 2 == 1 {
        d[n / 2]
    } else {
        (d[n / 2 - 1] + d[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(quartiles(&[7.0]).q3, 7.0);
        assert_eq!(quartiles(&[]).n, 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((quartiles(&[9.0, 10.0, 11.0, 10.0]).spread() - 0.15).abs() < 1e-12);
    }
}
