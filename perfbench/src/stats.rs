//! Order statistics for timing samples.

/// Cut points dividing `values` (any order) into `n` groups of equal
/// probability, by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=n)`: the same rule the benchmark's
/// spread checks apply to run medians, so every reported quantile can be
/// reproduced from the printed samples.
///
/// # Panics
/// On an empty sample, a NaN value, or `n < 2`.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(!values.is_empty() && n >= 2, "quantiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let len = v.len();
    if len == 1 {
        return vec![v[0]; n - 1];
    }
    let m = len + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
        })
        .collect()
}

/// Median of `values`; see [`quantiles`].
pub fn median(values: &[f64]) -> f64 {
    quantiles(values, 2)[0]
}

/// First decile, quartiles and size of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First decile.
    pub p10: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (any order); see [`quantiles`].
    pub fn of(values: &[f64]) -> Summary {
        let q = quantiles(values, 4);
        Summary {
            p10: quantiles(values, 10)[0],
            q1: q[0],
            median: q[1],
            q3: q[2],
            n: values.len(),
        }
    }
}
