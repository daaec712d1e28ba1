//! Order statistics of repeated measurements.

/// Median and quartiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// Sample size.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)` (the
/// exclusive method), which is the rule the benchmark's acceptance check
/// uses; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        if n == 1 {
            return v[0];
        }
        // Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Quartiles {
        n,
        q1: at(1),
        median: at(2),
        q3: at(3),
    }
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Standard deviation over mean (0 for fewer than two values).
pub fn coeff_of_variation(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        // Seven repetitions, the default run shape.
        // statistics.quantiles([2,4,4,5,7,9,11], n=4) == [4.0, 5.0, 9.0]
        let q = quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]);
        assert_eq!((q.q1, q.median, q.q3), (4.0, 5.0, 9.0));
    }
}
