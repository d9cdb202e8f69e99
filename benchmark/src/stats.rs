//! Median and quartiles of a handful of samples.

/// Median, quartiles and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles by the same rule as Python's
    /// `statistics.quantiles(values, n=4)` (exclusive method), so the
    /// spreads printed here are the ones an outside harness computes. With
    /// fewer than two samples all three collapse to the sample.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let m = data.len();
        if m < 2 {
            let only = data.first().copied().unwrap_or(f64::NAN);
            return Quartiles {
                q1: only,
                median: only,
                q3: only,
                n: m,
            };
        }
        let cut = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n: m,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!((Quartiles::of(&ten).spread() - 1.0).abs() < 1e-12);
    }
}
