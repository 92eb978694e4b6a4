//! Statistics utilities used by scenarios and benchmark harnesses:
//! retained-sample percentiles and CDFs.

/// Retained samples supporting exact percentiles and CDF extraction.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Add many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        self.values.extend(xs);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observations are recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation; `None` when
    /// empty.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.values[lo] * (1.0 - frac) + self.values[hi] * frac)
    }

    /// Median, `None` when empty.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Empirical CDF evaluated at `n` evenly spaced fractions; returns
    /// `(value, fraction ≤ value)` pairs suitable for plotting Fig 5.
    pub fn cdf_points(&mut self, n: usize) -> Vec<(f64, f64)> {
        if self.values.is_empty() || n == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        (1..=n)
            .map(|i| {
                let q = i as f64 / n as f64;
                let idx =
                    ((q * self.values.len() as f64).ceil() as usize).clamp(1, self.values.len());
                (self.values[idx - 1], q)
            })
            .collect()
    }

    /// Borrow the raw values (unsorted order not guaranteed).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut s = Samples::new();
        s.extend([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.percentile(0.0), Some(10.0));
        assert_eq!(s.percentile(1.0), Some(40.0));
        assert_eq!(s.median(), Some(25.0));
        assert_eq!(s.percentile(1.0 / 3.0), Some(20.0));
    }

    #[test]
    fn empty_samples_have_no_percentile() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.mean(), None);
        assert!(s.cdf_points(10).is_empty());
    }

    #[test]
    fn cdf_points_monotone_and_complete() {
        let mut s = Samples::new();
        s.extend((1..=100).map(|i| i as f64));
        let pts = s.cdf_points(20);
        assert_eq!(pts.len(), 20);
        assert_eq!(pts.last().unwrap().1, 1.0);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }
}
