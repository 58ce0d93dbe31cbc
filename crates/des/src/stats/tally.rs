//! Streaming scalar statistics (Welford's online algorithm).

use std::fmt;

/// Accumulates count, mean, variance, min, and max of observations without
/// storing them.
///
/// # Examples
///
/// ```
/// use holdcsim_des::stats::Tally;
///
/// let mut t = Tally::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     t.record(x);
/// }
/// assert_eq!(t.count(), 8);
/// assert_eq!(t.mean(), 5.0);
/// assert!((t.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance with Bessel's correction (0 if fewer than 2).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.6} sd={:.6} min={:.6} max={:.6}",
            self.count,
            self.mean(),
            self.sample_std_dev(),
            self.min.min(f64::INFINITY),
            self.max.max(f64::NEG_INFINITY),
        )
    }
}

impl FromIterator<f64> for Tally {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut t = Tally::new();
        for x in iter {
            t.record(x);
        }
        t
    }
}

impl Extend<f64> for Tally {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tally_is_benign() {
        let t = Tally::new();
        assert_eq!(t.count(), 0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.sample_variance(), 0.0);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
    }

    #[test]
    fn single_observation() {
        let t: Tally = [5.0].into_iter().collect();
        assert_eq!(t.mean(), 5.0);
        assert_eq!(t.min(), Some(5.0));
        assert_eq!(t.max(), Some(5.0));
        assert_eq!(t.sample_variance(), 0.0);
    }

    #[test]
    fn extend_accumulates() {
        let mut t = Tally::new();
        t.extend([1.0, 3.0]);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.sum(), 4.0);
    }
}
