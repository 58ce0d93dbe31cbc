//! Latency-distribution collection: exact quantiles with optional reservoir
//! downsampling for very long runs.

use crate::rng::SimRng;

/// Collects scalar samples and answers quantile queries.
///
/// Stores samples exactly up to `capacity`, then switches to uniform
/// reservoir sampling (Vitter's algorithm R) so memory stays bounded while
/// quantiles remain unbiased estimates.
///
/// # Examples
///
/// ```
/// use holdcsim_des::stats::SampleSet;
///
/// let mut s = SampleSet::with_capacity(usize::MAX);
/// for i in 1..=100 {
///     s.record(i as f64);
/// }
/// assert_eq!(s.quantile(0.5), Some(50.0));
/// assert_eq!(s.quantile(0.99), Some(99.0));
/// assert_eq!(s.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone)]
pub struct SampleSet {
    samples: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: SimRng,
    sum: f64,
}

impl SampleSet {
    /// A set that reservoir-samples beyond `capacity` stored values
    /// (`usize::MAX` keeps every sample exactly).
    pub fn with_capacity(capacity: usize) -> Self {
        SampleSet {
            samples: Vec::new(),
            capacity: capacity.max(1),
            seen: 0,
            rng: SimRng::seed_from(0x5A4D_17E5_0CA7_B0A5),
            sum: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.seen += 1;
        self.sum += x;
        if self.samples.len() < self.capacity {
            self.samples.push(x);
        } else {
            // Reservoir: replace a random slot with probability capacity/seen.
            let j = self.rng.below(self.seen);
            if (j as usize) < self.capacity {
                self.samples[j as usize] = x;
            }
        }
    }

    /// Total number of samples ever recorded.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Mean over all recorded samples (exact even when downsampled).
    pub fn mean(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.sum / self.seen as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) using nearest-rank on retained
    /// samples. Returns `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of [0,1]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Convenience: several quantiles in one sort.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Option<f64>> {
        if self.samples.is_empty() {
            return qs.iter().map(|_| None).collect();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        qs.iter()
            .map(|&q| {
                assert!((0.0..=1.0).contains(&q), "quantile out of [0,1]");
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                Some(sorted[rank - 1])
            })
            .collect()
    }

    /// Empirical CDF as `(value, cumulative fraction)` points over retained
    /// samples, suitable for plotting (Fig. 11b style).
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = sorted.len() as f64;
        sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }

    /// The retained samples (order unspecified).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_quantiles() {
        let s = SampleSet::with_capacity(usize::MAX);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn exact_quantiles_small() {
        let mut s = SampleSet::with_capacity(usize::MAX);
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(3.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn reservoir_keeps_capacity_and_exact_mean() {
        let mut s = SampleSet::with_capacity(100);
        for i in 0..10_000 {
            s.record(i as f64);
        }
        assert_eq!(s.samples().len(), 100);
        assert_eq!(s.count(), 10_000);
        assert!((s.mean() - 4_999.5).abs() < 1e-9);
        // Median of uniform 0..10000 should be near 5000.
        let med = s.quantile(0.5).unwrap();
        assert!((med - 5_000.0).abs() < 1_500.0, "median {med}");
    }

    #[test]
    fn cdf_points_monotone() {
        let mut s = SampleSet::with_capacity(usize::MAX);
        for x in [3.0, 1.0, 2.0] {
            s.record(x);
        }
        let cdf = s.cdf_points();
        assert_eq!(cdf, vec![(1.0, 1.0 / 3.0), (2.0, 2.0 / 3.0), (3.0, 1.0)]);
    }

    #[test]
    fn batch_quantiles_match_single() {
        let mut s = SampleSet::with_capacity(usize::MAX);
        for i in 1..=1000 {
            s.record(i as f64);
        }
        let qs = s.quantiles(&[0.5, 0.9, 0.95, 0.99]);
        assert_eq!(qs[0], s.quantile(0.5));
        assert_eq!(qs[3], s.quantile(0.99));
    }

    #[test]
    #[should_panic(expected = "quantile out of")]
    fn quantile_rejects_out_of_range() {
        let mut s = SampleSet::with_capacity(usize::MAX);
        s.record(1.0);
        let _ = s.quantile(1.5);
    }
}
