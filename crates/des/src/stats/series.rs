//! Sampled time series: fixed-interval snapshots of a signal for plotting
//! power traces, active-server counts, etc.

use crate::time::{SimDuration, SimTime};

/// A fixed-interval time series of `f64` samples.
///
/// The caller pushes `(time, value)` observations; the series records the
/// value prevailing at each sample tick (zero-order hold). This mirrors how
/// the paper's power traces are produced (e.g. 1-second sampling in §V).
///
/// # Examples
///
/// ```
/// use holdcsim_des::stats::TimeSeries;
/// use holdcsim_des::time::{SimDuration, SimTime};
///
/// let mut ts = TimeSeries::new(SimDuration::from_secs(1));
/// ts.observe(SimTime::ZERO, 10.0);
/// ts.observe(SimTime::from_secs(2), 20.0);
/// ts.finish(SimTime::from_secs(3));
/// assert_eq!(ts.values(), &[10.0, 10.0, 20.0, 20.0]);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    interval: SimDuration,
    values: Vec<f64>,
    current: Option<f64>,
    next_tick: SimTime,
}

impl TimeSeries {
    /// Creates a series sampling every `interval` starting at t = 0.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        TimeSeries {
            interval,
            values: Vec::new(),
            current: None,
            next_tick: SimTime::ZERO,
        }
    }

    /// Reports that the signal takes `value` from `now` onward, emitting any
    /// sample ticks that elapsed since the last observation.
    pub fn observe(&mut self, now: SimTime, value: f64) {
        self.advance_to(now);
        self.current = Some(value);
    }

    /// Emits pending samples up to and including `end`.
    pub fn finish(&mut self, end: SimTime) {
        // Emit ticks strictly before `end`, then one at `end` if due.
        self.advance_to(end);
        if self.next_tick == end {
            if let Some(v) = self.current {
                self.values.push(v);
                self.next_tick += self.interval;
            }
        }
    }

    fn advance_to(&mut self, now: SimTime) {
        while self.next_tick < now {
            match self.current {
                Some(v) => self.values.push(v),
                None => self.values.push(0.0),
            }
            self.next_tick += self.interval;
        }
    }

    /// The sampled values so far.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// `(time_seconds, value)` pairs for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let step = self.interval.as_secs_f64();
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as f64 * step, v))
    }

    /// Mean of the sampled values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Population standard deviation of the sampled values.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .values
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.values.len() as f64;
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_order_hold() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.observe(SimTime::ZERO, 1.0);
        ts.observe(SimTime::from_millis(2500), 5.0);
        ts.finish(SimTime::from_secs(5));
        // Ticks at 0,1,2 hold 1.0; ticks at 3,4,5 hold 5.0.
        assert_eq!(ts.values(), &[1.0, 1.0, 1.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn unobserved_prefix_is_zero() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.observe(SimTime::from_millis(1500), 2.0);
        ts.finish(SimTime::from_secs(3));
        assert_eq!(ts.values(), &[0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn points_carry_time() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(500));
        ts.observe(SimTime::ZERO, 1.0);
        ts.finish(SimTime::from_secs(1));
        let pts: Vec<(f64, f64)> = ts.points().collect();
        assert_eq!(pts, vec![(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]);
    }

    #[test]
    fn stats_over_samples() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.observe(SimTime::ZERO, 2.0);
        ts.observe(SimTime::from_secs(2), 4.0);
        ts.finish(SimTime::from_secs(3));
        assert_eq!(ts.values(), &[2.0, 2.0, 4.0, 4.0]);
        assert_eq!(ts.mean(), 3.0);
        assert_eq!(ts.std_dev(), 1.0);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = TimeSeries::new(SimDuration::ZERO);
    }
}
