//! Time-weighted value tracking: integrals and averages of piecewise-constant
//! signals such as queue length, active-server count, or power draw.

use crate::time::SimTime;

/// Integrates a piecewise-constant signal over simulation time.
///
/// Typical uses: time-averaged queue length, energy (integral of watts).
///
/// # Examples
///
/// ```
/// use holdcsim_des::stats::TimeWeighted;
/// use holdcsim_des::time::SimTime;
///
/// let mut queue_len = TimeWeighted::new(SimTime::ZERO, 0.0);
/// queue_len.set(SimTime::from_secs(10), 4.0); // 0 for 10 s
/// queue_len.set(SimTime::from_secs(30), 0.0); // 4 for 20 s
/// assert_eq!(queue_len.integral(SimTime::from_secs(30)), 80.0);
/// assert_eq!(queue_len.time_average(SimTime::from_secs(40)), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_change: SimTime,
    value: f64,
    integral: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with initial `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_change: start,
            value,
            integral: 0.0,
            start,
        }
    }

    /// The current value of the signal.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Updates the signal to `value` effective at `now`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the previous update.
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.last_change, "TimeWeighted updated out of order");
        self.integral += self.value
            * now
                .saturating_duration_since(self.last_change)
                .as_secs_f64();
        self.last_change = now;
        self.value = value;
    }

    /// The integral of the signal from start through `now`
    /// (value · seconds).
    pub fn integral(&self, now: SimTime) -> f64 {
        self.integral
            + self.value
                * now
                    .saturating_duration_since(self.last_change)
                    .as_secs_f64()
    }

    /// The time average of the signal from start through `now`.
    /// Returns the current value if no time has elapsed.
    pub fn time_average(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_duration_since(self.start);
        if elapsed.is_zero() {
            self.value
        } else {
            self.integral(now) / elapsed.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal_integrates_linearly() {
        let tw = TimeWeighted::new(SimTime::ZERO, 3.0);
        assert_eq!(tw.integral(SimTime::from_secs(10)), 30.0);
        assert_eq!(tw.time_average(SimTime::from_secs(10)), 3.0);
    }

    #[test]
    fn steps_accumulate() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.set(SimTime::from_secs(5), 2.0);
        tw.set(SimTime::from_secs(10), 0.0);
        assert_eq!(tw.integral(SimTime::from_secs(20)), 5.0 + 10.0);
        assert_eq!(tw.time_average(SimTime::from_secs(15)), 1.0);
    }

    #[test]
    fn zero_elapsed_average_is_current_value() {
        let tw = TimeWeighted::new(SimTime::from_secs(5), 7.0);
        assert_eq!(tw.time_average(SimTime::from_secs(5)), 7.0);
    }

    #[test]
    fn late_start_ignores_earlier_time() {
        let tw = TimeWeighted::new(SimTime::from_secs(100), 2.0);
        assert_eq!(tw.integral(SimTime::from_secs(110)), 20.0);
        assert_eq!(tw.time_average(SimTime::from_secs(110)), 2.0);
    }
}
