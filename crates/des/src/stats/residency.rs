//! Per-state residency tracking: how long a component spends in each state.

use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};

/// Accumulates time spent in each state of a state machine.
///
/// `S` is typically a small `Copy` enum (power states, server modes).
///
/// # Examples
///
/// ```
/// use holdcsim_des::stats::Residency;
/// use holdcsim_des::time::SimTime;
///
/// #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
/// enum Mode { Busy, Idle }
///
/// let mut r = Residency::new(SimTime::ZERO, Mode::Idle);
/// r.transition(SimTime::from_secs(4), Mode::Busy);
/// r.transition(SimTime::from_secs(10), Mode::Idle);
/// assert_eq!(r.time_in(Mode::Busy).as_secs_f64(), 6.0);
/// assert_eq!(r.fraction_in(Mode::Idle, SimTime::from_secs(10)), 0.4);
/// ```
#[derive(Debug, Clone)]
pub struct Residency<S> {
    current: S,
    since: SimTime,
    start: SimTime,
    accumulated: BTreeMap<S, SimDuration>,
}

impl<S: Copy + Ord> Residency<S> {
    /// Starts tracking at `start` in `initial` state.
    pub fn new(start: SimTime, initial: S) -> Self {
        Residency {
            current: initial,
            since: start,
            start,
            accumulated: BTreeMap::new(),
        }
    }

    /// Moves to `next` at time `now`. A self-transition is a no-op.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the previous transition.
    pub fn transition(&mut self, now: SimTime, next: S) {
        debug_assert!(now >= self.since, "Residency transition out of order");
        if next == self.current {
            return;
        }
        let spent = now.saturating_duration_since(self.since);
        *self.accumulated.entry(self.current).or_default() += spent;
        self.current = next;
        self.since = now;
    }

    /// Total time spent in `state` (not counting the still-open interval).
    pub fn time_in(&self, state: S) -> SimDuration {
        self.accumulated.get(&state).copied().unwrap_or_default()
    }

    /// Total time spent in `state` through `now`, including the open interval.
    pub fn time_in_through(&self, state: S, now: SimTime) -> SimDuration {
        let mut t = self.time_in(state);
        if state == self.current {
            t += now.saturating_duration_since(self.since);
        }
        t
    }

    /// Fraction of elapsed time spent in `state` through `now` (0 if no time
    /// has elapsed).
    pub fn fraction_in(&self, state: S, now: SimTime) -> f64 {
        let elapsed = now.saturating_duration_since(self.start);
        if elapsed.is_zero() {
            return 0.0;
        }
        self.time_in_through(state, now).as_secs_f64() / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    enum St {
        A,
        B,
        C,
    }

    #[test]
    fn accumulates_per_state() {
        let mut r = Residency::new(SimTime::ZERO, St::A);
        r.transition(SimTime::from_secs(2), St::B);
        r.transition(SimTime::from_secs(5), St::A);
        r.transition(SimTime::from_secs(6), St::C);
        assert_eq!(r.time_in(St::A), SimDuration::from_secs(3));
        assert_eq!(r.time_in(St::B), SimDuration::from_secs(3));
        assert_eq!(r.time_in(St::C), SimDuration::ZERO);
        assert_eq!(r.current, St::C);
    }

    #[test]
    fn open_interval_counts_through_now() {
        let mut r = Residency::new(SimTime::ZERO, St::A);
        r.transition(SimTime::from_secs(1), St::B);
        assert_eq!(
            r.time_in_through(St::B, SimTime::from_secs(4)),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    fn self_transition_is_noop() {
        let mut r = Residency::new(SimTime::ZERO, St::A);
        r.transition(SimTime::from_secs(1), St::A);
        assert_eq!(r.since, SimTime::ZERO);
        assert_eq!(r.time_in(St::A), SimDuration::ZERO);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut r = Residency::new(SimTime::ZERO, St::A);
        r.transition(SimTime::from_secs(3), St::B);
        r.transition(SimTime::from_secs(7), St::C);
        let now = SimTime::from_secs(10);
        let total: f64 = [St::A, St::B, St::C]
            .iter()
            .map(|&s| r.fraction_in(s, now))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_fraction_is_zero() {
        let r = Residency::new(SimTime::from_secs(2), St::A);
        assert_eq!(r.fraction_in(St::A, SimTime::from_secs(2)), 0.0);
    }
}
