//! Job arrival processes (§III-D): Poisson, 2-state MMPP (bursty), and
//! trace replay. Each yields inter-arrival gaps through its own
//! `next_gap`; trace replay is exhausted when it returns `None`, and the
//! stochastic processes are unbounded.

use holdcsim_des::rng::SimRng;
use holdcsim_des::time::{SimDuration, SimTime};

/// Poisson arrivals: i.i.d. exponential gaps with rate λ (jobs/second).
///
/// # Examples
///
/// ```
/// use holdcsim_workload::arrivals::PoissonArrivals;
/// use holdcsim_des::rng::SimRng;
///
/// let mut p = PoissonArrivals::new(100.0);
/// let mut rng = SimRng::seed_from(1);
/// assert!(p.next_gap(&mut rng).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rate: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson process with `rate` jobs/second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive"
        );
        PoissonArrivals { rate }
    }

    /// The arrival rate λ that produces system utilization `rho` on
    /// `n_servers` servers of `n_cores` cores with mean service time
    /// `mean_service` (the paper's ρ = λ / (µ · nServers · nCores)).
    pub fn rate_for_utilization(
        rho: f64,
        n_servers: usize,
        n_cores: usize,
        mean_service: SimDuration,
    ) -> f64 {
        let mu = 1.0 / mean_service.as_secs_f64();
        rho * mu * n_servers as f64 * n_cores as f64
    }

    /// The exponential gap to the next arrival (never `None`).
    pub fn next_gap(&mut self, rng: &mut SimRng) -> Option<SimDuration> {
        Some(SimDuration::from_secs_f64(rng.exp(self.rate)))
    }
}

/// Which MMPP state the modulating Markov chain is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmppState {
    Bursty,
    Calm,
}

/// 2-state Markov-Modulated Poisson Process (§III-D): a bursty state with
/// arrival rate λ_h and a calm state with λ_l, with exponential dwell times.
///
/// Burstiness is tuned by the rate ratio `R_a = λ_h/λ_l` and the fraction
/// of time spent bursty.
#[derive(Debug, Clone)]
pub struct Mmpp2Arrivals {
    lambda_h: f64,
    lambda_l: f64,
    /// Rate of leaving the bursty state (1/mean bursty dwell).
    exit_bursty: f64,
    /// Rate of leaving the calm state.
    exit_calm: f64,
    state: MmppState,
    /// Time left until the pending state switch.
    until_switch: f64,
}

impl Mmpp2Arrivals {
    /// Creates an MMPP(2) with bursty/calm arrival rates (jobs/s) and mean
    /// dwell times in each state (seconds).
    ///
    /// # Panics
    ///
    /// Panics if any rate or dwell is not strictly positive and finite.
    pub fn new(lambda_h: f64, lambda_l: f64, mean_bursty_dwell: f64, mean_calm_dwell: f64) -> Self {
        for (name, v) in [
            ("lambda_h", lambda_h),
            ("lambda_l", lambda_l),
            ("mean_bursty_dwell", mean_bursty_dwell),
            ("mean_calm_dwell", mean_calm_dwell),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive");
        }
        Mmpp2Arrivals {
            lambda_h,
            lambda_l,
            exit_bursty: 1.0 / mean_bursty_dwell,
            exit_calm: 1.0 / mean_calm_dwell,
            state: MmppState::Calm,
            until_switch: 0.0,
        }
    }

    /// Convenience constructor from a base rate, burst ratio
    /// `R_a = λ_h/λ_l`, and the long-run fraction of time spent bursty.
    ///
    /// The long-run mean rate equals
    /// `base_rate` (i.e. λ_l and λ_h are chosen so the weighted average is
    /// `base_rate`), letting experiments hold utilization constant while
    /// sweeping burstiness.
    ///
    /// # Panics
    ///
    /// Panics if `burst_ratio < 1`, `bursty_fraction` is outside (0, 1), or
    /// any derived rate is non-positive.
    pub fn with_burstiness(
        base_rate: f64,
        burst_ratio: f64,
        bursty_fraction: f64,
        mean_bursty_dwell: f64,
    ) -> Self {
        assert!(burst_ratio >= 1.0, "burst ratio must be >= 1");
        assert!(
            bursty_fraction > 0.0 && bursty_fraction < 1.0,
            "bursty fraction must be in (0, 1)"
        );
        // base = f*λh + (1-f)*λl, with λh = R*λl.
        let lambda_l = base_rate / (bursty_fraction * burst_ratio + (1.0 - bursty_fraction));
        let lambda_h = burst_ratio * lambda_l;
        let mean_calm_dwell = mean_bursty_dwell * (1.0 - bursty_fraction) / bursty_fraction;
        Self::new(lambda_h, lambda_l, mean_bursty_dwell, mean_calm_dwell)
    }

    fn current_lambda(&self) -> f64 {
        match self.state {
            MmppState::Bursty => self.lambda_h,
            MmppState::Calm => self.lambda_l,
        }
    }

    fn current_exit(&self) -> f64 {
        match self.state {
            MmppState::Bursty => self.exit_bursty,
            MmppState::Calm => self.exit_calm,
        }
    }

    /// The gap to the next arrival, walking the modulating chain through
    /// any state switches on the way (never `None`).
    pub fn next_gap(&mut self, rng: &mut SimRng) -> Option<SimDuration> {
        // Competing exponentials: next arrival vs next state switch; walk
        // through switches until an arrival wins.
        let mut gap = 0.0;
        loop {
            if self.until_switch <= 0.0 {
                self.until_switch = rng.exp(self.current_exit());
            }
            let to_arrival = rng.exp(self.current_lambda());
            if to_arrival < self.until_switch {
                self.until_switch -= to_arrival;
                gap += to_arrival;
                return Some(SimDuration::from_secs_f64(gap));
            }
            gap += self.until_switch;
            self.until_switch = 0.0;
            self.state = match self.state {
                MmppState::Bursty => MmppState::Calm,
                MmppState::Calm => MmppState::Bursty,
            };
        }
    }
}

/// Replays a fixed sequence of arrival instants (trace-based simulation,
/// §III-D). Produces gaps between consecutive timestamps, then `None`.
#[derive(Debug, Clone)]
pub struct TraceArrivals {
    times: Vec<SimTime>,
    next: usize,
    last: SimTime,
}

impl TraceArrivals {
    /// Creates a replay source from arrival instants.
    ///
    /// The timestamps are sorted internally; duplicates are allowed (two
    /// jobs in the same instant).
    pub fn new(mut times: Vec<SimTime>) -> Self {
        times.sort_unstable();
        TraceArrivals {
            times,
            next: 0,
            last: SimTime::ZERO,
        }
    }

    /// The gap from the previous timestamp to the next one, or `None`
    /// once the trace is exhausted. The RNG is unused.
    pub fn next_gap(&mut self, _rng: &mut SimRng) -> Option<SimDuration> {
        let t = *self.times.get(self.next)?;
        self.next += 1;
        let gap = t.saturating_duration_since(self.last);
        self.last = t;
        Some(gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The empirical rate of `n` gaps drawn by `next_gap`.
    fn drain_rate(
        mut next_gap: impl FnMut(&mut SimRng) -> Option<SimDuration>,
        n: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = SimRng::seed_from(seed);
        let total: f64 = (0..n)
            .map(|_| next_gap(&mut rng).unwrap().as_secs_f64())
            .sum();
        n as f64 / total
    }

    /// The MMPP's long-run rate: each state's rate weighted by its
    /// stationary share of time, mean dwell over the sum of mean dwells.
    fn stationary_rate(p: &Mmpp2Arrivals) -> f64 {
        let (dwell_h, dwell_l) = (1.0 / p.exit_bursty, 1.0 / p.exit_calm);
        let f_bursty = dwell_h / (dwell_h + dwell_l);
        f_bursty * p.lambda_h + (1.0 - f_bursty) * p.lambda_l
    }

    #[test]
    fn poisson_rate_converges() {
        let mut p = PoissonArrivals::new(50.0);
        let r = drain_rate(|rng| p.next_gap(rng), 100_000, 1);
        assert!((r - 50.0).abs() < 1.0, "rate {r}");
    }

    #[test]
    fn rate_for_utilization_matches_paper_formula() {
        // rho = lambda/(mu*nServers*nCores)
        let lambda = PoissonArrivals::rate_for_utilization(0.3, 50, 4, SimDuration::from_millis(5));
        assert!((lambda - 0.3 * 200.0 * 200.0).abs() < 1e-9); // mu=200/s
    }

    #[test]
    fn mmpp_mean_rate_matches_empirical() {
        let mut p = Mmpp2Arrivals::new(200.0, 20.0, 0.5, 2.0);
        let analytic = stationary_rate(&p);
        let empirical = drain_rate(|rng| p.next_gap(rng), 200_000, 2);
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "{empirical} vs {analytic}"
        );
    }

    #[test]
    fn mmpp_with_burstiness_preserves_base_rate() {
        let mut p = Mmpp2Arrivals::with_burstiness(100.0, 10.0, 0.2, 1.0);
        let analytic = stationary_rate(&p);
        assert!((analytic - 100.0).abs() < 1e-9, "analytic {analytic}");
        let empirical = drain_rate(|rng| p.next_gap(rng), 200_000, 3);
        assert!((empirical - 100.0).abs() < 5.0, "empirical {empirical}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Squared coefficient of variation of gaps: Poisson = 1, MMPP > 1.
        let mut rng = SimRng::seed_from(4);
        let mut p = Mmpp2Arrivals::with_burstiness(100.0, 20.0, 0.1, 0.5);
        let gaps: Vec<f64> = (0..100_000)
            .map(|_| p.next_gap(&mut rng).unwrap().as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let scv = var / (mean * mean);
        assert!(scv > 1.5, "scv {scv}");
    }

    #[test]
    fn trace_replay_produces_exact_gaps() {
        let mut t = TraceArrivals::new(vec![
            SimTime::from_millis(10),
            SimTime::from_millis(5),
            SimTime::from_millis(30),
        ]);
        let mut rng = SimRng::seed_from(0);
        assert_eq!(t.times.len(), 3);
        assert_eq!(t.next_gap(&mut rng), Some(SimDuration::from_millis(5)));
        assert_eq!(t.next_gap(&mut rng), Some(SimDuration::from_millis(5)));
        assert_eq!(t.next_gap(&mut rng), Some(SimDuration::from_millis(20)));
        assert_eq!(t.next_gap(&mut rng), None);
        assert_eq!(t.next, t.times.len());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn poisson_rejects_zero_rate() {
        let _ = PoissonArrivals::new(0.0);
    }
}
