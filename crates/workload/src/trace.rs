//! Synthetic request traces standing in for the paper's proprietary inputs.
//!
//! The paper drives several case studies from the Wikipedia request trace
//! \[59\] and the NLANR HTTP trace \[2\]; neither is redistributable here, so
//! this module generates statistically similar arrival-time vectors. The
//! case studies consume a trace only as arrival instants, and what they
//! exercise (provisioning against a daily swing, sleep timers against
//! bursts) depends on the trace's shape, which the generators reproduce:
//!
//! * [`SyntheticTrace::wikipedia_like`] — diurnal sinusoid + slow weekly
//!   modulation + multiplicative noise over an inhomogeneous Poisson
//!   process (Lewis thinning).
//! * [`SyntheticTrace::nlanr_like`] — bursty MMPP-driven arrivals typical
//!   of aggregated HTTP gateways.
//!
//! Traces serialize to/from a one-timestamp-per-line text format so users
//! can swap in real traces.

use holdcsim_des::rng::SimRng;
use holdcsim_des::time::{SimDuration, SimTime};

use crate::arrivals::Mmpp2Arrivals;

/// Generators for synthetic arrival traces.
#[derive(Debug)]
pub struct SyntheticTrace;

impl SyntheticTrace {
    /// A Wikipedia-style trace: base rate with a diurnal sinusoid, a weekly
    /// envelope, and lognormal-ish noise, realized by thinning.
    ///
    /// * `duration` — covered time span.
    /// * `base_rate` — long-run mean arrival rate (jobs/s).
    /// * `diurnal_amplitude` — peak-to-mean swing in `[0, 1)` (0.5 means
    ///   the rate swings ±50 % over a day).
    /// * `day` — length of the modeled "day" (compressible so short
    ///   simulations still see full diurnal cycles).
    ///
    /// # Panics
    ///
    /// Panics if `base_rate <= 0`, `diurnal_amplitude ∉ [0, 1)`, or `day`
    /// is zero.
    pub fn wikipedia_like(
        duration: SimDuration,
        base_rate: f64,
        diurnal_amplitude: f64,
        day: SimDuration,
        rng: &mut SimRng,
    ) -> Vec<SimTime> {
        assert!(base_rate > 0.0, "base_rate must be positive");
        assert!(
            (0.0..1.0).contains(&diurnal_amplitude),
            "diurnal amplitude must be in [0, 1)"
        );
        assert!(!day.is_zero(), "day length must be positive");
        let week = day * 7;
        let noise_amp = 0.08;
        let rate = |t: f64| -> f64 {
            let daily =
                1.0 + diurnal_amplitude * (std::f64::consts::TAU * t / day.as_secs_f64()).sin();
            let weekly = 1.0 + 0.15 * (std::f64::consts::TAU * t / week.as_secs_f64()).sin();
            base_rate * daily * weekly
        };
        // Thinning bound: the max of the modulation envelope plus noise.
        let lambda_max = base_rate * (1.0 + diurnal_amplitude) * 1.15 * (1.0 + noise_amp);
        let horizon = duration.as_secs_f64();
        let mut times = Vec::new();
        let mut t = 0.0;
        loop {
            t += rng.exp(lambda_max);
            if t >= horizon {
                break;
            }
            let jitter = 1.0 + noise_amp * (2.0 * rng.uniform_f64() - 1.0);
            if rng.uniform_f64() < (rate(t) * jitter) / lambda_max {
                times.push(SimTime::from_nanos((t * 1e9) as u64));
            }
        }
        times
    }

    /// An NLANR-style trace: bursty HTTP arrivals from an MMPP(2) source.
    ///
    /// # Panics
    ///
    /// Panics if `base_rate <= 0`.
    pub fn nlanr_like(duration: SimDuration, base_rate: f64, rng: &mut SimRng) -> Vec<SimTime> {
        assert!(base_rate > 0.0, "base_rate must be positive");
        let mut p = Mmpp2Arrivals::with_burstiness(base_rate, 8.0, 0.15, 5.0);
        let mut times = Vec::new();
        let mut t = SimTime::ZERO;
        while let Some(gap) = p.next_gap(rng) {
            t += gap;
            if t > SimTime::ZERO + duration {
                break;
            }
            times.push(t);
        }
        times
    }
}

/// Serializes a trace as one fractional-seconds timestamp per line.
pub fn to_text(times: &[SimTime]) -> String {
    let mut out = String::with_capacity(times.len() * 12);
    for t in times {
        out.push_str(&format!("{:.9}\n", t.as_secs_f64()));
    }
    out
}

/// Errors from [`from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending entry.
    pub line: usize,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid timestamp on line {}", self.line)
    }
}

impl std::error::Error for ParseTraceError {}

/// Parses a trace produced by [`to_text`] (or a real-world trace in the
/// same one-timestamp-per-line format). Blank lines and `#` comments are
/// skipped.
///
/// # Errors
///
/// Returns [`ParseTraceError`] with the offending line number if a line is
/// not a non-negative decimal number of seconds.
pub fn from_text(text: &str) -> Result<Vec<SimTime>, ParseTraceError> {
    let mut times = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let secs: f64 = line.parse().map_err(|_| ParseTraceError { line: i + 1 })?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(ParseTraceError { line: i + 1 });
        }
        times.push(SimTime::from_nanos((secs * 1e9).round() as u64));
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wikipedia_like_hits_target_rate() {
        let mut rng = SimRng::seed_from(1);
        let dur = SimDuration::from_secs(2_000);
        let times =
            SyntheticTrace::wikipedia_like(dur, 40.0, 0.5, SimDuration::from_secs(500), &mut rng);
        let rate = times.len() as f64 / 2_000.0;
        assert!((rate - 40.0).abs() < 4.0, "rate {rate}");
        // Sorted and within the horizon.
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.last().unwrap().as_secs_f64() < 2_000.0);
    }

    #[test]
    fn wikipedia_like_shows_diurnal_swing() {
        let mut rng = SimRng::seed_from(2);
        let day = SimDuration::from_secs(1_000);
        let times =
            SyntheticTrace::wikipedia_like(SimDuration::from_secs(1_000), 50.0, 0.8, day, &mut rng);
        // First quarter of the "day" is the sinusoid's rising peak; third
        // quarter is the trough.
        let peak = times
            .iter()
            .filter(|t| (0.0..250.0).contains(&t.as_secs_f64()))
            .count();
        let trough = times
            .iter()
            .filter(|t| (500.0..750.0).contains(&t.as_secs_f64()))
            .count();
        assert!(
            peak as f64 > 2.0 * trough as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn nlanr_like_is_bounded_and_sorted() {
        let mut rng = SimRng::seed_from(3);
        let times = SyntheticTrace::nlanr_like(SimDuration::from_secs(500), 30.0, &mut rng);
        assert!(!times.is_empty());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.last().unwrap().as_secs_f64() <= 500.0);
    }

    #[test]
    fn text_round_trip() {
        let times = vec![
            SimTime::from_millis(1),
            SimTime::from_millis(2500),
            SimTime::from_secs(7),
        ];
        let text = to_text(&times);
        assert_eq!(from_text(&text).unwrap(), times);
    }

    #[test]
    fn from_text_skips_comments_and_blanks() {
        let parsed = from_text("# header\n\n0.5\n 1.5 \n").unwrap();
        assert_eq!(
            parsed,
            vec![SimTime::from_millis(500), SimTime::from_millis(1500)]
        );
    }

    #[test]
    fn from_text_reports_bad_line() {
        let err = from_text("0.5\nnot-a-number\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = from_text("-1.0\n").unwrap_err();
        assert_eq!(err.line, 1);
    }
}
