//! Metrics probes: a registry of named gauges sampled on a sim-time
//! interval into the DES kernel's [`TimeSeries`] primitive and exported as
//! JSONL keyed by probe name.
//!
//! Probes are registered once (by name, in a fixed order) when the panel is
//! built; each sampling tick reads every probe through
//! [`ProbeSource::probe_sample`](crate::ProbeSource::probe_sample) and feeds
//! the values into per-probe zero-order-hold series, so export timestamps
//! land on a clean grid regardless of event timing.

use holdcsim_des::stats::TimeSeries;
use holdcsim_des::time::{SimDuration, SimTime};

/// Metrics knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Sampling period in sim time (`--metrics-period`, seconds on the CLI).
    pub period: SimDuration,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            period: SimDuration::from_millis(100),
        }
    }
}

/// A registry of named probes, each backed by a [`TimeSeries`].
#[derive(Debug, Clone)]
pub struct ProbePanel {
    period: SimDuration,
    next_due: SimTime,
    names: Vec<&'static str>,
    series: Vec<TimeSeries>,
}

impl ProbePanel {
    /// Creates a panel sampling the given probes every `cfg.period`.
    pub fn new(cfg: MetricsConfig, names: Vec<&'static str>) -> Self {
        let period = if cfg.period.is_zero() {
            MetricsConfig::default().period
        } else {
            cfg.period
        };
        let series = names.iter().map(|_| TimeSeries::new(period)).collect();
        ProbePanel {
            period,
            next_due: SimTime::ZERO,
            names,
            series,
        }
    }

    /// `true` when the next sampling tick is due at or before `now`.
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Records one sample row (`values[i]` belongs to `names[i]`) and
    /// advances the next-due tick past `now`.
    pub fn record(&mut self, now: SimTime, values: &[f64]) {
        debug_assert_eq!(values.len(), self.series.len(), "probe arity changed");
        for (s, &v) in self.series.iter_mut().zip(values) {
            s.observe(now, v);
        }
        while self.next_due <= now {
            self.next_due += self.period;
        }
    }

    /// Closes all series at `end` and returns `(names, series)`.
    pub fn finish(mut self, end: SimTime) -> MetricsData {
        for s in &mut self.series {
            s.finish(end);
        }
        MetricsData {
            names: self.names,
            series: self.series,
        }
    }
}

/// The finished per-probe series, ready for export.
#[derive(Debug, Clone)]
pub struct MetricsData {
    /// Probe names, in registration order.
    pub names: Vec<&'static str>,
    /// One series per probe, same order as `names`.
    pub series: Vec<TimeSeries>,
}

impl MetricsData {
    /// Renders the series as JSONL: one
    /// `{"probe":"…","t_s":…,"v":…}` object per sample (plus `"site":…`
    /// when a federation site id is given). Probes are emitted in
    /// registration order, each probe's samples in time order.
    pub fn render_jsonl(&self, site: Option<u32>) -> String {
        let mut out = String::new();
        for (name, series) in self.names.iter().zip(&self.series) {
            for (t_s, v) in series.points() {
                match site {
                    Some(s) => out.push_str(&format!(
                        "{{\"site\":{s},\"probe\":\"{name}\",\"t_s\":{t_s},\"v\":{}}}\n",
                        fmt_value(v)
                    )),
                    None => out.push_str(&format!(
                        "{{\"probe\":\"{name}\",\"t_s\":{t_s},\"v\":{}}}\n",
                        fmt_value(v)
                    )),
                }
            }
        }
        out
    }
}

/// Formats a sample as JSON: finite numbers as-is, non-finite as `null`.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_on_the_period_grid() {
        let cfg = MetricsConfig {
            period: SimDuration::from_secs(1),
        };
        let mut p = ProbePanel::new(cfg, vec!["q", "busy"]);
        assert!(p.due(SimTime::ZERO));
        p.record(SimTime::ZERO, &[1.0, 2.0]);
        assert!(!p.due(SimTime::from_millis(500)));
        assert!(p.due(SimTime::from_secs(1)));
        p.record(SimTime::from_millis(1200), &[3.0, 4.0]);
        let data = p.finish(SimTime::from_secs(2));
        assert_eq!(data.series[0].values(), &[1.0, 1.0, 3.0]);
        assert_eq!(data.series[1].values(), &[2.0, 2.0, 4.0]);
    }

    #[test]
    fn jsonl_is_keyed_by_probe_name() {
        let cfg = MetricsConfig {
            period: SimDuration::from_secs(1),
        };
        let mut p = ProbePanel::new(cfg, vec!["q"]);
        p.record(SimTime::ZERO, &[7.0]);
        let data = p.finish(SimTime::from_secs(1));
        let s = data.render_jsonl(None);
        assert_eq!(
            s,
            "{\"probe\":\"q\",\"t_s\":0,\"v\":7}\n{\"probe\":\"q\",\"t_s\":1,\"v\":7}\n"
        );
        assert!(data.render_jsonl(Some(1)).starts_with("{\"site\":1,"));
    }

    #[test]
    fn zero_period_falls_back_to_default() {
        let p = ProbePanel::new(
            MetricsConfig {
                period: SimDuration::ZERO,
            },
            vec!["q"],
        );
        assert_eq!(p.period, MetricsConfig::default().period);
    }
}
