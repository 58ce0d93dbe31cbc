//! Cross-replication aggregation: per-trial metric extraction and
//! mean / standard deviation / 95 % confidence intervals per grid point.

use holdcsim::report::SimReport;

use crate::grid::{TrialPoint, TrialSpec};

/// The scalar metrics extracted from one trial's [`SimReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrialMetrics {
    values: Vec<f64>,
}

/// Metric names, aligned with [`TrialMetrics::values`].
pub const METRIC_NAMES: &[&str] = &[
    "energy_j",
    "cpu_energy_j",
    "dram_energy_j",
    "platform_energy_j",
    "mean_power_w",
    "latency_mean_s",
    "latency_p50_s",
    "latency_p90_s",
    "latency_p95_s",
    "latency_p99_s",
    "latency_max_s",
    "jobs_completed",
    "utilization",
    "residency_active",
    "residency_wakeup",
    "residency_idle",
    "residency_shallow",
    "residency_deep",
];

impl TrialMetrics {
    /// Extracts the metric vector from a finished report.
    pub fn from_report(r: &SimReport) -> Self {
        let bands = r.mean_residency();
        let values = vec![
            r.server_energy_j(),
            r.cpu_energy_j(),
            r.dram_energy_j(),
            r.platform_energy_j(),
            r.mean_server_power_w(),
            r.latency.mean,
            r.latency.p50,
            r.latency.p90,
            r.latency.p95,
            r.latency.p99,
            r.latency.max,
            r.jobs_completed as f64,
            r.mean_utilization(),
            bands[0],
            bands[1],
            bands[2],
            bands[3],
            bands[4],
        ];
        debug_assert_eq!(values.len(), METRIC_NAMES.len());
        TrialMetrics { values }
    }

    /// The metric values, aligned with [`METRIC_NAMES`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// One finished trial: its spec plus extracted metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// The trial that ran.
    pub spec: TrialSpec,
    /// Its scalar metrics.
    pub metrics: TrialMetrics,
}

/// Mean / spread / confidence summary of one metric across replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Sample mean.
    pub mean: f64,
    /// Sample (n−1) standard deviation; 0 for a single sample.
    pub std_dev: f64,
    /// Half-width of the 95 % confidence interval on the mean
    /// (Student-t); 0 for a single sample.
    pub ci95_half: f64,
}

/// Two-sided 97.5 % Student-t critical value for `df` degrees of freedom
/// (normal approximation beyond 30).
fn t_critical_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::NAN,
        1..=30 => TABLE[df as usize - 1],
        _ => 1.96,
    }
}

/// Summarizes one metric's samples (mean, sample stddev, 95 % CI).
pub fn summarize(xs: &[f64]) -> MetricSummary {
    let n = xs.len() as u64;
    if n == 0 {
        return MetricSummary {
            mean: f64::NAN,
            std_dev: f64::NAN,
            ci95_half: f64::NAN,
        };
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return MetricSummary {
            mean,
            std_dev: 0.0,
            ci95_half: 0.0,
        };
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    let std_dev = var.sqrt();
    let ci95_half = t_critical_975(n - 1) * std_dev / (n as f64).sqrt();
    MetricSummary {
        mean,
        std_dev,
        ci95_half,
    }
}

/// Aggregated outcome of one grid point across its replications.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSummary {
    /// Index of the point in the plan's point list.
    pub point_index: usize,
    /// The grid point.
    pub point: TrialPoint,
    /// Replications aggregated.
    pub replications: u64,
    /// One summary per entry of [`METRIC_NAMES`].
    pub metrics: Vec<MetricSummary>,
}

impl PointSummary {
    /// Looks a metric summary up by name.
    pub fn get(&self, name: &str) -> Option<MetricSummary> {
        METRIC_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| self.metrics[i])
    }
}

/// Groups trials by grid point (in point order — replication order within
/// a point is fixed by the expansion, so aggregation is deterministic at
/// any thread count) and summarizes every metric.
pub fn aggregate(points: &[TrialPoint], trials: &[TrialOutcome]) -> Vec<PointSummary> {
    // One grouping pass (trials need not be contiguous per point, though
    // plan expansion emits them that way) keeps this O(trials), not
    // O(points × trials) — it runs after every sweep, at any scale.
    let mut members: Vec<Vec<&TrialOutcome>> = vec![Vec::new(); points.len()];
    for t in trials {
        members[t.spec.point_index].push(t);
    }
    points
        .iter()
        .enumerate()
        .map(|(pi, point)| {
            let group = &members[pi];
            let metrics = (0..METRIC_NAMES.len())
                .map(|mi| {
                    let xs: Vec<f64> = group.iter().map(|t| t.metrics.values()[mi]).collect();
                    summarize(&xs)
                })
                .collect();
            PointSummary {
                point_index: pi,
                point: point.clone(),
                replications: group.len() as u64,
                metrics,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_known_inputs() {
        // xs = [2, 4, 4, 4, 5, 5, 7, 9]: mean 5, sample var 32/7.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = summarize(&xs);
        assert!((s.mean - 5.0).abs() < 1e-12);
        let expect_sd = (32.0f64 / 7.0).sqrt();
        assert!((s.std_dev - expect_sd).abs() < 1e-12);
        // t(0.975, df=7) = 2.365.
        let expect_ci = 2.365 * expect_sd / 8.0f64.sqrt();
        assert!(
            (s.ci95_half - expect_ci).abs() < 1e-9,
            "{} vs {}",
            s.ci95_half,
            expect_ci
        );
    }

    #[test]
    fn summarize_single_sample_has_zero_spread() {
        let s = summarize(&[3.25]);
        assert_eq!(s.mean, 3.25);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half, 0.0);
    }

    #[test]
    fn summarize_empty_is_nan() {
        let s = summarize(&[]);
        assert!(s.mean.is_nan());
    }

    #[test]
    fn t_table_endpoints() {
        assert!((t_critical_975(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_975(30) - 2.042).abs() < 1e-9);
        assert!((t_critical_975(31) - 1.96).abs() < 1e-9);
        assert!(t_critical_975(0).is_nan());
    }

    #[test]
    fn ci_shrinks_with_more_replications() {
        let few = summarize(&[1.0, 2.0, 3.0]);
        let many: Vec<f64> = (0..30).map(|i| 1.0 + (i % 3) as f64).collect();
        let more = summarize(&many);
        assert!(more.ci95_half < few.ci95_half);
    }
}
