//! Run-time metrics collection and the final [`SimReport`].

use holdcsim_des::stats::{SampleSet, TimeSeries};
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_server::server::{Band, Server};

/// Latency summary in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Jobs measured.
    pub count: u64,
    /// Mean latency.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile (the paper's Fig. 8 QoS metric).
    pub p90: f64,
    /// 95th percentile (§IV-C's QoS target).
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed.
    pub max: f64,
}

impl LatencyStats {
    fn from_samples(s: &SampleSet) -> Self {
        let qs = s.quantiles(&[0.5, 0.9, 0.95, 0.99, 1.0]);
        let get = |i: usize| qs[i].unwrap_or(0.0);
        LatencyStats {
            count: s.count(),
            mean: s.mean(),
            p50: get(0),
            p90: get(1),
            p95: get(2),
            p99: get(3),
            max: get(4),
        }
    }
}

/// Resilience outcome of a fault-injected run. Present on a
/// [`SimReport`] only when the run carried a non-empty fault plan, so
/// fault-free reports stay bitwise identical to pre-fault builds.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Fault events injected (recoveries not counted).
    pub faults_injected: u64,
    /// Summed server crash downtime, seconds (a server down for the whole
    /// run contributes the full horizon).
    pub server_downtime_s: f64,
    /// Server availability: `1 − downtime / (servers × horizon)`.
    pub availability: f64,
    /// Running or queued tasks killed by server crashes.
    pub tasks_killed: u64,
    /// Distinct jobs that saw at least one task retry.
    pub jobs_retried: u64,
    /// Total task retry dispatches.
    pub retries: u64,
    /// Jobs abandoned after exhausting the retry budget.
    pub jobs_abandoned: u64,
    /// Jobs admitted but not completed by the horizon (includes the
    /// abandoned ones).
    pub jobs_unfinished: u64,
    /// Network transfers restarted after a fabric fault killed them.
    pub transfer_retries: u64,
    /// Summed fabric-switch downtime, seconds.
    pub switch_downtime_s: f64,
    /// Summed fabric-link downtime, seconds.
    pub link_downtime_s: f64,
    /// Summed WAN-link downtime, seconds (federation runs).
    pub wan_link_downtime_s: f64,
    /// Completed jobs per simulated second — goodput under faults.
    pub goodput_jobs_per_s: f64,
    /// Latency of jobs never touched by a fault retry.
    pub clean: LatencyStats,
    /// Latency of jobs that survived at least one retry.
    pub affected: LatencyStats,
}

impl ResilienceReport {
    /// Serializes as a JSON object (hand-rolled like the parent report).
    pub fn to_json(&self) -> String {
        let lat = |l: &LatencyStats| {
            format!(
                r#"{{"count":{},"mean_s":{:.6},"p50_s":{:.6},"p99_s":{:.6},"max_s":{:.6}}}"#,
                l.count, l.mean, l.p50, l.p99, l.max
            )
        };
        format!(
            r#"{{"faults_injected":{},"server_downtime_s":{:.6},"availability":{:.6},"tasks_killed":{},"jobs_retried":{},"retries":{},"jobs_abandoned":{},"jobs_unfinished":{},"transfer_retries":{},"switch_downtime_s":{:.6},"link_downtime_s":{:.6},"wan_link_downtime_s":{:.6},"goodput_jobs_per_s":{:.6},"clean":{},"affected":{}}}"#,
            self.faults_injected,
            self.server_downtime_s,
            self.availability,
            self.tasks_killed,
            self.jobs_retried,
            self.retries,
            self.jobs_abandoned,
            self.jobs_unfinished,
            self.transfer_retries,
            self.switch_downtime_s,
            self.link_downtime_s,
            self.wan_link_downtime_s,
            self.goodput_jobs_per_s,
            lat(&self.clean),
            lat(&self.affected),
        )
    }
}

/// Per-server outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    /// CPU (cores + uncore) energy, joules.
    pub cpu_energy_j: f64,
    /// DRAM energy, joules.
    pub dram_energy_j: f64,
    /// Platform energy, joules.
    pub platform_energy_j: f64,
    /// Core-time utilization in `[0, 1]`.
    pub utilization: f64,
    /// Tasks completed.
    pub tasks_completed: u64,
    /// Fraction of time per residency band
    /// `(active, wakeup, idle, shallow, deep)` — Fig. 8's five bands.
    pub residency: (f64, f64, f64, f64, f64),
    /// `(deep sleeps, resumes)`.
    pub sleep_counts: (u64, u64),
}

impl ServerReport {
    /// Total energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.cpu_energy_j + self.dram_energy_j + self.platform_energy_j
    }

    /// Snapshot a server at `end`.
    pub fn snapshot(s: &Server, end: SimTime) -> Self {
        let r = s.residency();
        ServerReport {
            cpu_energy_j: s.cpu_energy_j(end),
            dram_energy_j: s.dram_energy_j(end),
            platform_energy_j: s.platform_energy_j(end),
            utilization: s.utilization(end),
            tasks_completed: s.tasks_completed(),
            residency: (
                r.fraction_in(Band::Active, end),
                r.fraction_in(Band::Transition, end),
                r.fraction_in(Band::Idle, end),
                r.fraction_in(Band::ShallowSleep, end),
                r.fraction_in(Band::DeepSleep, end),
            ),
            sleep_counts: s.sleep_counts(),
        }
    }
}

/// Network-side outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Total switch energy, joules.
    pub switch_energy_j: f64,
    /// Mean switch power over the run, watts.
    pub mean_switch_power_w: f64,
    /// Flows admitted.
    pub flows: u64,
    /// Packets forwarded.
    pub packets_forwarded: u64,
    /// Packets dropped.
    pub packets_dropped: u64,
    /// Topology display name.
    pub topology: String,
}

/// Sampled time series of a run.
#[derive(Debug, Clone)]
pub struct SeriesReport {
    /// Awake (non-deep-sleep) servers per sample (Fig. 4).
    pub active_servers: Vec<f64>,
    /// Jobs in flight per sample (Fig. 4).
    pub active_jobs: Vec<f64>,
    /// Total server power per sample, watts.
    pub server_power_w: Vec<f64>,
    /// Total switch power per sample, watts (empty without a network).
    pub switch_power_w: Vec<f64>,
    /// CPU (package) power of server 0 per sample, watts (Fig. 12).
    pub cpu0_power_w: Vec<f64>,
    /// Sampling period.
    pub period: SimDuration,
}

/// The complete outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated horizon.
    pub duration: SimDuration,
    /// Jobs submitted.
    pub jobs_submitted: u64,
    /// Jobs completed (latency-measured).
    pub jobs_completed: u64,
    /// Job latency summary.
    pub latency: LatencyStats,
    /// Empirical CDF points of job latency (Fig. 11b).
    pub latency_cdf: Vec<(f64, f64)>,
    /// Per-server outcomes.
    pub servers: Vec<ServerReport>,
    /// Network outcome, if a network was simulated.
    pub network: Option<NetworkReport>,
    /// Sampled series.
    pub series: SeriesReport,
    /// Engine events processed.
    pub events_processed: u64,
    /// Tasks that waited in the global queue.
    pub global_queue_tasks: u64,
    /// Resilience section — `Some` only for fault-injected runs (a run
    /// with no fault plan, or an empty one, omits it entirely so its JSON
    /// stays byte-identical to a fault-free build).
    pub resilience: Option<ResilienceReport>,
    /// Wall-clock seconds the run took. Deliberately excluded from
    /// [`to_json`](SimReport::to_json): exported artifacts stay bitwise
    /// identical across machines and thread counts.
    pub wall_s: f64,
}

impl SimReport {
    /// Total server energy, joules.
    pub fn server_energy_j(&self) -> f64 {
        self.servers.iter().map(|s| s.energy_j()).sum()
    }

    /// Total CPU energy, joules.
    pub fn cpu_energy_j(&self) -> f64 {
        self.servers.iter().map(|s| s.cpu_energy_j).sum()
    }

    /// Total DRAM energy, joules.
    pub fn dram_energy_j(&self) -> f64 {
        self.servers.iter().map(|s| s.dram_energy_j).sum()
    }

    /// Total platform energy, joules.
    pub fn platform_energy_j(&self) -> f64 {
        self.servers.iter().map(|s| s.platform_energy_j).sum()
    }

    /// Mean server-farm power, watts.
    pub fn mean_server_power_w(&self) -> f64 {
        self.server_energy_j() / self.duration.as_secs_f64()
    }

    /// Total energy including switches, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.server_energy_j() + self.network.as_ref().map_or(0.0, |n| n.switch_energy_j)
    }

    /// Engine events per wall-clock second (0 when the wall clock was not
    /// measured or the run was instantaneous).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events_processed as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Mean cluster utilization across servers.
    pub fn mean_utilization(&self) -> f64 {
        if self.servers.is_empty() {
            return 0.0;
        }
        self.servers.iter().map(|s| s.utilization).sum::<f64>() / self.servers.len() as f64
    }

    /// Renders a compact human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "jobs: {}/{} completed | latency mean {:.3} ms p90 {:.3} ms p95 {:.3} ms\n",
            self.jobs_completed,
            self.jobs_submitted,
            self.latency.mean * 1e3,
            self.latency.p90 * 1e3,
            self.latency.p95 * 1e3,
        ));
        s.push_str(&format!(
            "energy: servers {:.1} kJ (cpu {:.1} / dram {:.1} / platform {:.1})",
            self.server_energy_j() / 1e3,
            self.cpu_energy_j() / 1e3,
            self.dram_energy_j() / 1e3,
            self.platform_energy_j() / 1e3,
        ));
        if let Some(n) = &self.network {
            s.push_str(&format!(
                " | switches {:.1} kJ ({:.1} W mean, {})",
                n.switch_energy_j / 1e3,
                n.mean_switch_power_w,
                n.topology
            ));
        }
        s.push('\n');
        if let Some(r) = &self.resilience {
            s.push_str(&format!(
                "resilience: availability {:.4} | {} faults, {} tasks killed, {} retries, {} jobs abandoned\n",
                r.availability, r.faults_injected, r.tasks_killed, r.retries, r.jobs_abandoned,
            ));
        }
        if self.wall_s > 0.0 {
            s.push_str(&format!(
                "engine: {} events in {:.3} s wall ({:.0} events/s)\n",
                self.events_processed,
                self.wall_s,
                self.events_per_sec(),
            ));
        }
        s
    }

    /// Serializes the headline numbers as a small JSON object (hand-rolled:
    /// the workspace builds with no external crates, so no serde).
    pub fn to_json(&self) -> String {
        let net = match &self.network {
            Some(n) => format!(
                r#"{{"switch_energy_j":{:.3},"mean_switch_power_w":{:.3},"flows":{},"packets_forwarded":{},"packets_dropped":{},"topology":"{}"}}"#,
                n.switch_energy_j,
                n.mean_switch_power_w,
                n.flows,
                n.packets_forwarded,
                n.packets_dropped,
                n.topology
            ),
            None => "null".to_string(),
        };
        let res = match &self.resilience {
            Some(r) => format!(r#","resilience":{}"#, r.to_json()),
            None => String::new(),
        };
        format!(
            r#"{{"duration_s":{:.3},"jobs_submitted":{},"jobs_completed":{},"latency":{{"mean_s":{:.6},"p50_s":{:.6},"p90_s":{:.6},"p95_s":{:.6},"p99_s":{:.6}}},"server_energy_j":{:.3},"cpu_energy_j":{:.3},"dram_energy_j":{:.3},"platform_energy_j":{:.3},"network":{},"events":{}{}}}"#,
            self.duration.as_secs_f64(),
            self.jobs_submitted,
            self.jobs_completed,
            self.latency.mean,
            self.latency.p50,
            self.latency.p90,
            self.latency.p95,
            self.latency.p99,
            self.server_energy_j(),
            self.cpu_energy_j(),
            self.dram_energy_j(),
            self.platform_energy_j(),
            net,
            self.events_processed,
            res,
        )
    }
}

/// Metrics accumulated while a simulation runs.
#[derive(Debug)]
pub struct Metrics {
    /// Completed-job latencies (seconds).
    pub latency: SampleSet,
    /// Awake-server samples.
    pub active_servers: TimeSeries,
    /// In-flight-job samples.
    pub active_jobs: TimeSeries,
    /// Server power samples.
    pub server_power: TimeSeries,
    /// Switch power samples.
    pub switch_power: TimeSeries,
    /// Server-0 CPU power samples.
    pub cpu0_power: TimeSeries,
}

impl Metrics {
    /// Creates metrics sampling at `period`.
    pub fn new(period: SimDuration) -> Self {
        Metrics {
            latency: SampleSet::with_capacity(262_144),
            active_servers: TimeSeries::new(period),
            active_jobs: TimeSeries::new(period),
            server_power: TimeSeries::new(period),
            switch_power: TimeSeries::new(period),
            cpu0_power: TimeSeries::new(period),
        }
    }

    /// Closes all series at `end` and builds the series report.
    pub fn finish(mut self, end: SimTime) -> (SampleSet, SeriesReport) {
        let period = self.active_servers.interval();
        self.active_servers.finish(end);
        self.active_jobs.finish(end);
        self.server_power.finish(end);
        self.switch_power.finish(end);
        self.cpu0_power.finish(end);
        let series = SeriesReport {
            active_servers: self.active_servers.values().to_vec(),
            active_jobs: self.active_jobs.values().to_vec(),
            server_power_w: self.server_power.values().to_vec(),
            switch_power_w: self.switch_power.values().to_vec(),
            cpu0_power_w: self.cpu0_power.values().to_vec(),
            period,
        };
        (self.latency, series)
    }
}

/// Builds the latency part of a report from the collected samples.
pub fn latency_report(samples: &SampleSet) -> (LatencyStats, Vec<(f64, f64)>) {
    (LatencyStats::from_samples(samples), samples.cdf_points())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_from_uniform() {
        let mut s = SampleSet::with_capacity(usize::MAX);
        for i in 1..=100 {
            s.record(i as f64 / 1000.0);
        }
        let (stats, cdf) = latency_report(&s);
        assert_eq!(stats.count, 100);
        assert!((stats.p50 - 0.050).abs() < 1e-9);
        assert!((stats.p90 - 0.090).abs() < 1e-9);
        assert!((stats.max - 0.100).abs() < 1e-9);
        assert_eq!(cdf.len(), 100);
    }

    #[test]
    fn empty_latency_is_zeroed() {
        let s = SampleSet::with_capacity(usize::MAX);
        let (stats, cdf) = latency_report(&s);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.p95, 0.0);
        assert!(cdf.is_empty());
    }

    #[test]
    fn metrics_finish_produces_aligned_series() {
        let mut m = Metrics::new(SimDuration::from_secs(1));
        m.active_jobs.observe(SimTime::ZERO, 2.0);
        m.server_power.observe(SimTime::ZERO, 100.0);
        let (_, series) = m.finish(SimTime::from_secs(3));
        assert_eq!(series.active_jobs, vec![2.0, 2.0, 2.0, 2.0]);
        assert_eq!(series.server_power_w.len(), 4);
        assert_eq!(series.period, SimDuration::from_secs(1));
    }
}
