//! Ready-made harnesses for every table and figure of the paper's
//! evaluation (§IV, §V, Table I). Each function builds the corresponding
//! experiment from public API pieces and returns structured results, or,
//! for the Fig. 5 and Fig. 6 sweeps, the configurations the harness runs
//! in parallel; `holdcsim fig <id>` prints them in the paper's row/series
//! format.
//!
//! All harnesses take explicit scale parameters so tests can run them small
//! while `holdcsim fig` runs them at paper scale.

use std::time::Instant;

use holdcsim_des::rng::SimRng;
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_sched::pools::dual_timer_policies;
use holdcsim_server::policy::SleepPolicy;
use holdcsim_workload::presets::WorkloadPreset;
use holdcsim_workload::service::ServiceDist;
use holdcsim_workload::templates::JobTemplate;
use holdcsim_workload::trace::SyntheticTrace;

use holdcsim_network::flow::FlowSolverKind;

use crate::config::{ArrivalConfig, ControllerConfig, NetworkConfig, PolicyKind, SimConfig};
use crate::report::SimReport;
use crate::sim::Simulation;

// ---------------------------------------------------------------------
// Fig. 4 — resource monitoring and provisioning
// ---------------------------------------------------------------------

/// Result of the Fig. 4 provisioning study.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Sample times, seconds.
    pub time_s: Vec<f64>,
    /// Jobs in flight per sample.
    pub active_jobs: Vec<f64>,
    /// Awake servers per sample.
    pub active_servers: Vec<f64>,
    /// The full report.
    pub report: SimReport,
}

/// Fig. 4: 50 four-core servers, Wikipedia-like trace, 3–10 ms tasks,
/// min/max load thresholds steering the number of active servers.
pub fn fig4_provisioning(servers: usize, duration: SimDuration, seed: u64) -> Fig4Result {
    let template = WorkloadPreset::Provisioning.template();
    // Load the farm to ~35 % on average so the controller has headroom to
    // park and recall servers as the diurnal trace swings.
    let mean = template.mean_total_work();
    let base_rate = 0.35 * (servers as f64) * 4.0 / mean.as_secs_f64();
    let mut rng = SimRng::seed_from(seed ^ 0xF164);
    let trace = SyntheticTrace::wikipedia_like(
        duration,
        base_rate,
        0.6,
        duration / 2, // two diurnal cycles over the run
        &mut rng,
    );
    let mut cfg = SimConfig::server_farm(servers, 4, 0.35, template, duration);
    cfg.seed = seed;
    cfg.arrivals = ArrivalConfig::Trace(trace);
    cfg.policy = PolicyKind::PackFirst;
    cfg.controller = Some(ControllerConfig::Provisioning {
        min_load: 1.0,
        max_load: 3.0,
    });
    cfg.controller_period = SimDuration::from_millis(100);
    // Parked servers suspend after a short delay timer, so the "active
    // servers" series tracks the provisioned set.
    cfg.sleep_policies = vec![SleepPolicy::delay_timer(SimDuration::from_secs(1))];
    let report = Simulation::new(cfg).run();
    let step = report.series.period.as_secs_f64();
    Fig4Result {
        time_s: (0..report.series.active_jobs.len())
            .map(|i| i as f64 * step)
            .collect(),
        active_jobs: report.series.active_jobs.clone(),
        active_servers: report.series.active_servers.clone(),
        report,
    }
}

// ---------------------------------------------------------------------
// Fig. 5 — single delay timer exploration
// ---------------------------------------------------------------------

/// One energy-vs-τ curve at a fixed utilization.
#[derive(Debug, Clone)]
pub struct DelayTimerCurve {
    /// Utilization ρ.
    pub rho: f64,
    /// `(τ seconds, farm energy joules)` points.
    pub points: Vec<(f64, f64)>,
}

impl DelayTimerCurve {
    /// The τ minimizing energy.
    pub fn optimal_tau_s(&self) -> f64 {
        self.points
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite energy"))
            .map(|(t, _)| t)
            .unwrap_or(0.0)
    }
}

/// The §IV-A/B farm: consolidating dispatch + provisioning controller +
/// per-server delay timer τ (shared by the Fig. 5 sweep and Fig. 6's
/// single-timer arm).
///
/// As the in-flight job count fluctuates, the controller parks and
/// recalls the marginal server, so an over-aggressive τ pays repeated
/// suspend/resume cycles (the left wall of Fig. 5's U) while an
/// over-conservative one burns idle power waiting (the right wall). The
/// park/recall timescale follows the mean service time, which is why
/// each workload has its own optimum.
///
/// Public so the `holdcsim-harness` sweep runner can expand τ/ρ grids
/// into trial configs without duplicating the farm construction.
pub fn delay_timer_farm(
    preset: WorkloadPreset,
    rho: f64,
    servers: usize,
    cores: u32,
    tau_s: f64,
    duration: SimDuration,
    seed: u64,
) -> SimConfig {
    let mut cfg = SimConfig::server_farm(servers, cores, rho, preset.template(), duration)
        .with_seed(seed)
        .with_policy(PolicyKind::PackFirst)
        .with_sleep_policy(SleepPolicy::delay_timer(SimDuration::from_secs_f64(tau_s)));
    // Target ~0.45-0.8 pending per core on active servers: enough headroom
    // to consolidate even at rho = 0.6.
    cfg.controller = Some(ControllerConfig::Provisioning {
        min_load: 0.45 * cores as f64,
        max_load: 0.80 * cores as f64,
    });
    cfg.controller_period = preset.mean_service();
    cfg
}

// ---------------------------------------------------------------------
// Fig. 6 — dual delay timers vs Active-Idle
// ---------------------------------------------------------------------

/// One Fig. 6 bar: energies under the three strategies.
#[derive(Debug, Clone)]
pub struct DualTimerResult {
    /// Utilization ρ.
    pub rho: f64,
    /// Farm size.
    pub servers: usize,
    /// Active-Idle baseline energy, joules.
    pub energy_active_idle_j: f64,
    /// Best single-τ energy, joules.
    pub energy_single_j: f64,
    /// Dual-timer energy, joules.
    pub energy_dual_j: f64,
    /// p95 latency under dual timers, seconds.
    pub p95_dual_s: f64,
    /// p95 latency under Active-Idle, seconds.
    pub p95_active_idle_s: f64,
}

impl DualTimerResult {
    /// Energy reduction of dual timers vs Active-Idle (0–1).
    pub fn reduction_vs_active_idle(&self) -> f64 {
        1.0 - self.energy_dual_j / self.energy_active_idle_j
    }

    /// Energy reduction of dual timers vs the best single timer (0–1).
    pub fn reduction_vs_single(&self) -> f64 {
        1.0 - self.energy_dual_j / self.energy_single_j
    }
}

/// The three Fig. 6 arm configs `[active_idle, single_timer, dual_timer]`
/// for one workload at one utilization and farm size.
///
/// The Active-Idle baseline load-balances and never sleeps; the single
/// timer runs on the same provisioned farm as Fig. 5; the dual-timer
/// scheme prioritizes its high-τ pool via the consolidating dispatcher
/// (a hot pool sized to the load keeps a long timer; the rest sleep
/// quickly after bursts — \[69\]'s split).
pub fn fig6_configs(
    preset: WorkloadPreset,
    rho: f64,
    servers: usize,
    cores: u32,
    single_tau_s: f64,
    duration: SimDuration,
    seed: u64,
) -> [SimConfig; 3] {
    let base = |dispatch: PolicyKind, policy: Vec<SleepPolicy>| {
        let mut cfg = SimConfig::server_farm(servers, cores, rho, preset.template(), duration)
            .with_seed(seed)
            .with_policy(dispatch);
        cfg.sleep_policies = policy;
        cfg
    };
    let n_high = ((rho * servers as f64 * 1.3).ceil() as usize).clamp(1, servers);
    [
        base(PolicyKind::LeastLoaded, vec![SleepPolicy::active_idle()]),
        delay_timer_farm(preset, rho, servers, cores, single_tau_s, duration, seed),
        base(
            PolicyKind::PackFirst,
            dual_timer_policies(
                servers,
                n_high,
                SimDuration::from_secs_f64(single_tau_s * 4.0),
                SimDuration::from_secs_f64(single_tau_s * 0.25),
            ),
        ),
    ]
}

/// Assembles the Fig. 6 bar from the three arm reports (in
/// [`fig6_configs`] order).
pub fn fig6_from_reports(rho: f64, servers: usize, reports: &[SimReport; 3]) -> DualTimerResult {
    let [active_idle, single, dual] = reports;
    DualTimerResult {
        rho,
        servers,
        energy_active_idle_j: active_idle.server_energy_j(),
        energy_single_j: single.server_energy_j(),
        energy_dual_j: dual.server_energy_j(),
        p95_dual_s: dual.latency.p95,
        p95_active_idle_s: active_idle.latency.p95,
    }
}

// ---------------------------------------------------------------------
// Fig. 8 — WASP state residency vs utilization
// ---------------------------------------------------------------------

/// One Fig. 8 stacked bar: mean residency fractions across servers.
#[derive(Debug, Clone, Copy)]
pub struct ResidencyBar {
    /// Utilization ρ.
    pub rho: f64,
    /// Fractions `(active, wakeup, idle, pkg_c6, sys_sleep)`; sums to ~1.
    pub bands: (f64, f64, f64, f64, f64),
    /// p90 job latency, seconds.
    pub p90_s: f64,
}

/// Fig. 8: state residency under the WASP-style energy-latency framework
/// across utilizations, for a 10-server × 10-core farm.
pub fn fig8_residency(
    preset: WorkloadPreset,
    rhos: &[f64],
    servers: usize,
    cores: u32,
    duration: SimDuration,
    seed: u64,
) -> Vec<ResidencyBar> {
    rhos.iter()
        .map(|&rho| {
            let mut cfg = SimConfig::server_farm(servers, cores, rho, preset.template(), duration)
                .with_seed(seed)
                .with_policy(PolicyKind::PackFirst);
            let initial_active = ((rho * servers as f64).ceil() as usize).clamp(1, servers);
            cfg.controller = Some(ControllerConfig::Pools {
                t_wakeup: 1.5 * cores as f64,
                t_sleep: 0.4 * cores as f64,
                sleep_pool_tau: SimDuration::from_secs(1),
                initial_active,
            });
            cfg.controller_period = SimDuration::from_millis(50);
            let report = Simulation::new(cfg).run();
            let n = report.servers.len() as f64;
            let mut bands = (0.0, 0.0, 0.0, 0.0, 0.0);
            for s in &report.servers {
                bands.0 += s.residency.0 / n;
                bands.1 += s.residency.1 / n;
                bands.2 += s.residency.2 / n;
                bands.3 += s.residency.3 / n;
                bands.4 += s.residency.4 / n;
            }
            ResidencyBar {
                rho,
                bands,
                p90_s: report.latency.p90,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 9 — per-server energy breakdown, delay-timer vs workload-adaptive
// ---------------------------------------------------------------------

/// Fig. 9 result: per-server CPU/DRAM/platform energies under both
/// strategies.
#[derive(Debug, Clone)]
pub struct BreakdownResult {
    /// Per-server `(cpu, dram, platform)` joules under the delay timer.
    pub delay_timer: Vec<(f64, f64, f64)>,
    /// Per-server `(cpu, dram, platform)` joules under the adaptive pools.
    pub adaptive: Vec<(f64, f64, f64)>,
    /// Total delay-timer energy, joules.
    pub total_delay_timer_j: f64,
    /// Total adaptive energy, joules.
    pub total_adaptive_j: f64,
}

impl BreakdownResult {
    /// Energy saving of the adaptive strategy vs the delay timer (0–1).
    pub fn adaptive_saving(&self) -> f64 {
        1.0 - self.total_adaptive_j / self.total_delay_timer_j
    }
}

/// Fig. 9: 10 servers × 10 cores on a Wikipedia-like trace; delay-timer
/// power management vs the workload-adaptive two-pool scheduler.
pub fn fig9_breakdown(
    servers: usize,
    cores: u32,
    duration: SimDuration,
    seed: u64,
) -> BreakdownResult {
    let template = JobTemplate::single(ServiceDist::Exponential {
        mean: SimDuration::from_millis(20),
    });
    let mean = template.mean_total_work();
    let base_rate = 0.25 * servers as f64 * cores as f64 / mean.as_secs_f64();
    let mut rng = SimRng::seed_from(seed ^ 0xF169);
    let trace = SyntheticTrace::wikipedia_like(duration, base_rate, 0.5, duration / 2, &mut rng);

    // Strategy A: per-server delay timers, load-balanced dispatch.
    let mut cfg_dt = SimConfig::server_farm(servers, cores, 0.25, template.clone(), duration)
        .with_seed(seed)
        .with_sleep_policy(SleepPolicy::delay_timer(SimDuration::from_secs(2)));
    cfg_dt.arrivals = ArrivalConfig::Trace(trace.clone());
    cfg_dt.policy = PolicyKind::LeastLoaded;
    let dt = Simulation::new(cfg_dt).run();

    // Strategy B: WASP pools, consolidating dispatch.
    let mut cfg_ad = SimConfig::server_farm(servers, cores, 0.25, template, duration)
        .with_seed(seed)
        .with_policy(PolicyKind::PackFirst);
    cfg_ad.arrivals = ArrivalConfig::Trace(trace);
    cfg_ad.controller = Some(ControllerConfig::Pools {
        t_wakeup: 1.5 * cores as f64,
        t_sleep: 0.4 * cores as f64,
        sleep_pool_tau: SimDuration::from_secs(1),
        initial_active: ((0.25 * servers as f64).ceil() as usize).max(1),
    });
    cfg_ad.controller_period = SimDuration::from_millis(50);
    let ad = Simulation::new(cfg_ad).run();

    let split = |r: &SimReport| {
        r.servers
            .iter()
            .map(|s| (s.cpu_energy_j, s.dram_energy_j, s.platform_energy_j))
            .collect::<Vec<_>>()
    };
    BreakdownResult {
        delay_timer: split(&dt),
        adaptive: split(&ad),
        total_delay_timer_j: dt.server_energy_j(),
        total_adaptive_j: ad.server_energy_j(),
    }
}

// ---------------------------------------------------------------------
// Fig. 10/11 — joint server-network optimization on a fat tree
// ---------------------------------------------------------------------

/// One policy's outcome in the Fig. 11 study.
#[derive(Debug, Clone)]
pub struct JointPolicyResult {
    /// Mean server power, watts.
    pub server_power_w: f64,
    /// Mean network (switch) power, watts.
    pub network_power_w: f64,
    /// Job latency CDF `(seconds, fraction)`.
    pub latency_cdf: Vec<(f64, f64)>,
    /// p95 latency, seconds.
    pub p95_s: f64,
    /// Jobs completed.
    pub jobs: u64,
}

/// Fig. 11 at one utilization: Server-Load-Balance vs Server-Network-Aware.
#[derive(Debug, Clone)]
pub struct JointResult {
    /// Utilization ρ.
    pub rho: f64,
    /// The load-balanced baseline.
    pub balanced: JointPolicyResult,
    /// The network-aware strategy.
    pub aware: JointPolicyResult,
}

impl JointResult {
    /// Server power saving of the aware policy (0–1).
    pub fn server_saving(&self) -> f64 {
        1.0 - self.aware.server_power_w / self.balanced.server_power_w
    }

    /// Network power saving of the aware policy (0–1).
    pub fn network_saving(&self) -> f64 {
        1.0 - self.aware.network_power_w / self.balanced.network_power_w
    }
}

/// Fig. 11: fat-tree k=4, two-tier DAG jobs with inter-task flows,
/// comparing Server-Load-Balance against Server-Network-Aware placement.
///
/// `drain` is the slack appended after the last arrival so in-flight jobs
/// finish; the horizon itself is sized from `jobs` and the arrival rate.
pub fn fig11_joint(
    rho: f64,
    jobs: usize,
    flow_bytes: u64,
    drain: SimDuration,
    seed: u64,
) -> JointResult {
    let k = 4;
    let servers = k * k * k / 4; // 16 hosts
    let cores = 4u32;
    // Service times in the hundreds of milliseconds so a 100 MB flow on
    // 10 GbE (~80 ms) is a comparable latency component, as in the paper's
    // 0–0.6 s response-time CDF.
    let template = JobTemplate::two_tier(
        ServiceDist::Exponential {
            mean: SimDuration::from_millis(800),
        },
        ServiceDist::Exponential {
            mean: SimDuration::from_millis(1200),
        },
        flow_bytes,
    );
    let mean = template.mean_total_work();
    let rate = rho * servers as f64 * cores as f64 / mean.as_secs_f64();
    // Arrival count capped at `jobs` via a finite trace drawn from Poisson.
    let mut rng = SimRng::seed_from(seed ^ 0xF1611);
    let mut t = SimTime::ZERO;
    let mut times = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        t += SimDuration::from_secs_f64(rng.exp(rate));
        times.push(t);
    }
    let duration = *times.last().expect("jobs >= 1") - SimTime::ZERO + drain;

    let run = |policy: PolicyKind| {
        let mut cfg = SimConfig::server_farm(servers, cores, rho, template.clone(), duration)
            .with_seed(seed)
            .with_policy(policy)
            .with_sleep_policy(SleepPolicy::shallow_then_deep(SimDuration::from_secs(2)));
        // Two server tiers (app/db) interleaved so every edge switch hosts
        // both: transfers always cross the network, and placement decides
        // how many switches they touch.
        cfg.server_classes = (0..servers).map(|i| (i % 2) as u32).collect();
        cfg.arrivals = ArrivalConfig::Trace(times.clone());
        let mut net = NetworkConfig::fat_tree(k);
        net.link = holdcsim_network::topologies::LinkSpec::ten_gigabit();
        cfg.network = Some(net);
        let report = Simulation::new(cfg).run();
        JointPolicyResult {
            server_power_w: report.server_energy_j() / duration.as_secs_f64(),
            network_power_w: report
                .network
                .as_ref()
                .map_or(0.0, |n| n.mean_switch_power_w),
            latency_cdf: report.latency_cdf.clone(),
            p95_s: report.latency.p95,
            jobs: report.jobs_completed,
        }
    };
    JointResult {
        rho,
        balanced: run(PolicyKind::LeastLoaded),
        aware: run(PolicyKind::NetworkAware),
    }
}

// ---------------------------------------------------------------------
// Footnote 1 — delay timers under bursty arrivals
// ---------------------------------------------------------------------

/// One burstiness level's outcome in the footnote-1 study.
#[derive(Debug, Clone, Copy)]
pub struct BurstinessPoint {
    /// MMPP burst ratio R_a = λ_h/λ_l (1 = Poisson).
    pub burst_ratio: f64,
    /// Farm energy, joules.
    pub energy_j: f64,
    /// p95 job latency, seconds.
    pub p95_s: f64,
    /// p99 job latency, seconds.
    pub p99_s: f64,
}

/// The paper's footnote 1: "the single delay timer may not be effective
/// when the job arrivals are highly bursty". Runs the Fig. 5 farm at its
/// optimal τ while sweeping MMPP burstiness at constant mean load; energy
/// savings persist but tail latency degrades sharply as bursts catch
/// servers in deep sleep.
#[allow(clippy::too_many_arguments)]
pub fn footnote1_burstiness(
    preset: WorkloadPreset,
    rho: f64,
    burst_ratios: &[f64],
    tau_s: f64,
    servers: usize,
    cores: u32,
    duration: SimDuration,
    seed: u64,
) -> Vec<BurstinessPoint> {
    let mean = preset.mean_service().as_secs_f64();
    let base_rate = rho * servers as f64 * cores as f64 / mean;
    burst_ratios
        .iter()
        .map(|&ratio| {
            let mut cfg = delay_timer_farm(preset, rho, servers, cores, tau_s, duration, seed);
            if ratio > 1.0 {
                cfg.arrivals = ArrivalConfig::Mmpp2 {
                    base_rate,
                    burst_ratio: ratio,
                    bursty_fraction: 0.15,
                    mean_bursty_dwell: 2.0,
                };
            }
            let report = Simulation::new(cfg).run();
            BurstinessPoint {
                burst_ratio: ratio,
                energy_j: report.server_energy_j(),
                p95_s: report.latency.p95,
                p99_s: report.latency.p99,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table I — scalability
// ---------------------------------------------------------------------

/// One scalability measurement.
#[derive(Debug, Clone, Copy)]
pub struct ScalabilityPoint {
    /// Simulated servers.
    pub servers: usize,
    /// Engine events processed.
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Events per wall-clock second.
    pub events_per_s: f64,
    /// Jobs completed.
    pub jobs: u64,
}

/// Cores per server in the Table I scalability configuration.
pub const SCALABILITY_CORES: u32 = 4;
/// Utilization of the Table I scalability configuration.
pub const SCALABILITY_RHO: f64 = 0.3;
/// Workload preset of the Table I scalability configuration.
pub const SCALABILITY_PRESET: WorkloadPreset = WorkloadPreset::WebSearch;
/// Placement policy of the Table I scalability configuration.
pub const SCALABILITY_POLICY: PolicyKind = PolicyKind::RoundRobin;

/// Table I's scalability claim (>20 K servers): runs a server-only farm at
/// the given sizes and measures event throughput.
#[allow(clippy::disallowed_methods)] // events/s vs wall-clock is the subject (see analysis.toml D002 entry)
pub fn scalability(sizes: &[usize], duration: SimDuration, seed: u64) -> Vec<ScalabilityPoint> {
    sizes
        .iter()
        .map(|&n| {
            let cfg = SimConfig::server_farm(
                n,
                SCALABILITY_CORES,
                SCALABILITY_RHO,
                SCALABILITY_PRESET.template(),
                duration,
            )
            .with_seed(seed)
            .with_policy(SCALABILITY_POLICY);
            let t0 = Instant::now();
            let report = Simulation::new(cfg).run();
            let wall = t0.elapsed().as_secs_f64();
            ScalabilityPoint {
                servers: n,
                events: report.events_processed,
                wall_s: wall,
                events_per_s: report.events_processed as f64 / wall.max(1e-9),
                jobs: report.jobs_completed,
            }
        })
        .collect()
}

/// Fan-out width of the network scalability configuration (each job is a
/// scatter-gather DAG with this many leaves — `2 × width` network edges).
pub const NET_SCALABILITY_FANOUT: u32 = 8;
/// Bytes per DAG edge of the network scalability configuration (~44
/// MTU-sized packets per edge in packet mode).
pub const NET_SCALABILITY_BYTES: u64 = 64 * 1024;
/// Utilization of the network scalability configuration.
pub const NET_SCALABILITY_RHO: f64 = 0.3;

/// The job template of the network scalability configuration: a
/// high-fan-out scatter-gather job (web-search style) whose every edge
/// crosses the fat tree under round-robin placement.
pub fn net_scalability_template() -> JobTemplate {
    JobTemplate::FanOutFanIn {
        root: ServiceDist::Exponential {
            mean: SimDuration::from_millis(1),
        },
        leaf: ServiceDist::Exponential {
            mean: SimDuration::from_millis(2),
        },
        agg: ServiceDist::Exponential {
            mean: SimDuration::from_millis(1),
        },
        width: NET_SCALABILITY_FANOUT,
        transfer_bytes: NET_SCALABILITY_BYTES,
    }
}

/// The smallest even fat-tree parameter `k` whose `k³/4` hosts cover `n`
/// servers.
pub fn fat_tree_k_for(n: usize) -> usize {
    let mut k = 4;
    while k * k * k / 4 < n {
        k += 2;
    }
    k
}

/// The configuration of one network scalability arm: the Table I farm
/// on a fat tree in `comm` mode, with the default fair-share solver.
pub fn net_scalability_config(
    servers: usize,
    comm: crate::config::CommModel,
    duration: SimDuration,
    seed: u64,
) -> SimConfig {
    let mut cfg = SimConfig::server_farm(
        servers,
        SCALABILITY_CORES,
        NET_SCALABILITY_RHO,
        net_scalability_template(),
        duration,
    )
    .with_seed(seed)
    .with_policy(SCALABILITY_POLICY);
    let mut net = NetworkConfig::fat_tree(fat_tree_k_for(servers));
    net.comm = comm;
    cfg.network = Some(net);
    cfg
}

/// Fan-in width of the incast stress point: every job gathers this many
/// leaf results at one aggregator, so its server downlink carries the
/// whole wave as one bottleneck cohort.
pub const NET_INCAST_FANOUT: u32 = 32;
/// Bytes per incast DAG edge (larger than the scatter-gather grid so the
/// hot set stays concurrent).
pub const NET_INCAST_BYTES: u64 = 256 * 1024;
/// Utilization of the incast stress point — deliberately overloaded so
/// rate cells stay saturated with members.
pub const NET_INCAST_RHO: f64 = 0.7;

/// The job template of the incast stress point: a wide gather whose
/// fan-in edges converge on one host's downlink.
pub fn net_incast_template() -> JobTemplate {
    JobTemplate::FanOutFanIn {
        root: ServiceDist::Exponential {
            mean: SimDuration::from_millis(1),
        },
        leaf: ServiceDist::Exponential {
            mean: SimDuration::from_millis(2),
        },
        agg: ServiceDist::Exponential {
            mean: SimDuration::from_millis(1),
        },
        width: NET_INCAST_FANOUT,
        transfer_bytes: NET_INCAST_BYTES,
    }
}

/// The configuration of the incast stress point: `servers` on a flow-mode
/// fat tree, fan-in-[`NET_INCAST_FANOUT`] gathers at utilization
/// [`NET_INCAST_RHO`].
pub fn net_incast_config(servers: usize, duration: SimDuration, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::server_farm(
        servers,
        SCALABILITY_CORES,
        NET_INCAST_RHO,
        net_incast_template(),
        duration,
    )
    .with_seed(seed)
    .with_policy(SCALABILITY_POLICY);
    let mut net = NetworkConfig::fat_tree(fat_tree_k_for(servers));
    net.comm = crate::config::CommModel::Flow;
    cfg.network = Some(net);
    cfg
}

/// [`net_incast_config`]; the solver argument names the one solver there
/// is. Kept only because `perfbench/` still calls it; ROADMAP item 1's
/// benchmark change deletes it.
pub fn net_incast_config_with_solver(
    servers: usize,
    duration: SimDuration,
    seed: u64,
    _solver: FlowSolverKind,
) -> SimConfig {
    net_incast_config(servers, duration, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_controller_parks_servers() {
        let r = fig4_provisioning(10, SimDuration::from_secs(30), 1);
        // The controller should end up using far fewer than all servers.
        let min_active = r.active_servers.iter().copied().fold(f64::MAX, f64::min);
        assert!(min_active < 9.0, "min active {min_active}");
        assert!(r.report.jobs_completed > 100);
        assert_eq!(r.time_s.len(), r.active_jobs.len());
    }

    #[test]
    fn fig5_curves_have_u_shape_tendency() {
        let pts: Vec<(f64, f64)> = [0.05, 1.0, 30.0]
            .into_iter()
            .map(|tau| {
                let cfg = delay_timer_farm(
                    WorkloadPreset::WebSearch,
                    0.3,
                    8,
                    2,
                    tau,
                    SimDuration::from_secs(30),
                    3,
                );
                (tau, Simulation::new(cfg).run().server_energy_j())
            })
            .collect();
        assert_eq!(pts.len(), 3);
        // A very long timer must not beat the mid timer (it never sleeps).
        assert!(
            pts[1].1 <= pts[2].1 * 1.05,
            "mid {} vs long {}",
            pts[1].1,
            pts[2].1
        );
    }

    #[test]
    fn fig6_dual_beats_active_idle() {
        let arms = fig6_configs(
            WorkloadPreset::WebSearch,
            0.1,
            8,
            2,
            0.5,
            SimDuration::from_secs(40),
            5,
        )
        .map(|cfg| Simulation::new(cfg).run());
        let r = fig6_from_reports(0.1, 8, &arms);
        assert!(
            r.reduction_vs_active_idle() > 0.2,
            "reduction {}",
            r.reduction_vs_active_idle()
        );
    }

    #[test]
    fn fig8_bands_sum_to_one() {
        let bars = fig8_residency(
            WorkloadPreset::WebSearch,
            &[0.2, 0.6],
            4,
            4,
            SimDuration::from_secs(20),
            7,
        );
        for b in &bars {
            let sum = b.bands.0 + b.bands.1 + b.bands.2 + b.bands.3 + b.bands.4;
            assert!((sum - 1.0).abs() < 1e-6, "bands sum {sum}");
        }
        // Higher utilization means more active time.
        assert!(bars[1].bands.0 > bars[0].bands.0);
    }

    #[test]
    fn fig9_adaptive_concentrates_and_saves() {
        let r = fig9_breakdown(4, 4, SimDuration::from_secs(30), 9);
        assert!(r.adaptive_saving() > 0.0, "saving {}", r.adaptive_saving());
        // Adaptive load is skewed: the busiest server does much more work
        // than the idlest (delay-timer spread is flatter).
        let cpu: Vec<f64> = r.adaptive.iter().map(|s| s.0).collect();
        let max = cpu.iter().copied().fold(0.0, f64::max);
        let min = cpu.iter().copied().fold(f64::MAX, f64::min);
        assert!(max > 1.5 * min, "adaptive skew {max} vs {min}");
    }

    #[test]
    fn footnote1_burstiness_degrades_tails() {
        let pts = footnote1_burstiness(
            WorkloadPreset::WebSearch,
            0.2,
            &[1.0, 10.0],
            0.4,
            8,
            2,
            SimDuration::from_secs(40),
            13,
        );
        assert_eq!(pts.len(), 2);
        // Heavy bursts push p99 well past the Poisson case.
        assert!(
            pts[1].p99_s > pts[0].p99_s * 1.5,
            "bursty p99 {} vs poisson {}",
            pts[1].p99_s,
            pts[0].p99_s
        );
    }

    #[test]
    fn scalability_runs_at_1k() {
        let pts = scalability(&[1_000], SimDuration::from_millis(200), 11);
        assert_eq!(pts[0].servers, 1_000);
        assert!(pts[0].events > 1_000);
        assert!(
            pts[0].events_per_s > 10_000.0,
            "rate {}",
            pts[0].events_per_s
        );
    }
}
