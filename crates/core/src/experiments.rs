//! Ready-made configurations for the figures of the paper's evaluation
//! (§IV), Table I's scalability run, and the fat-tree stress workloads
//! that `holdcsim run --net` and perfbench build on. Each figure
//! function builds the simulation configs of its experiment from public
//! API pieces and runs nothing: `holdcsim fig <id>` runs a figure's
//! configs as one batch on the window pool and reduces the reports into
//! the paper's row/series format. Table I's [`scalability`] times its runs
//! one after another, so it runs them here. The validation figures (§V)
//! live in [`crate::validation`].
//!
//! All builders take explicit scale parameters so tests can run them small
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
use crate::sim::Simulation;

// ---------------------------------------------------------------------
// Fig. 4 — resource monitoring and provisioning
// ---------------------------------------------------------------------

/// Fig. 4: 50 four-core servers, Wikipedia-like trace, 3–10 ms tasks,
/// min/max load thresholds steering the number of active servers.
pub fn fig4_config(servers: usize, duration: SimDuration, seed: u64) -> SimConfig {
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
    cfg
}

// ---------------------------------------------------------------------
// Fig. 5 — single delay timer exploration
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// Fig. 8 — WASP state residency vs utilization
// ---------------------------------------------------------------------

/// Fig. 8: one config per utilization in `rhos`, each running the
/// WASP-style energy-latency framework (two server pools, consolidating
/// dispatch) on a `servers` × `cores` farm.
pub fn fig8_configs(
    preset: WorkloadPreset,
    rhos: &[f64],
    servers: usize,
    cores: u32,
    duration: SimDuration,
    seed: u64,
) -> Vec<SimConfig> {
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
            cfg
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 9 — per-server energy breakdown, delay-timer vs workload-adaptive
// ---------------------------------------------------------------------

/// Fig. 9: 10 servers × 10 cores on a Wikipedia-like trace. The two
/// configs are `[delay_timer, adaptive]`: per-server delay-timer power
/// management with load-balanced dispatch, and the workload-adaptive
/// two-pool scheduler with consolidating dispatch, on the same trace.
pub fn fig9_configs(
    servers: usize,
    cores: u32,
    duration: SimDuration,
    seed: u64,
) -> [SimConfig; 2] {
    let template = JobTemplate::single(ServiceDist::Exponential {
        mean: SimDuration::from_millis(20),
    });
    let mean = template.mean_total_work();
    let base_rate = 0.25 * servers as f64 * cores as f64 / mean.as_secs_f64();
    let mut rng = SimRng::seed_from(seed ^ 0xF169);
    let trace = SyntheticTrace::wikipedia_like(duration, base_rate, 0.5, duration / 2, &mut rng);

    let mut delay_timer = SimConfig::server_farm(servers, cores, 0.25, template.clone(), duration)
        .with_seed(seed)
        .with_sleep_policy(SleepPolicy::delay_timer(SimDuration::from_secs(2)));
    delay_timer.arrivals = ArrivalConfig::Trace(trace.clone());
    delay_timer.policy = PolicyKind::LeastLoaded;

    let mut adaptive = SimConfig::server_farm(servers, cores, 0.25, template, duration)
        .with_seed(seed)
        .with_policy(PolicyKind::PackFirst);
    adaptive.arrivals = ArrivalConfig::Trace(trace);
    adaptive.controller = Some(ControllerConfig::Pools {
        t_wakeup: 1.5 * cores as f64,
        t_sleep: 0.4 * cores as f64,
        sleep_pool_tau: SimDuration::from_secs(1),
        initial_active: ((0.25 * servers as f64).ceil() as usize).max(1),
    });
    adaptive.controller_period = SimDuration::from_millis(50);
    [delay_timer, adaptive]
}

// ---------------------------------------------------------------------
// Fig. 10/11 — joint server-network optimization on a fat tree
// ---------------------------------------------------------------------

/// Fig. 11 at one utilization: fat-tree k=4, two-tier DAG jobs with
/// inter-task flows. The two configs are `[balanced, aware]`:
/// Server-Load-Balance and Server-Network-Aware placement on the same
/// arrivals.
///
/// `drain` is the slack appended after the last arrival so in-flight jobs
/// finish; the horizon itself is sized from `jobs` and the arrival rate.
pub fn fig11_configs(
    rho: f64,
    jobs: usize,
    flow_bytes: u64,
    drain: SimDuration,
    seed: u64,
) -> [SimConfig; 2] {
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

    let config = |policy: PolicyKind| {
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
        cfg
    };
    [
        config(PolicyKind::LeastLoaded),
        config(PolicyKind::NetworkAware),
    ]
}

// ---------------------------------------------------------------------
// Footnote 1 — delay timers under bursty arrivals
// ---------------------------------------------------------------------

/// The paper's footnote 1: "the single delay timer may not be effective
/// when the job arrivals are highly bursty". One config per burst ratio:
/// the Fig. 5 farm at its optimal τ under MMPP arrivals of that
/// burstiness at constant mean load (ratio 1 is Poisson). Energy savings
/// persist but tail latency degrades sharply as bursts catch servers in
/// deep sleep.
#[allow(clippy::too_many_arguments)]
pub fn footnote1_configs(
    preset: WorkloadPreset,
    rho: f64,
    burst_ratios: &[f64],
    tau_s: f64,
    servers: usize,
    cores: u32,
    duration: SimDuration,
    seed: u64,
) -> Vec<SimConfig> {
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
            cfg
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
        let r = Simulation::new(fig4_config(10, SimDuration::from_secs(30), 1)).run();
        // The controller should end up using far fewer than all servers.
        let min_active = r
            .series
            .active_servers
            .iter()
            .copied()
            .fold(f64::MAX, f64::min);
        assert!(min_active < 9.0, "min active {min_active}");
        assert!(r.jobs_completed > 100);
        assert_eq!(r.series.active_servers.len(), r.series.active_jobs.len());
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
        let [active_idle, _single, dual] = fig6_configs(
            WorkloadPreset::WebSearch,
            0.1,
            8,
            2,
            0.5,
            SimDuration::from_secs(40),
            5,
        )
        .map(|cfg| Simulation::new(cfg).run());
        let reduction = 1.0 - dual.server_energy_j() / active_idle.server_energy_j();
        assert!(reduction > 0.2, "reduction {reduction}");
    }

    #[test]
    fn fig8_bands_sum_to_one() {
        let bars: Vec<[f64; 5]> = fig8_configs(
            WorkloadPreset::WebSearch,
            &[0.2, 0.6],
            4,
            4,
            SimDuration::from_secs(20),
            7,
        )
        .into_iter()
        .map(|cfg| Simulation::new(cfg).run().mean_residency())
        .collect();
        for b in &bars {
            let sum: f64 = b.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "bands sum {sum}");
        }
        // Higher utilization means more active time.
        assert!(bars[1][0] > bars[0][0]);
    }

    #[test]
    fn fig9_adaptive_concentrates_and_saves() {
        let [dt, ad] =
            fig9_configs(4, 4, SimDuration::from_secs(30), 9).map(|cfg| Simulation::new(cfg).run());
        let saving = 1.0 - ad.server_energy_j() / dt.server_energy_j();
        assert!(saving > 0.0, "saving {saving}");
        // Adaptive load is skewed: the busiest server does much more work
        // than the idlest (delay-timer spread is flatter).
        let cpu: Vec<f64> = ad.servers.iter().map(|s| s.cpu_energy_j).collect();
        let max = cpu.iter().copied().fold(0.0, f64::max);
        let min = cpu.iter().copied().fold(f64::MAX, f64::min);
        assert!(max > 1.5 * min, "adaptive skew {max} vs {min}");
    }

    #[test]
    fn footnote1_burstiness_degrades_tails() {
        let p99: Vec<f64> = footnote1_configs(
            WorkloadPreset::WebSearch,
            0.2,
            &[1.0, 10.0],
            0.4,
            8,
            2,
            SimDuration::from_secs(40),
            13,
        )
        .into_iter()
        .map(|cfg| Simulation::new(cfg).run().latency.p99)
        .collect();
        assert_eq!(p99.len(), 2);
        // Heavy bursts push p99 well past the Poisson case.
        assert!(
            p99[1] > p99[0] * 1.5,
            "bursty p99 {} vs poisson {}",
            p99[1],
            p99[0]
        );
    }

    #[test]
    fn scalability_runs_at_1k() {
        let pts = scalability(&[1_000], SimDuration::from_millis(200), 11);
        assert_eq!(pts[0].servers, 1_000);
        // Exact on any host: the run is a function of its seed.
        assert_eq!(pts[0].events, 95_053);
    }

    /// The Table I throughput floor: the 1,000-server farm processes
    /// over 10,000 events per host second. A wall-clock test, so it runs
    /// on request, optimized and alone:
    /// `cargo test --release -q -p holdcsim --lib scalability_ -- --ignored --test-threads 1`.
    #[test]
    #[ignore = "wall-clock floor: run in release with --ignored --test-threads 1"]
    fn scalability_tops_10k_events_per_s_at_1k() {
        let pts = scalability(&[1_000], SimDuration::from_millis(200), 11);
        assert!(
            pts[0].events_per_s > 10_000.0,
            "rate {}",
            pts[0].events_per_s
        );
    }
}
