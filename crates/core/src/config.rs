//! Simulation configuration: the "user script" of Fig. 1.
//!
//! Configuration structs have public fields by design — they are plain
//! inputs, constructed once and handed to [`crate::sim::Simulation`].

use holdcsim_des::rng::SimRng;
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_faults::FaultPlan;
use holdcsim_network::topologies::LinkSpec;
use holdcsim_obs::ObsConfig;
use holdcsim_power::server_profile::ServerPowerProfile;
use holdcsim_power::switch_profile::SwitchPowerProfile;
use holdcsim_sched::geo::GeoPolicy;
use holdcsim_server::policy::SleepPolicy;
use holdcsim_server::server::LocalQueueMode;
use holdcsim_workload::templates::JobTemplate;

/// Arrival-process choice for the workload generator (§III-D).
#[derive(Debug, Clone)]
pub enum ArrivalConfig {
    /// Poisson arrivals at `rate` jobs/second.
    Poisson {
        /// Arrival rate λ in jobs/second.
        rate: f64,
    },
    /// 2-state MMPP bursty arrivals.
    Mmpp2 {
        /// Long-run mean rate in jobs/second.
        base_rate: f64,
        /// λ_h/λ_l ratio (≥ 1).
        burst_ratio: f64,
        /// Long-run fraction of time in the bursty state (0, 1).
        bursty_fraction: f64,
        /// Mean dwell in the bursty state, seconds.
        mean_bursty_dwell: f64,
    },
    /// Replay of explicit arrival instants (trace-based simulation).
    Trace(Vec<SimTime>),
}

/// How dependent tasks communicate (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommModel {
    /// One max-min-fair flow per DAG edge.
    Flow,
    /// The edge's data packetized at `mtu` and forwarded store-and-forward
    /// through per-port queues of `buffer_bytes`.
    Packet {
        /// Payload per packet.
        mtu: u64,
        /// Egress buffering per port.
        buffer_bytes: u64,
    },
}

/// Named topology selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// `k`-ary fat tree (hosts = k³/4).
    FatTree {
        /// Pod/port parameter (even).
        k: usize,
    },
    /// 2-D flattened butterfly of `k × k` switches.
    FlattenedButterfly {
        /// Grid dimension.
        k: usize,
        /// Servers per switch.
        hosts_per_switch: usize,
    },
    /// BCube(n, levels).
    BCube {
        /// Switch port count.
        n: usize,
        /// Recursion level.
        levels: usize,
    },
    /// CamCube 3-D torus of servers.
    CamCube {
        /// X dimension.
        x: usize,
        /// Y dimension.
        y: usize,
        /// Z dimension.
        z: usize,
    },
    /// All servers on one switch (§V-B validation).
    Star,
}

/// Network module configuration; absent = server-only simulation.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Which topology to build. The host count must cover
    /// [`SimConfig::server_count`]; builders are sized by the spec itself.
    pub topology: TopologySpec,
    /// Link rate/latency.
    pub link: LinkSpec,
    /// Switch power profile.
    pub switch_profile: SwitchPowerProfile,
    /// Communication granularity. The flow model shares each link max-min
    /// fairly through [`FlowNet`](holdcsim_network::flow::FlowNet), the
    /// one fair-share solver, which tests hold to the max-min oracle
    /// after every solve.
    pub comm: CommModel,
    /// Port LPI hold time: a port enters Low Power Idle after being idle
    /// this long (`None` disables idle power management entirely).
    pub lpi_hold: Option<SimDuration>,
    /// Use Adaptive Link Rate instead of LPI for idle ports: rather than
    /// entering Low Power Idle, an idle port negotiates down to the lowest
    /// ALR ladder rate (Gunaratne et al. \[25\]).
    pub use_alr: bool,
    /// Model front-end ingress traffic: every task dispatch sends a
    /// request of `.0` bytes down the server's access link and every
    /// completion returns `.1` bytes, keeping access-port activity in step
    /// with serving activity (the §V-B port-state log). `None` models only
    /// inter-task traffic.
    pub ingress_bytes: Option<(u64, u64)>,
}

impl NetworkConfig {
    /// Flow-model fat tree with LPI enabled — the §IV-D setup.
    pub fn fat_tree(k: usize) -> Self {
        NetworkConfig {
            topology: TopologySpec::FatTree { k },
            link: LinkSpec::gigabit(),
            switch_profile: SwitchPowerProfile::datacenter_48port(),
            comm: CommModel::Flow,
            lpi_hold: Some(SimDuration::from_millis(10)),
            use_alr: false,
            ingress_bytes: None,
        }
    }

    /// Star of `§V-B`'s Cisco switch, packet model.
    pub fn validation_star() -> Self {
        NetworkConfig {
            topology: TopologySpec::Star,
            link: LinkSpec::gigabit(),
            switch_profile: SwitchPowerProfile::cisco_ws_c2960_24s(),
            comm: CommModel::Packet {
                mtu: 1_500,
                buffer_bytes: 512 * 1024,
            },
            lpi_hold: Some(SimDuration::from_millis(50)),
            use_alr: false,
            ingress_bytes: Some((1_500, 8_000)),
        }
    }
}

/// Global placement policy selection (§III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Cycle over eligible servers.
    RoundRobin,
    /// Fewest pending tasks (the paper's load-balanced dispatch).
    LeastLoaded,
    /// Consolidate onto low-indexed servers; spill only when saturated.
    PackFirst,
    /// Uniform random.
    Random,
    /// §IV-D Server-Network-Aware placement.
    NetworkAware,
}

/// A per-server on-demand DVFS governor (Table I's per-core DVFS knob,
/// applied at server granularity): raise the P-state when pending load per
/// core exceeds `high`, lower it when below `low`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsConfig {
    /// Pending-per-core threshold above which frequency steps up.
    pub high: f64,
    /// Pending-per-core threshold below which frequency steps down.
    pub low: f64,
}

impl DvfsConfig {
    /// A conventional on-demand governor: speed up beyond 0.8 pending per
    /// core, slow down below 0.2.
    pub fn ondemand() -> Self {
        DvfsConfig {
            high: 0.8,
            low: 0.2,
        }
    }
}

/// Cluster-level controller selection (§IV-A / §IV-C).
#[derive(Debug, Clone)]
pub enum ControllerConfig {
    /// Fig. 4 provisioning: keep pending-per-active-server within
    /// `[min_load, max_load]`.
    Provisioning {
        /// Lower per-server load threshold.
        min_load: f64,
        /// Upper per-server load threshold.
        max_load: f64,
    },
    /// WASP two-pool manager (Fig. 7): promote above `t_wakeup` pending per
    /// active server, demote below `t_sleep`; sleep-pool members descend to
    /// deep sleep after `sleep_pool_tau`.
    Pools {
        /// Promotion threshold.
        t_wakeup: f64,
        /// Demotion threshold.
        t_sleep: f64,
        /// Sleep-pool delay timer.
        sleep_pool_tau: SimDuration,
        /// Servers initially in the active pool.
        initial_active: usize,
    },
}

/// Top-level simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed: same seed ⇒ identical run.
    pub seed: u64,
    /// Simulated horizon; arrivals stop and statistics close here.
    pub duration: SimDuration,
    /// Warm-up period: jobs *arriving* before this instant are executed
    /// but excluded from latency statistics (standard steady-state
    /// practice; energy and residency still cover the whole run).
    pub warmup: SimDuration,
    /// Number of servers.
    pub server_count: usize,
    /// Cores per server.
    pub cores_per_server: u32,
    /// Processor sockets per server (cores split evenly).
    pub sockets_per_server: u32,
    /// Server power profile.
    pub server_profile: ServerPowerProfile,
    /// Local queueing discipline.
    pub queue_mode: LocalQueueMode,
    /// Per-server sleep policies; one entry per server, or a single entry
    /// applied to all.
    pub sleep_policies: Vec<SleepPolicy>,
    /// Per-core heterogeneity factors applied to every server (empty =
    /// homogeneous); length must equal `cores_per_server` when set.
    pub core_speeds: Vec<f64>,
    /// Server-class assignment (§III-C: "servers ... configured to perform
    /// different tasks"): `server_classes[i]` is server `i`'s class; tasks
    /// whose spec names a class may only run there. Empty = classless.
    pub server_classes: Vec<u32>,
    /// Optional on-demand DVFS governor, evaluated every controller tick.
    pub dvfs: Option<DvfsConfig>,
    /// Job arrival process.
    pub arrivals: ArrivalConfig,
    /// Job structure generator.
    pub template: JobTemplate,
    /// Placement policy.
    pub policy: PolicyKind,
    /// Hold unplaceable tasks in a global queue (vs queueing at a server).
    pub use_global_queue: bool,
    /// Optional network module.
    pub network: Option<NetworkConfig>,
    /// Optional cluster controller.
    pub controller: Option<ControllerConfig>,
    /// Controller sampling period.
    pub controller_period: SimDuration,
    /// Statistics sampling period (time series).
    pub sample_period: SimDuration,
    /// Observability: tracing, fingerprints, metrics probes, profiling.
    /// Defaults to everything off, which costs one branch per event.
    pub obs: ObsConfig,
    /// Fault injection plan (`None` or an empty plan leave the run
    /// bitwise-identical to a fault-free simulator).
    pub faults: Option<FaultPlan>,
}

impl SimConfig {
    /// A server-only baseline: `servers × cores`, Poisson arrivals at
    /// utilization `rho` of the given single-task `template`, least-loaded
    /// dispatch, Active-Idle servers.
    pub fn server_farm(
        servers: usize,
        cores: u32,
        rho: f64,
        template: JobTemplate,
        duration: SimDuration,
    ) -> Self {
        let mean = template.mean_total_work();
        let rate = holdcsim_workload::arrivals::PoissonArrivals::rate_for_utilization(
            rho,
            servers,
            cores as usize,
            mean,
        );
        SimConfig {
            seed: 42,
            duration,
            warmup: SimDuration::ZERO,
            server_count: servers,
            cores_per_server: cores,
            sockets_per_server: 1,
            server_profile: ServerPowerProfile::xeon_e5_2680(),
            queue_mode: LocalQueueMode::Unified,
            sleep_policies: vec![SleepPolicy::active_idle()],
            core_speeds: Vec::new(),
            server_classes: Vec::new(),
            dvfs: None,
            arrivals: ArrivalConfig::Poisson { rate },
            template,
            policy: PolicyKind::LeastLoaded,
            use_global_queue: false,
            network: None,
            controller: None,
            controller_period: SimDuration::from_millis(100),
            sample_period: SimDuration::from_secs(1),
            obs: ObsConfig::default(),
            faults: None,
        }
    }

    /// The sleep policy of server `i` (single-entry lists broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `sleep_policies` is empty.
    pub fn policy_for(&self, i: usize) -> SleepPolicy {
        if self.sleep_policies.len() == 1 {
            self.sleep_policies[0]
        } else {
            self.sleep_policies[i]
        }
    }

    /// Sets one policy for all servers.
    pub fn with_sleep_policy(mut self, policy: SleepPolicy) -> Self {
        self.sleep_policies = vec![policy];
        self
    }

    /// Sets the placement policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

// ---------------------------------------------------------------------
// Multi-datacenter federation configuration
// ---------------------------------------------------------------------

/// How a WAN link carries cross-site transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WanLinkMode {
    /// A fixed-latency, fixed-rate pipe with FIFO serialization: each
    /// transfer occupies the link for `bytes × 8 / rate` before the
    /// propagation latency, queueing behind earlier transfers.
    #[default]
    Pipe,
    /// Concurrent transfers share the link max-min fairly, solved by
    /// [`FlowNet`](holdcsim_network::flow::FlowNet), the solver of
    /// intra-site flow traffic.
    Flow,
}

/// Default WAN transport energy: ~2 nJ per bit moved across a link.
pub const WAN_ENERGY_PER_BYTE_J: f64 = 1.6e-8;

/// One inter-cluster WAN link between two WAN nodes. Nodes `0..sites`
/// are the site gateways; higher ids are relay/hub nodes declared via
/// [`WanConfig::extra_nodes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanLink {
    /// One endpoint (WAN node id).
    pub a: u32,
    /// The other endpoint (WAN node id).
    pub b: u32,
    /// Link rate in bits/second.
    pub rate_bps: u64,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Transport energy charged per payload byte crossing this link.
    pub energy_per_byte_j: f64,
    /// Pipe or fair-shared flow transport (selectable per link).
    pub mode: WanLinkMode,
}

impl WanLink {
    /// A pipe-mode link with the default transport energy.
    pub fn new(a: u32, b: u32, rate_bps: u64, latency: SimDuration) -> Self {
        WanLink {
            a,
            b,
            rate_bps,
            latency,
            energy_per_byte_j: WAN_ENERGY_PER_BYTE_J,
            mode: WanLinkMode::Pipe,
        }
    }
}

/// The inter-cluster WAN: point-to-point links and/or hub relays.
#[derive(Debug, Clone, PartialEq)]
pub struct WanConfig {
    /// The links. Every site pair that exchanges jobs must be connected
    /// (possibly through relay nodes).
    pub links: Vec<WanLink>,
    /// Relay/hub nodes beyond the site gateways (WAN node ids
    /// `sites .. sites + extra_nodes`).
    pub extra_nodes: u32,
}

impl WanConfig {
    /// A full mesh of identical point-to-point links between `sites`.
    pub fn full_mesh(sites: usize, rate_bps: u64, latency: SimDuration) -> Self {
        let mut links = Vec::new();
        for a in 0..sites as u32 {
            for b in (a + 1)..sites as u32 {
                links.push(WanLink::new(a, b, rate_bps, latency));
            }
        }
        WanConfig {
            links,
            extra_nodes: 0,
        }
    }

    /// A hub-and-spoke WAN: every site connects to one relay (WAN node
    /// `sites`) with a `latency` spoke, so site-to-site paths pay two
    /// serializations and `2 × latency`.
    pub fn hub(sites: usize, rate_bps: u64, latency: SimDuration) -> Self {
        let hub = sites as u32;
        let links = (0..sites as u32)
            .map(|s| WanLink::new(s, hub, rate_bps, latency))
            .collect();
        WanConfig {
            links,
            extra_nodes: 1,
        }
    }

    /// Switches every link to the given transport mode.
    pub fn with_mode(mut self, mode: WanLinkMode) -> Self {
        for l in &mut self.links {
            l.mode = mode;
        }
        self
    }
}

/// Per-site overrides on top of [`ClusterConfig::base`]. Fields left
/// `None` inherit the base configuration.
#[derive(Debug, Clone, Default)]
pub struct SiteSpec {
    /// Servers at this site.
    pub server_count: Option<usize>,
    /// Site-affinity weight of the workload mix: this site's share of the
    /// base arrival rate is `affinity / Σ affinity` (0 = no home traffic).
    /// [`SiteSpec::default`] sets 1.0 (an even split).
    pub affinity: Option<f64>,
    /// Site-local fabric override (topology, comm model, link speed).
    pub network: Option<NetworkConfig>,
    /// Per-site server power profile.
    pub server_profile: Option<ServerPowerProfile>,
    /// Per-site sleep policy (broadcast to the site's servers).
    pub sleep_policy: Option<SleepPolicy>,
}

impl SiteSpec {
    /// The affinity weight (default 1.0).
    pub fn affinity(&self) -> f64 {
        self.affinity.unwrap_or(1.0)
    }
}

/// Substream id under which per-site seeds are derived from
/// [`ClusterConfig::seed`] (via [`SimRng::substream_path`]).
pub const SITE_SEED_STREAM: u64 = 0xFED5;

/// A multi-datacenter federation: several [`SimConfig`] fabrics behind
/// one driver, an inter-cluster WAN, and a geo-aware dispatch policy.
///
/// `base` describes one site (its `arrivals` carry the *aggregate* rate,
/// split across sites by affinity weights; its `seed` is ignored in favor
/// of per-site substreams of [`ClusterConfig::seed`]).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Federation RNG seed: per-site seeds are independent substreams.
    pub seed: u64,
    /// The per-site template configuration.
    pub base: SimConfig,
    /// The sites (at least one).
    pub sites: Vec<SiteSpec>,
    /// The inter-cluster WAN.
    pub wan: WanConfig,
    /// Which site runs each arriving job.
    pub geo: GeoPolicy,
    /// Payload bytes shipped over the WAN per forwarded job (input data
    /// following the job to its execution site).
    pub job_bytes: u64,
    /// Federation-wide fault plan: `site<k>.`-prefixed entries are routed
    /// to site `k` by [`ClusterConfig::site_configs`], WAN-link entries
    /// are applied by the federation driver.
    pub faults: Option<FaultPlan>,
}

impl ClusterConfig {
    /// An even federation: `sites` identical copies of `base`, each
    /// serving `1/sites` of the base arrival rate, jobs staying home
    /// until the local load hits one in-flight job per core.
    pub fn uniform(base: SimConfig, sites: usize, wan: WanConfig) -> Self {
        assert!(sites > 0, "a federation needs at least one site");
        ClusterConfig {
            seed: base.seed,
            base,
            sites: vec![SiteSpec::default(); sites],
            wan,
            geo: GeoPolicy::SiteLocalFirst { spill_load: 1.0 },
            job_bytes: 1 << 20,
            faults: None,
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Sets the geo dispatch policy.
    pub fn with_geo(mut self, geo: GeoPolicy) -> Self {
        self.geo = geo;
        self
    }

    /// Sets the federation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Expands the federation into per-site [`SimConfig`]s: overrides
    /// applied, the aggregate arrival rate split by affinity, and every
    /// site's seed derived as an independent substream of
    /// [`ClusterConfig::seed`] via [`SimRng::substream_path`] — a site's
    /// workload depends only on `(seed, site index)`, never on how many
    /// other sites run or in what order.
    ///
    /// # Panics
    ///
    /// Panics if no site has positive affinity, if trace arrivals are
    /// combined with several sites (explicit traces cannot be split), or
    /// if a per-server base field cannot broadcast to an overridden
    /// server count.
    pub fn site_configs(&self) -> Vec<SimConfig> {
        for (i, s) in self.sites.iter().enumerate() {
            let a = s.affinity();
            assert!(
                a.is_finite() && a >= 0.0,
                "site {i} affinity must be finite and non-negative, got {a}"
            );
        }
        let total: f64 = self.sites.iter().map(|s| s.affinity()).sum();
        assert!(total > 0.0, "at least one site needs positive affinity");
        let root = SimRng::seed_from(self.seed);
        self.sites
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut cfg = self.base.clone();
                cfg.seed = root
                    .substream_path(&[SITE_SEED_STREAM, i as u64])
                    .next_u64();
                if let Some(n) = spec.server_count {
                    assert!(
                        cfg.server_classes.is_empty() || cfg.server_classes.len() == n,
                        "base server_classes cannot broadcast to {n} servers"
                    );
                    assert!(
                        cfg.sleep_policies.len() <= 1 || cfg.sleep_policies.len() == n,
                        "base sleep_policies cannot broadcast to {n} servers"
                    );
                    cfg.server_count = n;
                }
                let share = spec.affinity() / total;
                if share == 0.0 {
                    // No home traffic at this site: it only executes jobs
                    // forwarded to it (an empty trace never arrives).
                    cfg.arrivals = ArrivalConfig::Trace(Vec::new());
                } else {
                    match &mut cfg.arrivals {
                        ArrivalConfig::Poisson { rate } => *rate *= share,
                        ArrivalConfig::Mmpp2 { base_rate, .. } => *base_rate *= share,
                        ArrivalConfig::Trace(_) => assert!(
                            self.sites.len() == 1,
                            "trace arrivals cannot be split across sites; \
                             give each site its own ClusterConfig::base"
                        ),
                    }
                }
                if let Some(net) = &spec.network {
                    cfg.network = Some(net.clone());
                }
                if let Some(p) = &spec.server_profile {
                    cfg.server_profile = p.clone();
                }
                if let Some(sp) = spec.sleep_policy {
                    cfg.sleep_policies = vec![sp];
                }
                cfg.faults = self
                    .faults
                    .as_ref()
                    .map(|p| p.for_site(i as u32))
                    .filter(|p| !p.is_empty());
                cfg
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim_workload::presets::WorkloadPreset;

    #[test]
    fn server_farm_derives_rate_from_rho() {
        let cfg = SimConfig::server_farm(
            50,
            4,
            0.3,
            WorkloadPreset::WebSearch.template(),
            SimDuration::from_secs(10),
        );
        let ArrivalConfig::Poisson { rate } = cfg.arrivals else {
            panic!()
        };
        // mu = 200/s, 200 cores, rho 0.3 => 12_000 jobs/s.
        assert!((rate - 12_000.0).abs() < 1e-6);
    }

    fn base_cfg() -> SimConfig {
        SimConfig::server_farm(
            8,
            2,
            0.3,
            WorkloadPreset::WebSearch.template(),
            SimDuration::from_secs(5),
        )
    }

    #[test]
    fn site_configs_split_rate_and_derive_seeds() {
        let base = base_cfg();
        let ArrivalConfig::Poisson { rate: total } = base.arrivals else {
            panic!()
        };
        let mut cc = ClusterConfig::uniform(
            base,
            3,
            WanConfig::full_mesh(3, 10_000_000_000, SimDuration::from_millis(10)),
        );
        cc.sites[0].affinity = Some(2.0);
        let cfgs = cc.site_configs();
        assert_eq!(cfgs.len(), 3);
        let rates: Vec<f64> = cfgs
            .iter()
            .map(|c| match c.arrivals {
                ArrivalConfig::Poisson { rate } => rate,
                _ => panic!(),
            })
            .collect();
        assert!((rates[0] - total / 2.0).abs() < 1e-9);
        assert!((rates[1] - total / 4.0).abs() < 1e-9);
        assert!((rates.iter().sum::<f64>() - total).abs() < 1e-6);
        // Sites own independent, stable seeds.
        assert_ne!(cfgs[0].seed, cfgs[1].seed);
        assert_eq!(cfgs[1].seed, cc.site_configs()[1].seed);
    }

    #[test]
    fn site_overrides_apply() {
        let mut cc = ClusterConfig::uniform(
            base_cfg(),
            2,
            WanConfig::hub(2, 1_000_000_000, SimDuration::from_millis(5)),
        );
        cc.sites[1].server_count = Some(4);
        cc.sites[1].sleep_policy = Some(SleepPolicy::shallow_only());
        let cfgs = cc.site_configs();
        assert_eq!(cfgs[0].server_count, 8);
        assert_eq!(cfgs[1].server_count, 4);
        assert_eq!(cfgs[1].sleep_policies, vec![SleepPolicy::shallow_only()]);
    }

    #[test]
    fn wan_builders_shape() {
        let mesh = WanConfig::full_mesh(3, 1, SimDuration::ZERO);
        assert_eq!(mesh.links.len(), 3);
        assert_eq!(mesh.extra_nodes, 0);
        let hub = WanConfig::hub(3, 1, SimDuration::ZERO).with_mode(WanLinkMode::Flow);
        assert_eq!(hub.links.len(), 3);
        assert_eq!(hub.extra_nodes, 1);
        assert!(hub.links.iter().all(|l| l.mode == WanLinkMode::Flow));
        assert!(hub.links.iter().all(|l| l.b == 3));
    }

    #[test]
    fn policy_broadcast() {
        let cfg = SimConfig::server_farm(
            3,
            1,
            0.1,
            WorkloadPreset::WebSearch.template(),
            SimDuration::from_secs(1),
        )
        .with_sleep_policy(SleepPolicy::shallow_only());
        assert_eq!(cfg.policy_for(0), SleepPolicy::shallow_only());
        assert_eq!(cfg.policy_for(2), SleepPolicy::shallow_only());
    }
}
