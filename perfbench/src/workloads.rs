//! The four workloads: their simulator configurations, simulated
//! horizons, and the report digests pinned for the default seed.

use holdcsim::config::{ClusterConfig, CommModel, SimConfig};
use holdcsim::experiments::{
    delay_timer_farm, net_incast_config_with_solver, net_scalability_config, SCALABILITY_CORES,
};
use holdcsim_des::time::SimDuration;
use holdcsim_faults::FaultPlan;
use holdcsim_harness::bench_scale::{default_fault_spec, fed_cluster_config};
use holdcsim_network::flow::FlowSolverKind;
use holdcsim_workload::presets::WorkloadPreset;

/// The seed whose report digests [`Workload::pinned_digest`] pins.
pub const DEFAULT_SEED: u64 = 42;

/// Window-pool workers of the federation workload: one per core of the
/// 2-core host the benchmark's bounds were set on.
pub const FED_WORKERS: usize = 2;

/// Servers of the farm (4 cores each: the Table I farm).
const FARM_SERVERS: usize = 1024;
/// Utilization of the farm.
const FARM_RHO: f64 = 0.3;
/// Delay-timer τ of the farm, seconds: the Fig. 5/9 energy case.
const FARM_TAU_S: f64 = 0.1;
/// Servers of each fat-tree fabric (k = 8).
const FABRIC_SERVERS: usize = 128;
/// Sites of the federation.
const GEO_SITES: usize = 2;
/// Packet switching for the federation's site fabrics.
const PACKET: CommModel = CommModel::Packet {
    mtu: 1_500,
    buffer_bytes: 1 << 20,
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Server-only farm: placement, server states, faults, the calendar.
    Farm,
    /// Scatter-gather over a fat tree in flow mode: thin cohorts.
    FabricFlow,
    /// Incast over a fat tree in flow mode: fat cohorts.
    FabricIncast,
    /// Two packet-mode fabrics federated over a WAN.
    GeoPacket,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Farm,
        Workload::FabricFlow,
        Workload::FabricIncast,
        Workload::GeoPacket,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Farm => "farm",
            Workload::FabricFlow => "fabric-flow",
            Workload::FabricIncast => "fabric-incast",
            Workload::GeoPacket => "geo-packet",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated horizon: long enough that every layer the workload is
    /// for does real work, short enough that one simulation takes under
    /// half a second of host time, so that a measured run holds many.
    fn horizon(self) -> SimDuration {
        match self {
            Workload::Farm => SimDuration::from_secs(1),
            Workload::FabricFlow => SimDuration::from_millis(50),
            Workload::FabricIncast => SimDuration::from_millis(50),
            Workload::GeoPacket => SimDuration::from_millis(50),
        }
    }

    /// 64-bit FNV-1a digests of the report JSON at [`DEFAULT_SEED`], one
    /// per simulation seed.
    pub fn pinned_digests(self) -> [&'static str; 4] {
        match self {
            Workload::Farm => [
                "7ea2f29764a9a023",
                "cc56fc32f2a3f500",
                "732443f5586c5221",
                "f24dcbce3a845aed",
            ],
            Workload::FabricFlow => [
                "20042987f26da2f7",
                "8e6727d29c3caa00",
                "63bc9157cfa363a3",
                "fdffc8a6050e7350",
            ],
            Workload::FabricIncast => [
                "22918039273e5580",
                "53e926e53b3889a8",
                "2a47fdc7cf8b2eca",
                "84f2725a6f78e2aa",
            ],
            Workload::GeoPacket => [
                "f2c28fbdde0f0fab",
                "915c4f8cf9b36e2b",
                "793e351513ff9e48",
                "1d4ea8b4d0ab5523",
            ],
        }
    }

    /// The single-fabric configuration; for `geo-packet`, site 0 of the
    /// federation run standalone (its own arrival stream, no WAN).
    pub fn sim_config(self, seed: u64) -> SimConfig {
        let horizon = self.horizon();
        match self {
            Workload::Farm => {
                let mut cfg = delay_timer_farm(
                    WorkloadPreset::WebSearch,
                    FARM_RHO,
                    FARM_SERVERS,
                    SCALABILITY_CORES,
                    FARM_TAU_S,
                    horizon,
                    seed,
                );
                let plan = FaultPlan::parse(&default_fault_spec(FARM_SERVERS, horizon))
                    .expect("the canned fault spec parses");
                cfg.faults = Some(plan);
                cfg
            }
            Workload::FabricFlow => {
                net_scalability_config(FABRIC_SERVERS, CommModel::Flow, horizon, seed)
            }
            Workload::FabricIncast => net_incast_config_with_solver(
                FABRIC_SERVERS,
                horizon,
                seed,
                FlowSolverKind::default(),
            ),
            Workload::GeoPacket => geo_cluster_config(seed).site_configs().swap_remove(0),
        }
    }
}

/// The federation of `geo-packet`: two 128-server packet fabrics behind a
/// 10 Gb/s / 5 ms full-mesh WAN, load-balanced geo dispatch, and site 0
/// with affinity 2.
pub fn geo_cluster_config(seed: u64) -> ClusterConfig {
    fed_cluster_config(
        GEO_SITES,
        FABRIC_SERVERS,
        PACKET,
        Workload::GeoPacket.horizon(),
        seed,
    )
}
