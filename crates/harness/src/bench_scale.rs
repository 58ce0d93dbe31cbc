//! Two benchmark configurations shared by the repository benchmark
//! (`perfbench/`) and the resilience tests: the canned crash-wave fault
//! plan of a farm and the two-site federation behind a 10 Gb/s / 5 ms
//! WAN.
//!
//! They outlived the scalability sweep this module was named for, and
//! keep its path because `perfbench`, a package outside this workspace
//! that changes only with the benchmark, imports them from here.

use std::fmt::Write as _;

use holdcsim::config::{ClusterConfig, CommModel, WanConfig};
use holdcsim::experiments::{net_scalability_config, NET_SCALABILITY_BYTES};
use holdcsim_des::time::SimDuration;
use holdcsim_sched::geo::GeoPolicy;

/// WAN link rate of the federation configuration (10 Gb/s inter-cluster
/// trunks).
pub const CLUSTER_WAN_BPS: u64 = 10_000_000_000;

/// WAN one-way latency of the federation configuration.
pub const CLUSTER_WAN_LATENCY: SimDuration = SimDuration::from_millis(5);

/// The canned fault plan for a farm of `servers`: a crash wave over the
/// first half of the horizon (one crash per eighth of the farm, capped
/// at 8, each down a tenth of the run) plus one MTBF arm, under the
/// default retry policy. Pure arithmetic on (servers, duration), so the
/// same farm always gets the same plan.
pub fn default_fault_spec(servers: usize, duration: SimDuration) -> String {
    let d_ms = duration.as_secs_f64() * 1e3;
    let crashes = (servers / 8).clamp(1, 8);
    let step_ms = d_ms * 0.5 / crashes as f64;
    let down_ms = d_ms * 0.1;
    let mut spec = String::new();
    for i in 0..crashes {
        let sid = i * servers / crashes;
        let at = d_ms * 0.1 + i as f64 * step_ms;
        let _ = write!(
            spec,
            "crash@{at:.3}ms:{sid}; recover@{:.3}ms:{sid}; ",
            at + down_ms
        );
    }
    let _ = write!(
        spec,
        "mtbf:server={},mtbf={:.3}ms,mttr={:.3}ms",
        servers / 2,
        d_ms * 0.4,
        d_ms * 0.05
    );
    spec
}

/// The federation configuration: `sites` copies of the network
/// scalability fabric behind a full-mesh 10 Gb/s / 5 ms WAN,
/// load-balanced dispatch, and a skewed affinity mix (site 0 serves a
/// double share) so cross-site forwarding genuinely exercises the WAN.
pub fn fed_cluster_config(
    sites: usize,
    servers_per_site: usize,
    comm: CommModel,
    duration: SimDuration,
    seed: u64,
) -> ClusterConfig {
    let base = net_scalability_config(servers_per_site, comm, duration, seed);
    let mut cc = ClusterConfig::uniform(
        base,
        sites,
        WanConfig::full_mesh(sites, CLUSTER_WAN_BPS, CLUSTER_WAN_LATENCY),
    )
    .with_geo(GeoPolicy::LoadBalanced)
    .with_seed(seed);
    cc.job_bytes = NET_SCALABILITY_BYTES;
    cc.sites[0].affinity = Some(2.0);
    cc
}
