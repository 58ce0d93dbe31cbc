//! # holdcsim-cluster
//!
//! Multi-datacenter federation for HolDCSim-RS: several complete site
//! fabrics ([`holdcsim::sim::Datacenter`]s, each with its own topology,
//! power devices, and RNG substream) behind one coordinator, coupled by
//! an inter-cluster WAN and a geo-aware dispatch policy.
//!
//! * [`Federation`] — the coordinator: advances sites through
//!   conservative lookahead windows (each site burns down its calendar
//!   to the next safe WAN horizon, concurrently on a pooled
//!   scoped-thread substrate, or inline with one worker) and ships forwarded jobs over the WAN as first-class
//!   [`holdcsim::sim::DcEvent::RemoteJobArrive`] events on the
//!   destination site's calendar.
//! * [`wan::Wan`] — the inter-cluster network: per-link selectable FIFO
//!   pipes or max-min fair-shared flow links (on the kernel's
//!   [`holdcsim_network::flow::FlowNet`]), point-to-point or
//!   hub topologies, latency/bandwidth/transport-energy accounting, and
//!   scripted link outages (paths recompute, crossing transfers restart
//!   or park; downtime accrues in a [`holdcsim_faults::Outages`] ledger,
//!   the one the site drivers keep for servers, switches and links).
//! * [`FederationReport`] — per-site [`holdcsim::report::SimReport`]s
//!   plus WAN and federation-wide aggregates.
//!
//! Configuration lives in [`holdcsim::config::ClusterConfig`]; the geo
//! dispatch policies in [`holdcsim_sched::geo`]. Determinism carries
//! over from single-fabric runs: same [`ClusterConfig`] ⇒ byte-identical
//! [`FederationReport`], at any federation worker count — and a
//! federation whose jobs all stay home reproduces each site's standalone
//! trajectory exactly.
//!
//! [`ClusterConfig`]: holdcsim::config::ClusterConfig

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod federation;
pub mod pool;
pub mod wan;

pub use federation::{Federation, FederationReport};
pub use wan::{Wan, WanReport};

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim::config::{
        ClusterConfig, CommModel, NetworkConfig, SimConfig, WanConfig, WanLinkMode,
    };
    use holdcsim::sim::Simulation;
    use holdcsim_des::time::SimDuration;
    use holdcsim_sched::geo::GeoPolicy;
    use holdcsim_workload::service::ServiceDist;
    use holdcsim_workload::templates::JobTemplate;

    /// A networked per-site base: two-tier jobs whose every edge crosses
    /// the site fabric (interleaved server classes on a k=4 fat tree).
    fn networked_base(comm: CommModel, secs: u64) -> SimConfig {
        let template = JobTemplate::two_tier(
            ServiceDist::Exponential {
                mean: SimDuration::from_millis(4),
            },
            ServiceDist::Exponential {
                mean: SimDuration::from_millis(6),
            },
            48_000,
        );
        let mut cfg = SimConfig::server_farm(8, 2, 0.4, template, SimDuration::from_secs(secs));
        cfg.server_classes = (0..8).map(|i| (i % 2) as u32).collect();
        let mut net = NetworkConfig::fat_tree(4);
        net.comm = comm;
        cfg.network = Some(net);
        cfg
    }

    fn packet() -> CommModel {
        CommModel::Packet {
            mtu: 1_500,
            buffer_bytes: 1 << 20,
        }
    }

    /// An effectively unconstrained WAN: zero latency, 1 Tb/s links.
    fn zero_latency_wan(sites: usize) -> WanConfig {
        WanConfig::full_mesh(sites, 1_000_000_000_000, SimDuration::ZERO)
    }

    /// Satellite: a 2-site federation over an infinite-capacity /
    /// zero-latency WAN whose traffic stays site-local must reproduce
    /// the single-fabric trajectories byte for byte.
    #[test]
    fn zero_latency_site_local_matches_single_fabric_byte_for_byte() {
        for comm in [CommModel::Flow, packet()] {
            let cc = ClusterConfig::uniform(networked_base(comm, 2), 2, zero_latency_wan(2))
                .with_geo(GeoPolicy::SiteLocalFirst {
                    spill_load: f64::INFINITY,
                });
            let standalone: Vec<String> = cc
                .site_configs()
                .into_iter()
                .map(|c| Simulation::new(c).run().to_json())
                .collect();
            let fed = Federation::new(&cc).run();
            assert_eq!(fed.jobs_forwarded(), 0, "site-local traffic only");
            assert_eq!(fed.wan.transfers, 0);
            for (i, site) in fed.sites.iter().enumerate() {
                assert_eq!(
                    site.to_json(),
                    standalone[i],
                    "site {i} diverged from its standalone run ({comm:?})"
                );
            }
        }
    }

    /// The window-parallel coordinator is byte-identical to the inline
    /// one-worker reference — 2- and 3-site federations, flow and packet
    /// site fabrics, pipe and flow WAN links, 2 and 4 workers, asserted
    /// on `to_json` bytes.
    #[test]
    fn parallel_windows_bitwise_identical_to_serial() {
        for sites in [2usize, 3] {
            for comm in [CommModel::Flow, packet()] {
                for mode in [WanLinkMode::Pipe, WanLinkMode::Flow] {
                    let mut cc = ClusterConfig::uniform(
                        networked_base(comm, 1),
                        sites,
                        WanConfig::full_mesh(sites, 10_000_000_000, SimDuration::from_millis(5))
                            .with_mode(mode),
                    )
                    .with_geo(GeoPolicy::LoadBalanced)
                    .with_seed(11);
                    cc.job_bytes = 256 * 1024;
                    cc.sites[0].affinity = Some(3.0);
                    let reference = Federation::new(&cc).run_with_workers(1);
                    let arm = format!("{sites} sites, {comm:?}, {mode:?}");
                    assert!(
                        reference.jobs_forwarded() > 0,
                        "the A/B must exercise the WAN ({arm})"
                    );
                    let want = reference.to_json();
                    for workers in [2usize, 4] {
                        let got = Federation::new(&cc).run_with_workers(workers).to_json();
                        assert_eq!(got, want, "{workers} workers diverged from 1 ({arm})");
                    }
                }
            }
        }
    }

    /// Edge case: a zero-latency WAN collapses the lookahead floor to
    /// zero — windows degenerate to single instants but the loop must
    /// still terminate (no deadlock, no livelock) and stay byte-equal to
    /// the inline one-worker run.
    #[test]
    fn zero_lookahead_windows_terminate_and_match_serial() {
        let mut cc = ClusterConfig::uniform(
            networked_base(CommModel::Flow, 1),
            2,
            WanConfig::full_mesh(2, 10_000_000_000, SimDuration::ZERO),
        )
        .with_geo(GeoPolicy::LoadBalanced)
        .with_seed(5);
        cc.sites[0].affinity = Some(1.0);
        cc.sites[1].affinity = Some(0.0);
        cc.job_bytes = 256 * 1024;
        let serial = Federation::new(&cc).run_with_workers(1);
        assert!(serial.jobs_forwarded() > 0, "forced forwarding at floor 0");
        let parallel = Federation::new(&cc).run_with_workers(2);
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    /// Acceptance: cross-site transfers demonstrably traverse the WAN —
    /// the skewed/load-balanced run forwards jobs, pays WAN latency and
    /// energy, and its event counts differ from the site-local control
    /// (which the equivalence test above pins to the single-fabric
    /// trajectory).
    #[test]
    fn cross_site_transfers_traverse_the_wan() {
        let sites = 2;
        let mk = |geo| {
            let mut cc = ClusterConfig::uniform(
                networked_base(CommModel::Flow, 2),
                sites,
                WanConfig::full_mesh(sites, 1_000_000_000, SimDuration::from_millis(20)),
            )
            .with_geo(geo);
            // All home traffic lands at site 0; only dispatch moves it.
            cc.sites[0].affinity = Some(1.0);
            cc.sites[1].affinity = Some(0.0);
            cc.job_bytes = 512 * 1024;
            cc
        };
        let control = Federation::new(&mk(GeoPolicy::SiteLocalFirst {
            spill_load: f64::INFINITY,
        }))
        .run();
        let treated = Federation::new(&mk(GeoPolicy::LoadBalanced)).run();
        assert_eq!(control.jobs_forwarded(), 0);
        assert!(
            treated.jobs_forwarded() > 50,
            "load balancing off a saturated home site must forward: {}",
            treated.jobs_forwarded()
        );
        assert!(treated.wan.delivered > 0);
        assert!(treated.wan.energy_j > 0.0);
        assert!(
            treated.wan.mean_transfer_s > 0.020,
            "transfers pay at least the 20 ms WAN latency: {}",
            treated.wan.mean_transfer_s
        );
        assert!(
            treated.sites[1].jobs_submitted > 0,
            "forwarded jobs execute at the remote site"
        );
        assert_ne!(
            control.events_processed, treated.events_processed,
            "WAN traversal changes the event trajectory"
        );
    }

    /// Same federation, same seed, run twice ⇒ byte-identical reports
    /// (including flow-mode WAN links and a hub topology).
    #[test]
    fn federation_runs_are_reproducible() {
        let mut cc = ClusterConfig::uniform(
            networked_base(CommModel::Flow, 1),
            3,
            WanConfig::hub(3, 2_000_000_000, SimDuration::from_millis(10))
                .with_mode(WanLinkMode::Flow),
        )
        .with_geo(GeoPolicy::LatencyAware {
            latency_weight: 2.0,
        });
        cc.sites[0].affinity = Some(4.0);
        let a = Federation::new(&cc).run();
        let b = Federation::new(&cc).run();
        assert_eq!(a.to_json(), b.to_json());
        // The latency-aware arm still runs a live federation.
        assert!(a.jobs_completed() > 0);
    }

    /// The WAN-latency leg shows up in end-to-end job latency: a distant
    /// federation under forced forwarding has a larger mean than the
    /// same federation with a near-zero WAN.
    #[test]
    fn wan_latency_shows_up_in_job_latency() {
        let mk = |latency_ms: u64| {
            let mut cc = ClusterConfig::uniform(
                networked_base(CommModel::Flow, 2),
                2,
                WanConfig::full_mesh(2, 10_000_000_000, SimDuration::from_millis(latency_ms)),
            )
            .with_geo(GeoPolicy::LoadBalanced);
            cc.sites[0].affinity = Some(1.0);
            cc.sites[1].affinity = Some(0.0);
            Federation::new(&cc).run()
        };
        let near = mk(0);
        let far = mk(50);
        assert!(far.jobs_forwarded() > 0);
        assert!(
            far.mean_latency_s() > near.mean_latency_s(),
            "50 ms WAN legs must lift mean latency: {} vs {}",
            far.mean_latency_s(),
            near.mean_latency_s()
        );
    }

    /// Server-only sites federate too (no site fabric at all): the WAN
    /// is the only network in the run.
    #[test]
    fn server_only_sites_federate() {
        let base = SimConfig::server_farm(
            4,
            2,
            0.6,
            holdcsim_workload::presets::WorkloadPreset::WebSearch.template(),
            SimDuration::from_secs(2),
        );
        let mut cc = ClusterConfig::uniform(
            base,
            3,
            WanConfig::hub(3, 1_000_000_000, SimDuration::from_millis(15)),
        )
        .with_geo(GeoPolicy::SiteLocalFirst { spill_load: 0.9 });
        cc.sites[0].affinity = Some(8.0);
        let r = Federation::new(&cc).run();
        assert!(r.jobs_completed() > 100);
        assert!(r.jobs_forwarded() > 0, "spill threshold must trigger");
        assert_eq!(r.sites.len(), 3);
        let json = r.to_json();
        for key in ["\"sites\":", "\"forwarded\":", "\"wan\":", "\"aggregate\":"] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(!r.summary().is_empty());
    }
}
