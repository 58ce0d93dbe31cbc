//! Integration tests spanning the network substrate and the driver:
//! DAG jobs communicating over topologies in both flow and packet modes.

mod common;

use common::{fnv1a64, stepped_oracle_run};
use holdcsim::config::{ArrivalConfig, CommModel, NetworkConfig, TopologySpec};
use holdcsim::prelude::*;
use holdcsim_network::topologies::LinkSpec;

fn dag_cfg(comm: CommModel, bytes: u64, jobs: usize, secs: u64) -> SimConfig {
    let template = JobTemplate::two_tier(
        ServiceDist::Deterministic(SimDuration::from_millis(5)),
        ServiceDist::Deterministic(SimDuration::from_millis(10)),
        bytes,
    );
    let mut cfg = SimConfig::server_farm(16, 4, 0.2, template, SimDuration::from_secs(secs));
    let mut rng = holdcsim_des::rng::SimRng::seed_from(2);
    let mut t = SimTime::ZERO;
    let times: Vec<SimTime> = (0..jobs)
        .map(|_| {
            t += SimDuration::from_secs_f64(rng.exp(200.0));
            t
        })
        .collect();
    cfg.arrivals = ArrivalConfig::Trace(times);
    let mut net = NetworkConfig::fat_tree(4);
    net.comm = comm;
    cfg.network = Some(net);
    cfg
}

#[test]
fn flow_mode_completes_all_dag_jobs() {
    let report = Simulation::new(dag_cfg(CommModel::Flow, 1_000_000, 200, 30)).run();
    assert_eq!(report.jobs_completed, 200);
    let net = report.network.expect("network simulated");
    assert!(net.flows > 0, "no flows admitted");
}

/// The fair-share solver holds to the max-min oracle at every solve of
/// a whole simulation — every step that admits or retires a flow passes
/// its max-min check, and the stepped run reproduces `Simulation::run`'s
/// bytes — on an 8-server two-tier fabric (2-core servers in two classes
/// behind a global queue) and on a fan-in-32 incast at overload (fat
/// cohorts on hot downlinks).
#[test]
fn flow_runs_pass_the_max_min_check_at_every_solve() {
    let template = JobTemplate::two_tier(
        ServiceDist::Exponential {
            mean: SimDuration::from_millis(4),
        },
        ServiceDist::Exponential {
            mean: SimDuration::from_millis(6),
        },
        48_000,
    );
    let mut two_tier = SimConfig::server_farm(8, 2, 0.5, template, SimDuration::from_secs(3));
    two_tier.server_classes = (0..8).map(|i| (i % 2) as u32).collect();
    two_tier.use_global_queue = true;
    let mut net = NetworkConfig::fat_tree(4);
    net.comm = CommModel::Flow;
    two_tier.network = Some(net);
    let incast = holdcsim::experiments::net_incast_config(16, SimDuration::from_millis(50), 7);
    for cfg in [two_tier, incast] {
        let (report, checks) = stepped_oracle_run(cfg);
        assert!(checks > 0, "the solver ran");
        assert!(report.network.expect("network report").flows > 0);
    }
}

/// `holdcsim run --servers 16 --duration 2 --seed 42 --net`, stepped:
/// every step that admits or retires a flow passes the fair-share
/// solver's max-min check, and the stepped run reproduces
/// `Simulation::run`'s bytes. Slow in debug builds; CI runs it in
/// release.
#[test]
#[ignore = "minutes in a debug build; CI runs it with --release"]
fn cli_net_run_passes_the_max_min_check_at_every_solve() {
    use holdcsim::experiments::{fat_tree_k_for, net_scalability_template};
    let mut cfg = SimConfig::server_farm(
        16,
        4,
        0.3,
        WorkloadPreset::WebSearch.template(),
        SimDuration::from_secs(2),
    )
    .with_seed(42);
    cfg.template = net_scalability_template();
    let mut net = NetworkConfig::fat_tree(fat_tree_k_for(16));
    net.comm = CommModel::Flow;
    cfg.network = Some(net);
    let (report, checks) = stepped_oracle_run(cfg);
    assert!(checks > 0, "the solver ran");
    assert!(report.network.expect("network report").flows > 0);
}

/// Flow comm costs a few events per transfer, packet comm one per packet
/// hop (§III-B's granularity trade-off). On one two-tier trace over a
/// 16-server fat tree, with 300 kB (200-packet) edges, both modes
/// complete every job, and flow mode processes at least 10× fewer
/// events.
#[test]
fn flow_mode_processes_at_most_a_tenth_of_packet_mode_events() {
    let packet = CommModel::Packet {
        mtu: 1_500,
        buffer_bytes: 1 << 20,
    };
    let [flow, packet] =
        [CommModel::Flow, packet].map(|comm| Simulation::new(dag_cfg(comm, 300_000, 200, 5)).run());
    assert_eq!((flow.jobs_completed, packet.jobs_completed), (200, 200));
    assert!(
        flow.events_processed * 10 <= packet.events_processed,
        "flow {} vs packet {} events",
        flow.events_processed,
        packet.events_processed
    );
}

#[test]
fn packet_mode_completes_all_dag_jobs() {
    let report = Simulation::new(dag_cfg(
        CommModel::Packet {
            mtu: 1_500,
            buffer_bytes: 1 << 20,
        },
        150_000,
        100,
        30,
    ))
    .run();
    assert_eq!(report.jobs_completed, 100);
    let net = report.network.expect("network simulated");
    assert!(
        net.packets_forwarded > 100 * 100,
        "too few packets forwarded"
    );
}

#[test]
fn transfer_time_adds_to_job_latency() {
    // Same jobs; bigger flows should lengthen completion (1 MB vs 50 MB on
    // 1 GbE ≈ 8 ms vs 400 ms of transfer).
    let small = Simulation::new(dag_cfg(CommModel::Flow, 1_000_000, 100, 60)).run();
    let large = Simulation::new(dag_cfg(CommModel::Flow, 50_000_000, 100, 60)).run();
    assert!(
        large.latency.mean > small.latency.mean + 0.2,
        "large {} vs small {}",
        large.latency.mean,
        small.latency.mean
    );
}

#[test]
fn latency_includes_critical_path_and_transfer_floor() {
    // Deterministic services: 5 ms + 10 ms; transfer of 1 MB at 1 Gb/s
    // adds ≥ 8 ms when tasks land on different servers. Even same-server
    // placements bound latency below by 15 ms.
    let report = Simulation::new(dag_cfg(CommModel::Flow, 1_000_000, 50, 30)).run();
    assert!(report.latency.p50 >= 0.015, "p50 {}", report.latency.p50);
}

#[test]
fn all_topologies_carry_traffic() {
    for (spec, servers) in [
        (TopologySpec::FatTree { k: 4 }, 16),
        (
            TopologySpec::FlattenedButterfly {
                k: 2,
                hosts_per_switch: 4,
            },
            16,
        ),
        (TopologySpec::BCube { n: 4, levels: 1 }, 16),
        (TopologySpec::CamCube { x: 2, y: 2, z: 4 }, 16),
        (TopologySpec::Star, 16),
    ] {
        let mut cfg = dag_cfg(CommModel::Flow, 500_000, 50, 20);
        let net = cfg.network.as_mut().expect("network configured");
        net.topology = spec;
        net.link = LinkSpec::gigabit();
        cfg.server_count = servers;
        let report = Simulation::new(cfg).run();
        assert_eq!(report.jobs_completed, 50, "{spec:?} lost jobs");
    }
}

#[test]
fn lpi_reduces_switch_energy_on_idle_network() {
    // Few, widely-spaced jobs: ports should spend most time in LPI.
    let mut with_lpi = dag_cfg(CommModel::Flow, 100_000, 20, 30);
    with_lpi.network.as_mut().expect("net").lpi_hold = Some(SimDuration::from_millis(10));
    let mut without = dag_cfg(CommModel::Flow, 100_000, 20, 30);
    without.network.as_mut().expect("net").lpi_hold = None;
    let e_lpi = Simulation::new(with_lpi)
        .run()
        .network
        .expect("net")
        .switch_energy_j;
    let e_raw = Simulation::new(without)
        .run()
        .network
        .expect("net")
        .switch_energy_j;
    assert!(
        e_lpi < e_raw * 0.95,
        "LPI {e_lpi} should undercut always-on {e_raw}"
    );
}

#[test]
fn network_reports_are_deterministic() {
    let a = Simulation::new(dag_cfg(CommModel::Flow, 1_000_000, 100, 20)).run();
    let b = Simulation::new(dag_cfg(CommModel::Flow, 1_000_000, 100, 20)).run();
    assert_eq!(a.events_processed, b.events_processed);
    let (na, nb) = (a.network.expect("net"), b.network.expect("net"));
    assert_eq!(na.flows, nb.flows);
    assert!((na.switch_energy_j - nb.switch_energy_j).abs() < 1e-9);
}

/// A two-server star where the two-tier job's tiers are pinned to
/// different servers by class, so every job crosses the network exactly
/// once with a deterministic service floor.
fn pinned_star_cfg(comm: CommModel, bytes: u64, arrive: SimTime, secs: u64) -> SimConfig {
    let template = JobTemplate::two_tier(
        ServiceDist::Deterministic(SimDuration::from_millis(5)),
        ServiceDist::Deterministic(SimDuration::from_millis(10)),
        bytes,
    );
    let mut cfg = SimConfig::server_farm(2, 4, 0.2, template, SimDuration::from_secs(secs));
    cfg.server_classes = vec![0, 1];
    cfg.arrivals = ArrivalConfig::Trace(vec![arrive]);
    let mut net = NetworkConfig::fat_tree(4);
    net.topology = TopologySpec::Star;
    net.link = LinkSpec::gigabit();
    net.comm = comm;
    net.lpi_hold = None;
    net.ingress_bytes = None;
    cfg.network = Some(net);
    cfg
}

#[test]
fn flow_through_asleep_switch_pays_wake_latency() {
    // One flow at t = 2 s. With LPI enabled, the star switch's ports have
    // been asleep since shortly after t = 0, so the flow may not start
    // until the slowest port along its route wakes; with LPI disabled, it
    // starts immediately. Same seed, same services — the entire latency
    // difference is the wake cost the flow model used to drop.
    let arrive = SimTime::from_secs(2);
    let mut asleep = pinned_star_cfg(CommModel::Flow, 125_000, arrive, 4);
    asleep.network.as_mut().expect("net").lpi_hold = Some(SimDuration::from_millis(1));
    let awake = pinned_star_cfg(CommModel::Flow, 125_000, arrive, 4);
    let r_asleep = Simulation::new(asleep).run();
    let r_awake = Simulation::new(awake).run();
    assert_eq!(r_asleep.jobs_completed, 1);
    assert_eq!(r_awake.jobs_completed, 1);
    let (la, lw) = (r_asleep.latency.mean, r_awake.latency.mean);
    assert!(
        la > lw + 1e-6,
        "asleep-path flow must be measurably slower: asleep {la} vs awake {lw}"
    );
    assert!(
        la < lw + 0.05,
        "wake cost is bounded by the port/linecard wake latencies: {la} vs {lw}"
    );
}

/// Property: for a single uncontended transfer over an all-awake star,
/// the Packet and Flow communication models agree on transfer latency
/// within segmentation tolerance (last-packet store-and-forward, partial
/// final segment, and per-hop link latency are the only divergences).
#[test]
fn packet_and_flow_agree_on_uncontended_transfer() {
    const MTU: u64 = 1_500;
    const RATE: f64 = 1e9;
    let link_lat = 5e-6; // LinkSpec::gigabit() per-traversal latency
    let mut rng = holdcsim_des::rng::SimRng::seed_from(0xF10F);
    for _ in 0..6 {
        let bytes = 50_000 + rng.below(1_000_000);
        let arrive = SimTime::from_millis(1 + rng.below(500));
        let flow = Simulation::new(pinned_star_cfg(CommModel::Flow, bytes, arrive, 6)).run();
        let packet = Simulation::new(pinned_star_cfg(
            CommModel::Packet {
                mtu: MTU,
                buffer_bytes: 8 << 20,
            },
            bytes,
            arrive,
            6,
        ))
        .run();
        assert_eq!(flow.jobs_completed, 1, "flow lost the job ({bytes} B)");
        assert_eq!(packet.jobs_completed, 1, "packet lost the job ({bytes} B)");
        let (lf, lp) = (flow.latency.mean, packet.latency.mean);
        // One extra MTU of store-and-forward, the partial tail segment,
        // and two link traversals bound the models' divergence.
        let tolerance = 3.0 * (MTU as f64 * 8.0 / RATE) + 4.0 * link_lat + 1e-5;
        assert!(
            (lf - lp).abs() <= tolerance,
            "flow {lf} vs packet {lp} for {bytes} B exceeds tolerance {tolerance}"
        );
    }
}

#[test]
fn global_queue_pull_never_overcommits_cores() {
    // Fan-out jobs over a star with the global queue: every placement and
    // every pull must count the tasks already committed to a server (core
    // reservations held while inbound transfers land). Sample the invariant
    // `busy + committed <= cores` throughout the run.
    let template = JobTemplate::FanOutFanIn {
        root: ServiceDist::Deterministic(SimDuration::from_millis(2)),
        leaf: ServiceDist::Deterministic(SimDuration::from_millis(6)),
        agg: ServiceDist::Deterministic(SimDuration::from_millis(2)),
        width: 8,
        transfer_bytes: 4_000_000, // ~32 ms per edge on 1 GbE, worse shared
    };
    let mut cfg = SimConfig::server_farm(2, 2, 0.6, template, SimDuration::from_secs(30));
    cfg.use_global_queue = true;
    cfg.arrivals =
        ArrivalConfig::Trace((0..40).map(|i| SimTime::from_millis(1 + i * 25)).collect());
    let mut net = NetworkConfig::fat_tree(4);
    net.topology = TopologySpec::Star;
    net.comm = CommModel::Flow;
    cfg.network = Some(net);
    let end = SimTime::ZERO + cfg.duration;
    let mut engine = Simulation::new(cfg).into_engine();
    for step in 1..=2_000u64 {
        engine.run_until(SimTime::from_millis(step * 10));
        let dc = engine.model();
        for (i, (s, &committed)) in dc.servers().iter().zip(dc.committed()).enumerate() {
            assert!(
                s.busy_cores() + committed <= s.core_count(),
                "server {i} over-committed at {} ms: busy {} + committed {} > {} cores",
                step * 10,
                s.busy_cores(),
                committed,
                s.core_count()
            );
        }
    }
    engine.run_until(end);
    let events = engine.events_processed();
    let report = holdcsim::sim::finish_report(engine.into_parts().0, end, events, 0.0);
    assert_eq!(report.jobs_completed, 40);
}

#[test]
fn fan_out_jobs_traverse_network() {
    let template = JobTemplate::FanOutFanIn {
        root: ServiceDist::Deterministic(SimDuration::from_millis(2)),
        leaf: ServiceDist::Deterministic(SimDuration::from_millis(8)),
        agg: ServiceDist::Deterministic(SimDuration::from_millis(2)),
        width: 6,
        transfer_bytes: 200_000,
    };
    let mut cfg = SimConfig::server_farm(16, 4, 0.2, template, SimDuration::from_secs(30));
    cfg.arrivals =
        ArrivalConfig::Trace((0..50).map(|i| SimTime::from_millis(1 + i * 100)).collect());
    cfg.network = Some(NetworkConfig::fat_tree(4));
    let report = Simulation::new(cfg).run();
    assert_eq!(report.jobs_completed, 50);
    // Fan-out latency ≥ root + leaf + agg = 12 ms.
    assert!(report.latency.p50 >= 0.012);
}

/// Regression pin: the switch power paths produce exactly these report
/// bytes. Run (a) is a packet-mode fat tree whose idle ports downshift
/// to the lowest ALR rate and renegotiate full speed on the next
/// transmission; (b) is the §V-B validation star (Cisco profile, LPI,
/// line-card sleep) driven by front-end ingress traffic on the access
/// ports. Each run also checks that it reaches the path it pins.
#[test]
fn switch_power_reports_are_pinned() {
    use holdcsim::sim::finish_report;

    let alr = |lpi_hold: Option<SimDuration>| {
        let template = JobTemplate::two_tier(
            ServiceDist::Exponential {
                mean: SimDuration::from_millis(4),
            },
            ServiceDist::Exponential {
                mean: SimDuration::from_millis(6),
            },
            48_000,
        );
        let mut cfg =
            SimConfig::server_farm(16, 2, 0.2, template, SimDuration::from_secs(1)).with_seed(42);
        let mut net = NetworkConfig::fat_tree(4);
        net.comm = CommModel::Packet {
            mtu: 1_500,
            buffer_bytes: 1 << 20,
        };
        net.use_alr = true;
        net.lpi_hold = lpi_hold;
        cfg.network = Some(net);
        Simulation::new(cfg).run()
    };
    let a = alr(Some(SimDuration::from_millis(10)));
    let always_on = alr(None);
    let (e_alr, e_on) = (
        a.network.as_ref().expect("net").switch_energy_j,
        always_on.network.as_ref().expect("net").switch_energy_j,
    );
    assert!(e_alr < e_on, "ALR {e_alr} must undercut always-on {e_on}");
    assert_eq!(
        fnv1a64(&a.to_json()),
        "09e02a151941fadb",
        "run (a) report bytes moved"
    );

    let mut b = SimConfig::server_farm(
        8,
        2,
        0.01,
        WorkloadPreset::WebSearch.template(),
        SimDuration::from_secs(5),
    )
    .with_seed(42);
    b.network = Some(NetworkConfig::validation_star());
    let end = SimTime::ZERO + b.duration;
    let mut engine = Simulation::new(b).into_engine();
    engine.run_until(end);
    let events = engine.events_processed();
    let (dc, _) = engine.into_parts();
    let (lpi_entries, card_sleeps) = dc.net().expect("net").switches[0].power_event_counts();
    assert!(lpi_entries > 0, "no port entered LPI");
    assert!(card_sleeps > 0, "the line card never slept");
    let b = finish_report(dc, end, events, 0.0);
    assert_eq!(
        fnv1a64(&b.to_json()),
        "72897c07e44c1dc8",
        "run (b) report bytes moved"
    );
}
