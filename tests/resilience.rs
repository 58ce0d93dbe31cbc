//! Cross-crate fault-injection properties: an empty plan is bitwise
//! invisible, fault schedules are deterministic across federation worker
//! counts and flow-solver arms, and the job ledger reconciles — no
//! admitted job is ever silently lost.

mod common;

use common::fnv1a64;
use holdcsim::config::{ClusterConfig, CommModel, SimConfig, WanConfig};
use holdcsim::experiments::net_scalability_config;
use holdcsim::sim::Simulation;
use holdcsim_cluster::Federation;
use holdcsim_des::time::SimDuration;
use holdcsim_faults::FaultPlan;
use holdcsim_network::flow::FlowSolverKind;
use holdcsim_workload::presets::WorkloadPreset;

const PACKET: CommModel = CommModel::Packet {
    mtu: 1_500,
    buffer_bytes: 1 << 20,
};

/// A communicating fabric config: every arm carries real transfers so
/// the comm model and solver choice genuinely matter.
fn net_cfg(comm: CommModel, solver: FlowSolverKind, seed: u64) -> SimConfig {
    let mut cfg = net_scalability_config(16, comm, SimDuration::from_millis(200), seed);
    cfg.network.as_mut().expect("fabric attached").flow_solver = solver;
    cfg
}

/// A 2-site federation whose affinity skew forces WAN forwarding.
fn fed_cfg(faults: Option<&str>) -> ClusterConfig {
    let base = SimConfig::server_farm(
        4,
        2,
        0.4,
        WorkloadPreset::WebSearch.template(),
        SimDuration::from_secs(2),
    );
    let wan = WanConfig::full_mesh(2, 10_000_000_000, SimDuration::from_millis(5));
    let mut cc =
        ClusterConfig::uniform(base, 2, wan).with_geo(holdcsim_sched::geo::GeoPolicy::LoadBalanced);
    cc.sites[0].affinity = Some(1.0);
    cc.sites[1].affinity = Some(0.0);
    cc.faults = faults.map(|s| FaultPlan::parse(s).expect("plan parses"));
    cc
}

/// Satellite property: an empty `FaultPlan` yields byte-identical report
/// JSON to a plan-less run — across the flow and packet comm models and
/// both flow-solver arms, and across a whole federation.
#[test]
fn empty_fault_plan_is_byte_identical_to_plan_less_runs() {
    let arms = [
        (CommModel::Flow, FlowSolverKind::Reference),
        (CommModel::Flow, FlowSolverKind::Cohort),
        (PACKET, FlowSolverKind::default()),
    ];
    for (comm, solver) in arms {
        let baseline = Simulation::new(net_cfg(comm, solver, 11)).run();
        let mut cfg = net_cfg(comm, solver, 11);
        cfg.faults = Some(FaultPlan::default());
        let armed = Simulation::new(cfg).run();
        assert_eq!(
            baseline.to_json(),
            armed.to_json(),
            "empty plan must be invisible ({comm:?}, {solver:?})"
        );
        assert!(baseline.resilience.is_none(), "no resilience section");
    }
    let baseline = Federation::new(&fed_cfg(None)).run_with_workers(1);
    let armed = Federation::new(&fed_cfg(Some(""))).run_with_workers(1);
    assert_eq!(baseline.to_json(), armed.to_json());
    assert!(baseline.resilience.is_none());
}

/// Satellite property: a crash+recover plan (with a WAN partition in the
/// middle) produces byte-identical federation reports at 2 and 4
/// workers vs the thread-free one-worker arm.
#[test]
fn fault_plans_are_byte_identical_across_federation_worker_counts() {
    let plan = "site0.crash@300ms:1; site0.recover@600ms:1; \
                site1.crash@400ms:0; site1.recover@700ms:0; \
                wan-down@500ms:0; wan-up@900ms:0";
    let reference = Federation::new(&fed_cfg(Some(plan))).run_with_workers(1);
    assert_eq!(
        fnv1a64(&reference.to_json()),
        "44b171ff32defbc9",
        "serial report bytes moved"
    );
    assert!(reference.jobs_forwarded() > 0, "the WAN must be exercised");
    let r = reference.resilience.expect("fault run reports resilience");
    assert_eq!(r.faults_injected, 2, "one crash per site");
    assert!(r.server_downtime_s > 0.0);
    assert!(r.wan_link_downtime_s > 0.0, "the partition really happened");
    for workers in [2usize, 4] {
        let parallel = Federation::new(&fed_cfg(Some(plan))).run_with_workers(workers);
        assert_eq!(
            reference.to_json(),
            parallel.to_json(),
            "fault run diverged at {workers} workers"
        );
    }
}

/// Acceptance property: the same fault schedule (a mid-run switch outage
/// plus a crash wave on a flow fabric) leaves both solver arms
/// byte-identical to each other.
#[test]
fn fault_runs_are_byte_identical_across_flow_solver_arms() {
    let run = |solver| {
        let mut cfg = net_cfg(CommModel::Flow, solver, 7);
        cfg.faults = Some(
            FaultPlan::parse(
                "switch-down@50ms:0; switch-up@120ms:0; \
                 crash@40ms:3; recover@90ms:3; crash@60ms:9; recover@130ms:9",
            )
            .expect("plan parses"),
        );
        Simulation::new(cfg).run()
    };
    let reference = run(FlowSolverKind::Reference);
    let r = reference.resilience.as_ref().expect("resilience reported");
    assert!(r.faults_injected >= 3 && r.switch_downtime_s > 0.0);
    assert_eq!(
        reference.to_json(),
        run(FlowSolverKind::Cohort).to_json(),
        "fault run diverged under the cohort arm"
    );
}

/// Regression pin: the fault × fabric paths (reroutes of admitted and
/// wake-delayed flows, unreachable kills, parked relaunches, doomed
/// packet bursts) produce exactly these report bytes. Run (a) is
/// `holdcsim run --servers 16 --duration 2 --rho 0.02 --seed 42 --net
/// --faults '...'`; (b) is a two-tier global-queue flow fabric under
/// scripted and MTBF faults; (c) is (b) in packet mode; (d) is `holdcsim
/// run --servers 16 --duration 2 --rho 0.3 --seed 7 --net --policy
/// network-aware --faults '...'`, whose placements probe wake costs over
/// routes computed inside fault windows.
#[test]
fn fault_fabric_reports_are_pinned() {
    use holdcsim::config::{NetworkConfig, PolicyKind};
    use holdcsim::experiments::{fat_tree_k_for, net_scalability_template};
    use holdcsim_workload::service::ServiceDist;
    use holdcsim_workload::templates::JobTemplate;

    let mut a = SimConfig::server_farm(
        16,
        4,
        0.02,
        WorkloadPreset::WebSearch.template(),
        SimDuration::from_secs(2),
    )
    .with_seed(42);
    a.template = net_scalability_template();
    let mut net = NetworkConfig::fat_tree(fat_tree_k_for(16));
    net.comm = CommModel::Flow;
    net.flow_solver = FlowSolverKind::default();
    a.network = Some(net);
    a.faults = Some(
        FaultPlan::parse(
            "switch-down@500ms:2; switch-up@1s:2; switch-down@1200ms:0; switch-up@1500ms:0; \
             link-down@1300ms:20; link-up@1600ms:20; crash@700ms:5; recover@900ms:5",
        )
        .expect("plan parses"),
    );

    let two_tier = |comm: CommModel| {
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
            SimConfig::server_farm(16, 2, 0.5, template, SimDuration::from_secs(3)).with_seed(42);
        cfg.use_global_queue = true;
        let mut net = NetworkConfig::fat_tree(4);
        net.comm = comm;
        cfg.network = Some(net);
        cfg.faults = Some(
            FaultPlan::parse(
                "switch-down@700ms:2; switch-up@900ms:2; switch-down@1s:0; switch-up@1200ms:0; \
                 link-down@1300ms:20; link-up@1600ms:20; crash@1700ms:5; recover@1900ms:5; \
                 mtbf:server=9,mtbf=300ms,mttr=100ms",
            )
            .expect("plan parses"),
        );
        cfg
    };

    let mut d = SimConfig::server_farm(
        16,
        4,
        0.3,
        WorkloadPreset::WebSearch.template(),
        SimDuration::from_secs(2),
    )
    .with_seed(7)
    .with_policy(PolicyKind::NetworkAware);
    d.template = net_scalability_template();
    let mut net = NetworkConfig::fat_tree(fat_tree_k_for(16));
    net.comm = CommModel::Flow;
    d.network = Some(net);
    d.faults = Some(
        FaultPlan::parse(
            "switch-down@200ms:16; switch-up@1800ms:16; switch-down@400ms:18; \
             switch-up@1200ms:18; link-down@300ms:20; link-up@1500ms:20",
        )
        .expect("plan parses"),
    );

    let runs = [
        ("a", a, "0dc5d85786607ae5"),
        ("b", two_tier(CommModel::Flow), "32c69b6f376282ce"),
        ("c", two_tier(PACKET), "45c1927abb7967ee"),
        ("d", d, "19a5f51a96a3d987"),
    ];
    for (name, cfg, want) in runs {
        let report = Simulation::new(cfg).run();
        assert!(
            report.resilience.is_some(),
            "run ({name}) reports resilience"
        );
        assert_eq!(
            fnv1a64(&report.to_json()),
            want,
            "run ({name}) report bytes moved"
        );
    }
}

/// Regression pin: the consolidating pack-first farm path (first-choice
/// packing, both saturation fallbacks, the provisioning controller and a
/// crash wave) produces exactly these report bytes at seed 42. Run (a) is
/// a 256-server delay-timer farm under the canned bench fault spec; (b)
/// is a 64-server one whose extra straggler pushes most placements onto
/// the fallbacks; (c) is a 32-server WASP pool farm under the on-demand
/// DVFS governor, whose crashes land on servers the pool manager keeps
/// promoting and demoting.
#[test]
fn farm_reports_are_pinned() {
    use holdcsim::config::{ControllerConfig, DvfsConfig, PolicyKind};
    use holdcsim::experiments::delay_timer_farm;
    use holdcsim_harness::bench_scale::default_fault_spec;

    let horizon = SimDuration::from_secs(1);
    let farm = |n: usize, extra: &str| {
        let mut cfg = delay_timer_farm(WorkloadPreset::WebSearch, 0.3, n, 4, 0.1, horizon, 42);
        let spec = format!("{}{extra}", default_fault_spec(n, horizon));
        cfg.faults = Some(FaultPlan::parse(&spec).expect("plan parses"));
        cfg
    };
    let mut pools =
        SimConfig::server_farm(32, 4, 0.3, WorkloadPreset::WebSearch.template(), horizon)
            .with_seed(42)
            .with_policy(PolicyKind::PackFirst);
    pools.controller = Some(ControllerConfig::Pools {
        t_wakeup: 3.2,
        t_sleep: 2.2,
        sleep_pool_tau: SimDuration::from_millis(100),
        initial_active: 8,
    });
    pools.controller_period = SimDuration::from_millis(5);
    pools.dvfs = Some(DvfsConfig::ondemand());
    pools.faults = Some(
        FaultPlan::parse(
            "crash@100ms:16; recover@600ms:16; crash@150ms:14; recover@700ms:14; \
             crash@200ms:2; recover@450ms:2; straggle@250ms:5,0.5,300ms; \
             mtbf:server=9,mtbf=150ms,mttr=60ms",
        )
        .expect("plan parses"),
    );
    let runs = [
        ("a", farm(256, ""), "89415762e0afb341"),
        (
            "b",
            farm(64, "; straggle@300ms:3,0.5,200ms"),
            "1d852ef7016f4abf",
        ),
        ("c", pools, "72b07ec4c9f4bcc6"),
    ];
    for (name, cfg, want) in runs {
        let report = Simulation::new(cfg).run();
        assert_eq!(
            fnv1a64(&report.to_json()),
            want,
            "run ({name}) report bytes moved"
        );
    }
}

/// Satellite invariant: no job is lost. Every admitted job ends
/// completed (clean or retried) or is still accounted for — and the
/// abandoned count never exceeds the unfinished pool.
#[test]
fn no_admitted_job_is_lost_under_fault_storms() {
    let storm = "crash@20ms:0; recover@60ms:0; crash@35ms:5; recover@80ms:5; \
                 switch-down@50ms:1; switch-up@100ms:1; \
                 straggle@30ms:7,0.25,60ms; \
                 mtbf:server=11,mtbf=70ms,mttr=15ms; \
                 retry:max=2,backoff=5ms,mult=2";
    for (seed, comm) in [(1u64, CommModel::Flow), (2, PACKET), (3, CommModel::Flow)] {
        let mut cfg = net_cfg(comm, FlowSolverKind::default(), seed);
        cfg.faults = Some(FaultPlan::parse(storm).expect("plan parses"));
        let report = Simulation::new(cfg).run();
        let r = report.resilience.as_ref().expect("resilience reported");
        assert!(r.faults_injected > 0, "seed {seed}: the storm really hit");
        assert_eq!(
            report.jobs_submitted,
            report.jobs_completed + r.jobs_unfinished,
            "seed {seed}: ledger must reconcile"
        );
        assert!(
            r.jobs_abandoned <= r.jobs_unfinished,
            "seed {seed}: abandoned jobs are a subset of unfinished"
        );
        // Every completed job lands in exactly one latency bucket.
        assert_eq!(
            r.clean.count + r.affected.count,
            report.jobs_completed,
            "seed {seed}: clean/affected split covers completions"
        );
        assert!(
            report.jobs_completed > 0,
            "seed {seed}: work still finishes"
        );
    }
    // The federation ledger closes too: unfinished = jobs pending in the
    // site tables plus jobs caught mid-WAN at the horizon.
    let plan = "site0.crash@300ms:1; site0.recover@600ms:1; wan-down@500ms:0; wan-up@900ms:0";
    let report = Federation::new(&fed_cfg(Some(plan))).run_with_workers(1);
    let r = report.resilience.expect("resilience reported");
    let mid_wan = report.wan.transfers - report.wan.delivered;
    assert_eq!(
        r.jobs_unfinished,
        report.jobs_submitted() - report.jobs_completed() + mid_wan,
        "federation ledger must reconcile"
    );
}
