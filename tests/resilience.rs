//! Cross-crate fault-injection properties: an empty plan is bitwise
//! invisible, fault schedules are deterministic across federation worker
//! counts and flow-solver arms, and the job ledger reconciles — no
//! admitted job is ever silently lost.

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
    let baseline = Federation::new(&fed_cfg(None)).run_serial();
    let armed = Federation::new(&fed_cfg(Some(""))).run_serial();
    assert_eq!(baseline.to_json(), armed.to_json());
    assert!(baseline.resilience.is_none());
}

/// Satellite property: a crash+recover plan (with a WAN partition in the
/// middle) produces byte-identical federation reports at 1, 2, and 4
/// workers vs the thread-free serial arm.
#[test]
fn fault_plans_are_byte_identical_across_federation_worker_counts() {
    let plan = "site0.crash@300ms:1; site0.recover@600ms:1; \
                site1.crash@400ms:0; site1.recover@700ms:0; \
                wan-down@500ms:0; wan-up@900ms:0";
    let reference = Federation::new(&fed_cfg(Some(plan))).run_serial();
    assert!(reference.jobs_forwarded() > 0, "the WAN must be exercised");
    let r = reference.resilience.expect("fault run reports resilience");
    assert_eq!(r.faults_injected, 2, "one crash per site");
    assert!(r.server_downtime_s > 0.0);
    assert!(r.wan_link_downtime_s > 0.0, "the partition really happened");
    for workers in [1usize, 2, 4] {
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
    let report = Federation::new(&fed_cfg(Some(plan))).run_serial();
    let r = report.resilience.expect("resilience reported");
    let mid_wan = report.wan.transfers - report.wan.delivered;
    assert_eq!(
        r.jobs_unfinished,
        report.jobs_submitted() - report.jobs_completed() + mid_wan,
        "federation ledger must reconcile"
    );
}
