//! Helpers shared by the integration tests that pin report bytes and
//! step whole simulations against the fair-share oracle.

use holdcsim::config::SimConfig;
use holdcsim::report::SimReport;
use holdcsim::sim::{finish_report, Datacenter, Simulation};
use holdcsim_des::time::SimTime;

/// 64-bit FNV-1a over the report bytes, hex.
pub fn fnv1a64(json: &str) -> String {
    let h = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Steps `cfg`'s simulation to its horizon one event at a time, running
/// `FlowNet::check_max_min` after every step that admits or retires a
/// flow, and asserts that the stepped run reproduces `Simulation::run`'s
/// report bytes. Returns the report and the number of checks run.
pub fn stepped_oracle_run(cfg: SimConfig) -> (SimReport, u64) {
    let plain = Simulation::new(cfg.clone()).run();
    let end = SimTime::ZERO + cfg.duration;
    let mut engine = Simulation::new(cfg).into_engine();
    let counts = |dc: &Datacenter| {
        dc.net()
            .map(|n| (n.flows.active_flows(), n.flows.total_admitted()))
    };
    let mut last = counts(engine.model());
    let mut checks = 0;
    while engine.peek_next_time().is_some_and(|t| t <= end) {
        engine.step();
        let now = counts(engine.model());
        if now != last {
            last = now;
            checks += 1;
            let net = engine.model().net().expect("flows run on a fabric");
            if let Err(e) = net.flows.check_max_min() {
                panic!("at {}: {e}", engine.now());
            }
        }
    }
    let events = engine.events_processed();
    let (dc, _) = engine.into_parts();
    let report = finish_report(dc, end, events, 0.0);
    assert_eq!(report.to_json(), plain.to_json(), "stepped vs run bytes");
    (report, checks)
}
