//! Design-choice ablations: flow vs packet communication granularity, and
//! unified vs per-core local queues. Each pair runs one workload under
//! both choices, so the gap between its two lines is the cost of the
//! choice.
//!
//! Run with `cargo bench --bench ablations` (add `-- --quick` for a
//! reduced sample count); compiled in CI via `cargo bench --no-run`.

use holdcsim::config::{ArrivalConfig, CommModel, NetworkConfig, SimConfig};
use holdcsim::sim::Simulation;
use holdcsim_bench::{bench, quick_mode};
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_server::server::LocalQueueMode;
use holdcsim_workload::presets::WorkloadPreset;
use holdcsim_workload::service::ServiceDist;
use holdcsim_workload::templates::JobTemplate;

/// Fat-tree DAG workload once with flows, once with packets. The flow
/// model should be dramatically cheaper in events for the same traffic.
fn comm_granularity(samples: u32) {
    let template = JobTemplate::two_tier(
        ServiceDist::Exponential {
            mean: SimDuration::from_millis(5),
        },
        ServiceDist::Exponential {
            mean: SimDuration::from_millis(10),
        },
        300_000, // 300 kB per edge: 200 packets
    );
    let base = |comm: CommModel| {
        let mut cfg =
            SimConfig::server_farm(16, 4, 0.2, template.clone(), SimDuration::from_secs(2));
        let mut rng = holdcsim_des::rng::SimRng::seed_from(5);
        let mut t = SimTime::ZERO;
        let times: Vec<SimTime> = (0..400)
            .map(|_| {
                t += SimDuration::from_secs_f64(rng.exp(400.0));
                t
            })
            .collect();
        cfg.arrivals = ArrivalConfig::Trace(times);
        let mut net = NetworkConfig::fat_tree(4);
        net.comm = comm;
        cfg.network = Some(net);
        cfg
    };
    let flow_cfg = base(CommModel::Flow);
    bench("comm_granularity/flow", samples, None, || {
        Simulation::new(flow_cfg.clone()).run().events_processed
    });
    let packet_cfg = base(CommModel::Packet {
        mtu: 1_500,
        buffer_bytes: 1 << 20,
    });
    bench("comm_granularity/packet", samples, None, || {
        Simulation::new(packet_cfg.clone()).run().events_processed
    });
}

/// Unified vs per-core local queues ([37]'s tail-latency question); the
/// bench reports runtime, the printed p99 shows the latency effect.
fn local_queue(samples: u32) {
    let base = |mode: LocalQueueMode| {
        let mut cfg = SimConfig::server_farm(
            8,
            4,
            0.7,
            WorkloadPreset::WebSearch.template(),
            SimDuration::from_secs(3),
        );
        cfg.queue_mode = mode;
        cfg
    };
    // Print the latency comparison once, outside measurement.
    let uni = Simulation::new(base(LocalQueueMode::Unified)).run();
    let per = Simulation::new(base(LocalQueueMode::PerCore)).run();
    eprintln!(
        "# local-queue ablation @ rho=0.7: unified p99 {:.2} ms, per-core p99 {:.2} ms",
        uni.latency.p99 * 1e3,
        per.latency.p99 * 1e3
    );
    let uni_cfg = base(LocalQueueMode::Unified);
    bench("local_queue/unified", samples, None, || {
        Simulation::new(uni_cfg.clone()).run().jobs_completed
    });
    let per_cfg = base(LocalQueueMode::PerCore);
    bench("local_queue/per_core", samples, None, || {
        Simulation::new(per_cfg.clone()).run().jobs_completed
    });
}

fn main() {
    let samples = if quick_mode() { 3 } else { 10 };
    comm_granularity(samples);
    local_queue(samples);
}
