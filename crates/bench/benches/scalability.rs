//! End-to-end scalability: events/second for full farm simulations at
//! increasing server counts (Table I's >20 K-server claim; the 20 480
//! point runs in the `table1_scalability` binary to keep `cargo bench`
//! fast; host-time claims are measured with `perfbench/` and
//! `cargo xtask ab`).
//!
//! Run with `cargo bench --bench scalability` (add `-- --quick` for a
//! reduced grid); compiled in CI via `cargo bench --no-run`.

use holdcsim::config::{PolicyKind, SimConfig};
use holdcsim::sim::Simulation;
use holdcsim_bench::{bench, quick_mode};
use holdcsim_des::time::SimDuration;
use holdcsim_workload::presets::WorkloadPreset;

fn main() {
    let quick = quick_mode();
    let samples = if quick { 3 } else { 10 };
    let sizes: &[usize] = if quick { &[100] } else { &[100, 1_000, 4_000] };
    for &servers in sizes {
        // Fix the simulated horizon; jobs scale with the farm.
        let cfg = SimConfig::server_farm(
            servers,
            4,
            0.3,
            WorkloadPreset::WebSearch.template(),
            SimDuration::from_millis(100),
        )
        .with_policy(PolicyKind::RoundRobin);
        // Measure throughput in processed events.
        let events = Simulation::new(cfg.clone()).run().events_processed;
        bench(
            &format!("scalability/farm_{servers}"),
            samples,
            Some(events),
            || Simulation::new(cfg.clone()).run().events_processed,
        );
    }
}
