//! Fair-share solver microbenchmarks: the add/remove/re-solve microcosts
//! of [`holdcsim_network::flow::FlowNet`] over a fat tree — a steady
//! churn of random-pair flows, plus an overloaded-fabric incast scenario
//! (many flows per bottleneck link, where a rate shift moves one cohort
//! cell instead of every member flow) — the isolated cost of what
//! `FlowNet` does once per admission and completion in flow mode.
//!
//! Run with `cargo bench --bench flow_solver` (add `-- --quick` for a
//! reduced grid); compiled in CI via `cargo bench --no-run`.

use holdcsim_bench::{bench, quick_mode};
use holdcsim_des::rng::SimRng;
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_network::flow::FlowNet;
use holdcsim_network::ids::FlowId;
use holdcsim_network::routing::Router;
use holdcsim_network::topologies::{fat_tree, LinkSpec};

/// One churn run: fill the fabric with `live` flows, then sustain
/// `steps` of add + complete-next at steady state. Returns the number of
/// solver invocations (adds + completion batches).
fn churn(k: usize, live: usize, steps: usize, seed: u64) -> u64 {
    let built = fat_tree(k, LinkSpec::gigabit());
    let topo = built.topology;
    let hosts = built.hosts;
    let mut router = Router::new();
    let mut net = FlowNet::new(&topo);
    let mut rng = SimRng::seed_from(seed);
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut admit = |net: &mut FlowNet, now: SimTime, rng: &mut SimRng, next_id: &mut u64| {
        let i = rng.below(hosts.len() as u64) as usize;
        let j = (i + 1 + rng.below(hosts.len() as u64 - 1) as usize) % hosts.len();
        let links = router.route(&topo, hosts[i], hosts[j], *next_id).unwrap();
        net.add_flow(
            now,
            FlowId(*next_id),
            hosts[i],
            hosts[j],
            &links.links,
            64 * 1024,
        );
        *next_id += 1;
    };
    for _ in 0..live {
        admit(&mut net, now, &mut rng, &mut next_id);
    }
    let mut ops = live as u64;
    for _ in 0..steps {
        now += SimDuration::from_micros(1 + rng.below(20));
        admit(&mut net, now, &mut rng, &mut next_id);
        if let Some(due) = net.next_due() {
            now = now.max(due);
            net.advance_due(due);
            net.drain_completed();
        }
        ops += 2;
    }
    ops
}

/// One overloaded-fabric run: `fan_in` concurrent senders per receiver
/// converge on each of `sinks` hot hosts (every hot downlink carries one
/// big bottleneck cohort), then sustain `steps` of add-into-the-incast +
/// complete-next. Every admission and completion shifts a whole
/// cohort's fair share, which the solver updates as one cell instead of
/// settling and retiming `fan_in` flows.
fn incast(k: usize, sinks: usize, fan_in: usize, steps: usize, seed: u64) -> u64 {
    let built = fat_tree(k, LinkSpec::gigabit());
    let topo = built.topology;
    let hosts = built.hosts;
    let mut router = Router::new();
    let mut net = FlowNet::new(&topo);
    let mut rng = SimRng::seed_from(seed);
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut admit = |net: &mut FlowNet, now: SimTime, rng: &mut SimRng, next_id: &mut u64| {
        let sink = (*next_id as usize) % sinks;
        let mut i = rng.below(hosts.len() as u64) as usize;
        if i == sink {
            i = (i + 1) % hosts.len();
        }
        let links = router
            .route(&topo, hosts[i], hosts[sink], *next_id)
            .unwrap();
        net.add_flow(
            now,
            FlowId(*next_id),
            hosts[i],
            hosts[sink],
            &links.links,
            256 * 1024,
        );
        *next_id += 1;
    };
    for _ in 0..sinks * fan_in {
        admit(&mut net, now, &mut rng, &mut next_id);
    }
    let mut ops = (sinks * fan_in) as u64;
    for _ in 0..steps {
        now += SimDuration::from_micros(1 + rng.below(20));
        admit(&mut net, now, &mut rng, &mut next_id);
        if let Some(due) = net.next_due() {
            now = now.max(due);
            net.advance_due(due);
            net.drain_completed();
        }
        ops += 2;
    }
    ops
}

fn main() {
    let quick = quick_mode();
    let samples = if quick { 3 } else { 10 };
    let steps = if quick { 500 } else { 5_000 };
    for &(k, live) in if quick {
        &[(4, 64)][..]
    } else {
        &[(4, 64), (8, 512), (8, 2048)][..]
    } {
        let label = format!("flow_solver/k{k}_live{live}");
        let ops = churn(k, live, steps, 42);
        bench(&label, samples, Some(ops), || churn(k, live, steps, 42));
    }
    // Overloaded fabric: few hot links, many flows per bottleneck.
    for &(k, sinks, fan_in) in if quick {
        &[(4, 2, 32)][..]
    } else {
        &[(4, 2, 64), (8, 4, 128)][..]
    } {
        let label = format!("flow_solver/incast_k{k}_s{sinks}_f{fan_in}");
        let ops = incast(k, sinks, fan_in, steps, 42);
        bench(&label, samples, Some(ops), || {
            incast(k, sinks, fan_in, steps, 42)
        });
    }
}
