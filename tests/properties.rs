//! Property-style tests on the core data structures and invariants,
//! spanning crates. Cases are generated with the kernel's own
//! deterministic [`SimRng`] rather than an external property-testing
//! crate, so the workspace stays dependency-free and every failure is
//! reproducible from the fixed seed.

use holdcsim_des::queue::EventQueue;
use holdcsim_des::rng::SimRng;
use holdcsim_des::stats::{SampleSet, TimeWeighted};
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_network::flow::FlowNet;
use holdcsim_network::ids::{FlowId, LinkId};
use holdcsim_network::routing::Router;
use holdcsim_network::topologies::{fat_tree, star, LinkSpec};
use holdcsim_workload::dag::{JobDag, TaskSpec};

/// The lockstep shadow, shared with `holdcsim-network`'s flow tests.
mod lockstep {
    use holdcsim_des::time::{SimDuration, SimTime};
    use holdcsim_network::flow::{max_min_shares, FlowNet};
    use holdcsim_network::ids::{FlowId, LinkId};
    use holdcsim_network::topology::Topology;
    include!("common/lockstep.rs");
}
use lockstep::Lockstep;

const CASES: usize = 64;

/// The event calendar pops in nondecreasing time order and FIFO within a
/// timestamp, regardless of push order.
#[test]
fn queue_pops_sorted() {
    let mut rng = SimRng::seed_from(0xC0FFEE);
    for _ in 0..CASES {
        let n = 1 + rng.below(200) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_nanos(rng.below(1_000)), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt);
                if t == lt {
                    assert!(i > li, "FIFO violated within a timestamp");
                }
            }
            last = Some((t, i));
        }
    }
}

/// Time-weighted integral is invariant to splitting an interval with
/// redundant set() calls.
#[test]
fn timeweighted_split_invariance() {
    let mut rng = SimRng::seed_from(0x7133);
    for _ in 0..CASES {
        let v = rng.uniform_range(-100.0, 100.0);
        let t1 = 1 + rng.below(1_000);
        let t2 = 1 + rng.below(1_000);
        let end = SimTime::from_nanos(t1 + t2);
        let plain = TimeWeighted::new(SimTime::ZERO, v);
        let mut split = TimeWeighted::new(SimTime::ZERO, v);
        split.set(SimTime::from_nanos(t1), v);
        assert!((plain.integral(end) - split.integral(end)).abs() < 1e-9);
    }
}

/// Nearest-rank quantiles are actual observed samples and monotone in q.
#[test]
fn quantiles_are_samples_and_monotone() {
    let mut rng = SimRng::seed_from(0x9A27);
    for _ in 0..CASES {
        let n = 1 + rng.below(100) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.0, 1e3)).collect();
        let mut s = SampleSet::with_capacity(usize::MAX);
        for &x in &xs {
            s.record(x);
        }
        let qs = s.quantiles(&[0.1, 0.5, 0.9, 1.0]);
        let mut prev = f64::NEG_INFINITY;
        for q in qs.into_iter().flatten() {
            assert!(xs.contains(&q));
            assert!(q >= prev);
            prev = q;
        }
    }
}

/// Random layered DAGs from the builder are acyclic with consistent
/// adjacency, and the critical path never exceeds total work.
#[test]
fn dag_invariants() {
    let mut rng = SimRng::seed_from(0xDA6);
    for _ in 0..CASES {
        let layers_n = 1 + rng.below(4) as usize;
        let layer_sizes: Vec<u32> = (0..layers_n).map(|_| 1 + rng.below(3) as u32).collect();
        let service_ms = 1 + rng.below(49);
        let mut b = JobDag::builder();
        let mut idx = 0u32;
        let mut layers: Vec<Vec<u32>> = Vec::new();
        for &w in &layer_sizes {
            let mut layer = Vec::new();
            for _ in 0..w {
                b = b.task(TaskSpec::compute(SimDuration::from_millis(service_ms)));
                if let Some(prev) = layers.last() {
                    b = b.edge(prev[0], idx, 10);
                }
                layer.push(idx);
                idx += 1;
            }
            layers.push(layer);
        }
        let dag = b.build().expect("layered construction is acyclic");
        let total_work = (0..dag.len() as u32)
            .map(|i| dag.task(i).service)
            .fold(SimDuration::ZERO, |acc, s| acc + s);
        assert!(dag.critical_path() <= total_work);
        for &r in dag.roots() {
            assert!(dag.predecessors(r).is_empty());
        }
    }
}

/// Max-min fair allocation never oversubscribes a link, and the total
/// rate of flows through the star's hub is positive when flows exist.
#[test]
fn flow_rates_respect_capacity() {
    let mut rng = SimRng::seed_from(0xF10);
    for _ in 0..CASES {
        let built = star(6, LinkSpec::gigabit());
        let mut router = Router::new();
        let mut net = FlowNet::new(&built.topology);
        let mut id = 0u64;
        let pairs_n = 1 + rng.below(20) as usize;
        for _ in 0..pairs_n {
            let a = rng.below(6) as usize;
            let b = rng.below(6) as usize;
            if a == b {
                continue;
            }
            let (ha, hb) = (built.hosts[a], built.hosts[b]);
            let route = router
                .route(&built.topology, ha, hb, id)
                .expect("star connected");
            net.add_flow(SimTime::ZERO, FlowId(id), &route.links, 1_000);
            id += 1;
        }
        for l in 0..built.topology.links().len() {
            let u = net.link_utilization(LinkId(l as u32));
            assert!(u <= 1.0 + 1e-9, "link {l} oversubscribed: {u}");
        }
    }
}

/// One randomized flow-churn pass over a fat tree, in lockstep with the
/// max-min shadow: add random-pair flows, cancel some, and run
/// completions, reporting each live flow's rate after every op via
/// `observe`. Completions land in `ls.done`.
fn drive_flow_churn(ls: &mut Lockstep, trial: u64, mut observe: impl FnMut(u64, FlowId, f64)) {
    let built = fat_tree(4, LinkSpec::gigabit());
    let topo = built.topology;
    let hosts = built.hosts;
    let mut router = Router::new();
    let mut rng = SimRng::seed_from(0x11C7EA).substream(trial);
    let mut live: Vec<(u64, FlowId)> = Vec::new();
    let mut next_id = 0u64;
    let mut now = SimTime::ZERO;
    for step in 0..300u64 {
        now += SimDuration::from_micros(1 + rng.below(40));
        let before = ls.done.len();
        match rng.below(10) {
            0..=4 => {
                let i = rng.below(16) as usize;
                let j = (i + 1 + rng.below(15) as usize) % 16;
                let links = router.route(&topo, hosts[i], hosts[j], next_id).unwrap();
                let id = FlowId(next_id);
                next_id += 1;
                let key = ls.add_flow(now, id, &links.links, 1 + rng.below(4_000_000));
                live.push((key, id));
            }
            5..=7 if !live.is_empty() => {
                let i = rng.below(live.len() as u64) as usize;
                let (key, id) = live.swap_remove(i);
                ls.remove_flow(now, key, id);
            }
            _ => {
                if let Some(due) = ls.advance() {
                    now = now.max(due);
                }
            }
        }
        let done = &ls.done[before..];
        live.retain(|(_, id)| !done.iter().any(|(d, _)| d == id));
        for &(_, id) in &live {
            observe(
                step,
                id,
                ls.net.flow_rate_bps(id).expect("live flow is rated"),
            );
        }
    }
}

/// Satellite check: over arbitrary unbatched add/remove/complete
/// sequences on fat-tree topologies, the cohort solver passes the
/// max-min check after every operation (rates within 1e-9 relative or 4
/// 2⁻²⁰ bps quanta of the reference progressive fill — the fixed-point
/// max-min solution is non-unique at exact floor ties), and completes
/// flows in the order of the oracle-rated shadow, each within 1 ns.
#[test]
fn cohort_flow_solver_matches_reference_on_fat_trees() {
    for trial in 0..6u64 {
        let built = fat_tree(4, LinkSpec::gigabit());
        let mut ls = Lockstep::new(&built.topology);
        drive_flow_churn(&mut ls, trial, |_, _, _| {});
        assert!(!ls.done.is_empty(), "trial {trial}: flows completed");
    }
}

/// One randomized batched-churn pass in lockstep with the max-min
/// shadow: admissions arrive in bursts via `add_flow_batched` + `flush`
/// (half biased into an incast on host 0), interleaved with
/// cancellations and completion advances. Completions land in `ls.done`.
fn drive_batched_churn(ls: &mut Lockstep, trial: u64) {
    let built = fat_tree(4, LinkSpec::gigabit());
    let topo = built.topology;
    let hosts = built.hosts;
    let mut router = Router::new();
    let mut rng = SimRng::seed_from(0xBA7C4).substream(trial);
    let mut live: Vec<(u64, FlowId)> = Vec::new();
    let mut next_id = 0u64;
    let mut now = SimTime::ZERO;
    for _ in 0..200u64 {
        now += SimDuration::from_micros(1 + rng.below(40));
        let before = ls.done.len();
        match rng.below(10) {
            0..=4 => {
                // An admission wave: one flush-time solve covers it all.
                let burst = 1 + rng.below(6);
                for _ in 0..burst {
                    let i = 1 + rng.below(15) as usize;
                    let j = if rng.below(2) == 0 {
                        0 // incast: converge on host 0's downlink
                    } else {
                        (i + 1 + rng.below(14) as usize) % 16
                    };
                    if i == j {
                        continue;
                    }
                    let links = router.route(&topo, hosts[i], hosts[j], next_id).unwrap();
                    let id = FlowId(next_id);
                    next_id += 1;
                    let key = ls.add_flow_batched(now, id, &links.links, 1 + rng.below(2_000_000));
                    live.push((key, id));
                }
                ls.flush(now);
            }
            5..=6 if !live.is_empty() => {
                let i = rng.below(live.len() as u64) as usize;
                let (key, id) = live.swap_remove(i);
                ls.remove_flow(now, key, id);
            }
            _ => {
                if let Some(due) = ls.advance() {
                    now = now.max(due);
                }
            }
        }
        let done = &ls.done[before..];
        live.retain(|(_, id)| !done.iter().any(|(d, _)| d == id));
    }
}

/// Tentpole equivalence property: arbitrary batched-admission /
/// cancellation / completion sequences keep the solver on the max-min
/// oracle after every flush, cancellation and completion (rates to
/// fixed-point quanta), and complete flows in the order of the
/// oracle-rated shadow, each within the 1 ns ceil-guard the due
/// computation carries.
#[test]
fn flow_solver_arms_agree_on_batched_incast_churn() {
    for trial in 0..4u64 {
        let built = fat_tree(4, LinkSpec::gigabit());
        let mut ls = Lockstep::new(&built.topology);
        drive_batched_churn(&mut ls, trial);
        assert!(!ls.done.is_empty(), "trial {trial}: flows completed");
    }
}

/// Satellite check: flow completions are bitwise deterministic — two
/// runs of the same fixed-seed churn produce identical completion
/// sequences, rates, and instants.
#[test]
fn flow_completions_bitwise_deterministic_under_default_solver() {
    let run = |trial: u64| {
        let built = fat_tree(4, LinkSpec::gigabit());
        let mut ls = Lockstep::new(&built.topology);
        let mut rates: Vec<u64> = Vec::new();
        drive_flow_churn(&mut ls, trial, |_, _, rate| rates.push(rate.to_bits()));
        (rates, ls.done)
    };
    for trial in 0..3u64 {
        assert_eq!(run(trial), run(trial), "trial {trial}");
    }
}

/// ECMP routes in a fat tree are always shortest and loop-free.
#[test]
#[allow(clippy::disallowed_types)] // loop-detection set; order unobserved
fn fat_tree_routes_shortest_loop_free() {
    let mut rng = SimRng::seed_from(0xFA7);
    let built = fat_tree(4, LinkSpec::gigabit());
    let mut router = Router::new();
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let a = rng.below(16) as usize;
        let b = rng.below(16) as usize;
        let (ha, hb) = (built.hosts[a], built.hosts[b]);
        let route = router
            .route(&built.topology, ha, hb, seed)
            .expect("connected");
        let dist = router.distance(&built.topology, ha, hb).expect("connected");
        assert_eq!(route.hops() as u32, dist);
        let mut seen = std::collections::HashSet::new();
        for n in &route.nodes {
            assert!(seen.insert(*n), "loop at {n}");
        }
    }
}
