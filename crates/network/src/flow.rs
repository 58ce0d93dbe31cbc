//! Flow-level communication: max-min fair bandwidth sharing (§III-B:
//! "Multiple flows ... can simultaneously travel along a link if it has not
//! yet been saturated").
//!
//! [`FlowNet`] tracks active flows and assigns each a max-min fair rate
//! over its route, recomputed on every flow arrival and departure by the
//! cohort engine (the `flow_cohort` module): every bottleneck cohort (the
//! flows fixed at one link's fair share) is one rate cell with an exact
//! virtual-time clock, and a change re-solves only the cells whose
//! bottleneck it can move, so a rate shift costs O(affected links + moved
//! members), not O(flows).
//!
//! Fair shares are computed in exact fixed-point integer arithmetic
//! (2⁻²⁰ bits/second units, floor division), so capacity reservations
//! are order-independent — the exactness the engine's budget sums rely
//! on. [`max_min_shares`] is the oracle: the canonical progressive fill
//! over the whole flow set, bottlenecks taken in `(fair share, link
//! index)` order. [`FlowNet::check_max_min`] holds the engine to it: no
//! link is ever allocated past its capacity, and every flow's share is
//! within 4 quanta or 10⁻⁹ relative of the oracle's. The shares are not
//! bitwise the oracle's: at floor-division ties the quantized max-min
//! solution is not unique, and the engine's sub-problem solves can land
//! tens of quanta away (77 at most, measured over 3·10⁹ flow-rate
//! readings on a 128-server fat tree; ~10⁻¹³ relative at gigabit rates).
//! That is far below the 1 ns event resolution: stepped in lockstep with
//! a per-flow solve of the canonical fill, the engine kept the same live
//! flow set at every probed step.
//!
//! Completion scheduling is *delta-driven*: the engine keeps one entry
//! per rate cell in a min-heap of projected completions, and a re-solve
//! updates only the entries of cells whose rate actually changed; flows
//! with unchanged rates are never settled and keep their entry. The
//! driving simulation keeps a *single* calendar event armed at
//! [`FlowNet::next_due`] and calls [`FlowNet::advance_due`] when it fires
//! — the event calendar sees roughly one event per completion instead of
//! a cancel/reinsert per flow per rate change (which is quadratic when a
//! saturated fabric re-shares rates on every admission). Admissions
//! landing in the same event are batched into one re-solve
//! ([`FlowNet::add_flow_batched`] + [`FlowNet::flush`]) — exact under
//! max-min, whose rates depend only on the final flow set at an instant.
//!
//! Flow states live in a [`SlotWindow`](holdcsim_des::slot_window::SlotWindow)
//! (no hash probe per lookup), and all solver working sets are persistent
//! scratch — steady-state admission and completion perform no allocation
//! (flow states, including their route vectors, are recycled through a
//! pool).

use holdcsim_des::time::SimDuration;

use crate::ids::{FlowId, LinkId};
use crate::topology::Topology;

/// Fair-share fixed-point scale: rates and link budgets are integers in
/// units of 2⁻²⁰ bits/second. Integer arithmetic keeps capacity
/// reservations order-independent (the engine's budget sums must be
/// exact), and the sub-micro-bps quantum keeps every share within
/// ~10⁻¹³ relative of the canonical fill's (see the module docs) — far
/// below the 1 ns event resolution.
const RATE_FRAC_BITS: u32 = 20;

/// One bit/second in rate units.
pub(crate) const RATE_UNIT_PER_BPS: u64 = 1 << RATE_FRAC_BITS;

/// One byte of payload in *progress units*: the exact-integer scale on
/// which flow progress is tracked. A flow at `r` rate units drains
/// exactly `r` progress units per nanosecond (rate units × ns), so a
/// payload of `bytes` spans `bytes · 8 · 2²⁰ · 10⁹` progress units.
/// Settling is an exact integer multiply-subtract, completion instants
/// are exact ceiling divisions, and — because integer sums are
/// associative — *any* schedule of partial settles lands on the same
/// remainder bitwise. That associativity is what lets the engine account
/// progress on a shared per-cell virtual clock: a flow's completion
/// instant does not depend on when its cell was settled.
pub(crate) const PROGRESS_PER_BYTE: u128 = 8 * RATE_UNIT_PER_BPS as u128 * 1_000_000_000;

/// `bytes` of payload in progress units.
#[inline]
pub(crate) fn progress_units(bytes: u64) -> u128 {
    bytes as u128 * PROGRESS_PER_BYTE
}

/// Exact progress drained over `dt_ns` at `rate_units`.
#[inline]
pub(crate) fn drained_units(rate_units: u64, dt_ns: u64) -> u128 {
    rate_units as u128 * dt_ns as u128
}

/// The exact time to drain `remaining` progress units at `rate_units`:
/// ceil(remaining / rate), saturating at the far end of sim time for
/// degenerate rates (a sub-bps trickle on a huge payload never fires
/// within any horizon).
#[inline]
pub(crate) fn due_after(remaining: u128, rate_units: u64) -> SimDuration {
    debug_assert!(rate_units > 0);
    let ns = remaining.div_ceil(rate_units as u128);
    SimDuration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
}

/// Route links stored inline in a flow state (covers every fat-tree
/// route; longer routes spill to the heap).
const INLINE_LINKS: usize = 8;

/// A flow's route links, inline up to [`INLINE_LINKS`] with heap spill —
/// the solver iterates a flow's links several times per re-solve, and
/// keeping them in the flow's own cache lines avoids a pointer chase per
/// touch.
#[derive(Debug, Clone)]
pub(crate) struct RouteLinks {
    inline: [LinkId; INLINE_LINKS],
    len: u8,
    spill: Vec<LinkId>,
}

impl Default for RouteLinks {
    fn default() -> Self {
        RouteLinks {
            inline: [LinkId(0); INLINE_LINKS],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl RouteLinks {
    pub(crate) fn set(&mut self, links: &[LinkId]) {
        self.spill.clear();
        if links.len() <= INLINE_LINKS {
            self.inline[..links.len()].copy_from_slice(links);
            self.len = links.len() as u8;
        } else {
            self.spill.extend_from_slice(links);
            self.len = 0;
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[LinkId] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

/// A completed flow, as reported by [`FlowNet::drain_completed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedFlow {
    /// The flow that finished.
    pub id: FlowId,
}

/// The fair-share solver of a [`FlowNet`]: there is one, the cohort
/// engine. Kept only because `perfbench/` still names it; ROADMAP item
/// 1's benchmark change deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowSolverKind {
    /// The cohort engine, [`FlowNet`].
    #[default]
    Cohort,
}

/// `topo`'s link capacities in rate units (2⁻²⁰ bps).
pub(crate) fn link_capacities(topo: &Topology) -> Vec<u64> {
    topo.links()
        .iter()
        .map(|l| {
            l.rate_bps
                .checked_mul(RATE_UNIT_PER_BPS)
                .expect("link rate fits the fixed-point range (< ~17 Tb/s)")
        })
        .collect()
}

/// The canonical max-min fair shares, in rate units (2⁻²⁰ bps), of flows
/// taking `routes` over links of `capacity_units` (rate units, indexed by
/// [`LinkId`]): progressive filling over the whole flow set. Each round
/// takes the bottleneck — the loaded link with the least `(fair share,
/// link index)`, its fair share the floor of residual capacity over
/// unfixed flows — and fixes every unfixed flow crossing it at that
/// share. A flow with an empty route gets 0.
///
/// The oracle of [`FlowNet::check_max_min`]: O(used links × rounds) per
/// call, for tests and audits, not the event hot path.
///
/// # Panics
///
/// Panics if a route names a link past the end of `capacity_units`.
pub fn max_min_shares(capacity_units: &[u64], routes: &[&[LinkId]]) -> Vec<u64> {
    let mut cap = capacity_units.to_vec();
    let mut cnt = vec![0u64; cap.len()];
    let mut crossing: Vec<Vec<usize>> = vec![Vec::new(); cap.len()];
    for (i, route) in routes.iter().enumerate() {
        for l in route.iter() {
            cnt[l.0 as usize] += 1;
            crossing[l.0 as usize].push(i);
        }
    }
    let used: Vec<usize> = (0..cap.len()).filter(|&l| cnt[l] > 0).collect();
    let mut shares = vec![0; routes.len()];
    let mut fixed = vec![false; routes.len()];
    while let Some((share, bl)) = used
        .iter()
        .filter(|&&l| cnt[l] > 0)
        .map(|&l| (cap[l] / cnt[l], l))
        .min()
    {
        for &i in &crossing[bl] {
            if fixed[i] {
                continue;
            }
            fixed[i] = true;
            shares[i] = share;
            for l in routes[i].iter() {
                cap[l.0 as usize] -= share;
                cnt[l.0 as usize] -= 1;
            }
        }
    }
    shares
}

/// Max-min fair flow-level network model with delta-driven completion
/// retiming: the cohort engine (see the module docs).
///
/// # Examples
///
/// ```
/// use holdcsim_network::flow::FlowNet;
/// use holdcsim_network::ids::FlowId;
/// use holdcsim_network::routing::Router;
/// use holdcsim_network::topologies::{star, LinkSpec};
/// use holdcsim_des::time::SimTime;
///
/// let built = star(4, LinkSpec::gigabit());
/// let mut router = Router::new();
/// let mut net = FlowNet::new(&built.topology);
/// let route = router
///     .route(&built.topology, built.hosts[0], built.hosts[1], 0)
///     .unwrap();
/// let t0 = SimTime::ZERO;
/// net.add_flow(t0, FlowId(1), &route.links, 125_000_000);
/// // Alone on 1 GbE: 1 Gbit = 125 MB takes exactly 1 s.
/// let due = net.next_due().unwrap();
/// assert!((due.as_secs_f64() - 1.0).abs() < 1e-6);
/// net.advance_due(due);
/// assert_eq!(net.drain_completed().count(), 1);
/// assert_eq!(net.check_max_min(), Ok(()));
/// ```
pub use crate::flow_cohort::FlowNet;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::routing::Router;
    use crate::topologies::{star, LinkSpec};
    use crate::topology::Topology;
    use holdcsim_des::time::SimTime;

    const GBE: u64 = 1_000_000_000;

    /// The lockstep shadow, shared with the workspace's property tests.
    #[allow(dead_code)] // the property tests also drive batched admissions
    mod lockstep {
        use crate::flow::{max_min_shares, FlowNet};
        use crate::ids::{FlowId, LinkId};
        use crate::topology::Topology;
        use holdcsim_des::time::{SimDuration, SimTime};
        include!("../../../tests/common/lockstep.rs");
    }
    use lockstep::Lockstep;

    /// Two hosts joined by a single link through a switch.
    fn two_host_net() -> (Topology, Vec<NodeId>, Router) {
        let built = star(2, LinkSpec::gigabit());
        (built.topology, built.hosts, Router::new())
    }

    fn route_links(
        topo: &Topology,
        router: &mut Router,
        a: NodeId,
        b: NodeId,
        seed: u64,
    ) -> Vec<LinkId> {
        router.route(topo, a, b, seed).unwrap().links
    }

    /// Test driver: advances to and fires the earliest pending completion,
    /// returning the instant it fired at.
    fn fire_next(net: &mut FlowNet) -> Option<SimTime> {
        let due = net.next_due()?;
        net.advance_due(due);
        Some(due)
    }

    #[test]
    fn single_flow_gets_full_rate() {
        let (topo, hosts, mut router) = two_host_net();
        let mut net = FlowNet::new(&topo);
        let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
        let key = net.add_flow(SimTime::ZERO, FlowId(1), &links, 125_000_000);
        assert_eq!(net.flow_rate_bps(FlowId(1)), Some(1e9));
        let t = net.completion_of(key).unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "finish {t}");
    }

    #[test]
    fn two_flows_share_the_bottleneck_evenly() {
        let (topo, hosts, mut router) = two_host_net();
        let mut net = FlowNet::new(&topo);
        let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
        for id in [1, 2] {
            net.add_flow(SimTime::ZERO, FlowId(id), &links, 125_000_000);
        }
        assert_eq!(net.flow_rate_bps(FlowId(1)), Some(5e8));
        assert_eq!(net.flow_rate_bps(FlowId(2)), Some(5e8));
        assert!((net.link_utilization(links[0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn departure_releases_bandwidth_and_retimes_survivor() {
        let (topo, hosts, mut router) = two_host_net();
        let mut net = FlowNet::new(&topo);
        let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
        // Flow 1: 125 MB, flow 2: 250 MB, admitted together.
        net.add_flow(SimTime::ZERO, FlowId(1), &links, 125_000_000);
        net.add_flow(SimTime::ZERO, FlowId(2), &links, 250_000_000);
        // At 0.5 Gb/s each, flow 1 finishes at t=2 s.
        let t1 = fire_next(&mut net).unwrap();
        assert!((t1.as_secs_f64() - 2.0).abs() < 1e-6, "t1 {t1}");
        let done = net.drain_completed().collect::<Vec<_>>();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, FlowId(1));
        // Flow 2 now gets the full link: 1 Gb of its 2 Gb remain.
        let rate = net.flow_rate_bps(FlowId(2)).unwrap();
        assert!((rate - 1e9).abs() < 1.0, "rate {rate}");
        let t2 = fire_next(&mut net).unwrap();
        assert!((t2.as_secs_f64() - 3.0).abs() < 1e-6, "t2 {t2}");
        assert_eq!(net.drain_completed().collect::<Vec<_>>()[0].id, FlowId(2));
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn max_min_gives_unbottlenecked_flow_the_slack() {
        // Star with 3 hosts: flows A->C and B->C share C's link; flow A->B
        // only contends with A's portion.
        let built = star(3, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut net = FlowNet::new(&topo);
        let ac = route_links(&topo, &mut router, h[0], h[2], 0);
        let bc = route_links(&topo, &mut router, h[1], h[2], 0);
        let ab = route_links(&topo, &mut router, h[0], h[1], 0);
        net.add_flow(SimTime::ZERO, FlowId(1), &ac, 1_000_000);
        net.add_flow(SimTime::ZERO, FlowId(2), &bc, 1_000_000);
        net.add_flow(SimTime::ZERO, FlowId(3), &ab, 1_000_000);
        // C's downlink is the bottleneck: flows 1 and 2 get 0.5 Gb/s,
        // and max-min gives flow 3 min(0.5, 0.5) = 0.5 Gb/s of slack.
        assert!((net.flow_rate_bps(FlowId(1)).unwrap() - 5e8).abs() < 1.0);
        assert!((net.flow_rate_bps(FlowId(2)).unwrap() - 5e8).abs() < 1.0);
        assert!((net.flow_rate_bps(FlowId(3)).unwrap() - 5e8).abs() < 1.0);
    }

    #[test]
    fn unchanged_rates_are_not_retimed() {
        // Two disjoint host pairs on a star share no links, so admitting
        // the second flow must leave the first's generation (and its
        // pending completion entry) untouched.
        let built = star(4, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut net = FlowNet::new(&topo);
        let ab = route_links(&topo, &mut router, h[0], h[1], 0);
        let cd = route_links(&topo, &mut router, h[2], h[3], 0);
        let k1 = net.add_flow(SimTime::ZERO, FlowId(1), &ab, 1_000_000);
        let before = net.completion_of(k1).unwrap();
        net.add_flow(SimTime::from_millis(1), FlowId(2), &cd, 1_000_000);
        assert_eq!(
            net.completion_of(k1).unwrap(),
            before,
            "disjoint admission must not settle or retime flow 1"
        );
        // Sharing the link *does* retime it (rate halves).
        net.add_flow(SimTime::from_millis(2), FlowId(3), &ab, 1_000_000);
        let after = net.completion_of(k1).unwrap();
        assert!(after > before, "halved rate pushes completion out");
    }

    #[test]
    fn superseded_projections_are_retimed_in_place() {
        let (topo, hosts, mut router) = two_host_net();
        let mut net = FlowNet::new(&topo);
        let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
        net.add_flow(SimTime::ZERO, FlowId(1), &links, 125_000_000);
        let solo = net.next_due().unwrap();
        // A second flow on the same link halves flow 1's rate: the
        // old 1-second projection is superseded by the 2-second one.
        net.add_flow(SimTime::ZERO, FlowId(2), &links, 125_000_000);
        let shared = net.next_due().unwrap();
        assert!(shared > solo, "the due entry must move with the rate");
        // Advancing to the superseded (earlier) instant completes
        // nothing.
        net.advance_due(solo);
        assert!(net.drain_completed().collect::<Vec<_>>().is_empty());
        assert_eq!(net.active_flows(), 2);
    }

    #[test]
    fn remove_flow_releases_bandwidth_without_completion() {
        let (topo, hosts, mut router) = two_host_net();
        let mut net = FlowNet::new(&topo);
        let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
        let k1 = net.add_flow(SimTime::ZERO, FlowId(1), &links, 1_000);
        net.add_flow(SimTime::ZERO, FlowId(2), &links, 1_000);
        assert!(net.remove_flow(SimTime::ZERO, k1));
        assert!(!net.remove_flow(SimTime::ZERO, k1), "already gone");
        assert!(net.drain_completed().collect::<Vec<_>>().is_empty());
        assert_eq!(net.flow_rate_bps(FlowId(2)), Some(1e9));
    }

    #[test]
    fn simultaneous_completions_cascade() {
        // Two identical flows finish at the same instant; completing the
        // first must sweep the second (settled to zero remaining by the
        // re-solve) into the same completion batch.
        let (topo, hosts, mut router) = two_host_net();
        let mut net = FlowNet::new(&topo);
        let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
        for id in [1, 2] {
            net.add_flow(SimTime::ZERO, FlowId(id), &links, 125_000_000);
        }
        fire_next(&mut net).unwrap();
        let done = net.drain_completed().collect::<Vec<_>>();
        assert_eq!(done.len(), 2, "both identical flows complete together");
        assert_eq!(done[0].id, FlowId(1));
        assert_eq!(done[1].id, FlowId(2));
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    #[should_panic(expected = "empty route")]
    fn empty_route_rejected() {
        let (topo, _, _) = two_host_net();
        let mut net = FlowNet::new(&topo);
        net.add_flow(SimTime::ZERO, FlowId(1), &[], 10);
    }

    #[test]
    #[should_panic(expected = "reused while active")]
    fn duplicate_flow_id_rejected() {
        let (topo, hosts, mut router) = two_host_net();
        let mut net = FlowNet::new(&topo);
        let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
        net.add_flow(SimTime::ZERO, FlowId(1), &links, 10);
        net.add_flow(SimTime::ZERO, FlowId(1), &links, 10);
    }

    #[test]
    fn many_flows_conserve_capacity() {
        let built = star(8, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut net = FlowNet::new(&topo);
        let mut id = 0;
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    let links = route_links(&topo, &mut router, h[i], h[j], id);
                    net.add_flow(SimTime::ZERO, FlowId(id), &links, 1_000_000);
                    id += 1;
                }
            }
        }
        // No link may be allocated beyond capacity.
        for l in 0..topo.links().len() {
            let u = net.link_utilization(LinkId(l as u32));
            assert!(u <= 1.0 + 1e-9, "link {l} over-allocated: {u}");
        }
        // Total goodput is positive and bounded by 8 links' capacity.
        let total: f64 = (0..id).filter_map(|k| net.flow_rate_bps(FlowId(k))).sum();
        assert!(total > 0.0 && total <= 8.0 * GBE as f64 + 1.0);
    }

    /// The decisive oracle check: drive the solver through a randomized
    /// add/remove/complete sequence on a fat tree and a star in lockstep
    /// with the max-min shadow, checking every flow's rate against the
    /// oracle and every completion against the shadow's after every
    /// operation. This is what licenses the cohort engine's
    /// bottleneck-aware pull set.
    #[test]
    fn random_add_remove_matches_reference() {
        use crate::topologies::fat_tree;
        use holdcsim_des::rng::SimRng;

        let root = SimRng::seed_from(0xFA1235);
        for trial in 0..12u64 {
            let mut rng = root.substream(trial);
            let built = if trial % 2 == 0 {
                fat_tree(4, LinkSpec::gigabit())
            } else {
                star(8, LinkSpec::gigabit())
            };
            let topo = built.topology;
            let hosts = built.hosts.clone();
            let mut router = Router::new();
            let mut ls = Lockstep::new(&topo);
            let mut live: Vec<(u64, FlowId)> = Vec::new(); // (key, id)
            let mut next_id = 0u64;
            let mut now = SimTime::ZERO;
            for _ in 0..400u64 {
                now += SimDuration::from_micros(1 + rng.below(50));
                let op = rng.below(10);
                let before = ls.done.len();
                if live.is_empty() || op < 5 {
                    // Admit a random-pair flow.
                    let i = rng.below(hosts.len() as u64) as usize;
                    let j = (i + 1 + rng.below(hosts.len() as u64 - 1) as usize) % hosts.len();
                    let links = route_links(&topo, &mut router, hosts[i], hosts[j], next_id);
                    let bytes = 1_000 + rng.below(5_000_000);
                    let id = FlowId(next_id);
                    next_id += 1;
                    let key = ls.add_flow(now, id, &links, bytes);
                    live.push((key, id));
                } else if op < 8 {
                    // Cancel a random live flow.
                    let i = rng.below(live.len() as u64) as usize;
                    let (key, id) = live.swap_remove(i);
                    ls.remove_flow(now, key, id);
                } else if let Some(due) = ls.advance() {
                    // Run to the next completion, if any.
                    now = now.max(due);
                }
                // Any op can complete flows (a rate change may settle a
                // flow to zero remaining).
                let done = &ls.done[before..];
                live.retain(|(_, id)| !done.iter().any(|&(d, _)| d == *id));
            }
            assert!(!ls.done.is_empty(), "trial {trial}: flows completed");
        }
    }

    #[test]
    fn solver_arms_assign_bitwise_identical_rates() {
        // All-pairs admissions one by one on a 6-host star: every
        // flow's committed share must equal the canonical fill's bitwise
        // (no floor-division tie splits this input).
        let built = star(6, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut net = FlowNet::new(&topo);
        let mut routes = Vec::new();
        let mut id = 0u64;
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let links = route_links(&topo, &mut router, h[i], h[j], id);
                net.add_flow(SimTime::ZERO, FlowId(id), &links, 3_000_000);
                routes.push(links);
                id += 1;
            }
        }
        let routes: Vec<&[LinkId]> = routes.iter().map(Vec::as_slice).collect();
        let oracle = max_min_shares(&link_capacities(&topo), &routes);
        let dump = net.dump();
        assert_eq!(dump.len(), oracle.len());
        for ((flow, share, _), want) in dump.into_iter().zip(oracle) {
            assert_eq!(share, want, "flow {flow}");
        }
    }

    #[test]
    fn max_min_shares_fills_bottlenecks_in_canonical_order() {
        // Flows 0 and 1 share link 0 (1001 units); flow 1 also crosses
        // link 1 (1000 units) with flow 2, which alone crosses link 2.
        let caps = [1_001, 1_000, 1_000];
        let r = |ls: &[u32]| ls.iter().map(|&l| LinkId(l)).collect::<Vec<_>>();
        let routes = [r(&[0]), r(&[0, 1]), r(&[1, 2]), r(&[])];
        let routes: Vec<&[LinkId]> = routes.iter().map(Vec::as_slice).collect();
        // Links 0 and 1 tie at a floor share of 500: link 0 goes first
        // and fixes flows 0 and 1, leaving flow 2 the rest of link 1 (link
        // 1 first would give flow 0 501). The route-less flow gets 0.
        assert_eq!(max_min_shares(&caps, &routes), [500, 500, 500, 0]);
        let routes = [r(&[0]), r(&[0]), r(&[0])];
        let routes: Vec<&[LinkId]> = routes.iter().map(Vec::as_slice).collect();
        // Floor shares: 3 × 333 = 999 ≤ 1000.
        assert_eq!(max_min_shares(&caps, &routes), [333, 333, 333]);
    }
}
