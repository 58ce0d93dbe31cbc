//! Global scheduling policies (§III-E): where the front end sends each task.

use holdcsim_des::rng::SimRng;
use holdcsim_server::server::{Server, ServerId};

/// A probe for the network cost of activating a server — "the amount of
/// additional switches to be woken up in order to allow communications to
/// that server" (§IV-D). Implemented by the simulation driver over its
/// switch devices; policies that ignore the network use [`NoNetworkCost`].
pub trait NetworkCost {
    /// Relative cost of steering new work to `server` (0 = free).
    fn wake_cost(&self, server: ServerId) -> f64;
}

/// A [`NetworkCost`] that charges nothing (server-only studies).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoNetworkCost;

impl NetworkCost for NoNetworkCost {
    fn wake_cost(&self, _server: ServerId) -> f64 {
        0.0
    }
}

/// What placement policies see of the cluster: the servers plus any
/// driver-side load not yet visible inside them (tasks committed to a
/// server but still waiting on inbound network transfers), and
/// optionally the driver's free-core bitmap.
#[derive(Debug, Clone, Copy)]
pub struct ClusterView<'a> {
    servers: &'a [Server],
    committed: Option<&'a [u32]>,
    free: Option<&'a [u64]>,
}

impl<'a> ClusterView<'a> {
    /// A view with no extra committed load.
    pub fn new(servers: &'a [Server]) -> Self {
        ClusterView {
            servers,
            committed: None,
            free: None,
        }
    }

    /// A view adding `committed[i]` in-flight-transfer tasks to server `i`'s
    /// apparent load.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the server count.
    pub fn with_committed(servers: &'a [Server], committed: &'a [u32]) -> Self {
        assert_eq!(
            servers.len(),
            committed.len(),
            "one committed count per server"
        );
        ClusterView {
            servers,
            committed: Some(committed),
            free: None,
        }
    }

    /// Attaches a free-core bitmap: bit `i % 64` of `bits[i / 64]` must be
    /// set iff server `i` is placement-eligible and
    /// [`has_free_core`](Self::has_free_core) holds for it. Every
    /// `eligible` slice later passed with this view must lie inside that
    /// eligible set.
    ///
    /// # Panics
    ///
    /// Panics unless there is one bit per server, rounded up to whole
    /// words.
    pub fn with_free_bitmap(mut self, bits: &'a [u64]) -> Self {
        assert_eq!(
            bits.len(),
            self.servers.len().div_ceil(64),
            "one bit per server"
        );
        self.free = Some(bits);
        self
    }

    /// The server with this id.
    pub fn server(&self, id: ServerId) -> &'a Server {
        &self.servers[id.0 as usize]
    }

    /// Apparent pending load of `id`: queued + running + committed.
    pub fn pending(&self, id: ServerId) -> usize {
        self.server(id).pending() + self.committed.map_or(0, |c| c[id.0 as usize] as usize)
    }

    /// `true` if `id` can start a task immediately (awake, free core, and
    /// no committed backlog racing for that core).
    pub fn has_free_core(&self, id: ServerId) -> bool {
        let s = self.server(id);
        s.is_awake() && (self.pending(id) as u32) < s.core_count()
    }

    /// The lowest-id member of `eligible` (ascending by id) that
    /// [`has_free_core`](Self::has_free_core). With a free-core bitmap
    /// attached this walks set bits from `eligible[0]` and confirms each
    /// hit by binary search, so a filtered candidate list (server class,
    /// global-queue capacity) is honored; without one it probes every
    /// member in order.
    pub fn first_with_free_core(&self, eligible: &[ServerId]) -> Option<ServerId> {
        let Some(bits) = self.free else {
            return eligible.iter().copied().find(|&id| self.has_free_core(id));
        };
        let lo = eligible.first()?.0;
        let mut w = lo as usize / 64;
        let mut word = bits.get(w)? & (!0u64 << (lo % 64));
        // Set bits come out ascending, so each search can skip the
        // members below the previous miss.
        let mut rest = eligible;
        loop {
            while word != 0 {
                let id = ServerId(w as u32 * 64 + word.trailing_zeros());
                match rest.binary_search(&id) {
                    Ok(_) => return Some(id),
                    Err(pos) => rest = &rest[pos..],
                }
                if rest.is_empty() {
                    return None;
                }
                word &= word - 1;
            }
            w += 1;
            word = *bits.get(w)?;
        }
    }
}

/// A global task-placement policy.
///
/// `eligible` is the candidate set (the driver filters by server class and
/// pool membership), ascending by id with no repeats — the free-core
/// bitmap search of [`ClusterView::first_with_free_core`] relies on the
/// order. Policies must return a member of it, or `None` to leave the
/// task in the global queue.
/// (The `Send` supertrait lets a boxed policy — and with it a whole site
/// `Datacenter` — cross into a worker thread, which the federation's
/// conservative-window coordinator relies on to run sites concurrently.)
pub trait GlobalPolicy: std::fmt::Debug + Send {
    /// Chooses a server for one task.
    fn select(
        &mut self,
        view: &ClusterView<'_>,
        eligible: &[ServerId],
        net: &dyn NetworkCost,
    ) -> Option<ServerId>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Round-robin over the eligible set.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin policy starting at the first server.
    pub fn new() -> Self {
        Self::default()
    }
}

impl GlobalPolicy for RoundRobin {
    fn select(
        &mut self,
        _view: &ClusterView<'_>,
        eligible: &[ServerId],
        _net: &dyn NetworkCost,
    ) -> Option<ServerId> {
        if eligible.is_empty() {
            return None;
        }
        let pick = eligible[self.next % eligible.len()];
        self.next = (self.next + 1) % eligible.len();
        Some(pick)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Least-loaded (the paper's load-balancing policy): minimum pending tasks,
/// ties broken by lower id.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// Creates the policy.
    pub fn new() -> Self {
        LeastLoaded
    }
}

impl GlobalPolicy for LeastLoaded {
    fn select(
        &mut self,
        view: &ClusterView<'_>,
        eligible: &[ServerId],
        _net: &dyn NetworkCost,
    ) -> Option<ServerId> {
        eligible
            .iter()
            .copied()
            .min_by_key(|&id| (view.pending(id), id))
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Consolidating placement: fill the lowest-indexed server that can take
/// the task immediately; only spill to sleeping/busy servers when every
/// awake server is saturated. This is the dispatcher that lets delay-timer
/// policies actually find idle periods (§IV-A/B).
#[derive(Debug, Default)]
pub struct PackFirst;

impl PackFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        PackFirst
    }
}

impl GlobalPolicy for PackFirst {
    fn select(
        &mut self,
        view: &ClusterView<'_>,
        eligible: &[ServerId],
        _net: &dyn NetworkCost,
    ) -> Option<ServerId> {
        // First choice: lowest-id awake server with a free core.
        if let Some(id) = view.first_with_free_core(eligible) {
            return Some(id);
        }
        // Second: the least-loaded awake server (queue there).
        if let Some(id) = eligible
            .iter()
            .copied()
            .filter(|&id| view.server(id).is_awake())
            .min_by_key(|&id| (view.pending(id), id))
        {
            return Some(id);
        }
        // Last resort: wake the lowest-id sleeping server.
        eligible.first().copied()
    }

    fn name(&self) -> &'static str {
        "pack-first"
    }
}

/// Uniform random placement.
#[derive(Debug)]
pub struct Random {
    rng: SimRng,
}

impl Random {
    /// Creates the policy with its own RNG stream.
    pub fn new(seed: u64) -> Self {
        Random {
            rng: SimRng::seed_from(seed),
        }
    }
}

impl GlobalPolicy for Random {
    fn select(
        &mut self,
        _view: &ClusterView<'_>,
        eligible: &[ServerId],
        _net: &dyn NetworkCost,
    ) -> Option<ServerId> {
        self.rng.choose(eligible).copied()
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// The §IV-D Server-Network-Aware policy: prefer servers already reachable
/// without waking switches; when a server must be woken, pick the one with
/// the least network wake cost.
#[derive(Debug, Default)]
pub struct NetworkAware;

impl NetworkAware {
    /// Creates the policy.
    pub fn new() -> Self {
        NetworkAware
    }
}

impl GlobalPolicy for NetworkAware {
    fn select(
        &mut self,
        view: &ClusterView<'_>,
        eligible: &[ServerId],
        net: &dyn NetworkCost,
    ) -> Option<ServerId> {
        // Rank: (needs wake?, network wake cost, pending, id). The cost
        // term dominates: work stays on servers reachable without waking
        // network elements (and, via the driver's distance term, close to
        // its data sources), load-balancing only among equal-cost servers.
        // When every cheap server is saturated, the server with the least
        // network wake cost is activated (§IV-D's strategy).
        eligible.iter().copied().min_by(|&a, &b| {
            let ka = rank_key(view, a, net);
            let kb = rank_key(view, b, net);
            ka.partial_cmp(&kb).expect("costs are finite")
        })
    }

    fn name(&self) -> &'static str {
        "server-network-aware"
    }
}

fn rank_key(view: &ClusterView<'_>, id: ServerId, net: &dyn NetworkCost) -> (u8, f64, usize, u32) {
    let needs_wake = u8::from(!view.has_free_core(id));
    (needs_wake, net.wake_cost(id), view.pending(id), id.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim_des::time::{SimDuration, SimTime};
    use holdcsim_server::server::{EffectBuf, ServerConfig};
    use holdcsim_server::task::TaskHandle;
    use holdcsim_workload::ids::{JobId, TaskId};

    fn view(servers: &[Server]) -> ClusterView<'_> {
        ClusterView::new(servers)
    }

    fn cluster(n: u32) -> (Vec<Server>, Vec<ServerId>) {
        let servers: Vec<Server> = (0..n)
            .map(|i| Server::new(SimTime::ZERO, ServerId(i), ServerConfig::new(2)))
            .collect();
        let ids = (0..n).map(ServerId).collect();
        (servers, ids)
    }

    fn load(servers: &mut [Server], id: ServerId, tasks: u64) {
        let mut fx = EffectBuf::new();
        for k in 0..tasks {
            let t = TaskHandle::new(
                TaskId::new(JobId(id.0 as u64 * 100 + k), 0),
                SimDuration::from_millis(10),
            );
            servers[id.0 as usize].submit(SimTime::ZERO, t, &mut fx);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let (servers, ids) = cluster(3);
        let mut p = RoundRobin::new();
        let picks: Vec<u32> = (0..6)
            .map(|_| p.select(&view(&servers), &ids, &NoNetworkCost).unwrap().0)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_empty_eligible() {
        let (servers, _) = cluster(1);
        let mut p = RoundRobin::new();
        assert_eq!(p.select(&view(&servers), &[], &NoNetworkCost), None);
    }

    #[test]
    fn least_loaded_prefers_empty_server() {
        let (mut servers, ids) = cluster(3);
        load(&mut servers, ServerId(0), 3);
        load(&mut servers, ServerId(1), 1);
        let mut p = LeastLoaded::new();
        assert_eq!(
            p.select(&view(&servers), &ids, &NoNetworkCost),
            Some(ServerId(2))
        );
    }

    #[test]
    fn least_loaded_ties_break_low_id() {
        let (servers, ids) = cluster(3);
        let mut p = LeastLoaded::new();
        assert_eq!(
            p.select(&view(&servers), &ids, &NoNetworkCost),
            Some(ServerId(0))
        );
    }

    #[test]
    fn pack_first_consolidates() {
        let (mut servers, ids) = cluster(3);
        // Server 0 has one of two cores busy: still first choice.
        load(&mut servers, ServerId(0), 1);
        let mut p = PackFirst::new();
        assert_eq!(
            p.select(&view(&servers), &ids, &NoNetworkCost),
            Some(ServerId(0))
        );
        // Saturate 0: next free-core server is 1.
        load(&mut servers, ServerId(0), 1);
        assert_eq!(
            p.select(&view(&servers), &ids, &NoNetworkCost),
            Some(ServerId(1))
        );
    }

    #[test]
    fn pack_first_queues_at_least_loaded_when_saturated() {
        let (mut servers, ids) = cluster(2);
        load(&mut servers, ServerId(0), 4);
        load(&mut servers, ServerId(1), 3);
        let mut p = PackFirst::new();
        assert_eq!(
            p.select(&view(&servers), &ids, &NoNetworkCost),
            Some(ServerId(1))
        );
    }

    #[test]
    fn random_stays_in_eligible_set() {
        let (servers, _) = cluster(4);
        let ids = vec![ServerId(1), ServerId(3)];
        let mut p = Random::new(9);
        for _ in 0..32 {
            let pick = p.select(&view(&servers), &ids, &NoNetworkCost).unwrap();
            assert!(ids.contains(&pick));
        }
    }

    struct FixedCost(Vec<f64>);
    impl NetworkCost for FixedCost {
        fn wake_cost(&self, server: ServerId) -> f64 {
            self.0[server.0 as usize]
        }
    }

    #[test]
    fn network_aware_prefers_cheap_paths() {
        let (servers, ids) = cluster(3);
        // All free; server 2's path is cheapest.
        let net = FixedCost(vec![2.0, 1.0, 0.0]);
        let mut p = NetworkAware::new();
        assert_eq!(p.select(&view(&servers), &ids, &net), Some(ServerId(2)));
    }

    #[test]
    fn network_aware_prefers_awake_over_cheap_sleeping() {
        let (mut servers, ids) = cluster(2);
        // Saturate server 0 (2 cores): it no longer has a free core.
        load(&mut servers, ServerId(0), 2);
        // Server 1 is free but "expensive"; it still wins over waking... no:
        // server 1 is awake with a free core, so it wins despite cost.
        let net = FixedCost(vec![0.0, 10.0]);
        let mut p = NetworkAware::new();
        assert_eq!(p.select(&view(&servers), &ids, &net), Some(ServerId(1)));
    }

    #[test]
    fn policy_names() {
        assert_eq!(RoundRobin::new().name(), "round-robin");
        assert_eq!(LeastLoaded::new().name(), "least-loaded");
        assert_eq!(PackFirst::new().name(), "pack-first");
        assert_eq!(Random::new(0).name(), "random");
        assert_eq!(NetworkAware::new().name(), "server-network-aware");
    }

    /// Property: with a free-core bitmap attached, pack-first picks what
    /// the linear reference scan picks — over random clusters, loads,
    /// sleep states and committed counts, and over ascending candidate
    /// subsets, including ones that drop the lowest free server (the
    /// server-class filter) — through both saturation fallbacks.
    #[test]
    fn pack_first_bitmap_matches_linear_scan() {
        use holdcsim_server::policy::SleepPolicy;

        // Suspends to RAM the moment the server is idle.
        let deep_now = SleepPolicy::delay_timer(SimDuration::ZERO);
        let mut rng = SimRng::seed_from(0xB17_3A9);
        let (mut packed, mut queued, mut woken) = (0, 0, 0);
        for case in 0..300 {
            let n = 1 + rng.below(300) as u32;
            let cores = 1 + rng.below(8) as u32;
            // Per-case saturation: some clusters fill every core.
            let fill = rng.uniform_f64();
            let mut fx = EffectBuf::new();
            let mut servers = Vec::with_capacity(n as usize);
            for i in 0..n {
                let mut s = Server::new(SimTime::ZERO, ServerId(i), ServerConfig::new(cores));
                // Awake, suspending, or asleep (resuming once loaded).
                match rng.below(4) {
                    2 => s.set_policy(SimTime::ZERO, deep_now, &mut fx),
                    3 => {
                        s.set_policy(SimTime::ZERO, deep_now, &mut fx);
                        s.transition_done(SimTime::ZERO, &mut fx);
                    }
                    _ => {}
                }
                servers.push(s);
                let tasks = if rng.uniform_f64() < fill {
                    u64::from(cores) + rng.below(3)
                } else {
                    rng.below(u64::from(cores) + 1)
                };
                load(&mut servers, ServerId(i), tasks);
            }
            let committed: Vec<u32> = (0..n)
                .map(|_| {
                    if rng.uniform_f64() < 0.3 {
                        rng.below(3) as u32
                    } else {
                        0
                    }
                })
                .collect();
            let eligible: Vec<ServerId> = (0..n)
                .map(ServerId)
                .filter(|_| rng.uniform_f64() < 0.8)
                .collect();
            let plain = ClusterView::with_committed(&servers, &committed);
            let mut bits = vec![0u64; (n as usize).div_ceil(64)];
            for &id in eligible.iter().filter(|&&id| plain.has_free_core(id)) {
                bits[id.0 as usize / 64] |= 1 << (id.0 % 64);
            }
            let fast = plain.with_free_bitmap(&bits);

            let subset: Vec<ServerId> = eligible
                .iter()
                .copied()
                .filter(|_| rng.uniform_f64() < 0.5)
                .collect();
            let lowest_free = plain.first_with_free_core(&eligible);
            let without_lowest: Vec<ServerId> = eligible
                .iter()
                .copied()
                .filter(|&id| Some(id) != lowest_free)
                .collect();
            for cands in [&eligible, &subset, &without_lowest] {
                assert_eq!(
                    fast.first_with_free_core(cands),
                    plain.first_with_free_core(cands),
                    "case {case}: first free server"
                );
                let want = PackFirst::new().select(&plain, cands, &NoNetworkCost);
                let got = PackFirst::new().select(&fast, cands, &NoNetworkCost);
                assert_eq!(got, want, "case {case}: pack-first pick");
                match want {
                    Some(id) if plain.has_free_core(id) => packed += 1,
                    Some(_) if cands.iter().any(|&id| plain.server(id).is_awake()) => queued += 1,
                    Some(_) => woken += 1,
                    None => assert!(cands.is_empty()),
                }
            }
        }
        assert!(
            packed > 0 && queued > 0 && woken > 0,
            "every branch reached"
        );
    }

    #[test]
    fn committed_load_shifts_least_loaded() {
        let (servers, ids) = cluster(2);
        // Both empty, but server 0 has 3 committed transfers inbound.
        let committed = vec![3u32, 0];
        let v = ClusterView::with_committed(&servers, &committed);
        let mut p = LeastLoaded::new();
        assert_eq!(p.select(&v, &ids, &NoNetworkCost), Some(ServerId(1)));
        assert_eq!(v.pending(ServerId(0)), 3);
        assert!(!v.has_free_core(ServerId(0)) || servers[0].core_count() > 3);
    }
}
