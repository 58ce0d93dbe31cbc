//! Shortest-path routing with ECMP tie-breaking and a per-destination
//! distance cache (§III-B: "statically generated or dynamically computed"
//! routes).

// Router caches are keyed lookups only — never iterated, so hash order
// cannot leak into routes (lint D001); clearing is wholesale. The local
// waivers below are the clippy analogue of an analysis.toml entry.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::ids::{LinkId, NodeId};
use crate::topology::Topology;

/// Folds an arbitrary flow/placement seed into one of `ways` ECMP buckets
/// (SplitMix64-mixed so every seed bit participates). Real switches hash
/// the flow tuple into a bounded next-hop table the same way; bounding the
/// seed space is what makes the [`Router::route_shared`] cache effective —
/// at most `ways` cached routes per (src, dst) pair.
pub fn ecmp_bucket(seed: u64, ways: u64) -> u64 {
    debug_assert!(ways > 0, "need at least one ECMP bucket");
    hash64(seed) % ways
}

/// A route: the traversed links in order, plus the visited nodes
/// (`nodes.len() == links.len() + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Visited nodes from source to destination inclusive.
    pub nodes: Vec<NodeId>,
    /// Traversed links, `links[i]` joining `nodes[i]` and `nodes[i+1]`.
    pub links: Vec<LinkId>,
}

impl Route {
    /// Number of hops (links traversed).
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// Hop-count router with equal-cost multi-path support.
///
/// Distances are computed by BFS from each destination on first use and
/// cached (the "static routes" mode of the paper); [`Router::clear_cache`]
/// supports dynamic recomputation after topology-state changes. A fault
/// mask ([`Router::set_node_down`], [`Router::set_link_down`]) removes
/// nodes and links from the graph every route is computed on; each change
/// drops both caches, so routes inside a fault window come from the same
/// caches as healthy ones.
///
/// # Examples
///
/// ```
/// use holdcsim_network::routing::Router;
/// use holdcsim_network::topologies::{star, LinkSpec};
///
/// let built = star(4, LinkSpec::gigabit());
/// let mut router = Router::new();
/// let r = router
///     .route(&built.topology, built.hosts[0], built.hosts[3], 0)
///     .expect("hosts are connected");
/// assert_eq!(r.hops(), 2); // host -> switch -> host
/// ```
#[derive(Debug)]
#[allow(clippy::disallowed_types)] // point-lookup caches; never iterated
pub struct Router {
    /// Per-destination distance maps: `dist[dst][node]` = hops to dst.
    dist_cache: HashMap<NodeId, Vec<u32>>,
    /// Shared complete routes keyed by `(src, dst, ecmp seed)`; callers
    /// that bound the seed space (see [`ecmp_bucket`]) get every
    /// steady-state route from here without allocating.
    route_cache: HashMap<(NodeId, NodeId, u64), Option<Arc<Route>>>,
    /// Cached routes are dropped wholesale past this many entries,
    /// bounding memory when callers pass unbounded seeds. Callers whose
    /// key space is bounded (see [`Router::set_route_cache_cap`]) should
    /// raise it above that space so sustained all-pairs traffic never
    /// thrashes.
    route_cache_cap: usize,
    /// Reusable equal-cost candidate buffer for path walks.
    scratch: Vec<(NodeId, LinkId)>,
    /// Fault mask: `down_nodes[n]` marks node `n` removed. Empty until
    /// the first failure; indices past the end are up.
    down_nodes: Vec<bool>,
    /// Fault mask: `down_links[l]` marks link `l` removed.
    down_links: Vec<bool>,
    route_hits: u64,
    route_misses: u64,
}

/// Default shared-route cache capacity.
const DEFAULT_ROUTE_CACHE_CAP: usize = 1 << 16;

#[allow(clippy::disallowed_types)] // constructs the point-lookup caches
impl Default for Router {
    fn default() -> Self {
        Router {
            dist_cache: HashMap::new(),
            route_cache: HashMap::new(),
            route_cache_cap: DEFAULT_ROUTE_CACHE_CAP,
            scratch: Vec::new(),
            down_nodes: Vec::new(),
            down_links: Vec::new(),
            route_hits: 0,
            route_misses: 0,
        }
    }
}

impl Router {
    /// Creates a router with an empty cache.
    pub fn new() -> Self {
        Router::default()
    }

    /// Sets the shared-route cache capacity (entries kept before a
    /// wholesale drop). Size it at or above the caller's bounded key
    /// space — `hosts² × ECMP ways` — so steady-state all-pairs traffic
    /// never evicts hot routes; clamped to at least 1.
    pub fn set_route_cache_cap(&mut self, cap: usize) {
        self.route_cache_cap = cap.max(1);
    }

    /// Computes a shortest route from `src` to `dst`. Among equal-cost next
    /// hops the choice is a deterministic hash of `(node, ecmp_seed)`, so
    /// different flows (different seeds) spread over parallel paths while
    /// any given flow routes stably.
    ///
    /// Returns `None` if either endpoint is down or `dst` is unreachable
    /// from `src` on the surviving graph.
    pub fn route(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        ecmp_seed: u64,
    ) -> Option<Route> {
        if self.node_down(src) || self.node_down(dst) {
            return None;
        }
        if src == dst {
            return Some(Route {
                nodes: vec![src],
                links: Vec::new(),
            });
        }
        self.distance(topo, src, dst)?;
        let dist = &self.dist_cache[&dst];
        let mut candidates = std::mem::take(&mut self.scratch);
        let mut nodes = vec![src];
        let mut links = Vec::new();
        let mut cur = src;
        while cur != dst {
            let d = dist[cur.0 as usize];
            // Candidates one hop closer to dst (reusable scratch buffer).
            // A down node has no distance, so only links need the mask.
            candidates.clear();
            candidates.extend(
                topo.neighbors(cur)
                    .filter(|&(n, l)| dist[n.0 as usize] == d - 1 && !self.link_down(l)),
            );
            debug_assert!(!candidates.is_empty(), "distance field is inconsistent");
            candidates.sort_by_key(|(n, l)| (n.0, l.0));
            let pick = (hash64(cur.0 as u64 ^ ecmp_seed.rotate_left(17)) % candidates.len() as u64)
                as usize;
            let (next, link) = candidates[pick];
            nodes.push(next);
            links.push(link);
            cur = next;
        }
        self.scratch = candidates;
        Some(Route { nodes, links })
    }

    /// [`route`](Self::route) behind a shared-ownership cache: the first
    /// call for a `(src, dst, ecmp_seed)` triple computes and stores the
    /// route, every later call clones the [`Arc`] — no path walk, no
    /// allocation. Unreachable pairs are cached too (negative caching).
    ///
    /// Callers with unbounded seeds (one per flow) should fold them
    /// through [`ecmp_bucket`] first, or every call misses; the cache
    /// drops all entries once it exceeds an internal cap, so even
    /// unbounded seeds cannot grow it without bound.
    pub fn route_shared(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        ecmp_seed: u64,
    ) -> Option<Arc<Route>> {
        if let Some(cached) = self.route_cache.get(&(src, dst, ecmp_seed)) {
            self.route_hits += 1;
            return cached.clone();
        }
        self.route_misses += 1;
        let route = self.route(topo, src, dst, ecmp_seed).map(Arc::new);
        if self.route_cache.len() >= self.route_cache_cap {
            self.route_cache.clear();
        }
        self.route_cache
            .insert((src, dst, ecmp_seed), route.clone());
        route
    }

    /// Hop distance from `src` to `dst` on the surviving graph (`None`
    /// if unreachable).
    pub fn distance(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<u32> {
        let d = self.distances(topo, dst)[src.0 as usize];
        (d != u32::MAX).then_some(d)
    }

    /// Drops all cached distance fields and shared routes (call after
    /// links change state in dynamic-routing studies).
    pub fn clear_cache(&mut self) {
        self.dist_cache.clear();
        self.route_cache.clear();
    }

    /// Marks `node` down (`true`) or back up (`false`), dropping both
    /// caches. Returns `false` if the mask already had that state (the
    /// transition is a no-op and should be ignored by the caller).
    pub fn set_node_down(&mut self, node: NodeId, down: bool) -> bool {
        let changed = set_flag(&mut self.down_nodes, node.0 as usize, down);
        if changed {
            self.clear_cache();
        }
        changed
    }

    /// Marks `link` down or back up; same contract as
    /// [`Router::set_node_down`].
    pub fn set_link_down(&mut self, link: LinkId, down: bool) -> bool {
        let changed = set_flag(&mut self.down_links, link.0 as usize, down);
        if changed {
            self.clear_cache();
        }
        changed
    }

    /// Nodes and links currently down.
    pub fn down_count(&self) -> usize {
        self.down_nodes
            .iter()
            .chain(&self.down_links)
            .filter(|&&d| d)
            .count()
    }

    /// `true` if `route` crosses a down node or link at or after hop
    /// `from`.
    pub fn is_severed(&self, route: &Route, from: usize) -> bool {
        route.nodes[from..].iter().any(|&n| self.node_down(n))
            || route.links[from..].iter().any(|&l| self.link_down(l))
    }

    fn node_down(&self, n: NodeId) -> bool {
        self.down_nodes.get(n.0 as usize) == Some(&true)
    }

    fn link_down(&self, l: LinkId) -> bool {
        self.down_links.get(l.0 as usize) == Some(&true)
    }

    /// `(hits, misses)` of the shared-route cache since creation.
    pub fn route_cache_stats(&self) -> (u64, u64) {
        (self.route_hits, self.route_misses)
    }

    fn distances(&mut self, topo: &Topology, dst: NodeId) -> &Vec<u32> {
        if !self.dist_cache.contains_key(&dst) {
            // BFS on the surviving graph: a down destination reaches
            // nothing, and down nodes and links are never entered.
            let mut dist = vec![u32::MAX; topo.node_count()];
            let mut q = VecDeque::new();
            if !self.node_down(dst) {
                dist[dst.0 as usize] = 0;
                q.push_back(dst);
            }
            while let Some(n) = q.pop_front() {
                let d = dist[n.0 as usize];
                for (next, link) in topo.neighbors(n) {
                    if self.link_down(link) || self.node_down(next) {
                        continue;
                    }
                    if dist[next.0 as usize] == u32::MAX {
                        dist[next.0 as usize] = d + 1;
                        q.push_back(next);
                    }
                }
            }
            self.dist_cache.insert(dst, dist);
        }
        &self.dist_cache[&dst]
    }
}

/// Sets `mask[i]` to `down`, growing the mask on the first failure past
/// its end; returns whether the entry changed.
fn set_flag(mask: &mut Vec<bool>, i: usize, down: bool) -> bool {
    if (mask.get(i) == Some(&true)) == down {
        return false;
    }
    if mask.len() <= i {
        mask.resize(i + 1, false);
    }
    mask[i] = down;
    true
}

#[inline]
fn hash64(mut x: u64) -> u64 {
    // SplitMix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // loop-detection / spread sets in tests
mod tests {
    use super::*;
    use crate::topologies::{bcube, camcube, fat_tree, star, LinkSpec};

    #[test]
    fn star_routes_via_switch() {
        let built = star(4, LinkSpec::gigabit());
        let mut r = Router::new();
        let route = r
            .route(&built.topology, built.hosts[0], built.hosts[1], 7)
            .unwrap();
        assert_eq!(route.hops(), 2);
        assert_eq!(route.nodes.len(), 3);
        assert_eq!(
            route
                .nodes
                .iter()
                .filter(|&&n| built.topology.kind(n).is_switch())
                .count(),
            1
        );
    }

    #[test]
    fn route_to_self_is_empty() {
        let built = star(2, LinkSpec::gigabit());
        let mut r = Router::new();
        let route = r
            .route(&built.topology, built.hosts[0], built.hosts[0], 0)
            .unwrap();
        assert_eq!(route.hops(), 0);
        assert_eq!(route.nodes, vec![built.hosts[0]]);
    }

    #[test]
    fn fat_tree_same_pod_distance() {
        let built = fat_tree(4, LinkSpec::gigabit());
        let mut r = Router::new();
        // Hosts 0 and 1 share an edge switch: 2 hops.
        assert_eq!(
            r.distance(&built.topology, built.hosts[0], built.hosts[1]),
            Some(2)
        );
        // Hosts 0 and 2 are in the same pod, different edge switch: 4 hops.
        assert_eq!(
            r.distance(&built.topology, built.hosts[0], built.hosts[2]),
            Some(4)
        );
        // Hosts in different pods traverse the core: 6 hops.
        assert_eq!(
            r.distance(&built.topology, built.hosts[0], built.hosts[15]),
            Some(6)
        );
    }

    #[test]
    fn ecmp_spreads_across_paths() {
        let built = fat_tree(4, LinkSpec::gigabit());
        let mut r = Router::new();
        // Cross-pod routes have 4 equal-cost core choices; different seeds
        // should exercise more than one.
        let mut first_links = std::collections::HashSet::new();
        for seed in 0..64 {
            let route = r
                .route(&built.topology, built.hosts[0], built.hosts[15], seed)
                .unwrap();
            assert_eq!(route.hops(), 6);
            first_links.insert(route.links[1]);
        }
        assert!(first_links.len() > 1, "ECMP never spread");
    }

    #[test]
    fn same_seed_routes_stably() {
        let built = fat_tree(4, LinkSpec::gigabit());
        let mut r = Router::new();
        let a = r
            .route(&built.topology, built.hosts[0], built.hosts[12], 5)
            .unwrap();
        let b = r
            .route(&built.topology, built.hosts[0], built.hosts[12], 5)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn routes_are_consistent_paths() {
        let built = bcube(2, 1, LinkSpec::gigabit());
        let mut r = Router::new();
        for (i, &a) in built.hosts.iter().enumerate() {
            for &b in &built.hosts[i + 1..] {
                let route = r.route(&built.topology, a, b, 3).unwrap();
                assert_eq!(route.nodes.len(), route.links.len() + 1);
                for (j, &l) in route.links.iter().enumerate() {
                    let link = built.topology.link(l);
                    let hop = (route.nodes[j], route.nodes[j + 1]);
                    assert!(
                        (link.a.node, link.b.node) == hop || (link.b.node, link.a.node) == hop,
                        "link {l} does not join hop {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn camcube_routes_without_switches() {
        let built = camcube(3, 3, 3, LinkSpec::gigabit());
        let mut r = Router::new();
        let route = r
            .route(&built.topology, built.hosts[0], built.hosts[26], 0)
            .unwrap();
        // Opposite corner of a 3x3x3 torus: 1 hop per dimension via wraparound.
        assert_eq!(route.hops(), 3);
        assert!(route
            .nodes
            .iter()
            .all(|&n| !built.topology.kind(n).is_switch()));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = crate::topology::Topology::builder();
        let a = b.add_host();
        let c = b.add_host();
        let t = b.build();
        let mut r = Router::new();
        assert_eq!(r.route(&t, a, c, 0), None);
        assert_eq!(r.distance(&t, a, c), None);
    }

    #[test]
    fn route_shared_caches_and_matches_route() {
        let built = fat_tree(4, LinkSpec::gigabit());
        let mut r = Router::new();
        for seed in 0..8 {
            let direct = r
                .route(&built.topology, built.hosts[0], built.hosts[15], seed)
                .unwrap();
            let shared = r
                .route_shared(&built.topology, built.hosts[0], built.hosts[15], seed)
                .unwrap();
            assert_eq!(*shared, direct, "cached route must equal the computed one");
            let again = r
                .route_shared(&built.topology, built.hosts[0], built.hosts[15], seed)
                .unwrap();
            assert!(Arc::ptr_eq(&shared, &again), "second call is a cache hit");
        }
        let (hits, misses) = r.route_cache_stats();
        assert_eq!((hits, misses), (8, 8));
        r.clear_cache();
        r.route_shared(&built.topology, built.hosts[0], built.hosts[15], 0);
        assert_eq!(r.route_cache_stats(), (8, 9), "clear_cache drops routes");
    }

    #[test]
    fn route_cache_cap_bounds_entries_and_recovers() {
        let built = star(8, LinkSpec::gigabit());
        let mut r = Router::new();
        r.set_route_cache_cap(2);
        for seed in 0..4 {
            r.route_shared(&built.topology, built.hosts[0], built.hosts[1], seed);
        }
        // Cap 2: the third insert clears; the cache never exceeds the cap
        // and keeps serving (4 misses, then a guaranteed hit on re-query).
        assert_eq!(r.route_cache_stats(), (0, 4));
        let again = r
            .route_shared(&built.topology, built.hosts[0], built.hosts[1], 3)
            .unwrap();
        assert_eq!(r.route_cache_stats(), (1, 4));
        assert_eq!(again.hops(), 2);
    }

    #[test]
    fn route_shared_negative_caches_unreachable() {
        let mut b = crate::topology::Topology::builder();
        let a = b.add_host();
        let c = b.add_host();
        let t = b.build();
        let mut r = Router::new();
        assert_eq!(r.route_shared(&t, a, c, 0), None);
        assert_eq!(r.route_shared(&t, a, c, 0), None);
        assert_eq!(r.route_cache_stats(), (1, 1));
    }

    #[test]
    fn ecmp_bucket_is_bounded_and_spreads() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..1_000u64 {
            let b = ecmp_bucket(seed, 64);
            assert!(b < 64);
            seen.insert(b);
        }
        assert!(seen.len() > 32, "bucketing should use most of the ways");
        assert_eq!(ecmp_bucket(7, 64), ecmp_bucket(7, 64), "deterministic");
    }

    #[test]
    fn masked_routes_skip_dead_components() {
        let built = fat_tree(4, LinkSpec::gigabit());
        let (t, src, dst) = (&built.topology, built.hosts[0], built.hosts[15]);
        let mut r = Router::new();
        let base = r.route_shared(t, src, dst, 3).unwrap();
        assert_eq!(base.hops(), 6);
        // Kill the base route's aggregation–core link: the reroute avoids
        // it, though that core stays reachable over its other links.
        let uplink = base.links[2];
        assert!(r.set_link_down(uplink, true));
        let around = r.route_shared(t, src, dst, 3).unwrap();
        assert_eq!(around.hops(), 6);
        assert!(!around.links.contains(&uplink));
        assert!(r.set_link_down(uplink, false));
        // Kill the core switch the base route used: the reroute avoids it.
        let core = base.nodes[3];
        assert!(r.set_node_down(core, true));
        assert!(
            !r.set_node_down(core, true),
            "a repeated failure is a no-op"
        );
        assert!(r.is_severed(&base, 0));
        assert!(!r.is_severed(&base, 4), "the hops past the core are clear");
        let rerouted = r.route_shared(t, src, dst, 3).unwrap();
        assert_eq!(rerouted.hops(), 6);
        assert!(!rerouted.nodes.contains(&core));
        assert!(!r.is_severed(&rerouted, 0));
        // Kill the destination's access link: now unreachable.
        let access = rerouted.links[5];
        assert!(r.set_link_down(access, true));
        assert_eq!(r.down_count(), 2);
        assert!(r.route_shared(t, src, dst, 3).is_none());
        assert_eq!(r.distance(t, src, dst), None);
        // A down endpoint has no route, not even to itself.
        assert!(r.set_node_down(src, true));
        assert!(r.route(t, src, built.hosts[1], 0).is_none());
        assert!(r.route(t, src, src, 0).is_none());
        // Recovery brings the original route back.
        assert!(r.set_node_down(src, false));
        assert!(r.set_link_down(access, false));
        assert!(r.set_node_down(core, false));
        assert!(
            !r.set_link_down(access, false),
            "a repeated recovery is a no-op"
        );
        assert_eq!(r.down_count(), 0);
        assert_eq!(r.route_shared(t, src, dst, 3).unwrap(), base);
    }
}
