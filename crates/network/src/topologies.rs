//! Builders for the paper's named topologies (§III-B): fat tree and
//! flattened butterfly (switch-only), CamCube (server-only), BCube
//! (hybrid), and star (validation setup of §V-B).

use holdcsim_des::time::SimDuration;

use crate::ids::NodeId;
use crate::topology::Topology;

/// Uniform link parameters used by the topology builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Link capacity in bits per second.
    pub rate_bps: u64,
    /// Per-traversal latency.
    pub latency: SimDuration,
}

impl LinkSpec {
    /// 1 GbE with 5 µs latency.
    pub fn gigabit() -> Self {
        LinkSpec {
            rate_bps: 1_000_000_000,
            latency: SimDuration::from_micros(5),
        }
    }

    /// 10 GbE with 2 µs latency.
    pub fn ten_gigabit() -> Self {
        LinkSpec {
            rate_bps: 10_000_000_000,
            latency: SimDuration::from_micros(2),
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self::gigabit()
    }
}

/// A built topology together with role metadata the schedulers need.
#[derive(Debug, Clone)]
pub struct BuiltTopology {
    /// The graph.
    pub topology: Topology,
    /// Host nodes in server-id order (`hosts[i]` is server *i*'s NIC).
    pub hosts: Vec<NodeId>,
    /// Human-readable name ("fat-tree(k=4)" etc.).
    pub name: String,
}

/// Builds a `k`-ary fat tree (Al-Fares et al. \[8\]): `k` pods of `k/2` edge
/// and `k/2` aggregation switches plus `(k/2)²` core switches, hosting
/// `k³/4` servers at full bisection bandwidth. This is the topology of the
/// paper's Fig. 10.
///
/// # Panics
///
/// Panics if `k` is odd or zero.
pub fn fat_tree(k: usize, link: LinkSpec) -> BuiltTopology {
    assert!(k > 0 && k.is_multiple_of(2), "fat tree requires even k");
    let half = k / 2;
    let mut b = Topology::builder();

    // Hosts first so host index == server id.
    let n_hosts = k * k * k / 4;
    let hosts = b.add_hosts(n_hosts);

    // Edge and aggregation switches per pod; k ports each (one linecard).
    let mut edge = Vec::with_capacity(k * half);
    let mut agg = Vec::with_capacity(k * half);
    for _pod in 0..k {
        for _ in 0..half {
            edge.push(b.add_switch(1, k as u32));
        }
        for _ in 0..half {
            agg.push(b.add_switch(1, k as u32));
        }
    }
    // Core switches.
    let cores: Vec<NodeId> = (0..half * half)
        .map(|_| b.add_switch(1, k as u32))
        .collect();

    // Hosts to edge switches: each edge switch serves k/2 hosts.
    for pod in 0..k {
        for e in 0..half {
            let esw = edge[pod * half + e];
            for h in 0..half {
                let host = hosts[pod * half * half + e * half + h];
                b.link(esw, host, link.rate_bps, link.latency)
                    .expect("fat-tree host link");
            }
            // Edge to aggregation within the pod.
            for a in 0..half {
                let asw = agg[pod * half + a];
                b.link(esw, asw, link.rate_bps, link.latency)
                    .expect("fat-tree pod link");
            }
        }
        // Aggregation to core: agg switch a connects to cores a*half..(a+1)*half.
        for a in 0..half {
            let asw = agg[pod * half + a];
            for c in 0..half {
                let core = cores[a * half + c];
                b.link(asw, core, link.rate_bps, link.latency)
                    .expect("fat-tree core link");
            }
        }
    }

    BuiltTopology {
        topology: b.build(),
        hosts,
        name: format!("fat-tree(k={k})"),
    }
}

/// Builds a 2-D flattened butterfly (Kim et al. \[34\]): a `k × k` grid of
/// switches, fully connected along each row and each column, with
/// `hosts_per_switch` servers per switch.
///
/// # Panics
///
/// Panics if `k == 0` or `hosts_per_switch == 0`.
pub fn flattened_butterfly(k: usize, hosts_per_switch: usize, link: LinkSpec) -> BuiltTopology {
    assert!(k > 0, "flattened butterfly requires k > 0");
    assert!(hosts_per_switch > 0, "need at least one host per switch");
    let mut b = Topology::builder();
    let hosts = b.add_hosts(k * k * hosts_per_switch);
    let ports = (hosts_per_switch + 2 * (k - 1)) as u32;
    let switches: Vec<NodeId> = (0..k * k).map(|_| b.add_switch(1, ports)).collect();

    for r in 0..k {
        for c in 0..k {
            let sw = switches[r * k + c];
            for h in 0..hosts_per_switch {
                let host = hosts[(r * k + c) * hosts_per_switch + h];
                b.link(sw, host, link.rate_bps, link.latency)
                    .expect("fb host link");
            }
            // Row links (to the right) and column links (downward) once each.
            for c2 in (c + 1)..k {
                b.link(sw, switches[r * k + c2], link.rate_bps, link.latency)
                    .expect("fb row link");
            }
            for r2 in (r + 1)..k {
                b.link(sw, switches[r2 * k + c], link.rate_bps, link.latency)
                    .expect("fb column link");
            }
        }
    }

    BuiltTopology {
        topology: b.build(),
        hosts,
        name: format!("flattened-butterfly(k={k},h={hosts_per_switch})"),
    }
}

/// Builds a BCube(n, levels) (Guo et al. \[26\]): a hybrid server-centric
/// network with `n^(levels+1)` hosts and `(levels+1) · n^levels` switches
/// of `n` ports each. `BCube(n, 0)` is `n` hosts on one switch;
/// `BCube(n, l)` joins `n` copies of `BCube(n, l-1)` with a new switch
/// layer.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn bcube(n: usize, levels: usize, link: LinkSpec) -> BuiltTopology {
    assert!(n >= 2, "BCube requires n >= 2");
    let n_hosts = n.pow(levels as u32 + 1);
    let mut b = Topology::builder();
    let hosts = b.add_hosts(n_hosts);

    // Level l has n^levels switches; switch j at level l connects hosts
    // whose index matches j in all digits except digit l (base-n indexing).
    for level in 0..=levels {
        let n_switches = n.pow(levels as u32);
        for j in 0..n_switches {
            let sw = b.add_switch(1, n as u32);
            // Expand j (a (levels)-digit base-n number) into a host index by
            // inserting digit d at position `level`.
            let low_mod = n.pow(level as u32);
            let low = j % low_mod;
            let high = j / low_mod;
            for d in 0..n {
                let host_idx = high * low_mod * n + d * low_mod + low;
                b.link(sw, hosts[host_idx], link.rate_bps, link.latency)
                    .expect("bcube link");
            }
        }
    }

    BuiltTopology {
        topology: b.build(),
        hosts,
        name: format!("bcube(n={n},l={levels})"),
    }
}

/// Builds a CamCube (Abu-Libdeh et al. \[6\]): a 3-D torus of servers with
/// direct server-to-server links (no switches at all).
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn camcube(x: usize, y: usize, z: usize, link: LinkSpec) -> BuiltTopology {
    assert!(
        x > 0 && y > 0 && z > 0,
        "CamCube dimensions must be positive"
    );
    let mut b = Topology::builder();
    let hosts = b.add_hosts(x * y * z);
    let idx = |i: usize, j: usize, k: usize| hosts[(i * y + j) * z + k];

    // Wrap-around neighbor links in each dimension, added once per pair.
    for i in 0..x {
        for j in 0..y {
            for k in 0..z {
                if x > 1 {
                    let ni = (i + 1) % x;
                    if ni != i && (i + 1 < x || x > 2) {
                        b.link(idx(i, j, k), idx(ni, j, k), link.rate_bps, link.latency)
                            .expect("camcube x link");
                    }
                }
                if y > 1 {
                    let nj = (j + 1) % y;
                    if nj != j && (j + 1 < y || y > 2) {
                        b.link(idx(i, j, k), idx(i, nj, k), link.rate_bps, link.latency)
                            .expect("camcube y link");
                    }
                }
                if z > 1 {
                    let nk = (k + 1) % z;
                    if nk != k && (k + 1 < z || z > 2) {
                        b.link(idx(i, j, k), idx(i, j, nk), link.rate_bps, link.latency)
                            .expect("camcube z link");
                    }
                }
            }
        }
    }

    BuiltTopology {
        topology: b.build(),
        hosts,
        name: format!("camcube({x}x{y}x{z})"),
    }
}

/// Builds a star: `n_hosts` servers on one switch (the §V-B validation
/// setup uses 24 hosts on a Cisco WS-C2960-24-S).
///
/// # Panics
///
/// Panics if `n_hosts == 0`.
pub fn star(n_hosts: usize, link: LinkSpec) -> BuiltTopology {
    assert!(n_hosts > 0, "star requires at least one host");
    let mut b = Topology::builder();
    let hosts = b.add_hosts(n_hosts);
    let sw = b.add_switch(1, n_hosts as u32);
    for &h in &hosts {
        b.link(sw, h, link.rate_bps, link.latency)
            .expect("star link");
    }
    BuiltTopology {
        topology: b.build(),
        hosts,
        name: format!("star(n={n_hosts})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_k4_counts_match_al_fares() {
        let t = fat_tree(4, LinkSpec::gigabit());
        // k=4: 16 hosts, 8 edge + 8 agg + 4 core = 20 switches.
        assert_eq!(t.hosts.len(), 16);
        assert_eq!(t.topology.switches().len(), 20);
        assert!(t.topology.is_connected());
        // Each edge switch: 2 hosts + 2 aggs = 4 used ports = k.
        for &sw in t.topology.switches() {
            assert!(t.topology.neighbors(sw).count() <= 4);
        }
        // Link count: hosts (16) + edge-agg (k * half*half = 16) + agg-core (16).
        assert_eq!(t.topology.links().len(), 48);
    }

    #[test]
    fn fat_tree_k8_scales() {
        let t = fat_tree(8, LinkSpec::ten_gigabit());
        assert_eq!(t.hosts.len(), 128);
        assert_eq!(t.topology.switches().len(), 80);
        assert!(t.topology.is_connected());
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn fat_tree_rejects_odd_k() {
        let _ = fat_tree(3, LinkSpec::gigabit());
    }

    #[test]
    fn flattened_butterfly_full_row_column_mesh() {
        let t = flattened_butterfly(3, 2, LinkSpec::gigabit());
        assert_eq!(t.hosts.len(), 18);
        assert_eq!(t.topology.switches().len(), 9);
        assert!(t.topology.is_connected());
        // Every switch: 2 hosts + 2 row + 2 column neighbors = degree 6.
        for &sw in t.topology.switches() {
            assert_eq!(t.topology.neighbors(sw).count(), 6);
        }
    }

    #[test]
    fn bcube_n2_l1_structure() {
        // BCube(2,1): 4 hosts, 4 switches of 2 ports, each host 2-homed.
        let t = bcube(2, 1, LinkSpec::gigabit());
        assert_eq!(t.hosts.len(), 4);
        assert_eq!(t.topology.switches().len(), 4);
        assert!(t.topology.is_connected());
        for &h in &t.hosts {
            assert_eq!(t.topology.neighbors(h).count(), 2);
        }
    }

    #[test]
    fn bcube_n4_l1_structure() {
        let t = bcube(4, 1, LinkSpec::gigabit());
        assert_eq!(t.hosts.len(), 16);
        assert_eq!(t.topology.switches().len(), 8);
        assert!(t.topology.is_connected());
    }

    #[test]
    fn camcube_is_server_only_torus() {
        let t = camcube(3, 3, 3, LinkSpec::gigabit());
        assert_eq!(t.hosts.len(), 27);
        assert!(t.topology.switches().is_empty());
        assert!(t.topology.is_connected());
        // 3-D torus with all dims = 3: every host has degree 6.
        for &h in &t.hosts {
            assert_eq!(t.topology.neighbors(h).count(), 6);
        }
    }

    #[test]
    fn camcube_degenerate_dims() {
        let t = camcube(2, 1, 1, LinkSpec::gigabit());
        assert_eq!(t.hosts.len(), 2);
        assert!(t.topology.is_connected());
    }

    #[test]
    fn star_validation_setup() {
        let t = star(24, LinkSpec::gigabit());
        assert_eq!(t.hosts.len(), 24);
        assert_eq!(t.topology.switches().len(), 1);
        assert!(t.topology.is_connected());
        assert_eq!(t.topology.neighbors(t.topology.switches()[0]).count(), 24);
    }
}
