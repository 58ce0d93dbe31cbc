//! The topology graph: hosts, switches, and links (§III-B).
//!
//! A [`Topology`] is an undirected multigraph. Hosts are server NIC
//! endpoints; switches carry line cards and ports. Builders for the
//! paper's named topologies (fat tree, flattened butterfly, BCube,
//! CamCube, star) live in [`crate::topologies`].

use holdcsim_des::time::SimDuration;

use crate::ids::{LinkId, NodeId, PortRef};

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A server endpoint (the server itself is modeled in `holdcsim-server`).
    Host,
    /// A switch with `linecards × ports_per_card` ports.
    Switch {
        /// Number of line cards.
        linecards: u32,
        /// Ports per line card.
        ports_per_card: u32,
    },
}

impl NodeKind {
    /// `true` for switches.
    pub fn is_switch(self) -> bool {
        matches!(self, NodeKind::Switch { .. })
    }

    /// Total port capacity of the node (hosts have 1 by convention,
    /// CamCube hosts more — tracked by links, not kinds).
    pub fn port_capacity(self) -> u32 {
        match self {
            NodeKind::Host => u32::MAX, // hosts may multi-home (BCube, CamCube)
            NodeKind::Switch {
                linecards,
                ports_per_card,
            } => linecards * ports_per_card,
        }
    }
}

/// An undirected link joining two node ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One endpoint.
    pub a: PortRef,
    /// The other endpoint.
    pub b: PortRef,
    /// Capacity in bits per second (shared by both directions in the flow
    /// model; each direction gets the full rate in the packet model, as in
    /// full-duplex Ethernet).
    pub rate_bps: u64,
    /// Propagation + processing latency per traversal.
    pub latency: SimDuration,
}

/// Errors from [`TopologyBuilder`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link referenced a node that does not exist.
    UnknownNode(NodeId),
    /// A switch ran out of ports.
    PortsExhausted(NodeId),
    /// A link would connect a node to itself.
    SelfLink(NodeId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::PortsExhausted(n) => write!(f, "no free ports left on {n}"),
            TopologyError::SelfLink(n) => write!(f, "link would connect {n} to itself"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An immutable, validated network topology.
///
/// # Examples
///
/// ```
/// use holdcsim_network::topology::{NodeKind, Topology};
/// use holdcsim_des::time::SimDuration;
///
/// # fn main() -> Result<(), holdcsim_network::topology::TopologyError> {
/// let mut b = Topology::builder();
/// let sw = b.add_switch(1, 4);
/// let h1 = b.add_host();
/// let h2 = b.add_host();
/// b.link(sw, h1, 1_000_000_000, SimDuration::from_micros(5))?;
/// b.link(sw, h2, 1_000_000_000, SimDuration::from_micros(5))?;
/// let topo = b.build();
/// assert_eq!(topo.hosts().len(), 2);
/// assert_eq!(topo.switches().len(), 1);
/// assert_eq!(topo.neighbors(h1).count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    hosts: Vec<NodeId>,
    switches: Vec<NodeId>,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder {
            kinds: Vec::new(),
            links: Vec::new(),
            used_ports: Vec::new(),
        }
    }

    /// Number of nodes (hosts + switches).
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// The kind of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.0 as usize]
    }

    /// All host nodes, in insertion order (stable: builders create hosts in
    /// server-id order so `hosts()[i]` is server *i*'s NIC).
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// All switch nodes, in insertion order.
    pub fn switches(&self) -> &[NodeId] {
        &self.switches
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with this id.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link(&self, link: LinkId) -> &Link {
        &self.links[link.0 as usize]
    }

    /// Neighbors of `node` with the connecting link.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.adjacency[node.0 as usize].iter().copied()
    }

    /// Degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.0 as usize].len()
    }

    /// `true` if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.kinds.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.kinds.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for (next, _) in self.neighbors(n) {
                if !seen[next.0 as usize] {
                    seen[next.0 as usize] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == self.kinds.len()
    }
}

/// Builder for [`Topology`].
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    links: Vec<Link>,
    used_ports: Vec<u32>,
}

impl TopologyBuilder {
    /// Adds a host node, returning its id.
    pub fn add_host(&mut self) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(NodeKind::Host);
        self.used_ports.push(0);
        id
    }

    /// Adds `n` hosts, returning their ids in order.
    pub fn add_hosts(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_host()).collect()
    }

    /// Adds a switch with `linecards × ports_per_card` ports.
    pub fn add_switch(&mut self, linecards: u32, ports_per_card: u32) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(NodeKind::Switch {
            linecards,
            ports_per_card,
        });
        self.used_ports.push(0);
        id
    }

    /// Connects `a` and `b` with a link, allocating the next free port on
    /// each side.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if either node is unknown, a switch has no
    /// free ports, or `a == b`.
    pub fn link(
        &mut self,
        a: NodeId,
        b: NodeId,
        rate_bps: u64,
        latency: SimDuration,
    ) -> Result<LinkId, TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLink(a));
        }
        for n in [a, b] {
            let idx = n.0 as usize;
            if idx >= self.kinds.len() {
                return Err(TopologyError::UnknownNode(n));
            }
            if self.used_ports[idx] >= self.kinds[idx].port_capacity() {
                return Err(TopologyError::PortsExhausted(n));
            }
        }
        let pa = PortRef {
            node: a,
            port: self.used_ports[a.0 as usize],
        };
        let pb = PortRef {
            node: b,
            port: self.used_ports[b.0 as usize],
        };
        self.used_ports[a.0 as usize] += 1;
        self.used_ports[b.0 as usize] += 1;
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a: pa,
            b: pb,
            rate_bps,
            latency,
        });
        Ok(id)
    }

    /// Finalizes the topology, computing adjacency.
    pub fn build(self) -> Topology {
        let mut adjacency = vec![Vec::new(); self.kinds.len()];
        for (i, l) in self.links.iter().enumerate() {
            adjacency[l.a.node.0 as usize].push((l.b.node, LinkId(i as u32)));
            adjacency[l.b.node.0 as usize].push((l.a.node, LinkId(i as u32)));
        }
        let mut hosts = Vec::new();
        let mut switches = Vec::new();
        for (i, k) in self.kinds.iter().enumerate() {
            match k {
                NodeKind::Host => hosts.push(NodeId(i as u32)),
                NodeKind::Switch { .. } => switches.push(NodeId(i as u32)),
            }
        }
        Topology {
            kinds: self.kinds,
            links: self.links,
            adjacency,
            hosts,
            switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBE: u64 = 1_000_000_000;

    fn lat() -> SimDuration {
        SimDuration::from_micros(5)
    }

    #[test]
    fn star_builds_and_connects() {
        let mut b = Topology::builder();
        let sw = b.add_switch(1, 8);
        let hosts = b.add_hosts(4);
        for &h in &hosts {
            b.link(sw, h, GBE, lat()).unwrap();
        }
        let t = b.build();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.degree(sw), 4);
        assert!(t.is_connected());
        assert!(t.kind(sw).is_switch());
        assert!(!t.kind(hosts[0]).is_switch());
    }

    #[test]
    fn ports_allocate_densely_per_node() {
        let mut b = Topology::builder();
        let sw = b.add_switch(2, 2);
        let hosts = b.add_hosts(3);
        let mut port_ids = Vec::new();
        for &h in &hosts {
            let l = b.link(sw, h, GBE, lat()).unwrap();
            port_ids.push(l);
        }
        let t = b.build();
        let switch_ports: Vec<u32> = t
            .links()
            .iter()
            .map(|l| if l.a.node == sw { l.a.port } else { l.b.port })
            .collect();
        assert_eq!(switch_ports, vec![0, 1, 2]);
    }

    #[test]
    fn switch_ports_exhaust() {
        let mut b = Topology::builder();
        let sw = b.add_switch(1, 1);
        let h1 = b.add_host();
        let h2 = b.add_host();
        b.link(sw, h1, GBE, lat()).unwrap();
        assert_eq!(
            b.link(sw, h2, GBE, lat()).unwrap_err(),
            TopologyError::PortsExhausted(sw)
        );
    }

    #[test]
    fn self_link_rejected() {
        let mut b = Topology::builder();
        let h = b.add_host();
        assert_eq!(
            b.link(h, h, GBE, lat()).unwrap_err(),
            TopologyError::SelfLink(h)
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = Topology::builder();
        let h = b.add_host();
        assert_eq!(
            b.link(h, NodeId(99), GBE, lat()).unwrap_err(),
            TopologyError::UnknownNode(NodeId(99))
        );
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = Topology::builder();
        b.add_host();
        b.add_host();
        let t = b.build();
        assert!(!t.is_connected());
    }
}
