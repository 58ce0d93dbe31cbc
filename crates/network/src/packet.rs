//! Packet-level communication: store-and-forward transmission with per-port
//! output queues and tail-drop (§III-B's finer-grained communication model).
//!
//! Each directed link endpoint models an egress port with a transmission
//! backlog. Transmitting computes exact departure/arrival instants from the
//! port's `busy_until` horizon — no per-byte events — while the backlog
//! depth doubles as the queue-occupancy signal for tail-drop and LPI
//! decisions.

use std::sync::Arc;

use holdcsim_des::time::{SimDuration, SimTime};

use crate::ids::{LinkId, NodeId, PacketId};
use crate::routing::Route;
use crate::topology::Topology;

/// A packet traversing a precomputed route.
///
/// The route is shared (`Arc`): every packet of a transfer — and, with
/// the router's route cache, every transfer along the same cached path —
/// points at one allocation instead of cloning the hop vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// The route this packet follows.
    pub route: Arc<Route>,
    /// Next hop index into `route.links` (0 = about to leave the source).
    pub hop: usize,
}

impl Packet {
    /// Creates a packet at the head of its route.
    pub fn new(id: PacketId, bytes: u64, route: Arc<Route>) -> Self {
        Packet {
            id,
            bytes,
            route,
            hop: 0,
        }
    }

    /// The node currently holding the packet.
    pub fn current_node(&self) -> NodeId {
        self.route.nodes[self.hop]
    }

    /// The link the packet will traverse next, or `None` at the destination.
    pub fn next_link(&self) -> Option<LinkId> {
        self.route.links.get(self.hop).copied()
    }

    /// `true` once the packet has reached its destination.
    pub fn at_destination(&self) -> bool {
        self.hop == self.route.links.len()
    }
}

/// Outcome of a transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The packet will arrive at the far end at this instant.
    Forwarded {
        /// Arrival time at the next node (departure + propagation).
        arrives_at: SimTime,
    },
    /// The egress queue overflowed; the packet is dropped.
    Dropped,
}

/// Per-direction egress-port state.
#[derive(Debug, Clone, Copy)]
struct Egress {
    busy_until: SimTime,
}

/// The packet-level network: per-port transmission horizons and statistics.
///
/// # Examples
///
/// ```
/// use holdcsim_network::packet::{PacketNet, TxOutcome};
/// use holdcsim_network::routing::Router;
/// use holdcsim_network::topologies::{star, LinkSpec};
/// use holdcsim_des::time::SimTime;
///
/// let built = star(2, LinkSpec::gigabit());
/// let mut router = Router::new();
/// let route = router
///     .route(&built.topology, built.hosts[0], built.hosts[1], 0)
///     .unwrap();
/// let mut net = PacketNet::new(&built.topology, 512 * 1024);
/// let out = net.transmit(SimTime::ZERO, &built.topology, route.links[0],
///                        built.hosts[0], 1_500);
/// assert!(matches!(out, TxOutcome::Forwarded { .. }));
/// ```
#[derive(Debug)]
pub struct PacketNet {
    /// Two egress ports per link: index `2*link` is the A-side egress,
    /// `2*link + 1` the B-side.
    egress: Vec<Egress>,
    buffer_bytes: u64,
    forwarded: u64,
    dropped: u64,
}

impl PacketNet {
    /// Creates a packet network with `buffer_bytes` of egress buffering per
    /// port.
    pub fn new(topo: &Topology, buffer_bytes: u64) -> Self {
        PacketNet {
            egress: vec![
                Egress {
                    busy_until: SimTime::ZERO
                };
                topo.links().len() * 2
            ],
            buffer_bytes,
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Attempts to transmit `bytes` from `from` over `link` at `now`.
    ///
    /// On success the returned arrival instant accounts for queueing behind
    /// the port's backlog, serialization at the link rate, and propagation
    /// latency. On overflow the packet is dropped (tail-drop).
    ///
    /// # Panics
    ///
    /// Panics if `link` does not touch `from`.
    pub fn transmit(
        &mut self,
        now: SimTime,
        topo: &Topology,
        link: LinkId,
        from: NodeId,
        bytes: u64,
    ) -> TxOutcome {
        let l = topo.link(link);
        let from_a = if l.a.node == from {
            true
        } else if l.b.node == from {
            false
        } else {
            panic!("link {link} does not touch {from}");
        };
        let idx = link.0 as usize * 2 + usize::from(!from_a);
        let egress = &mut self.egress[idx];

        // Backlog currently queued (in bytes) behind this packet.
        let backlog = egress
            .busy_until
            .saturating_duration_since(now)
            .as_secs_f64();
        let queued_bytes = backlog * l.rate_bps as f64 / 8.0;
        if queued_bytes + bytes as f64 > self.buffer_bytes as f64 {
            self.dropped += 1;
            return TxOutcome::Dropped;
        }

        let start = egress.busy_until.max(now);
        let tx = SimDuration::from_secs_f64(bytes as f64 * 8.0 / l.rate_bps as f64);
        egress.busy_until = start + tx;
        self.forwarded += 1;
        TxOutcome::Forwarded {
            arrives_at: egress.busy_until + l.latency,
        }
    }

    /// The instant the egress of `link` on `from`'s side drains, given no
    /// further traffic (`now` if already idle).
    pub fn egress_idle_at(
        &self,
        topo: &Topology,
        link: LinkId,
        from: NodeId,
        now: SimTime,
    ) -> SimTime {
        let l = topo.link(link);
        let from_a = l.a.node == from;
        let idx = link.0 as usize * 2 + usize::from(!from_a);
        self.egress[idx].busy_until.max(now)
    }

    /// Packets forwarded successfully.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Packets dropped to tail-drop.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Router;
    use crate::topologies::{star, LinkSpec};

    fn setup() -> (crate::topology::Topology, Vec<NodeId>, Route) {
        let built = star(2, LinkSpec::gigabit());
        let mut router = Router::new();
        let route = router
            .route(&built.topology, built.hosts[0], built.hosts[1], 0)
            .unwrap();
        (built.topology, built.hosts, route)
    }

    #[test]
    fn serialization_plus_propagation() {
        let (topo, hosts, route) = setup();
        let mut net = PacketNet::new(&topo, 1 << 20);
        // 1500 B at 1 Gb/s = 12 µs; + 5 µs propagation.
        let out = net.transmit(SimTime::ZERO, &topo, route.links[0], hosts[0], 1500);
        match out {
            TxOutcome::Forwarded { arrives_at } => {
                assert_eq!(arrives_at, SimTime::from_nanos(12_000 + 5_000));
            }
            TxOutcome::Dropped => panic!("dropped"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let (topo, hosts, route) = setup();
        let mut net = PacketNet::new(&topo, 1 << 20);
        let l = route.links[0];
        let a1 = match net.transmit(SimTime::ZERO, &topo, l, hosts[0], 1500) {
            TxOutcome::Forwarded { arrives_at } => arrives_at,
            _ => panic!(),
        };
        let a2 = match net.transmit(SimTime::ZERO, &topo, l, hosts[0], 1500) {
            TxOutcome::Forwarded { arrives_at } => arrives_at,
            _ => panic!(),
        };
        // Second packet serializes after the first: +12 µs.
        assert_eq!(a2.as_nanos() - a1.as_nanos(), 12_000);
        assert_eq!(net.forwarded(), 2);
    }

    #[test]
    fn directions_are_independent() {
        let (topo, hosts, route) = setup();
        let mut net = PacketNet::new(&topo, 1 << 20);
        let l = route.links[0];
        net.transmit(SimTime::ZERO, &topo, l, hosts[0], 1500);
        // Reverse direction (switch -> host0) is not delayed by the forward tx.
        let sw = route.nodes[1];
        match net.transmit(SimTime::ZERO, &topo, l, sw, 1500) {
            TxOutcome::Forwarded { arrives_at } => {
                assert_eq!(arrives_at, SimTime::from_nanos(17_000));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn tail_drop_on_overflow() {
        let (topo, hosts, route) = setup();
        // Tiny 3 KB buffer: third 1500 B packet overflows.
        let mut net = PacketNet::new(&topo, 3_000);
        let l = route.links[0];
        assert!(matches!(
            net.transmit(SimTime::ZERO, &topo, l, hosts[0], 1500),
            TxOutcome::Forwarded { .. }
        ));
        assert!(matches!(
            net.transmit(SimTime::ZERO, &topo, l, hosts[0], 1500),
            TxOutcome::Forwarded { .. }
        ));
        assert_eq!(
            net.transmit(SimTime::ZERO, &topo, l, hosts[0], 1500),
            TxOutcome::Dropped
        );
        assert_eq!((net.forwarded(), net.dropped()), (2, 1));
    }

    #[test]
    fn queue_drains_over_time() {
        let (topo, hosts, route) = setup();
        let mut net = PacketNet::new(&topo, 3_000);
        let l = route.links[0];
        net.transmit(SimTime::ZERO, &topo, l, hosts[0], 1500);
        net.transmit(SimTime::ZERO, &topo, l, hosts[0], 1500);
        // After both serialize (24 µs), the port is free again.
        let later = SimTime::from_nanos(24_000);
        assert_eq!(net.egress_idle_at(&topo, l, hosts[0], later), later);
        assert!(matches!(
            net.transmit(later, &topo, l, hosts[0], 1500),
            TxOutcome::Forwarded { .. }
        ));
    }

    #[test]
    fn packet_walks_its_route() {
        let (_, _, route) = setup();
        let mut p = Packet::new(PacketId(1), 1500, Arc::new(route.clone()));
        assert_eq!(p.current_node(), route.nodes[0]);
        assert!(!p.at_destination());
        assert_eq!(p.next_link(), Some(route.links[0]));
        p.hop += 1;
        assert_eq!(p.next_link(), Some(route.links[1]));
        p.hop += 1;
        assert!(p.at_destination());
        assert_eq!(p.next_link(), None);
    }
}
