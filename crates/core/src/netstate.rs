//! The driver's network side: topology, router, switch power devices,
//! and both §III-B communication models with every transfer in flight on
//! them. [`NetState`] starts, completes, restarts and drops each DAG
//! edge's transfer (one max-min fair flow or a store-and-forward packet
//! burst) and runs the port LPI timers, so the event driver in
//! [`crate::sim`] never needs to know which model is configured.

use std::collections::VecDeque;
use std::sync::Arc;

use holdcsim_des::engine::Context;
use holdcsim_des::slot_window::SlotWindow;
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_network::flow::FlowNet;
use holdcsim_network::ids::{FlowId, LinkId, NodeId};
use holdcsim_network::packet::{Packet, PacketNet, TxOutcome};
use holdcsim_network::routing::{ecmp_bucket, Route, Router};
use holdcsim_network::switch::SwitchDevice;
use holdcsim_network::topologies::{
    bcube, camcube, fat_tree, flattened_butterfly, star, BuiltTopology,
};
use holdcsim_network::topology::{NodeKind, Topology};
use holdcsim_server::server::ServerId;

use crate::config::{CommModel, NetworkConfig, TopologySpec};
use crate::sim::DcEvent;

/// Packet retransmission backoff after a tail-drop.
const RETRY_DELAY: SimDuration = SimDuration::from_millis(1);

/// One in-flight flow-model transfer (slot key = raw flow id).
#[derive(Debug)]
struct FlowSt {
    /// The (shared) route the flow occupies, from source to destination
    /// host inclusive.
    route: Arc<Route>,
    /// Dispatch slot of the consumer task.
    dispatch: u64,
    /// Original transfer size: a fabric fault restarts the flow from
    /// scratch on a surviving route (partial progress is lost).
    bytes: u64,
    /// The solver's own key for the admitted flow (`None` while it waits
    /// out switch wake latency). Wake-delayed admissions make the
    /// solver's key sequence diverge from `flow_slots`, so removals must
    /// use this key.
    net_key: Option<u64>,
}

#[derive(Debug)]
struct PacketSt {
    packet: Packet,
    /// Slot in `transfer_slots` for the DAG edge this packet belongs to.
    xfer: u64,
}

/// One in-flight packet-model transfer (a DAG edge's packet burst).
#[derive(Debug)]
struct TransferSt {
    /// Packets still in flight on this edge.
    remaining: u64,
    /// Dispatch slot of the consumer task.
    dispatch: u64,
}

/// The switch-side `(switch index, port)` endpoints of one link, by value
/// (a link touches at most two switches). Returned from
/// [`NetState::switch_ports_of_link`] so wake paths iterate endpoints
/// without a per-call allocation or a borrow on the [`NetState`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkPorts {
    buf: [(usize, u32); 2],
    len: u8,
}

impl LinkPorts {
    fn push(&mut self, p: (usize, u32)) {
        self.buf[self.len as usize] = p;
        self.len += 1;
    }

    /// The endpoints as a slice.
    pub fn as_slice(&self) -> &[(usize, u32)] {
        &self.buf[..self.len as usize]
    }

    /// The first endpoint, if any.
    pub fn first(&self) -> Option<(usize, u32)> {
        self.as_slice().first().copied()
    }
}

impl IntoIterator for LinkPorts {
    type Item = (usize, u32);
    type IntoIter = std::iter::Take<std::array::IntoIter<(usize, u32), 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

/// Everything network-side, owned by the simulation driver: the fabric,
/// its devices, and the in-flight transfers of both comm models.
#[derive(Debug)]
pub struct NetState {
    /// The graph.
    pub topology: Topology,
    /// Host NIC of each server (`hosts[i]` serves `ServerId(i)`).
    pub hosts: Vec<NodeId>,
    /// Shortest-path router with distance cache and the fabric's fault
    /// mask.
    pub router: Router,
    /// Flow-level model (present in both comm modes; only used in Flow).
    pub flows: FlowNet,
    /// Packet-level model.
    pub packets: PacketNet,
    /// Switch power devices, parallel to `topology.switches()`.
    pub switches: Vec<SwitchDevice>,
    /// Index into `switches` of each node, by node id (`None` for hosts).
    switch_of: Vec<Option<usize>>,
    /// The switch-side endpoints of each link, by link id.
    link_ports: Vec<LinkPorts>,
    /// The link on each switch port: `port_link[switch][port]`.
    port_link: Vec<Vec<LinkId>>,
    /// Communication granularity.
    pub comm: CommModel,
    /// LPI hold time, if enabled.
    pub lpi_hold: Option<SimDuration>,
    /// Idle ports use ALR rate reduction instead of LPI.
    pub use_alr: bool,
    /// Ingress request/response sizes, if front-end traffic is modeled.
    pub ingress_bytes: Option<(u64, u64)>,
    /// Topology display name.
    pub name: String,
    /// Deadline of the furthest-out `LpiCheck` event armed per switch
    /// port (packet mode coalesces per-port idle checks to at most one
    /// outstanding timer; see `NetState::schedule_lpi_check`).
    pub lpi_armed: Vec<Vec<SimTime>>,
    /// Live flows, keyed by raw flow id (the window issues the ids):
    /// flow-completion and admission events index instead of hashing.
    flow_slots: SlotWindow<FlowSt>,
    /// Keys of the flows the current `FlowsAdvance` completed, handed
    /// back to the driver one at a time.
    flows_done: VecDeque<u64>,
    /// Deadline of the earliest outstanding `FlowsAdvance` event: arming
    /// is skipped while an earlier-or-equal check is already scheduled,
    /// so admissions that only push completions *later* enqueue nothing.
    flow_check_armed: SimTime,
    /// Packets in flight; `PacketArrive`/`PacketRetry` events carry the
    /// slot. Freed slots are reused last-freed first, and slot numbers
    /// reach trace fingerprints, so the reuse order is part of the run.
    packet_slots: Vec<Option<PacketSt>>,
    /// Free entries of `packet_slots`.
    free_slots: Vec<usize>,
    /// Outstanding packet bursts per DAG edge; packets carry their slot.
    transfer_slots: SlotWindow<TransferSt>,
}

impl NetState {
    /// ECMP spreading ways for inter-server routes: distinct seeds map to
    /// at most this many route choices per server pair (covering the core
    /// multiplicity of fat trees up to k = 8), which bounds the router's
    /// shared-route cache at `hosts² × 16` entries and lets steady-state
    /// transfers hit it quickly.
    pub const ECMP_WAYS: u64 = 16;

    /// Builds the network per `cfg`, sized to cover `server_count` hosts.
    ///
    /// # Panics
    ///
    /// Panics if the requested topology yields fewer hosts than servers.
    pub fn build(now: SimTime, cfg: &NetworkConfig, server_count: usize) -> Self {
        let built: BuiltTopology = match cfg.topology {
            TopologySpec::FatTree { k } => fat_tree(k, cfg.link),
            TopologySpec::FlattenedButterfly {
                k,
                hosts_per_switch,
            } => flattened_butterfly(k, hosts_per_switch, cfg.link),
            TopologySpec::BCube { n, levels } => bcube(n, levels, cfg.link),
            TopologySpec::CamCube { x, y, z } => camcube(x, y, z, cfg.link),
            TopologySpec::Star => star(server_count.max(1), cfg.link),
        };
        assert!(
            built.hosts.len() >= server_count,
            "topology {} provides {} hosts for {} servers",
            built.name,
            built.hosts.len(),
            server_count
        );
        let topology = built.topology;
        let mut switches = Vec::new();
        let mut switch_of = vec![None; topology.node_count()];
        for &sw in topology.switches() {
            let NodeKind::Switch {
                linecards,
                ports_per_card,
            } = topology.kind(sw)
            else {
                unreachable!("switch list contains only switches")
            };
            switch_of[sw.0 as usize] = Some(switches.len());
            switches.push(SwitchDevice::new(
                now,
                sw,
                linecards,
                ports_per_card,
                cfg.switch_profile.clone(),
            ));
        }
        // The builder hands each node its ports in link order, so pushing
        // links in id order puts every link at its port's index.
        let mut link_ports = Vec::with_capacity(topology.links().len());
        let mut port_link = vec![Vec::new(); switches.len()];
        for (i, l) in topology.links().iter().enumerate() {
            let mut ports = LinkPorts::default();
            for p in [l.a, l.b] {
                if let Some(sw) = switch_of[p.node.0 as usize] {
                    debug_assert_eq!(port_link[sw].len(), p.port as usize);
                    port_link[sw].push(LinkId(i as u32));
                    ports.push((sw, p.port));
                }
            }
            link_ports.push(ports);
        }
        let mut router = Router::new();
        // Cover the whole bounded route key space (hosts² × ECMP ways)
        // when it fits in memory, so sustained all-pairs traffic cannot
        // thrash the shared-route cache; past ~4M entries (≥ 512 hosts)
        // fall back to the capped wholesale-drop behavior.
        let hosts_n = built.hosts.len() as u64;
        let key_space = hosts_n
            .saturating_mul(hosts_n)
            .saturating_mul(Self::ECMP_WAYS)
            .min(1 << 22);
        router.set_route_cache_cap(key_space as usize);
        let flows = FlowNet::new(&topology);
        let buffer = match cfg.comm {
            CommModel::Packet { buffer_bytes, .. } => buffer_bytes,
            CommModel::Flow => 1 << 20,
        };
        let packets = PacketNet::new(&topology, buffer);
        let lpi_armed = switches
            .iter()
            .map(|sw| vec![SimTime::ZERO; sw.port_count()])
            .collect();
        NetState {
            hosts: built.hosts,
            router,
            flows,
            packets,
            switches,
            switch_of,
            link_ports,
            port_link,
            comm: cfg.comm,
            lpi_hold: cfg.lpi_hold,
            use_alr: cfg.use_alr,
            ingress_bytes: cfg.ingress_bytes,
            name: built.name,
            lpi_armed,
            flow_slots: SlotWindow::new(),
            flows_done: VecDeque::new(),
            flow_check_armed: SimTime::ZERO,
            packet_slots: Vec::new(),
            free_slots: Vec::new(),
            transfer_slots: SlotWindow::new(),
            topology,
        }
    }

    /// The host NIC of `server`.
    pub fn host_of(&self, server: ServerId) -> NodeId {
        self.hosts[server.0 as usize]
    }

    /// Routes between two servers' hosts, ECMP-spread by `seed`.
    pub fn route_between(&mut self, a: ServerId, b: ServerId, seed: u64) -> Option<Arc<Route>> {
        self.route_hosts(self.host_of(a), self.host_of(b), seed)
    }

    /// Routes between two host NICs, ECMP-spread by `seed`. Returns
    /// `None` only while a fabric fault leaves no surviving path.
    ///
    /// The seed is folded into one of [`NetState::ECMP_WAYS`] buckets
    /// (like a switch hashing the flow tuple into a bounded next-hop
    /// table), so the router's shared-route cache serves steady-state
    /// transfers without a path walk or a `Route` allocation, inside
    /// fault windows as well as outside them.
    pub(crate) fn route_hosts(&mut self, ha: NodeId, hb: NodeId, seed: u64) -> Option<Arc<Route>> {
        let bucket = ecmp_bucket(seed, Self::ECMP_WAYS);
        self.router.route_shared(&self.topology, ha, hb, bucket)
    }

    /// Switch-side `(switch index, port)` endpoints of `link`, by value
    /// (allocation-free; the wake paths call this per link per event).
    pub fn switch_ports_of_link(&self, link: LinkId) -> LinkPorts {
        self.link_ports[link.0 as usize]
    }

    /// Wakes the switch ports at both ends of `link` for transmission,
    /// returning the largest wake latency among them.
    pub fn wake_link(&mut self, now: SimTime, link: LinkId) -> SimDuration {
        let mut worst = SimDuration::ZERO;
        for (sw, port) in self.switch_ports_of_link(link) {
            let d = self.switches[sw].wake_for_tx(now, port);
            worst = worst.max(d);
        }
        worst
    }

    /// Network wake cost of placing work on `dst` given data sources
    /// `srcs`: the number of sleeping switches (no active port), plus a
    /// small charge per LPI port along the routes, plus a tiny distance
    /// term so nearer servers win ties (§IV-D's cost).
    pub fn wake_cost(&mut self, srcs: &[ServerId], dst: ServerId, seed: u64) -> f64 {
        let mut cost = 0.0;
        for &src in srcs {
            if src == dst {
                continue;
            }
            let Some(route) = self.route_between(src, dst, seed) else {
                continue;
            };
            cost += 0.02 * route.hops() as f64;
            for node in &route.nodes {
                if let Some(sw) = self.switch_of[node.0 as usize] {
                    if !self.switches[sw].any_port_active() {
                        cost += 1.0;
                    }
                }
            }
            for link in &route.links {
                for (sw, port) in self.switch_ports_of_link(*link) {
                    if self.switches[sw].wake_cost(port) > SimDuration::ZERO {
                        cost += 0.01;
                    }
                }
            }
        }
        cost
    }

    /// The switch-side `(switch index, port, link)` of `server`'s access
    /// link, if its first-hop neighbor is a switch.
    pub fn access_port(&self, server: ServerId) -> Option<(usize, u32, LinkId)> {
        let host = self.host_of(server);
        let (_, link) = self.topology.neighbors(host).next()?;
        let (swi, port) = self.switch_ports_of_link(link).first()?;
        Some((swi, port, link))
    }

    /// Instantaneous total switch power.
    pub fn switch_power_w(&self) -> f64 {
        self.switches.iter().map(|s| s.power_w()).sum()
    }

    /// Total switch energy through `now`.
    pub fn switch_energy_j(&self, now: SimTime) -> f64 {
        self.switches.iter().map(|s| s.energy_j(now)).sum()
    }
}

// ----------------------------------------------------------------------
// In-flight transfers. Every method schedules its follow-up events in a
// fixed order: same-instant events pop FIFO, so that order is part of
// the trajectory.
// ----------------------------------------------------------------------

impl NetState {
    /// Starts one DAG edge's transfer of `bytes` from `src` to `dst`,
    /// feeding dispatch slot `dispatch`: one flow, or a burst of
    /// MTU-sized packets routed by `seed` (flows seed ECMP with their own
    /// key). Returns `false` when no route survives, which only happens
    /// while a fabric fault is active.
    pub(crate) fn start_edge(
        &mut self,
        ctx: &mut Context<'_, DcEvent>,
        dispatch: u64,
        src: ServerId,
        dst: ServerId,
        bytes: u64,
        seed: u64,
    ) -> bool {
        let (hs, hd) = (self.host_of(src), self.host_of(dst));
        let CommModel::Packet { mtu, .. } = self.comm else {
            return self.launch_flow(ctx, hs, hd, bytes, dispatch);
        };
        let Some(route) = self.route_hosts(hs, hd, seed) else {
            debug_assert!(self.router.down_count() > 0, "topology is connected");
            return false;
        };
        // Packetize arithmetically (no segment vector): `full` MTU-sized
        // packets plus a possible short tail.
        let full = bytes / mtu;
        let tail = bytes % mtu;
        let n = full + u64::from(tail > 0);
        debug_assert!(n > 0, "inbound edges carry bytes");
        let xfer = self.transfer_slots.insert(TransferSt {
            remaining: n,
            dispatch,
        });
        for i in 0..n {
            let b = if i < full { mtu } else { tail };
            let st = PacketSt {
                packet: Packet::new(b, Arc::clone(&route)),
                xfer,
            };
            let slot = self.free_slots.pop().unwrap_or_else(|| {
                self.packet_slots.push(None);
                self.packet_slots.len() - 1
            });
            self.packet_slots[slot] = Some(st);
            self.send_packet(ctx, slot);
        }
        true
    }

    /// Launches (or, after a fault, relaunches) a flow of `bytes` from
    /// host `hs` to host `hd` feeding dispatch slot `dispatch`. The key
    /// is taken before routing because it is also the flow's ECMP seed.
    /// Returns `false` when no route survives.
    fn launch_flow(
        &mut self,
        ctx: &mut Context<'_, DcEvent>,
        hs: NodeId,
        hd: NodeId,
        bytes: u64,
        dispatch: u64,
    ) -> bool {
        let key = self.flow_slots.next_key();
        let Some(route) = self.route_hosts(hs, hd, key) else {
            debug_assert!(self.router.down_count() > 0, "topology is connected");
            return false;
        };
        let net_key = self.admit_or_park(ctx, key, &route, bytes);
        let slot = self.flow_slots.insert(FlowSt {
            route,
            dispatch,
            bytes,
            net_key,
        });
        debug_assert_eq!(slot, key);
        true
    }

    /// Wakes every switch port on flow `key`'s `route`. If all were up,
    /// the flow joins the solver, batched (the re-solve runs once per
    /// event, at [`NetState::schedule_flow_retimes`]), and its solver key
    /// returns. Otherwise it parks: it may not move data until the
    /// slowest port is back up (as the packet model pads each
    /// transmission start), so a `FlowAdmit` retries after that latency.
    fn admit_or_park(
        &mut self,
        ctx: &mut Context<'_, DcEvent>,
        key: u64,
        route: &Route,
        bytes: u64,
    ) -> Option<u64> {
        let now = ctx.now();
        let mut wake = SimDuration::ZERO;
        for &l in &route.links {
            wake = wake.max(self.wake_link(now, l));
        }
        if !wake.is_zero() {
            ctx.schedule_in(wake, DcEvent::FlowAdmit { flow: key });
            return None;
        }
        Some(
            self.flows
                .add_flow_batched(now, FlowId(key), &route.links, bytes),
        )
    }

    /// `FlowAdmit`: retries the admission of a flow parked by switch
    /// wake latency.
    pub(crate) fn on_flow_admit(&mut self, ctx: &mut Context<'_, DcEvent>, flow: u64) {
        // A fault may have killed the flow while it waited out the wake.
        let Some(st) = self.flow_slots.get(flow) else {
            return;
        };
        // A parked flow occupies no links yet, so an LpiCheck firing
        // inside the wake window can have re-slept a route port; any
        // residual latency parks the flow again.
        let (route, bytes) = (Arc::clone(&st.route), st.bytes);
        let Some(nk) = self.admit_or_park(ctx, flow, &route, bytes) else {
            return;
        };
        if let Some(st) = self.flow_slots.get_mut(flow) {
            st.net_key = Some(nk);
        }
        self.schedule_flow_retimes(ctx);
    }

    /// Flushes this event's batched flow admissions and removals (one
    /// fair-share solve) and re-arms the single `FlowsAdvance` event at
    /// the earliest projected completion. Rate deltas already retimed the
    /// per-flow entries inside the network's completion heap; the
    /// calendar only needs a new event when the earliest projection moved
    /// *before* the armed one (later moves leave the armed event to fire
    /// as a cheap no-op and re-arm itself).
    pub(crate) fn schedule_flow_retimes(&mut self, ctx: &mut Context<'_, DcEvent>) {
        let now = ctx.now();
        self.flows.flush(now);
        let Some(due) = self.flows.next_due() else {
            return;
        };
        if self.flow_check_armed > now && self.flow_check_armed <= due {
            return;
        }
        self.flow_check_armed = due;
        ctx.schedule_at(due, DcEvent::FlowsAdvance);
    }

    /// `FlowsAdvance`: completes every flow due at `now`. The driver then
    /// takes the delivered edges back one at a time through
    /// [`NetState::next_done_flow`].
    pub(crate) fn advance_flows(&mut self, now: SimTime) {
        self.flows.advance_due(now);
        self.flows_done
            .extend(self.flows.drain_completed().map(|c| c.id.0));
    }

    /// Retires the next flow [`NetState::advance_flows`] completed, arming
    /// LPI checks on the links it leaves idle, and returns the dispatch
    /// slot of the edge it delivered (`None` once all are handed back).
    pub(crate) fn next_done_flow(&mut self, ctx: &mut Context<'_, DcEvent>) -> Option<u64> {
        let key = self.flows_done.pop_front()?;
        let st = self
            .flow_slots
            .remove(key)
            .expect("completed flow has state");
        self.release_links(ctx, &st.route);
        Some(st.dispatch)
    }

    /// A flow left the solver: both switch ports of every link of its
    /// `route` now without flows get an LPI check after the hold.
    fn release_links(&mut self, ctx: &mut Context<'_, DcEvent>, route: &Route) {
        let Some(hold) = self.lpi_hold else {
            return;
        };
        let at = ctx.now() + hold;
        for &l in &route.links {
            if self.flows.flows_on_link(l) == 0 {
                for (swi, port) in self.switch_ports_of_link(l) {
                    self.schedule_lpi_check(ctx, swi, port, at);
                }
            }
        }
    }

    /// Cancels flow `key`. An admitted flow leaves the solver, losing
    /// its progress, and releases its links; a parked one occupies
    /// nothing, and its pending `FlowAdmit` finds no state. Returns the
    /// flow, or `None` if an earlier kill already dropped it.
    fn cancel_flow(&mut self, ctx: &mut Context<'_, DcEvent>, key: u64) -> Option<FlowSt> {
        let st = self.flow_slots.remove(key)?;
        if let Some(nk) = st.net_key {
            self.flows.remove_flow(ctx.now(), nk);
            self.release_links(ctx, &st.route);
        }
        Some(st)
    }

    /// Keys of the flows whose route crosses a down switch or link, in
    /// key order.
    pub(crate) fn severed_flows(&self) -> Vec<u64> {
        self.flow_slots
            .iter()
            .filter(|(_, st)| self.router.is_severed(&st.route, 0))
            .map(|(k, _)| k)
            .collect()
    }

    /// Restarts severed flow `key` from its full size on a surviving
    /// route. Returns whether the flow had been admitted (its progress is
    /// lost), and the dispatch slot the caller must kill when no route
    /// survives. Both are empty if an earlier kill dropped the flow.
    pub(crate) fn restart_flow(
        &mut self,
        ctx: &mut Context<'_, DcEvent>,
        key: u64,
    ) -> (bool, Option<u64>) {
        let Some(st) = self.cancel_flow(ctx, key) else {
            return (false, None);
        };
        let (hs, hd) = (st.route.nodes[0], st.route.nodes[st.route.nodes.len() - 1]);
        let routed = self.launch_flow(ctx, hs, hd, st.bytes, st.dispatch);
        (st.net_key.is_some(), (!routed).then_some(st.dispatch))
    }

    /// Dispatch slots whose packet burst a fabric fault doomed (a packet
    /// still heading into a down component), once each, in slot order.
    pub(crate) fn doomed_bursts(&self) -> Vec<u64> {
        let mut doomed = Vec::new();
        for st in self.packet_slots.iter().flatten() {
            let Some(tr) = self.transfer_slots.get(st.xfer) else {
                continue;
            };
            if self.router.is_severed(&st.packet.route, st.packet.hop)
                && !doomed.contains(&tr.dispatch)
            {
                doomed.push(tr.dispatch);
            }
        }
        doomed
    }

    /// Drops every in-flight transfer feeding dispatch slot `dispatch`.
    /// A dropped burst orphans its packets; each is reaped when its next
    /// event finds the burst gone (free-list reuse makes eager freeing
    /// unsafe).
    pub(crate) fn drop_edges(&mut self, ctx: &mut Context<'_, DcEvent>, dispatch: u64) {
        let flows: Vec<u64> = self
            .flow_slots
            .iter()
            .filter(|(_, st)| st.dispatch == dispatch)
            .map(|(k, _)| k)
            .collect();
        for k in flows {
            self.cancel_flow(ctx, k);
        }
        let bursts: Vec<u64> = self
            .transfer_slots
            .iter()
            .filter(|(_, st)| st.dispatch == dispatch)
            .map(|(k, _)| k)
            .collect();
        for k in bursts {
            self.transfer_slots.remove(k);
        }
    }

    /// Packets currently in flight.
    pub(crate) fn packets_in_flight(&self) -> usize {
        self.packet_slots.len() - self.free_slots.len()
    }

    /// The packet in `slot`, or `None` once a fault dropped its burst
    /// (the slot is reaped then).
    fn live_packet(&mut self, slot: usize) -> Option<&mut PacketSt> {
        let xfer = self.packet_slots[slot]
            .as_ref()
            .expect("live packet slot")
            .xfer;
        if self.transfer_slots.get(xfer).is_none() {
            self.packet_slots[slot] = None;
            self.free_slots.push(slot);
            return None;
        }
        self.packet_slots[slot].as_mut()
    }

    /// Transmits the packet in `slot` over its next hop (`PacketRetry`
    /// re-enters here after a tail-drop).
    pub(crate) fn send_packet(&mut self, ctx: &mut Context<'_, DcEvent>, slot: usize) {
        let Some(st) = self.live_packet(slot) else {
            return;
        };
        let now = ctx.now();
        let node = st.packet.current_node();
        let link = st.packet.next_link().expect("packet not at destination");
        let bytes = st.packet.bytes;
        // Wake the egress port if this node is a switch; the wake latency
        // delays the transmission start.
        let mut start = now;
        let sw_port = self.switch_of[node.0 as usize].and_then(|swi| {
            self.link_ports[link.0 as usize]
                .into_iter()
                .find(|&(sw, _)| sw == swi)
        });
        if let Some((swi, port)) = sw_port {
            let wake = self.switches[swi].wake_for_tx(now, port);
            start = now + wake;
        }
        match self
            .packets
            .transmit(start, &self.topology, link, node, bytes)
        {
            TxOutcome::Forwarded { arrives_at } => {
                if let Some((swi, port)) = sw_port {
                    let tx_end = arrives_at - self.topology.link(link).latency;
                    self.switches[swi].note_tx_end(port, tx_end);
                    if let Some(hold) = self.lpi_hold {
                        self.schedule_lpi_check(ctx, swi, port, tx_end + hold);
                    }
                }
                ctx.schedule_at(arrives_at, DcEvent::PacketArrive { slot });
            }
            TxOutcome::Dropped => {
                ctx.schedule_in(RETRY_DELAY, DcEvent::PacketRetry { slot });
            }
        }
    }

    /// `PacketArrive`: moves the packet in `slot` one hop on and forwards
    /// it. When a burst's last packet lands, returns the dispatch slot of
    /// the edge it delivered.
    pub(crate) fn on_packet_arrive(
        &mut self,
        ctx: &mut Context<'_, DcEvent>,
        slot: usize,
    ) -> Option<u64> {
        let st = self.live_packet(slot)?;
        let xfer = st.xfer;
        st.packet.hop += 1;
        if !st.packet.at_destination() {
            self.send_packet(ctx, slot);
            return None;
        }
        self.packet_slots[slot] = None;
        self.free_slots.push(slot);
        // `live_packet` found the burst, so it is still outstanding.
        let tr = self.transfer_slots.get_mut(xfer)?;
        tr.remaining -= 1;
        if tr.remaining > 0 {
            return None;
        }
        self.transfer_slots.remove(xfer).map(|tr| tr.dispatch)
    }

    // ------------------------------------------------------------------
    // Switch-port LPI
    // ------------------------------------------------------------------

    /// Arms the first idle check of every switch port: idle ports may
    /// enter LPI after the initial hold.
    pub(crate) fn arm_lpi_checks(&mut self, ctx: &mut Context<'_, DcEvent>) {
        let Some(hold) = self.lpi_hold else {
            return;
        };
        let at = ctx.now() + hold;
        for swi in 0..self.switches.len() {
            for port in 0..self.switches[swi].port_count() as u32 {
                self.schedule_lpi_check(ctx, swi, port, at);
            }
        }
    }

    /// `LpiCheck`: the port's LPI hold expired; idles the port unless
    /// traffic arrived since the check was armed.
    pub(crate) fn on_lpi_check(
        &mut self,
        ctx: &mut Context<'_, DcEvent>,
        switch: usize,
        port: u32,
    ) {
        let now = ctx.now();
        let Some(hold) = self.lpi_hold else {
            return;
        };
        let is_packet = matches!(self.comm, CommModel::Packet { .. });
        // Coalesced (packet) mode: a later check is armed for this port,
        // so this event is a leftover from before coalescing kicked in.
        if is_packet && self.lpi_armed[switch][port as usize] > now {
            return;
        }
        let link = self.port_link[switch][port as usize];
        let busy = if is_packet {
            let sw_node = self.switches[switch].node();
            self.packets
                .egress_idle_at(&self.topology, link, sw_node, now)
                > now
        } else {
            self.flows.flows_on_link(link) > 0
        };
        let idle_due = self.switches[switch].last_tx_end(port).saturating_add(hold);
        if busy || idle_due > now {
            // Traffic since this check was scheduled. Packet mode owns
            // the port's single timer: re-arm it at the idle deadline
            // (every in-flight transmission has already advanced
            // `last_tx_end`, so the deadline is in the future whenever
            // the port is busy).
            if is_packet && idle_due > now {
                self.lpi_armed[switch][port as usize] = idle_due;
                ctx.schedule_at(idle_due, DcEvent::LpiCheck { switch, port });
            }
            return;
        }
        let use_alr = self.use_alr;
        let sw = &mut self.switches[switch];
        if use_alr {
            // ALR mode: negotiate the idle port down the ladder instead of
            // entering LPI (zero exit latency, smaller savings).
            let lowest = sw.profile().port.alr_ladder.first().map(|&(rate, _)| rate);
            if let Some(rate) = lowest {
                sw.set_port_rate(now, port, Some(rate));
            }
        } else if sw.enter_lpi(now, port) {
            let card = sw.card_of(port);
            sw.sleep_card(now, card);
        }
    }

    /// Marks `sid`'s access-link switch port active for a transmission of
    /// `bytes`, charging LPI wake-ups and scheduling the idle re-check —
    /// the mechanism behind the §V-B port-state log.
    pub(crate) fn touch_access_port(
        &mut self,
        ctx: &mut Context<'_, DcEvent>,
        sid: ServerId,
        bytes: u64,
    ) {
        let now = ctx.now();
        let Some((swi, port, link)) = self.access_port(sid) else {
            return;
        };
        let wake = self.switches[swi].wake_for_tx(now, port);
        let rate = self.topology.link(link).rate_bps;
        let tx_end = now + wake + SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate as f64);
        self.switches[swi].note_tx_end(port, tx_end);
        if let Some(hold) = self.lpi_hold {
            self.schedule_lpi_check(ctx, swi, port, tx_end + hold);
        }
    }

    /// Schedules an `LpiCheck` for `(swi, port)` at `at`.
    ///
    /// In packet mode the per-port idle timer is coalesced: while a check
    /// is still outstanding (armed strictly in the future), new requests
    /// are dropped — the outstanding check re-arms itself off the port's
    /// `last_tx_end` when it fires — so a busy port carries one pending
    /// idle check per hold window instead of one per forwarded packet,
    /// while still entering LPI at exactly `last_tx_end + hold`. Flow
    /// mode keeps direct scheduling (its check volume is per-flow, and
    /// link-freed checks are not tied to the transmit clock).
    fn schedule_lpi_check(
        &mut self,
        ctx: &mut Context<'_, DcEvent>,
        swi: usize,
        port: u32,
        at: SimTime,
    ) {
        let at = at.max(ctx.now());
        if matches!(self.comm, CommModel::Packet { .. }) {
            let armed = &mut self.lpi_armed[swi][port as usize];
            if *armed > ctx.now() {
                return;
            }
            *armed = at;
        }
        ctx.schedule_at(at, DcEvent::LpiCheck { switch: swi, port });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim_power::switch_profile::SwitchPowerProfile;

    fn fat_tree_cfg() -> NetworkConfig {
        NetworkConfig::fat_tree(4)
    }

    #[test]
    fn builds_fat_tree_with_devices() {
        let net = NetState::build(SimTime::ZERO, &fat_tree_cfg(), 16);
        assert_eq!(net.hosts.len(), 16);
        assert_eq!(net.switches.len(), 20);
        assert!(net.switch_power_w() > 0.0);
    }

    #[test]
    #[should_panic(expected = "provides")]
    fn too_many_servers_rejected() {
        let _ = NetState::build(SimTime::ZERO, &fat_tree_cfg(), 17);
    }

    #[test]
    fn star_sizes_to_server_count() {
        let cfg = NetworkConfig::validation_star();
        let net = NetState::build(SimTime::ZERO, &cfg, 24);
        assert_eq!(net.hosts.len(), 24);
        assert_eq!(net.switches.len(), 1);
        let p = net.switch_power_w();
        assert!((p - 20.22).abs() < 1e-9, "power {p}");
    }

    #[test]
    fn link_ports_map_to_switch_side() {
        let net = NetState::build(SimTime::ZERO, &NetworkConfig::validation_star(), 4);
        // Host links touch exactly one switch.
        for l in 0..net.topology.links().len() {
            let ports = net.switch_ports_of_link(LinkId(l as u32));
            assert_eq!(ports.as_slice().len(), 1);
        }
    }

    #[test]
    fn wake_cost_counts_sleeping_switches() {
        let mut net = NetState::build(SimTime::ZERO, &fat_tree_cfg(), 16);
        let srcs = [ServerId(0)];
        let base = net.wake_cost(&srcs, ServerId(15), 1);
        // All switches awake: only the small distance term remains
        // (cross-pod route: 6 hops x 0.02).
        assert!(base < 0.2, "all awake, cost {base}");
        // Put every port of every switch into LPI: switches count as asleep.
        let t = SimTime::from_secs(1);
        for sw in &mut net.switches {
            for p in 0..sw.port_count() as u32 {
                sw.enter_lpi(t, p);
            }
        }
        let asleep = net.wake_cost(&srcs, ServerId(15), 1);
        assert!(
            asleep >= 3.0,
            "cross-pod route wakes several switches: {asleep}"
        );
    }

    #[test]
    fn wake_link_returns_worst_latency() {
        let cfg = NetworkConfig {
            switch_profile: SwitchPowerProfile::datacenter_48port(),
            ..NetworkConfig::validation_star()
        };
        let mut net = NetState::build(SimTime::ZERO, &cfg, 4);
        let t = SimTime::from_secs(1);
        for p in 0..4 {
            net.switches[0].enter_lpi(t, p);
        }
        let d = net.wake_link(SimTime::from_secs(2), LinkId(0));
        assert_eq!(d, SimDuration::from_micros(5));
        // Idempotent: second wake is free.
        assert_eq!(
            net.wake_link(SimTime::from_secs(2), LinkId(0)),
            SimDuration::ZERO
        );
    }
}
