//! The inter-cluster WAN: forwarded jobs traverse their site-to-site path
//! hop by hop, each hop either a FIFO pipe (serialization + propagation)
//! or a max-min fair-shared flow link driven through the kernel's
//! [`FlowNet`] solver arms — selectable per link via [`WanLinkMode`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use holdcsim::config::{WanConfig, WanLinkMode};
use holdcsim::export::JsonObj;
use holdcsim::job::JobState;
use holdcsim_des::slot_window::SlotWindow;
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_network::flow::FlowNet;
use holdcsim_network::ids::{FlowId, LinkId, NodeId};
use holdcsim_network::topology::Topology;

/// Per-link runtime state over the configured WAN link.
#[derive(Debug)]
struct LinkState {
    rate_bps: u64,
    latency: SimDuration,
    energy_per_byte_j: f64,
    mode: WanLinkMode,
    /// Pipe mode: when the current FIFO serialization drains.
    busy_until: SimTime,
    /// Endpoints as WAN-topology nodes (for flow admission).
    a: NodeId,
    b: NodeId,
    /// Failed by the fault schedule: excluded from paths, carries
    /// nothing until it recovers.
    down: bool,
}

/// One forwarded job in flight across the WAN.
#[derive(Debug)]
struct Transfer {
    src: u32,
    dst: u32,
    bytes: u64,
    hop: u32,
    started: SimTime,
    /// The link-id path snapshotted at launch (or relaunch): a fault that
    /// recomputes the site paths must not shift the ground under a
    /// mid-path transfer. Empty while parked.
    path: Vec<u32>,
    /// Bumped on every fault-forced restart; hop completions carrying a
    /// stale generation are dropped.
    gen: u32,
    job: JobState,
}

/// Aggregate WAN outcome of a federated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanReport {
    /// Transfers started.
    pub transfers: u64,
    /// Transfers fully delivered (in-flight ones at the horizon are cut
    /// off, like arrivals past the horizon).
    pub delivered: u64,
    /// Payload bytes entering the WAN.
    pub payload_bytes: u64,
    /// Bytes moved across links (payload × hops traversed).
    pub link_bytes: u64,
    /// Transport energy charged across all link traversals, joules.
    pub energy_j: f64,
    /// Mean delivered-transfer latency, seconds.
    pub mean_transfer_s: f64,
    /// Fault-side WAN outcome — `Some` only when a WAN fault schedule is
    /// armed, so fault-free reports keep their exact byte layout.
    pub faults: Option<WanFaultStats>,
}

/// WAN resilience counters (armed fault schedules only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanFaultStats {
    /// Transfers restarted from their source because a link on their
    /// path died mid-flight.
    pub restarts: u64,
    /// Transfers that waited at the WAN ingress with no usable path
    /// (cumulative park events).
    pub parked: u64,
    /// Transfers still parked without a path at the horizon.
    pub still_parked: u64,
    /// Summed per-link down seconds (open intervals run to the horizon).
    pub link_downtime_s: f64,
}

impl WanFaultStats {
    /// Renders the stats as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .int("restarts", self.restarts)
            .int("parked", self.parked)
            .int("still_parked", self.still_parked)
            .num("link_downtime_s", self.link_downtime_s)
            .finish()
    }
}

impl WanReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObj::new()
            .int("transfers", self.transfers)
            .int("delivered", self.delivered)
            .int("payload_bytes", self.payload_bytes)
            .int("link_bytes", self.link_bytes)
            .num("energy_j", self.energy_j)
            .num("mean_transfer_s", self.mean_transfer_s);
        if let Some(f) = &self.faults {
            obj = obj.raw("faults", &f.to_json());
        }
        obj.finish()
    }
}

/// The WAN engine owned by a federation coordinator.
#[derive(Debug)]
pub struct Wan {
    links: Vec<LinkState>,
    /// `paths[src][dst]`: link-id sequence, `None` when unreachable.
    paths: Vec<Vec<Option<Vec<u32>>>>,
    /// Propagation latency (s) per site pair (∞ when unreachable).
    latency_s: Vec<Vec<f64>>,
    /// The static lookahead floor: the smallest site-pair path latency
    /// (exact nanoseconds). `None` when no site can reach another — the
    /// lookahead is then unbounded.
    lookahead: Option<SimDuration>,
    /// Fair-share model over the WAN topology (flow-mode hops only).
    flows: FlowNet,
    transfers: SlotWindow<Transfer>,
    /// Pending hop completions `(instant, transfer key, generation)`;
    /// entries whose generation no longer matches the transfer are
    /// stale (the transfer restarted after a fault) and are dropped.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Scratch for flow completions drained per advance.
    scratch_done: Vec<(u64, SimTime)>,
    /// The site graph as `(a, b, latency)` per link, in link-id order —
    /// kept so paths can recompute against the surviving link set.
    graph: Vec<(u32, u32, SimDuration)>,
    nodes: usize,
    sites: usize,
    /// Links currently failed.
    down_count: u32,
    /// Per-link open down interval start.
    link_down_since: Vec<Option<SimTime>>,
    /// Closed down intervals, seconds.
    link_downtime_s: f64,
    /// Transfer keys waiting at the ingress with no usable path, in
    /// park order; re-launched on recovery in that order.
    parked: Vec<u64>,
    restarts: u64,
    parked_total: u64,
    /// A WAN fault schedule exists: the report grows its fault section.
    fault_armed: bool,
    started: u64,
    delivered: u64,
    payload_bytes: u64,
    link_bytes: u64,
    energy_j: f64,
    latency_sum_s: f64,
}

impl Wan {
    /// Builds the WAN over `sites` gateways (plus `cfg.extra_nodes`
    /// relays), computing deterministic minimum-latency site-to-site
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics on malformed links (self-links, unknown endpoints).
    pub fn build(cfg: &WanConfig, sites: usize) -> Self {
        let nodes = sites + cfg.extra_nodes as usize;
        let mut degree = vec![0u32; nodes];
        for l in &cfg.links {
            assert!(l.a != l.b, "WAN self-link at node {}", l.a);
            assert!(
                l.rate_bps > 0,
                "WAN link {}-{} needs a positive rate",
                l.a,
                l.b
            );
            for n in [l.a, l.b] {
                assert!(
                    (n as usize) < nodes,
                    "WAN link endpoint {n} outside the {nodes}-node WAN"
                );
                degree[n as usize] += 1;
            }
        }
        // A tiny switch-only topology mirroring the WAN graph 1:1 (link
        // ids align with `cfg.links` indices) so flow-mode hops share
        // bandwidth through the regular fair-share solver.
        let mut builder = Topology::builder();
        let node_ids: Vec<NodeId> = degree
            .iter()
            .map(|&d| builder.add_switch(1, d.max(1)))
            .collect();
        let mut links = Vec::with_capacity(cfg.links.len());
        for l in &cfg.links {
            let (a, b) = (node_ids[l.a as usize], node_ids[l.b as usize]);
            let id = builder
                .link(a, b, l.rate_bps, l.latency)
                .expect("validated WAN link");
            debug_assert_eq!(id.0 as usize, links.len());
            links.push(LinkState {
                rate_bps: l.rate_bps,
                latency: l.latency,
                energy_per_byte_j: l.energy_per_byte_j,
                mode: l.mode,
                busy_until: SimTime::ZERO,
                a,
                b,
                down: false,
            });
        }
        let topo = builder.build();
        let flows = FlowNet::with_solver(&topo, cfg.flow_solver);
        let graph: Vec<(u32, u32, SimDuration)> =
            cfg.links.iter().map(|l| (l.a, l.b, l.latency)).collect();
        let (paths, latency_s, lookahead) =
            shortest_paths(&graph, &vec![false; graph.len()], nodes, sites);
        let link_down_since = vec![None; links.len()];
        Wan {
            links,
            paths,
            latency_s,
            lookahead,
            flows,
            transfers: SlotWindow::new(),
            heap: BinaryHeap::new(),
            scratch_done: Vec::new(),
            graph,
            nodes,
            sites,
            down_count: 0,
            link_down_since,
            link_downtime_s: 0.0,
            parked: Vec::new(),
            restarts: 0,
            parked_total: 0,
            fault_armed: false,
            started: 0,
            delivered: 0,
            payload_bytes: 0,
            link_bytes: 0,
            energy_j: 0.0,
            latency_sum_s: 0.0,
        }
    }

    /// Propagation latency (seconds) from `src` to every site (∞ when no
    /// WAN path exists) — the static input of latency-aware dispatch.
    pub fn path_latency_s(&self, src: usize) -> Vec<f64> {
        self.latency_s[src].clone()
    }

    /// The static WAN lookahead floor: the minimum path latency over all
    /// distinct site pairs, in exact nanoseconds. A job sent at `t`
    /// cannot be delivered before `t + lookahead`, so site events
    /// strictly before `earliest event + lookahead` are causally
    /// independent across sites — the conservative-window bound. `None`
    /// when no site pair is connected (sends are then impossible and the
    /// lookahead is unbounded).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Starts shipping `bytes` (carrying `job`) from site `src` to `dst`.
    /// With fault-failed links in play a currently unreachable pair
    /// parks the transfer at the ingress; it launches when a path comes
    /// back.
    ///
    /// # Panics
    ///
    /// Panics if the sites are unreachable with every link healthy, or
    /// `bytes == 0`.
    pub fn send(&mut self, now: SimTime, src: u32, dst: u32, bytes: u64, job: JobState) {
        assert!(bytes > 0, "WAN transfers carry payload");
        let path = self.paths[src as usize][dst as usize].clone();
        assert!(
            path.is_some() || self.down_count > 0,
            "no WAN path from site {src} to site {dst}"
        );
        let key = self.transfers.insert(Transfer {
            src,
            dst,
            bytes,
            hop: 0,
            started: now,
            path: path.clone().unwrap_or_default(),
            gen: 0,
            job,
        });
        self.started += 1;
        self.payload_bytes += bytes;
        match path {
            Some(_) => self.start_hop(now, key),
            None => {
                self.parked.push(key);
                self.parked_total += 1;
            }
        }
    }

    /// Launches the current hop of transfer `key` at `now`.
    fn start_hop(&mut self, now: SimTime, key: u64) {
        let t = self.transfers.get(key).expect("live transfer");
        let link_id = t.path[t.hop as usize];
        let (bytes, gen) = (t.bytes, t.gen);
        let l = &mut self.links[link_id as usize];
        match l.mode {
            WanLinkMode::Pipe => {
                // FIFO serialization, then propagation.
                let tx = SimDuration::from_secs_f64(bytes as f64 * 8.0 / l.rate_bps as f64);
                l.busy_until = l.busy_until.max(now) + tx;
                let arrive = l.busy_until + l.latency;
                self.heap.push(Reverse((arrive, key, gen)));
            }
            WanLinkMode::Flow => {
                // Fair-shared serialization through the solver; the
                // propagation latency is appended on flow completion.
                self.flows
                    .add_flow(now, FlowId(key), l.a, l.b, &[LinkId(link_id)], bytes);
            }
        }
    }

    /// The instant of the next WAN event (hop completion), if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        let pipe = self.heap.peek().map(|Reverse((t, ..))| *t);
        let flow = self.flows.next_due();
        match (pipe, flow) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Processes every WAN event due at or before `now`, appending fully
    /// delivered jobs to `deliveries` as `(destination site, job)`.
    pub fn advance(&mut self, now: SimTime, deliveries: &mut Vec<(u32, JobState)>) {
        loop {
            let mut progressed = false;
            // Flow-mode serializations that finished: append propagation.
            if self.flows.next_due().is_some_and(|d| d <= now) {
                self.flows.advance_due(now);
                self.scratch_done.clear();
                for c in self.flows.drain_completed() {
                    self.scratch_done.push((c.id.0, now));
                }
                for &(key, at) in &self.scratch_done {
                    // Flow completions are never stale: a fault severing
                    // this hop would have removed the flow from the
                    // solver before the restart.
                    let t = self.transfers.get(key).expect("live transfer");
                    let link = t.path[t.hop as usize] as usize;
                    self.heap
                        .push(Reverse((at + self.links[link].latency, key, t.gen)));
                }
                progressed = !self.scratch_done.is_empty();
            }
            // Hop completions (pipe arrivals and post-flow propagation).
            while self.heap.peek().is_some_and(|Reverse((t, ..))| *t <= now) {
                let Reverse((at, key, gen)) = self.heap.pop().expect("peeked");
                progressed = true;
                // Drop stale hops: the transfer restarted after a fault
                // (and may have since delivered under its new
                // generation) — this hop's bits died on the failed link.
                let Some(t) = self.transfers.get_mut(key) else {
                    continue;
                };
                if t.gen != gen {
                    continue;
                }
                let path_len = {
                    let link = &self.links[t.path[t.hop as usize] as usize];
                    self.link_bytes += t.bytes;
                    self.energy_j += t.bytes as f64 * link.energy_per_byte_j;
                    t.path.len()
                };
                t.hop += 1;
                if (t.hop as usize) == path_len {
                    let t = self.transfers.remove(key).expect("live transfer");
                    self.delivered += 1;
                    self.latency_sum_s += at.saturating_duration_since(t.started).as_secs_f64();
                    deliveries.push((t.dst, t.job));
                } else {
                    self.start_hop(at, key);
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Arms the fault section of the report. Called once by the
    /// federation when the cluster config carries WAN fault events, so
    /// fault-free runs keep their exact report bytes.
    pub fn arm_faults(&mut self) {
        self.fault_armed = true;
    }

    /// Fails (`down == true`) or recovers a WAN link at `now`,
    /// recomputing site paths and the lookahead floor against the
    /// surviving links. On failure, in-flight transfers whose remaining
    /// path crosses the dead link restart from their source (their bits
    /// on the wire are lost); on either transition, parked transfers
    /// that regained a path relaunch in park order. Returns `false` when
    /// the link is unknown or already in the requested state.
    pub fn set_link_down(&mut self, now: SimTime, link: u32, down: bool) -> bool {
        let Some(l) = self.links.get_mut(link as usize) else {
            return false;
        };
        if l.down == down {
            return false;
        }
        l.down = down;
        if down {
            self.down_count += 1;
            self.link_down_since[link as usize] = Some(now);
        } else {
            self.down_count -= 1;
            if let Some(t0) = self.link_down_since[link as usize].take() {
                self.link_downtime_s += now.saturating_duration_since(t0).as_secs_f64();
            }
        }
        let mask: Vec<bool> = self.links.iter().map(|l| l.down).collect();
        let (paths, latency_s, lookahead) =
            shortest_paths(&self.graph, &mask, self.nodes, self.sites);
        self.paths = paths;
        self.latency_s = latency_s;
        self.lookahead = lookahead;
        if down {
            // Restart every transfer crossing the dead link, in key
            // (launch) order. Parked transfers have an empty path and
            // skip naturally.
            let crossing: Vec<u64> = self
                .transfers
                .iter()
                .filter(|(_, t)| t.path[t.hop as usize..].contains(&link))
                .map(|(k, _)| k)
                .collect();
            for key in crossing {
                self.restart_transfer(now, key);
            }
        }
        self.release_parked(now);
        true
    }

    /// Restarts transfer `key` from its source on the current paths:
    /// the hop in progress is severed (its flow leaves the solver, its
    /// pending completion goes stale) and the payload relaunches from
    /// hop zero — or parks when the sites are now disconnected.
    fn restart_transfer(&mut self, now: SimTime, key: u64) {
        self.flows.remove_flow(now, key);
        self.restarts += 1;
        let (src, dst) = {
            let t = self.transfers.get_mut(key).expect("live transfer");
            t.gen += 1;
            t.hop = 0;
            (t.src as usize, t.dst as usize)
        };
        let path = self.paths[src][dst].clone();
        let t = self.transfers.get_mut(key).expect("live transfer");
        match path {
            Some(p) => {
                t.path = p;
                self.start_hop(now, key);
            }
            None => {
                t.path = Vec::new();
                self.parked.push(key);
                self.parked_total += 1;
            }
        }
    }

    /// Relaunches parked transfers that have a path again, in park
    /// order; the rest keep waiting.
    fn release_parked(&mut self, now: SimTime) {
        if self.parked.is_empty() {
            return;
        }
        let mut parked = std::mem::take(&mut self.parked);
        parked.retain(|&key| {
            let (src, dst) = {
                let t = self.transfers.get(key).expect("parked transfer");
                (t.src as usize, t.dst as usize)
            };
            match self.paths[src][dst].clone() {
                Some(p) => {
                    let t = self.transfers.get_mut(key).expect("parked transfer");
                    t.path = p;
                    self.start_hop(now, key);
                    false
                }
                None => true,
            }
        });
        debug_assert!(self.parked.is_empty(), "no parking during release");
        self.parked = parked;
    }

    /// Transfers currently crossing the WAN.
    pub fn in_flight(&self) -> usize {
        self.transfers.len()
    }

    /// Total payload bytes of transfers currently crossing the WAN.
    ///
    /// Sampled by the federation coordinator's WAN metrics probes; O(live
    /// transfers), so only walked on the metrics period.
    pub fn in_flight_bytes(&self) -> u64 {
        self.transfers.iter().map(|(_, t)| t.bytes).sum()
    }

    /// Summed per-link down seconds as of `now` (open intervals
    /// included).
    pub fn link_downtime_s(&self, now: SimTime) -> f64 {
        self.link_down_since
            .iter()
            .flatten()
            .fold(self.link_downtime_s, |acc, &t0| {
                acc + now.saturating_duration_since(t0).as_secs_f64()
            })
    }

    /// The aggregate WAN outcome as of `now` (the horizon when the run
    /// is over; `now` only affects open fault downtime intervals).
    pub fn report(&self, now: SimTime) -> WanReport {
        WanReport {
            transfers: self.started,
            delivered: self.delivered,
            payload_bytes: self.payload_bytes,
            link_bytes: self.link_bytes,
            energy_j: self.energy_j,
            mean_transfer_s: if self.delivered > 0 {
                self.latency_sum_s / self.delivered as f64
            } else {
                0.0
            },
            faults: self.fault_armed.then(|| WanFaultStats {
                restarts: self.restarts,
                parked: self.parked_total,
                still_parked: self.parked.len() as u64,
                link_downtime_s: self.link_downtime_s(now),
            }),
        }
    }
}

/// Deterministic minimum-latency paths between all site pairs over the
/// surviving (`!down`) links (Dijkstra in exact nanoseconds; ties
/// resolved by scan order, so identical configs always yield identical
/// paths).
#[allow(clippy::type_complexity)]
fn shortest_paths(
    graph: &[(u32, u32, SimDuration)],
    down: &[bool],
    nodes: usize,
    sites: usize,
) -> (
    Vec<Vec<Option<Vec<u32>>>>,
    Vec<Vec<f64>>,
    Option<SimDuration>,
) {
    // Adjacency in link-id order.
    let mut adj: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nodes];
    for (i, &(a, b, _)) in graph.iter().enumerate() {
        if down[i] {
            continue;
        }
        adj[a as usize].push((b as usize, i as u32));
        adj[b as usize].push((a as usize, i as u32));
    }
    let mut paths = vec![vec![None; sites]; sites];
    let mut latency_s = vec![vec![f64::INFINITY; sites]; sites];
    // Minimum over distinct reachable site pairs, exact nanos: the
    // federation's static lookahead floor.
    let mut min_pair: Option<u64> = None;
    for src in 0..sites {
        let mut dist = vec![u64::MAX; nodes];
        let mut via: Vec<Option<(usize, u32)>> = vec![None; nodes];
        let mut done = vec![false; nodes];
        dist[src] = 0;
        loop {
            // O(V²) selection: the WAN graph is a handful of nodes.
            let mut u = None;
            for v in 0..nodes {
                if !done[v] && dist[v] < u.map_or(u64::MAX, |(_, d)| d) {
                    u = Some((v, dist[v]));
                }
            }
            let Some((u, du)) = u else { break };
            done[u] = true;
            for &(v, link) in &adj[u] {
                let d = du.saturating_add(graph[link as usize].2.as_nanos());
                if d < dist[v] {
                    dist[v] = d;
                    via[v] = Some((u, link));
                }
            }
        }
        for dst in 0..sites {
            if dst == src {
                paths[src][dst] = Some(Vec::new());
                latency_s[src][dst] = 0.0;
                continue;
            }
            if dist[dst] == u64::MAX {
                continue;
            }
            let mut hops = Vec::new();
            let mut v = dst;
            while v != src {
                let (prev, link) = via[v].expect("reached nodes have predecessors");
                hops.push(link);
                v = prev;
            }
            hops.reverse();
            paths[src][dst] = Some(hops);
            latency_s[src][dst] = dist[dst] as f64 * 1e-9;
            min_pair = Some(min_pair.map_or(dist[dst], |m| m.min(dist[dst])));
        }
    }
    (paths, latency_s, min_pair.map(SimDuration::from_nanos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim::config::{WanConfig, WanLink};
    use holdcsim_des::time::SimDuration;
    use holdcsim_workload::dag::TaskSpec;

    fn job() -> JobState {
        let dag = holdcsim_workload::dag::JobDag::builder()
            .task(TaskSpec::compute(SimDuration::from_millis(1)))
            .build()
            .unwrap();
        JobState::new(dag, SimTime::ZERO)
    }

    fn drain(wan: &mut Wan) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while let Some(t) = wan.next_time() {
            buf.clear();
            wan.advance(t, &mut buf);
            out.extend(buf.drain(..).map(|(dst, _)| (t, dst)));
        }
        out
    }

    #[test]
    fn pipe_serializes_fifo_then_propagates() {
        // 1 Gb/s, 10 ms: 1 MB takes 8 ms on the wire.
        let cfg = WanConfig::full_mesh(2, 1_000_000_000, SimDuration::from_millis(10));
        let mut wan = Wan::build(&cfg, 2);
        wan.send(SimTime::ZERO, 0, 1, 1_000_000, job());
        wan.send(SimTime::ZERO, 0, 1, 1_000_000, job());
        let got = drain(&mut wan);
        assert_eq!(
            got,
            vec![(SimTime::from_millis(18), 1), (SimTime::from_millis(26), 1),],
            "second transfer queues behind the first's serialization"
        );
        let r = wan.report(SimTime::ZERO);
        assert_eq!((r.transfers, r.delivered), (2, 2));
        assert!(r.faults.is_none(), "unarmed faults stay out of the report");
        assert_eq!(r.payload_bytes, 2_000_000);
        assert_eq!(r.link_bytes, 2_000_000, "single hop each");
        assert!(r.energy_j > 0.0);
        assert!((r.mean_transfer_s - 0.022).abs() < 1e-9);
    }

    #[test]
    fn hub_paths_pay_two_hops() {
        let cfg = WanConfig::hub(3, 1_000_000_000, SimDuration::from_millis(10));
        let mut wan = Wan::build(&cfg, 3);
        assert!((wan.path_latency_s(0)[2] - 0.020).abs() < 1e-12);
        wan.send(SimTime::ZERO, 0, 2, 1_000_000, job());
        let got = drain(&mut wan);
        // Store-and-forward: (8 + 10) ms per hop.
        assert_eq!(got, vec![(SimTime::from_millis(36), 2)]);
        assert_eq!(
            wan.report(SimTime::ZERO).link_bytes,
            2_000_000,
            "payload crossed twice"
        );
    }

    #[test]
    fn flow_links_share_bandwidth_max_min() {
        let cfg = WanConfig::full_mesh(2, 1_000_000_000, SimDuration::from_millis(10))
            .with_mode(WanLinkMode::Flow);
        let mut wan = Wan::build(&cfg, 2);
        wan.send(SimTime::ZERO, 0, 1, 1_000_000, job());
        wan.send(SimTime::ZERO, 0, 1, 1_000_000, job());
        let got = drain(&mut wan);
        assert_eq!(got.len(), 2);
        // Both share the link at 500 Mb/s: ~16 ms serialization + 10 ms
        // propagation (the solver adds a 1 ns completion guard).
        let t = got[1].0.as_secs_f64();
        assert!((t - 0.026).abs() < 1e-6, "shared completion at {t}");
        // And they finish together (same fair share).
        assert!(got[1].0.saturating_duration_since(got[0].0) <= SimDuration::from_nanos(2));
    }

    #[test]
    fn flow_links_deliver_identically_across_solver_arms() {
        use holdcsim_network::flow::FlowSolverKind;
        // A contended hub WAN (every pair relays through one node) driven
        // through each fair-share solver arm must produce the very same
        // delivery schedule — the cohort arm's virtual-time cells are as
        // selectable for WAN links as for the intra-site fabric.
        let mut results: Vec<Vec<(SimTime, u32)>> = Vec::new();
        for kind in [FlowSolverKind::Reference, FlowSolverKind::Cohort] {
            let mut cfg = WanConfig::hub(3, 1_000_000_000, SimDuration::from_millis(10))
                .with_mode(WanLinkMode::Flow);
            cfg.flow_solver = kind;
            let mut wan = Wan::build(&cfg, 3);
            for (src, dst) in [(0u32, 2u32), (1, 2), (0, 1), (1, 0)] {
                wan.send(SimTime::ZERO, src, dst, 2_000_000, job());
            }
            results.push(drain(&mut wan));
        }
        assert_eq!(results[0], results[1], "cohort arm diverged on the WAN");
        assert_eq!(results[0].len(), 4);
    }

    #[test]
    fn lookahead_is_the_minimum_site_pair_latency() {
        // Hub: every pair pays two 10 ms hops.
        let cfg = WanConfig::hub(3, 1_000_000_000, SimDuration::from_millis(10));
        assert_eq!(
            Wan::build(&cfg, 3).lookahead(),
            Some(SimDuration::from_millis(20))
        );
        // Mesh with one fast pair: the floor is that pair.
        let mut mesh = WanConfig::full_mesh(3, 1_000_000_000, SimDuration::from_millis(10));
        mesh.links[0].latency = SimDuration::from_millis(3);
        assert_eq!(
            Wan::build(&mesh, 3).lookahead(),
            Some(SimDuration::from_millis(3))
        );
        // No links: no reachable pair, unbounded lookahead.
        let empty = WanConfig {
            links: Vec::new(),
            extra_nodes: 0,
            flow_solver: Default::default(),
        };
        assert_eq!(Wan::build(&empty, 2).lookahead(), None);
    }

    #[test]
    fn unreachable_latency_is_infinite() {
        let cfg = WanConfig {
            links: vec![WanLink::new(0, 1, 1_000, SimDuration::from_millis(1))],
            extra_nodes: 0,
            flow_solver: Default::default(),
        };
        let wan = Wan::build(&cfg, 3);
        assert!(wan.path_latency_s(0)[2].is_infinite());
        assert!(wan.path_latency_s(0)[1].is_finite());
    }

    #[test]
    #[should_panic(expected = "no WAN path")]
    fn sending_without_a_path_panics() {
        let cfg = WanConfig {
            links: Vec::new(),
            extra_nodes: 0,
            flow_solver: Default::default(),
        };
        let mut wan = Wan::build(&cfg, 2);
        wan.send(SimTime::ZERO, 0, 1, 1, job());
    }

    #[test]
    fn link_failure_parks_and_recovery_relaunches() {
        // Single 1 Gb/s, 10 ms link: the fault partitions the pair.
        let cfg = WanConfig::full_mesh(2, 1_000_000_000, SimDuration::from_millis(10));
        let mut wan = Wan::build(&cfg, 2);
        wan.arm_faults();
        wan.send(SimTime::ZERO, 0, 1, 1_000_000, job());
        assert!(wan.set_link_down(SimTime::from_millis(4), 0, true));
        assert!(
            !wan.set_link_down(SimTime::from_millis(5), 0, true),
            "double-down is a no-op"
        );
        assert_eq!(wan.lookahead(), None, "partitioned pair has no floor");
        assert_eq!(wan.in_flight(), 1, "parked transfers stay in flight");
        // A send during the partition parks instead of panicking.
        wan.send(SimTime::from_millis(10), 0, 1, 1_000_000, job());
        assert!(wan.set_link_down(SimTime::from_millis(30), 0, false));
        assert_eq!(wan.lookahead(), Some(SimDuration::from_millis(10)));
        let got = drain(&mut wan);
        // Relaunch at 30 ms behind the dead attempt's 8 ms FIFO
        // reservation: arrivals at 48 ms and 56 ms.
        assert_eq!(
            got,
            vec![(SimTime::from_millis(48), 1), (SimTime::from_millis(56), 1)]
        );
        let r = wan.report(SimTime::from_millis(100));
        assert_eq!(r.delivered, 2);
        let f = r.faults.expect("armed");
        assert_eq!((f.restarts, f.parked, f.still_parked), (1, 2, 0));
        assert!(
            (f.link_downtime_s - 0.026).abs() < 1e-9,
            "{}",
            f.link_downtime_s
        );
    }

    #[test]
    fn link_failure_reroutes_over_surviving_mesh() {
        let cfg = WanConfig::full_mesh(3, 1_000_000_000, SimDuration::from_millis(10));
        let mut wan = Wan::build(&cfg, 3);
        wan.arm_faults();
        wan.send(SimTime::ZERO, 0, 1, 1_000_000, job());
        // Kill the direct 0–1 link mid-serialization: the transfer
        // restarts from the source over the 0–2–1 relay.
        let direct = cfg
            .links
            .iter()
            .position(|l| (l.a.min(l.b), l.a.max(l.b)) == (0, 1))
            .expect("mesh has the direct link") as u32;
        assert!(wan.set_link_down(SimTime::from_millis(2), direct, true));
        let got = drain(&mut wan);
        // Restart at 2 ms: hop one arrives at 2+8+10 = 20 ms, hop two at
        // 20+8+10 = 38 ms.
        assert_eq!(got, vec![(SimTime::from_millis(38), 1)]);
        let f = wan.report(SimTime::from_millis(38)).faults.expect("armed");
        assert_eq!((f.restarts, f.parked, f.still_parked), (1, 0, 0));
        assert!(
            (f.link_downtime_s - 0.036).abs() < 1e-9,
            "open interval runs"
        );
    }

    #[test]
    fn mesh_beats_detour() {
        // Direct 0–2 link at 50 ms vs 0–1–2 at 2 × 10 ms: Dijkstra takes
        // the relay route.
        let mut cfg = WanConfig::full_mesh(3, 1_000_000_000, SimDuration::from_millis(10));
        for l in &mut cfg.links {
            if l.a == 0 && l.b == 2 {
                l.latency = SimDuration::from_millis(50);
            }
        }
        let wan = Wan::build(&cfg, 3);
        assert!((wan.path_latency_s(0)[2] - 0.020).abs() < 1e-12);
    }
}
