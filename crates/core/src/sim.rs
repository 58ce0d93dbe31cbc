//! The simulation driver: the [`Datacenter`] event model tying workload,
//! servers, scheduling, controllers, and the network together, and the
//! [`Simulation`] front end that runs it and produces a [`SimReport`].
//! This module routes events; its `faults` and `controller` children own
//! fault injection and retry, and the cluster controllers.

mod controller;
mod faults;

use holdcsim_des::engine::{Context, Engine, Model};
use holdcsim_des::rng::SimRng;
use holdcsim_des::slot_window::SlotWindow;
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_network::ids::LinkId;
use holdcsim_obs::{EventInfo, ObsArtifacts, Observer, ProbeSource, TraceEvent};
use holdcsim_sched::geo::{route_site, GeoPolicy};
use holdcsim_sched::queue::GlobalQueue;
use holdcsim_server::server::{Effect, EffectBuf, Server, ServerConfig, ServerId};
use holdcsim_server::task::TaskHandle;
use holdcsim_workload::arrivals::{ArrivalProcess, Mmpp2Arrivals, PoissonArrivals, TraceArrivals};
use holdcsim_workload::ids::{JobId, TaskId};

use crate::config::{ArrivalConfig, SimConfig};
use crate::job::{JobState, JobTable};
use crate::netstate::NetState;
use crate::placement::Placement;
use crate::report::{latency_report, Metrics, NetworkReport, ServerReport, SimReport};
use controller::Controller;
use faults::FaultState;

/// The event alphabet of the data-center model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DcEvent {
    /// One-time setup (arms initial timers, LPI checks).
    Init,
    /// The next job arrives from the front end.
    JobArrival,
    /// A task finished on a server core.
    TaskComplete {
        /// The server.
        server: ServerId,
        /// The core index.
        core: u32,
        /// The task expected to be there (sanity check).
        task: TaskId,
        /// Crash generation at scheduling time: a crash bumps the
        /// server's generation, orphaning every in-flight completion
        /// (always 0 when fault injection is off).
        gen: u32,
    },
    /// A server's idle delay timer fired.
    ServerTimer {
        /// The server.
        server: ServerId,
        /// Timer generation (stale generations are ignored).
        gen: u64,
    },
    /// A server suspend/resume transition completed.
    ServerTransition {
        /// The server.
        server: ServerId,
        /// Crash generation at scheduling time (see
        /// [`DcEvent::TaskComplete::gen`]).
        gen: u32,
    },
    /// The flow network's earliest projected completion is due. The
    /// [`NetState`] keeps a single such event armed at
    /// [`holdcsim_network::flow::FlowNet::next_due`]; per-flow retiming
    /// happens inside the flow network's completion heap (rate deltas
    /// update heap entries, not calendar events), so a firing that finds
    /// nothing due is a cheap no-op.
    FlowsAdvance,
    /// A flow whose start was delayed by switch wake latency is admitted.
    FlowAdmit {
        /// The raw flow id.
        flow: u64,
    },
    /// A packet arrived at its next node.
    PacketArrive {
        /// Slot in the packet table.
        slot: usize,
    },
    /// Retransmit a dropped packet from its current node.
    PacketRetry {
        /// Slot in the packet table.
        slot: usize,
    },
    /// A switch port's LPI hold expired; try to idle it.
    LpiCheck {
        /// Switch index.
        switch: usize,
        /// Port on that switch.
        port: u32,
    },
    /// Cluster controller sampling tick.
    ControllerTick,
    /// Statistics sampling tick.
    StatsSample,
    /// A job forwarded from another federation site finished its WAN
    /// transfer and arrives here (federated runs only; the state was
    /// parked in the remote inbox by [`Datacenter::accept_remote_job`]).
    RemoteJobArrive {
        /// Slot in the remote inbox.
        slot: u64,
    },
    /// A scheduled fault fires (index into the materialized schedule).
    FaultInject {
        /// Schedule index.
        fault: u32,
    },
    /// A scheduled recovery fires (index into the materialized schedule).
    FaultRecover {
        /// Schedule index.
        fault: u32,
    },
    /// A failed task's retry backoff expired; re-place it.
    RetryDispatch {
        /// Slot in the retry table.
        slot: u64,
    },
}

impl TraceEvent for DcEvent {
    const KIND_NAMES: &'static [&'static str] = &[
        "Init",
        "JobArrival",
        "TaskComplete",
        "ServerTimer",
        "ServerTransition",
        "FlowsAdvance",
        "FlowAdmit",
        "PacketArrive",
        "PacketRetry",
        "LpiCheck",
        "ControllerTick",
        "StatsSample",
        "RemoteJobArrive",
        "FaultInject",
        "FaultRecover",
        "RetryDispatch",
    ];

    #[inline]
    fn kind(&self) -> u8 {
        match self {
            DcEvent::Init => 0,
            DcEvent::JobArrival => 1,
            DcEvent::TaskComplete { .. } => 2,
            DcEvent::ServerTimer { .. } => 3,
            DcEvent::ServerTransition { .. } => 4,
            DcEvent::FlowsAdvance => 5,
            DcEvent::FlowAdmit { .. } => 6,
            DcEvent::PacketArrive { .. } => 7,
            DcEvent::PacketRetry { .. } => 8,
            DcEvent::LpiCheck { .. } => 9,
            DcEvent::ControllerTick => 10,
            DcEvent::StatsSample => 11,
            DcEvent::RemoteJobArrive { .. } => 12,
            DcEvent::FaultInject { .. } => 13,
            DcEvent::FaultRecover { .. } => 14,
            DcEvent::RetryDispatch { .. } => 15,
        }
    }

    fn info(&self) -> EventInfo {
        let (a, b) = match *self {
            DcEvent::Init
            | DcEvent::JobArrival
            | DcEvent::FlowsAdvance
            | DcEvent::ControllerTick
            | DcEvent::StatsSample => (0, 0),
            // The crash generation stays out of (a, b): faults-off traces
            // must fingerprint identically to pre-fault builds.
            DcEvent::TaskComplete { server, task, .. } => {
                (server.0 as u64, (task.job.0 << 16) | task.index as u64)
            }
            DcEvent::ServerTimer { server, gen } => (server.0 as u64, gen),
            DcEvent::ServerTransition { server, .. } => (server.0 as u64, 0),
            DcEvent::FlowAdmit { flow } => (flow, 0),
            DcEvent::PacketArrive { slot } => (slot as u64, 0),
            DcEvent::PacketRetry { slot } => (slot as u64, 0),
            DcEvent::LpiCheck { switch, port } => (switch as u64, port as u64),
            DcEvent::RemoteJobArrive { slot } => (slot, 0),
            DcEvent::FaultInject { fault } => (fault as u64, 0),
            DcEvent::FaultRecover { fault } => (fault as u64, 0),
            DcEvent::RetryDispatch { slot } => (slot, 0),
        };
        EventInfo {
            kind: self.kind(),
            a,
            b,
        }
    }
}

/// The federation-facing side of a site's driver: dispatch inputs the
/// coordinator refreshes (load snapshot, WAN latencies) and the outbox of
/// jobs routed off-site. Attached by `holdcsim-cluster`'s `Federation`;
/// standalone simulations never carry one, and a federated site whose
/// jobs all stay home retraces the standalone trajectory event for event
/// (the routing decision is a pure function — no RNG, no events).
#[derive(Debug)]
pub struct FedPort {
    /// This site's index in the federation.
    pub site: u32,
    /// The geo dispatch policy.
    pub geo: GeoPolicy,
    /// Per-site load snapshot (in-flight jobs per core), refreshed by the
    /// coordinator at window boundaries (and only when it actually
    /// changed) — identically in the serial and parallel arms, so both
    /// trace the same dispatch decisions.
    pub site_loads: Vec<f64>,
    /// Static WAN path latency in seconds from this site to each site.
    pub wan_latency_s: Vec<f64>,
    /// Jobs routed off-site, stamped with their send instant:
    /// `(send time, target site, job state)`. The coordinator drains
    /// these into the WAN at window boundaries, merging all sites'
    /// entries back into global send order.
    pub outbox: Vec<(SimTime, u32, Box<JobState>)>,
    /// Jobs forwarded off-site over the run.
    pub forwarded: u64,
}

/// The complete data-center model driven by the DES engine.
#[derive(Debug)]
pub struct Datacenter {
    cfg: SimConfig,
    rng_workload: SimRng,
    arrivals: Arrivals,
    servers: Vec<Server>,
    jobs: JobTable,
    /// The policy, the eligible set, committed load and the free-core
    /// bitmap.
    placement: Placement,
    global_queue: GlobalQueue,
    /// Scratch for a task's data-source servers (reused across placements).
    scratch_srcs: Vec<ServerId>,
    /// Scratch for newly ready task indices (reused across events).
    scratch_ready: Vec<u32>,
    /// Recycled job states: completed jobs return here so arrivals reuse
    /// their DAG and bookkeeping allocations.
    // Boxed like every in-flight job, so recycling moves a pointer;
    // unboxing the pool would bring back a state copy on each push and
    // pop.
    #[allow(clippy::vec_box)]
    job_pool: Vec<Box<JobState>>,
    /// Reusable effect buffer threaded through every server call.
    fx: EffectBuf,
    controller: Controller,
    /// The fabric and every transfer in flight on it (network runs only).
    net: Option<NetState>,
    /// Placed tasks awaiting inbound transfers; flows/transfers carry
    /// their slot, so completion never hashes a `(job, task)` key.
    dispatch_slots: SlotWindow<(ServerId, TaskHandle)>,
    /// Scratch for a task's inbound cross-server edges as `(bytes,
    /// source)` (reused across placements; no per-transfer allocation).
    scratch_inbound: Vec<(u64, ServerId)>,
    /// Federation attachment (multi-datacenter runs only).
    fed: Option<FedPort>,
    /// Jobs delivered by the WAN but not yet admitted (slot keys ride in
    /// [`DcEvent::RemoteJobArrive`]).
    remote_inbox: SlotWindow<Box<JobState>>,
    /// Fault-injection state (only when the config carries a non-empty
    /// plan; `None` keeps fault-free runs bitwise identical).
    faults: Option<Box<FaultState>>,
    metrics: Metrics,
}

#[derive(Debug)]
enum Arrivals {
    Poisson(PoissonArrivals),
    Mmpp(Mmpp2Arrivals),
    Trace(TraceArrivals),
}

impl Arrivals {
    fn next_gap(&mut self, rng: &mut SimRng) -> Option<SimDuration> {
        match self {
            Arrivals::Poisson(p) => p.next_gap(rng),
            Arrivals::Mmpp(p) => p.next_gap(rng),
            Arrivals::Trace(p) => p.next_gap(rng),
        }
    }
}

impl Datacenter {
    fn new(cfg: SimConfig) -> Self {
        assert!(cfg.server_count > 0, "need at least one server");
        assert!(
            !cfg.sleep_policies.is_empty(),
            "need at least one sleep policy"
        );
        let root_rng = SimRng::seed_from(cfg.seed);
        let rng_workload = root_rng.substream(1);
        let now = SimTime::ZERO;
        let servers: Vec<Server> = (0..cfg.server_count)
            .map(|i| {
                let sc = ServerConfig {
                    cores: cfg.cores_per_server,
                    profile: cfg.server_profile.clone(),
                    queue_mode: cfg.queue_mode,
                    policy: cfg.policy_for(i),
                    pstate: cfg.server_profile.pstates.len() - 1,
                    core_speeds: cfg.core_speeds.clone(),
                    sockets: cfg.sockets_per_server,
                };
                Server::new(now, ServerId(i as u32), sc)
            })
            .collect();
        let arrivals = match &cfg.arrivals {
            ArrivalConfig::Poisson { rate } => Arrivals::Poisson(PoissonArrivals::new(*rate)),
            ArrivalConfig::Mmpp2 {
                base_rate,
                burst_ratio,
                bursty_fraction,
                mean_bursty_dwell,
            } => Arrivals::Mmpp(Mmpp2Arrivals::with_burstiness(
                *base_rate,
                *burst_ratio,
                *bursty_fraction,
                *mean_bursty_dwell,
            )),
            ArrivalConfig::Trace(times) => Arrivals::Trace(TraceArrivals::new(times.clone())),
        };
        let net = cfg
            .network
            .as_ref()
            .map(|nc| NetState::build(now, nc, cfg.server_count));
        let controller = Controller::new(&cfg);
        let metrics = Metrics::new(cfg.sample_period);
        let faults = FaultState::build(&cfg, &root_rng, net.as_ref());
        let eligible = controller.initially_eligible(cfg.server_count);
        let placement = Placement::new(&cfg, &servers, eligible);
        Datacenter {
            rng_workload,
            arrivals,
            servers,
            jobs: JobTable::new(),
            placement,
            global_queue: GlobalQueue::new(),
            scratch_srcs: Vec::new(),
            scratch_ready: Vec::new(),
            job_pool: Vec::new(),
            fx: EffectBuf::new(),
            controller,
            net,
            dispatch_slots: SlotWindow::new(),
            scratch_inbound: Vec::new(),
            fed: None,
            remote_inbox: SlotWindow::new(),
            faults,
            metrics,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Observers (used by reports, tests, and experiment harnesses)
    // ------------------------------------------------------------------

    /// The servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Jobs submitted so far.
    pub fn jobs_submitted(&self) -> u64 {
        self.jobs.submitted()
    }

    /// Jobs completed so far.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs.completed()
    }

    /// Jobs currently in flight (submitted, not yet completed).
    pub fn jobs_in_flight(&self) -> usize {
        self.jobs.in_flight()
    }

    /// The configuration this datacenter was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Federation attachment (multi-datacenter runs)
    // ------------------------------------------------------------------

    /// Attaches this site to a federation: job arrivals are geo-routed
    /// through `port` and off-site jobs land in its outbox.
    pub fn attach_federation(&mut self, port: FedPort) {
        assert!(self.fed.is_none(), "federation already attached");
        self.fed = Some(port);
    }

    /// The federation port, if attached.
    pub fn fed_port_mut(&mut self) -> Option<&mut FedPort> {
        self.fed.as_mut()
    }

    /// Jobs this site forwarded off-site.
    pub fn jobs_forwarded(&self) -> u64 {
        self.fed.as_ref().map_or(0, |p| p.forwarded)
    }

    /// Parks a WAN-delivered job in the remote inbox, returning the slot
    /// the coordinator must carry in the matching
    /// [`DcEvent::RemoteJobArrive`] it schedules on this site's calendar.
    pub fn accept_remote_job(&mut self, state: Box<JobState>) -> u64 {
        self.remote_inbox.insert(state)
    }

    /// Network state, if simulated.
    pub fn net(&self) -> Option<&NetState> {
        self.net.as_ref()
    }

    /// Servers currently awake (not deep-sleeping or transitioning).
    pub fn awake_servers(&self) -> usize {
        self.servers.iter().filter(|s| s.is_awake()).count()
    }

    /// Total pending (queued + running) tasks plus the global queue.
    pub fn total_pending(&self) -> usize {
        self.servers.iter().map(|s| s.pending()).sum::<usize>() + self.global_queue.len()
    }

    /// Per-server tasks committed by the placer but still waiting on
    /// inbound transfers (indexed by server id) — these hold a core
    /// reservation that capacity checks must honor.
    pub fn committed(&self) -> &[u32] {
        self.placement.committed()
    }

    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

    /// Places (or queues) task `t` of `job`, which just became ready.
    fn place_or_queue(&mut self, ctx: &mut Context<'_, DcEvent>, job: JobId, t: u32) {
        self.scratch_srcs.clear();
        let (handle, class) = {
            let js = self.jobs.get(job);
            let spec = js.dag.task(t);
            let handle = TaskHandle {
                id: TaskId::new(job, t),
                service: spec.service,
                intensity: spec.intensity,
            };
            self.scratch_srcs.extend(
                js.dag
                    .predecessors(t)
                    .iter()
                    .filter_map(|&p| js.assignment(p)),
            );
            (handle, spec.server_class)
        };
        let picked = self.placement.select_server(
            &self.servers,
            &self.cfg,
            self.net.as_mut(),
            &self.scratch_srcs,
            class,
            job.0 ^ u64::from(t) << 48,
        );
        match picked {
            Some(sid) => self.assign_and_transfer(ctx, job, t, handle, sid),
            // The class rides along so class-aware pulls are O(1).
            None => self.global_queue.push_classed(ctx.now(), handle, class),
        }
    }

    /// Binds task `t` to `sid`, launches inbound transfers, and dispatches
    /// once (or if) no transfers are needed.
    fn assign_and_transfer(
        &mut self,
        ctx: &mut Context<'_, DcEvent>,
        job: JobId,
        t: u32,
        handle: TaskHandle,
        sid: ServerId,
    ) {
        self.jobs.get_mut(job).assign(t, sid);
        // Inbound edges that actually cross the network (reusable scratch
        // buffer, taken out so the launches can borrow `self`).
        let mut inbound = std::mem::take(&mut self.scratch_inbound);
        inbound.clear();
        if self.net.is_some() {
            let js = self.jobs.get(job);
            inbound.extend(js.dag.predecessors(t).iter().filter_map(|&p| {
                let bytes = js.dag.edge_bytes(p, t)?;
                let src = js.assignment(p)?;
                (bytes > 0 && src != sid).then_some((bytes, src))
            }));
        }
        if inbound.is_empty() {
            self.scratch_inbound = inbound;
            self.dispatch(ctx, sid, handle);
            return;
        }
        self.jobs
            .get_mut(job)
            .add_transfers(t, inbound.len() as u32);
        let dispatch = self.dispatch_slots.insert((sid, handle));
        self.placement.commit(&self.servers, sid);
        // Packet bursts spread over ECMP by edge; flows by their own key.
        let seed = job.0 ^ u64::from(t);
        for &(bytes, src) in &inbound {
            let started = self
                .net
                .as_mut()
                .is_some_and(|net| net.start_edge(ctx, dispatch, src, sid, bytes, seed));
            if !started {
                // No surviving route (mid-fault only): drop the dispatch
                // and push the task through the retry path.
                self.kill_dispatch(ctx, dispatch);
                break;
            }
        }
        self.scratch_inbound = inbound;
    }

    /// One DAG edge fully delivered: counts it against the consumer task's
    /// transfer barrier and dispatches once every inbound edge has landed.
    fn finish_edge(&mut self, ctx: &mut Context<'_, DcEvent>, dispatch: u64) {
        let (job, task) = {
            let (_, handle) = self.dispatch_slots.get(dispatch).expect("pending dispatch");
            (handle.id.job, handle.id.index)
        };
        if self.jobs.get_mut(job).transfer_done(task) {
            let (sid, handle) = self
                .dispatch_slots
                .remove(dispatch)
                .expect("pending dispatch");
            self.placement.release(&self.servers, sid);
            self.dispatch(ctx, sid, handle);
        }
    }

    /// Completes the due flows, finishing their edges one at a time.
    fn on_flows_advance(&mut self, ctx: &mut Context<'_, DcEvent>) {
        let Some(net) = self.net.as_mut() else { return };
        net.advance_flows(ctx.now());
        while let Some(dispatch) = self.net.as_mut().and_then(|n| n.next_done_flow(ctx)) {
            self.finish_edge(ctx, dispatch);
        }
        self.flush_transfers(ctx);
    }

    /// Solves the flow admissions and removals batched in this event
    /// once, and re-arms the flow completion check.
    fn flush_transfers(&mut self, ctx: &mut Context<'_, DcEvent>) {
        if let Some(net) = self.net.as_mut() {
            net.schedule_flow_retimes(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Server-side events
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ctx: &mut Context<'_, DcEvent>, sid: ServerId, handle: TaskHandle) {
        // Front-end request traffic down the access link, if modeled.
        if let Some(net) = self.net.as_mut() {
            if let Some((req, _)) = net.ingress_bytes {
                net.touch_access_port(ctx, sid, req);
            }
        }
        self.servers[sid.0 as usize].submit(ctx.now(), handle, &mut self.fx);
        self.placement.refresh(&self.servers, sid);
        Self::apply_effects(ctx, sid, &self.fx, self.crash_gen(sid));
    }

    /// Schedules the follow-up events for the effects a server call left in
    /// `fx`, stamping completion/transition events with the server's crash
    /// generation `gen`. Associated (not `&mut self`) so the reusable
    /// buffer can be borrowed from `self` at every call site without
    /// conflict.
    fn apply_effects(ctx: &mut Context<'_, DcEvent>, sid: ServerId, fx: &EffectBuf, gen: u32) {
        for &e in fx.as_slice() {
            match e {
                Effect::TaskStarted {
                    core,
                    id,
                    completes_in,
                } => {
                    ctx.schedule_in(
                        completes_in,
                        DcEvent::TaskComplete {
                            server: sid,
                            core,
                            task: id,
                            gen,
                        },
                    );
                }
                Effect::ArmTimer { after, gen } => {
                    ctx.schedule_in(after, DcEvent::ServerTimer { server: sid, gen });
                }
                Effect::TransitionDoneIn { after } => {
                    ctx.schedule_in(after, DcEvent::ServerTransition { server: sid, gen });
                }
            }
        }
    }

    fn on_task_complete(
        &mut self,
        ctx: &mut Context<'_, DcEvent>,
        sid: ServerId,
        core: u32,
        expected: TaskId,
    ) {
        let now = ctx.now();
        let tid = self.servers[sid.0 as usize].complete(now, core, &mut self.fx);
        self.placement.refresh(&self.servers, sid);
        debug_assert_eq!(tid, expected, "completion event routed to wrong core");
        Self::apply_effects(ctx, sid, &self.fx, self.crash_gen(sid));
        // Response traffic back up the access link, if modeled.
        if let Some(net) = self.net.as_mut() {
            if let Some((_, resp)) = net.ingress_bytes {
                net.touch_access_port(ctx, sid, resp);
            }
        }
        // DAG bookkeeping.
        let mut ready = std::mem::take(&mut self.scratch_ready);
        ready.clear();
        self.jobs
            .get_mut(tid.job)
            .finish_task_into(tid.index, &mut ready);
        // Abandoned jobs (retry budget exhausted) stop spawning work;
        // their already-running tasks just drain.
        if !self.jobs.get(tid.job).is_abandoned() {
            for &t in &ready {
                self.place_or_queue(ctx, tid.job, t);
            }
        }
        self.scratch_ready = ready;
        if self.jobs.get(tid.job).is_complete() {
            let js = self.jobs.remove_completed(tid.job);
            // Steady-state statistics: skip jobs that arrived in warm-up.
            if js.arrived.saturating_duration_since(SimTime::ZERO) >= self.cfg.warmup {
                let lat = now.saturating_duration_since(js.arrived).as_secs_f64();
                self.metrics.latency.record(lat);
                // Resilience split: jobs that needed a fault retry vs
                // jobs the faults never touched.
                if let Some(f) = self.faults.as_mut() {
                    f.record_latency(lat, js.fault_affected());
                }
            }
            // Recycle the state so the next arrival reuses its allocations.
            self.job_pool.push(js);
        }
        self.pull_global_queue(ctx, sid);
        // Transfer admissions from the placements and pulls above are
        // batched; solve and arm the completion check once per event.
        self.flush_transfers(ctx);
    }

    fn pull_global_queue(&mut self, ctx: &mut Context<'_, DcEvent>, sid: ServerId) {
        // With fault injection armed the global queue doubles as the
        // refuge for tasks that found no eligible server mid-outage, so
        // pulls run even in direct-dispatch mode (a no-op while empty).
        if (!self.cfg.use_global_queue && self.faults.is_none()) || !self.placement.is_eligible(sid)
        {
            return;
        }
        loop {
            let s = &self.servers[sid.0 as usize];
            // Capacity must count tasks already committed to this server
            // and awaiting inbound transfers, or the pull loop over-commits
            // beyond the core count.
            let claimed = s.busy_cores() + self.placement.committed()[sid.0 as usize];
            if !(s.is_awake() && claimed < s.core_count()) {
                return;
            }
            // Only pull tasks this server's class may run: with no class
            // map every task is eligible (plain FIFO pop); otherwise the
            // per-class sub-queue indices make the pull O(1).
            let popped = if self.cfg.server_classes.is_empty() {
                self.global_queue.pop(ctx.now())
            } else {
                self.global_queue
                    .pop_eligible(ctx.now(), self.cfg.server_classes[sid.0 as usize])
            };
            let Some((handle, _waited)) = popped else {
                return;
            };
            let (job, t) = (handle.id.job, handle.id.index);
            self.assign_and_transfer(ctx, job, t, handle, sid);
        }
    }

    // ------------------------------------------------------------------
    // Workload
    // ------------------------------------------------------------------

    fn on_job_arrival(&mut self, ctx: &mut Context<'_, DcEvent>) {
        let now = ctx.now();
        // Geo routing (federated runs only): decided before the job
        // enters this site's table, from the coordinator's load snapshot.
        // The decision is a pure function — local arrivals then take
        // exactly the standalone path, same RNG draws and all.
        if let Some(port) = &self.fed {
            let target = route_site(port.geo, port.site, &port.site_loads, &port.wan_latency_s);
            if target != port.site {
                let state = self.generate_job(now);
                let port = self.fed.as_mut().expect("checked above");
                port.forwarded += 1;
                port.outbox.push((now, target, state));
                self.schedule_next_arrival(ctx);
                return;
            }
        }
        let id = self.jobs.alloc_id();
        let state = self.generate_job(now);
        self.admit_job(ctx, id, state);
        self.schedule_next_arrival(ctx);
    }

    /// Draws the next job's DAG from the template (recycling a completed
    /// job's allocations when possible).
    fn generate_job(&mut self, now: SimTime) -> Box<JobState> {
        match self.job_pool.pop() {
            Some(mut recycled) => {
                self.cfg
                    .template
                    .generate_into(&mut self.rng_workload, &mut recycled.dag);
                recycled.reset(now);
                recycled
            }
            None => {
                let dag = self.cfg.template.generate(&mut self.rng_workload);
                Box::new(JobState::new(dag, now))
            }
        }
    }

    /// Inserts `state` as job `id` and places its ready roots.
    fn admit_job(&mut self, ctx: &mut Context<'_, DcEvent>, id: JobId, state: Box<JobState>) {
        let mut ready = std::mem::take(&mut self.scratch_ready);
        ready.clear();
        ready.extend_from_slice(state.dag.roots());
        self.jobs.insert(id, state);
        for &t in &ready {
            self.place_or_queue(ctx, id, t);
        }
        self.scratch_ready = ready;
        // Admissions from the placements above are batched; solve once.
        self.flush_transfers(ctx);
    }

    /// A forwarded job's WAN transfer completed: admit it here. Its
    /// `arrived` stamp still carries the home-site arrival instant, so
    /// the recorded latency includes the WAN leg.
    fn on_remote_job_arrive(&mut self, ctx: &mut Context<'_, DcEvent>, slot: u64) {
        let state = self
            .remote_inbox
            .remove(slot)
            .expect("remote job delivered exactly once");
        let id = self.jobs.alloc_id();
        self.admit_job(ctx, id, state);
    }

    fn schedule_next_arrival(&mut self, ctx: &mut Context<'_, DcEvent>) {
        if let Some(gap) = self.arrivals.next_gap(&mut self.rng_workload) {
            let at = ctx.now() + gap;
            if at <= SimTime::ZERO + self.cfg.duration {
                ctx.schedule_at(at, DcEvent::JobArrival);
            }
        }
    }

    // ------------------------------------------------------------------
    // Sampling & setup
    // ------------------------------------------------------------------

    fn on_stats_sample(&mut self, ctx: &mut Context<'_, DcEvent>) {
        let now = ctx.now();
        self.metrics
            .active_servers
            .observe(now, self.awake_servers() as f64);
        self.metrics
            .active_jobs
            .observe(now, self.jobs.in_flight() as f64);
        let server_power: f64 = self.servers.iter().map(|s| s.power_w()).sum();
        self.metrics.server_power.observe(now, server_power);
        if let Some(net) = &self.net {
            self.metrics.switch_power.observe(now, net.switch_power_w());
        }
        self.metrics
            .cpu0_power
            .observe(now, self.servers[0].cpu_power_w());
        if now + self.cfg.sample_period <= SimTime::ZERO + self.cfg.duration {
            ctx.schedule_in(self.cfg.sample_period, DcEvent::StatsSample);
        }
    }

    fn on_init(&mut self, ctx: &mut Context<'_, DcEvent>) {
        let now = ctx.now();
        // Servers that start idle adopt their initial policies (ascending
        // by id; the pools are id ranges at init).
        for i in 0..self.servers.len() {
            let Some(pol) = self.controller.initial_policy(&self.cfg, i) else {
                continue;
            };
            let id = ServerId(i as u32);
            self.servers[i].set_policy(now, pol, &mut self.fx);
            self.placement.refresh(&self.servers, id);
            Self::apply_effects(ctx, id, &self.fx, self.crash_gen(id));
        }
        if let Some(net) = self.net.as_mut() {
            net.arm_lpi_checks(ctx);
        }
    }
}

impl Model for Datacenter {
    type Event = DcEvent;

    fn handle(&mut self, ctx: &mut Context<'_, DcEvent>, event: DcEvent) {
        match event {
            DcEvent::Init => self.on_init(ctx),
            DcEvent::JobArrival => self.on_job_arrival(ctx),
            DcEvent::TaskComplete {
                server,
                core,
                task,
                gen,
            } => {
                // A crash bumped the generation: the task died with it.
                if gen != self.crash_gen(server) {
                    return;
                }
                self.on_task_complete(ctx, server, core, task)
            }
            DcEvent::ServerTimer { server, gen } => {
                self.servers[server.0 as usize].timer_fired(ctx.now(), gen, &mut self.fx);
                self.placement.refresh(&self.servers, server);
                Self::apply_effects(ctx, server, &self.fx, self.crash_gen(server));
            }
            DcEvent::ServerTransition { server, gen } => {
                if gen != self.crash_gen(server) {
                    return;
                }
                self.servers[server.0 as usize].transition_done(ctx.now(), &mut self.fx);
                self.placement.refresh(&self.servers, server);
                Self::apply_effects(ctx, server, &self.fx, self.crash_gen(server));
                self.pull_global_queue(ctx, server);
                // Transfer admissions from the pulls above are batched.
                self.flush_transfers(ctx);
            }
            DcEvent::FlowsAdvance => self.on_flows_advance(ctx),
            DcEvent::PacketArrive { slot } => {
                // A burst's last packet delivers its edge.
                if let Some(d) = self
                    .net
                    .as_mut()
                    .and_then(|n| n.on_packet_arrive(ctx, slot))
                {
                    self.finish_edge(ctx, d);
                }
            }
            DcEvent::FlowAdmit { flow } => {
                if let Some(net) = self.net.as_mut() {
                    net.on_flow_admit(ctx, flow);
                }
            }
            DcEvent::PacketRetry { slot } => {
                if let Some(net) = self.net.as_mut() {
                    net.send_packet(ctx, slot);
                }
            }
            DcEvent::LpiCheck { switch, port } => {
                if let Some(net) = self.net.as_mut() {
                    net.on_lpi_check(ctx, switch, port);
                }
            }
            DcEvent::ControllerTick => self.on_controller_tick(ctx),
            DcEvent::StatsSample => self.on_stats_sample(ctx),
            DcEvent::RemoteJobArrive { slot } => self.on_remote_job_arrive(ctx, slot),
            DcEvent::FaultInject { fault } | DcEvent::FaultRecover { fault } => {
                self.on_fault(ctx, fault)
            }
            DcEvent::RetryDispatch { slot } => self.on_retry_dispatch(ctx, slot),
        }
    }
}

impl ProbeSource for Datacenter {
    fn probe_names(&self) -> Vec<&'static str> {
        let mut names = vec![
            "global_queue_depth",
            "busy_cores",
            "awake_servers",
            "sleeping_servers",
            "jobs_in_flight",
        ];
        if self.net.is_some() {
            names.extend([
                "active_flows",
                "flow_dirty_set",
                "mean_link_utilization",
                "packets_in_flight",
            ]);
        }
        if self.faults.is_some() {
            names.extend(FaultState::PROBES);
        }
        names
    }

    fn probe_sample(&self, out: &mut Vec<f64>) {
        out.push(self.global_queue.len() as f64);
        let busy: u32 = self.servers.iter().map(|s| s.busy_cores()).sum();
        out.push(busy as f64);
        let awake = self.awake_servers();
        out.push(awake as f64);
        out.push((self.servers.len() - awake) as f64);
        out.push(self.jobs.in_flight() as f64);
        if let Some(net) = &self.net {
            out.push(net.flows.active_flows() as f64);
            out.push(net.flows.last_solve_touched() as f64);
            let links = net.topology.links().len();
            let mean_util = if links == 0 {
                0.0
            } else {
                (0..links)
                    .map(|i| net.flows.link_utilization(LinkId(i as u32)))
                    .sum::<f64>()
                    / links as f64
            };
            out.push(mean_util);
            out.push(net.packets_in_flight() as f64);
        }
        if let Some(f) = &self.faults {
            f.probe_sample(out);
        }
    }
}

/// A configured simulation, ready to run.
///
/// # Examples
///
/// ```
/// use holdcsim::config::SimConfig;
/// use holdcsim::sim::Simulation;
/// use holdcsim_des::time::SimDuration;
/// use holdcsim_workload::presets::WorkloadPreset;
///
/// let cfg = SimConfig::server_farm(
///     4, 2, 0.3,
///     WorkloadPreset::WebSearch.template(),
///     SimDuration::from_secs(5),
/// );
/// let report = Simulation::new(cfg).run();
/// assert!(report.jobs_completed > 0);
/// assert!(report.latency.mean >= 0.005 * 0.9);
/// ```
#[derive(Debug)]
pub struct Simulation {
    engine: Engine<Datacenter, Observer>,
}

impl Simulation {
    /// Builds the simulation from a configuration (including its
    /// [`SimConfig::obs`] observability settings).
    pub fn new(cfg: SimConfig) -> Self {
        let duration = cfg.duration;
        let dc = Datacenter::new(cfg);
        let observer = Observer::for_model(&dc.cfg.obs, &dc);
        let mut engine = Engine::with_observer(dc, observer);
        engine.schedule_at(SimTime::ZERO, DcEvent::Init);
        engine.schedule_at(SimTime::ZERO, DcEvent::StatsSample);
        engine.schedule_at(SimTime::ZERO, DcEvent::ControllerTick);
        // Scheduled faults go on the calendar up front: their instants
        // are fixed at materialization, so federated sites see the same
        // schedule regardless of how their windows are driven.
        let fault_events: Vec<(SimTime, DcEvent)> = engine
            .model()
            .faults
            .iter()
            .flat_map(|f| f.calendar())
            .collect();
        for (at, e) in fault_events {
            engine.schedule_at(at, e);
        }
        // First arrival.
        let first = {
            let dc = engine.model_mut();
            dc.arrivals.next_gap(&mut dc.rng_workload)
        };
        if let Some(gap) = first {
            if gap <= duration {
                engine.schedule_at(SimTime::ZERO + gap, DcEvent::JobArrival);
            }
        }
        Simulation { engine }
    }

    /// Read access to the model (for tests and custom harnesses).
    pub fn datacenter(&self) -> &Datacenter {
        self.engine.model()
    }

    /// Consumes the simulation, exposing the underlying engine — the
    /// building block for coordinators that drive several sites in
    /// lockstep (see the `holdcsim-cluster` crate). The engine comes
    /// fully initialized (init/sampling/first-arrival events scheduled)
    /// and carries the observer built from [`SimConfig::obs`].
    pub fn into_engine(self) -> Engine<Datacenter, Observer> {
        self.engine
    }

    /// Runs to the configured horizon and produces the report.
    pub fn run(self) -> SimReport {
        self.run_with_obs().0
    }

    /// Runs to the configured horizon and produces the report plus
    /// whatever the observer collected (empty artifacts when
    /// [`SimConfig::obs`] left everything off).
    #[allow(clippy::disallowed_methods)] // summary-only wall_s; excluded from to_json (see analysis.toml D002 entry)
    pub fn run_with_obs(mut self) -> (SimReport, ObsArtifacts) {
        let end = SimTime::ZERO + self.engine.model().cfg.duration;
        let t0 = std::time::Instant::now();
        self.engine.run_until(end);
        let wall_s = t0.elapsed().as_secs_f64();
        let events = self.engine.events_processed();
        let (dc, observer) = self.engine.into_parts();
        (finish_report(dc, end, events, wall_s), observer.finish(end))
    }
}

/// Builds the final [`SimReport`] from a datacenter whose clock reached
/// `end` after `events` engine events in `wall_s` wall-clock seconds —
/// shared by [`Simulation::run`] and federation coordinators that drive
/// the engine themselves (which pass the whole federation's wall clock).
pub fn finish_report(dc: Datacenter, end: SimTime, events: u64, wall_s: f64) -> SimReport {
    let servers: Vec<ServerReport> = dc
        .servers
        .iter()
        .map(|s| ServerReport::snapshot(s, end))
        .collect();
    let network = dc.net.as_ref().map(|n| NetworkReport {
        switch_energy_j: n.switch_energy_j(end),
        mean_switch_power_w: n.switch_energy_j(end) / dc.cfg.duration.as_secs_f64(),
        flows: n.flows.total_admitted(),
        packets_forwarded: n.packets.forwarded(),
        packets_dropped: n.packets.dropped(),
        topology: n.name.clone(),
    });
    let jobs_submitted = dc.jobs.submitted();
    let jobs_completed = dc.jobs.completed();
    let gq = dc.global_queue.total_enqueued();
    let resilience = dc.resilience_report(end);
    let (latency_samples, series) = dc.metrics.finish(end);
    let (latency, latency_cdf) = latency_report(&latency_samples);
    SimReport {
        duration: dc.cfg.duration,
        jobs_submitted,
        jobs_completed,
        latency,
        latency_cdf,
        servers,
        network,
        series,
        events_processed: events,
        global_queue_tasks: gq,
        resilience,
        wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommModel, PolicyKind};
    use holdcsim_server::policy::SleepPolicy;
    use holdcsim_workload::presets::WorkloadPreset;

    fn quick_cfg(rho: f64, secs: u64) -> SimConfig {
        SimConfig::server_farm(
            4,
            2,
            rho,
            WorkloadPreset::WebSearch.template(),
            SimDuration::from_secs(secs),
        )
    }

    #[test]
    fn farm_completes_jobs_with_sane_latency() {
        let report = Simulation::new(quick_cfg(0.3, 20)).run();
        assert!(report.jobs_completed > 1_000);
        // M/M/c-ish: latency at rho=0.3 should be near the 5 ms service time.
        assert!(
            report.latency.mean > 0.004 && report.latency.mean < 0.02,
            "mean latency {}",
            report.latency.mean
        );
        assert!(report.latency.p99 >= report.latency.p90);
        assert!(report.server_energy_j() > 0.0);
    }

    #[test]
    fn same_seed_same_report() {
        let a = Simulation::new(quick_cfg(0.3, 5)).run();
        let b = Simulation::new(quick_cfg(0.3, 5)).run();
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(a.latency.p95, b.latency.p95);
        assert_eq!(a.events_processed, b.events_processed);
        assert!((a.server_energy_j() - b.server_energy_j()).abs() < 1e-9);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::new(quick_cfg(0.3, 5)).run();
        let b = Simulation::new(quick_cfg(0.3, 5).with_seed(7)).run();
        assert_ne!(a.jobs_completed, b.jobs_completed);
    }

    #[test]
    fn higher_utilization_more_jobs_and_energy() {
        let lo = Simulation::new(quick_cfg(0.1, 10)).run();
        let hi = Simulation::new(quick_cfg(0.6, 10)).run();
        assert!(hi.jobs_completed > 3 * lo.jobs_completed);
        assert!(hi.server_energy_j() > lo.server_energy_j());
        assert!(hi.mean_utilization() > lo.mean_utilization());
    }

    #[test]
    fn delay_timer_saves_energy_at_low_load() {
        let base = quick_cfg(0.1, 60);
        let active_idle = Simulation::new(base.clone()).run();
        let with_timer = Simulation::new(
            base.with_sleep_policy(SleepPolicy::delay_timer(SimDuration::from_millis(200)))
                .with_policy(PolicyKind::PackFirst),
        )
        .run();
        assert!(
            with_timer.server_energy_j() < active_idle.server_energy_j() * 0.8,
            "timer {} vs active-idle {}",
            with_timer.server_energy_j(),
            active_idle.server_energy_j()
        );
        // Jobs still complete.
        assert!(with_timer.jobs_completed as f64 > active_idle.jobs_completed as f64 * 0.9);
    }

    #[test]
    fn series_lengths_match_duration() {
        let report = Simulation::new(quick_cfg(0.3, 10)).run();
        // Sampled every second from 0 through 10 inclusive.
        assert_eq!(report.series.active_jobs.len(), 11);
        assert_eq!(report.series.server_power_w.len(), 11);
        assert!(report.series.server_power_w.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn json_and_summary_render() {
        let report = Simulation::new(quick_cfg(0.3, 2)).run();
        let json = report.to_json();
        assert!(json.contains("\"jobs_completed\""));
        assert!(report.summary().contains("jobs:"));
    }

    /// A network run exercising every slot-indexed table at once: two-tier
    /// jobs (every edge crosses the fat tree), server classes (per-class
    /// global-queue sub-queues), the global queue (dispatch slots under
    /// commitment), and the chosen communication model (flow slots or
    /// transfer slots).
    fn slot_indexed_cfg(comm: CommModel) -> SimConfig {
        use holdcsim_workload::service::ServiceDist;
        use holdcsim_workload::templates::JobTemplate;
        let template = JobTemplate::two_tier(
            ServiceDist::Exponential {
                mean: SimDuration::from_millis(4),
            },
            ServiceDist::Exponential {
                mean: SimDuration::from_millis(6),
            },
            48_000,
        );
        let mut cfg = SimConfig::server_farm(8, 2, 0.5, template, SimDuration::from_secs(3));
        cfg.server_classes = (0..8).map(|i| (i % 2) as u32).collect();
        cfg.use_global_queue = true;
        let mut net = crate::config::NetworkConfig::fat_tree(4);
        net.comm = comm;
        cfg.network = Some(net);
        cfg
    }

    #[test]
    fn packet_mode_fixed_seed_reports_are_bitwise_identical() {
        let comm = CommModel::Packet {
            mtu: 1_500,
            buffer_bytes: 1 << 20,
        };
        let a = Simulation::new(slot_indexed_cfg(comm)).run();
        let b = Simulation::new(slot_indexed_cfg(comm)).run();
        assert_eq!(a.to_json(), b.to_json(), "same seed, same report bytes");
        assert_eq!(a.events_processed, b.events_processed);
        assert!(a.jobs_completed > 500, "jobs {}", a.jobs_completed);
        let net = a.network.as_ref().expect("network report");
        assert!(
            net.packets_forwarded > 10_000,
            "transfers really packetized"
        );
    }

    #[test]
    fn flow_mode_fixed_seed_reports_are_bitwise_identical() {
        let a = Simulation::new(slot_indexed_cfg(CommModel::Flow)).run();
        let b = Simulation::new(slot_indexed_cfg(CommModel::Flow)).run();
        assert_eq!(a.to_json(), b.to_json(), "same seed, same report bytes");
        assert_eq!(a.events_processed, b.events_processed);
        assert!(a.jobs_completed > 500, "jobs {}", a.jobs_completed);
        let net = a.network.as_ref().expect("network report");
        assert!(net.flows > 1_000, "transfers really flowed");
    }

    #[test]
    fn crash_and_recovery_retry_work_and_report_availability() {
        use holdcsim_faults::FaultPlan;
        let mut cfg = quick_cfg(0.5, 10);
        cfg.faults =
            Some(FaultPlan::parse("crash@2s:0; recover@4s:0; crash@3s:1; recover@5s:1").unwrap());
        let report = Simulation::new(cfg).run();
        let res = report.resilience.as_ref().expect("resilience section");
        assert_eq!(res.faults_injected, 2);
        assert!(res.tasks_killed > 0, "killed {}", res.tasks_killed);
        assert!(res.jobs_retried > 0 && res.retries >= res.jobs_retried);
        // Two servers each down 2 s out of 4×10 server-seconds.
        assert!(
            (res.server_downtime_s - 4.0).abs() < 1e-9,
            "downtime {}",
            res.server_downtime_s
        );
        assert!((res.availability - 0.9).abs() < 1e-9);
        // No job lost: everything is done or accounted unfinished.
        assert_eq!(
            report.jobs_submitted,
            report.jobs_completed + res.jobs_unfinished
        );
        assert!(res.jobs_abandoned <= res.jobs_unfinished);
        assert!(report.jobs_completed > 100);
        // Both latency splits rendered (clean jobs certainly exist).
        assert!(res.clean.count > 0);
        let json = report.to_json();
        assert!(json.contains("\"resilience\""));
        assert!(report.summary().contains("resilience:"));
    }

    #[test]
    fn empty_fault_plan_is_bitwise_invisible() {
        use holdcsim_faults::FaultPlan;
        let base = Simulation::new(slot_indexed_cfg(CommModel::Flow)).run();
        let mut cfg = slot_indexed_cfg(CommModel::Flow);
        cfg.faults = Some(FaultPlan::default());
        let with_empty = Simulation::new(cfg).run();
        assert_eq!(base.to_json(), with_empty.to_json());
    }

    #[test]
    fn switch_outage_reroutes_transfers_without_losing_jobs() {
        use holdcsim_faults::FaultPlan;
        for comm in [
            CommModel::Flow,
            CommModel::Packet {
                mtu: 1_500,
                buffer_bytes: 1 << 20,
            },
        ] {
            let mut cfg = slot_indexed_cfg(comm);
            cfg.faults = Some(FaultPlan::parse("switch-down@1s:0; switch-up@2s:0").unwrap());
            let report = Simulation::new(cfg).run();
            let res = report.resilience.as_ref().expect("resilience section");
            assert_eq!(
                report.jobs_submitted,
                report.jobs_completed + res.jobs_unfinished
            );
            assert!(
                (res.switch_downtime_s - 1.0).abs() < 1e-9,
                "switch downtime {}",
                res.switch_downtime_s
            );
            assert!(
                report.jobs_completed > 100,
                "jobs {}",
                report.jobs_completed
            );
        }
    }

    #[test]
    fn fault_runs_are_deterministic() {
        use holdcsim_faults::FaultPlan;
        let build = || {
            let mut cfg = slot_indexed_cfg(CommModel::Flow);
            cfg.faults = Some(
                FaultPlan::parse(
                    "crash@500ms:2; recover@1500ms:2; switch-down@1s:1; switch-up@2s:1; \
                     straggle@800ms:5,0.5,400ms; mtbf:server=7,mtbf=900ms,mttr=150ms",
                )
                .unwrap(),
            );
            cfg
        };
        let a = Simulation::new(build()).run();
        let b = Simulation::new(build()).run();
        assert_eq!(a.to_json(), b.to_json(), "fault runs must be reproducible");
        let res = a.resilience.as_ref().expect("resilience section");
        assert!(res.faults_injected > 0);
        assert_eq!(a.jobs_submitted, a.jobs_completed + res.jobs_unfinished);
    }

    #[test]
    fn steady_state_routes_come_from_the_cache() {
        // With bounded ECMP buckets the route cache must serve the steady
        // state: misses are bounded by (pairs × ways), hits grow with the
        // transfer count.
        let mut engine = Simulation::new(slot_indexed_cfg(CommModel::Flow)).into_engine();
        engine.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        let (hits, misses) = engine
            .model()
            .net()
            .expect("network configured")
            .router
            .route_cache_stats();
        assert!(
            hits > 4 * misses,
            "route cache should serve steady-state transfers: {hits} hits / {misses} misses"
        );
    }
}
