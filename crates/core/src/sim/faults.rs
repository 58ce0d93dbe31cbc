//! Fault injection and retry: the fault calendar, the crash, straggle and
//! fabric-outage handlers, the retry path for work a fault killed, and
//! the resilience report.

use holdcsim_des::engine::Context;
use holdcsim_des::rng::SimRng;
use holdcsim_des::slot_window::SlotWindow;
use holdcsim_des::stats::SampleSet;
use holdcsim_des::time::SimTime;
use holdcsim_faults::{FaultEvent, FaultKind, Outages, RetryPolicy, FAULT_STREAM};
use holdcsim_network::ids::LinkId;
use holdcsim_server::server::ServerId;
use holdcsim_workload::ids::JobId;

use super::{Datacenter, DcEvent};
use crate::config::SimConfig;
use crate::netstate::NetState;
use crate::report::{latency_report, ResilienceReport};

/// Fault-injection runtime state, boxed onto the driver only when the
/// configuration carries a non-empty [`holdcsim_faults::FaultPlan`] —
/// fault-free runs keep the exact pre-fault layout and trajectory.
#[derive(Debug)]
pub(super) struct FaultState {
    /// The materialized schedule, ascending by time; `FaultInject` /
    /// `FaultRecover` events carry indexes into it.
    schedule: Vec<FaultEvent>,
    /// Retry/re-dispatch policy for work killed by faults.
    retry: RetryPolicy,
    /// Per-server crash generation: bumped on crash so in-flight
    /// completion/transition events from before the crash are dropped.
    crash_gen: Vec<u32>,
    /// Crashed servers.
    servers: Outages,
    /// Failed fabric switches.
    switches: Outages,
    /// Failed fabric links.
    links: Outages,
    /// Non-recovery fault events that actually hit a live component.
    faults_injected: u64,
    /// Tasks killed by crashes (running, queued, or committed-awaiting-
    /// transfers).
    tasks_killed: u64,
    /// Total task re-dispatch attempts scheduled.
    retries_total: u64,
    /// Distinct jobs that saw at least one retry.
    jobs_retried: u64,
    /// Jobs whose retry budget ran out (they never complete).
    jobs_abandoned: u64,
    /// Transfers restarted because a fabric fault severed their route.
    transfer_retries: u64,
    /// Retries waiting out their backoff; `RetryDispatch` events carry
    /// the slot.
    retry_slots: SlotWindow<(JobId, u32)>,
    /// Completion latencies of jobs untouched by any fault.
    clean_lat: SampleSet,
    /// Completion latencies of jobs that needed at least one retry.
    affected_lat: SampleSet,
}

impl FaultState {
    /// The probes [`FaultState::probe_sample`] fills, in order.
    pub(super) const PROBES: [&'static str; 3] =
        ["down_servers", "down_links", "retries_in_flight"];

    /// Materializes `cfg`'s fault plan (`None` when it has none or an
    /// empty one). The schedule draws from a dedicated substream of the
    /// root `rng`, so the workload RNG trajectory (and with it the
    /// fault-free run) is untouched either way.
    pub(super) fn build(
        cfg: &SimConfig,
        rng: &SimRng,
        net: Option<&NetState>,
    ) -> Option<Box<Self>> {
        let plan = cfg.faults.as_ref().filter(|p| !p.is_empty())?;
        let schedule = plan.materialize(cfg.duration, &rng.substream_path(&[FAULT_STREAM]));
        let (switches, links) =
            net.map_or((0, 0), |n| (n.switches.len(), n.topology.links().len()));
        Some(Box::new(FaultState {
            schedule,
            retry: plan.retry,
            crash_gen: vec![0; cfg.server_count],
            servers: Outages::new(cfg.server_count),
            switches: Outages::new(switches),
            links: Outages::new(links),
            faults_injected: 0,
            tasks_killed: 0,
            retries_total: 0,
            jobs_retried: 0,
            jobs_abandoned: 0,
            transfer_retries: 0,
            retry_slots: SlotWindow::new(),
            clean_lat: SampleSet::with_capacity(65_536),
            affected_lat: SampleSet::with_capacity(65_536),
        }))
    }

    /// Every scheduled fault and recovery as a calendar event at its
    /// instant (`materialize` already dropped those past the horizon).
    pub(super) fn calendar(&self) -> impl Iterator<Item = (SimTime, DcEvent)> + '_ {
        self.schedule.iter().enumerate().map(|(i, ev)| {
            let fault = i as u32;
            let e = if ev.kind.is_recovery() {
                DcEvent::FaultRecover { fault }
            } else {
                DcEvent::FaultInject { fault }
            };
            (SimTime::ZERO + ev.at, e)
        })
    }

    /// Records a completed job's latency in the split for jobs that
    /// needed a fault retry (`affected`) or that no fault touched.
    pub(super) fn record_latency(&mut self, lat: f64, affected: bool) {
        if affected {
            self.affected_lat.record(lat);
        } else {
            self.clean_lat.record(lat);
        }
    }

    /// Appends one sample per [`FaultState::PROBES`] name.
    pub(super) fn probe_sample(&self, out: &mut Vec<f64>) {
        out.push(self.servers.down_count() as f64);
        out.push(self.links.down_count() as f64);
        out.push(self.retry_slots.len() as f64);
    }
}

impl Datacenter {
    /// Cores currently lost to server crashes (the federation
    /// effective-capacity signal; 0 when fault injection is off).
    pub fn down_cores(&self) -> u32 {
        self.faults.as_ref().map_or(0, |f| {
            f.servers.down_count() as u32 * self.cfg.cores_per_server
        })
    }

    /// The next scheduled fault/recovery instant strictly after `now`
    /// (federation coordinators clamp their conservative windows so no
    /// fault lands inside a committed window).
    pub fn next_fault_at(&self, now: SimTime) -> Option<SimTime> {
        let schedule = &self.faults.as_ref()?.schedule;
        // The materialized schedule is ascending by time.
        let next = schedule.partition_point(|ev| SimTime::ZERO + ev.at <= now);
        schedule.get(next).map(|ev| SimTime::ZERO + ev.at)
    }

    /// The server's current crash generation (0 whenever fault injection
    /// is off, so `gen` fields stay 0 and guards compare 0 == 0).
    pub(super) fn crash_gen(&self, sid: ServerId) -> u32 {
        self.faults
            .as_ref()
            .map_or(0, |f| f.crash_gen[sid.0 as usize])
    }

    /// `true` while `id` is crashed (fault injection only).
    pub(super) fn is_down(&self, id: ServerId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.servers.is_down(id.0 as usize))
    }

    /// Dispatches a scheduled fault/recovery (index into the schedule).
    pub(super) fn on_fault(&mut self, ctx: &mut Context<'_, DcEvent>, fault: u32) {
        let kind = self
            .faults
            .as_ref()
            .expect("fault event without state")
            .schedule[fault as usize]
            .kind;
        let applied = match kind {
            FaultKind::ServerCrash { server } => self.on_server_crash(ctx, server),
            FaultKind::ServerRecover { server } => self.on_server_recover(ctx, server),
            FaultKind::ServerStraggle { server, factor } => self.on_server_straggle(server, factor),
            FaultKind::ServerStraggleEnd { server } => self.on_server_straggle_end(server),
            FaultKind::SwitchDown { .. }
            | FaultKind::SwitchUp { .. }
            | FaultKind::LinkDown { .. }
            | FaultKind::LinkUp { .. } => self.on_fabric_fault(ctx, kind),
            // WAN faults are the federation coordinator's concern; site
            // schedules never carry them (`materialize` filters them out).
            FaultKind::WanLinkDown { .. } | FaultKind::WanLinkUp { .. } => false,
        };
        // Only fault firings that hit a live component count as injected
        // (duplicate crash events and out-of-range targets are no-ops).
        if applied && !kind.is_recovery() {
            if let Some(f) = self.faults.as_deref_mut() {
                f.faults_injected += 1;
            }
        }
    }

    /// Fail-stop crash: kills running/queued/committed work, bumps the
    /// crash generation (orphaning in-flight completion events), and
    /// powers the server off until its recovery event.
    fn on_server_crash(&mut self, ctx: &mut Context<'_, DcEvent>, server: u32) -> bool {
        let (now, idx, sid) = (ctx.now(), server as usize, ServerId(server));
        let f = self
            .faults
            .as_deref_mut()
            .expect("fault event without state");
        if !f.servers.fail(idx, now) {
            return false;
        }
        f.crash_gen[idx] += 1;
        self.placement.set_eligible(&self.servers, sid, false);
        let mut killed = Vec::new();
        self.servers[idx].fail(now, &mut killed);
        // Tasks committed to this server but still awaiting inbound
        // transfers die with it (slot-key order keeps this deterministic).
        let doomed: Vec<u64> = self
            .dispatch_slots
            .iter()
            .filter(|(_, st)| st.0 == sid)
            .map(|(k, _)| k)
            .collect();
        f.tasks_killed += (killed.len() + doomed.len()) as u64;
        for h in &killed {
            self.retry_task(ctx, h.id.job, h.id.index);
        }
        for slot in doomed {
            self.kill_dispatch(ctx, slot);
        }
        // Flow removals above were batched; solve once.
        self.flush_transfers(ctx);
        true
    }

    /// Reboot: the server rejoins the eligible set and wakes from its
    /// powered-off state. This overrides any controller parking, and the
    /// controller never re-parks it: `DeactivateOne` skips ids already in
    /// `parked`, so a server that recovers while parked stays eligible
    /// until an `ActivateOne` pops it.
    fn on_server_recover(&mut self, ctx: &mut Context<'_, DcEvent>, server: u32) -> bool {
        let (now, sid) = (ctx.now(), ServerId(server));
        let f = self
            .faults
            .as_deref_mut()
            .expect("fault event without state");
        if !f.servers.recover(server as usize, now) {
            return false;
        }
        self.servers[server as usize].request_wake(now, &mut self.fx);
        self.placement.set_eligible(&self.servers, sid, true);
        Self::apply_effects(ctx, sid, &self.fx, self.crash_gen(sid));
        true
    }

    /// Performance fault: new tasks on the server run `factor`× slower
    /// (already-running tasks keep their completion instants) and the
    /// degraded node leaves the placement set until the fault ends.
    fn on_server_straggle(&mut self, server: u32, factor: f64) -> bool {
        let idx = server as usize;
        let usable = factor.is_finite() && factor > 0.0;
        if idx >= self.servers.len() || !usable {
            return false;
        }
        self.servers[idx].set_fault_speed(factor);
        self.placement
            .set_eligible(&self.servers, ServerId(server), false);
        true
    }

    fn on_server_straggle_end(&mut self, server: u32) -> bool {
        let idx = server as usize;
        if idx >= self.servers.len() {
            return false;
        }
        self.servers[idx].set_fault_speed(1.0);
        // Do not resurrect a server that crashed mid-straggle.
        if !self.is_down(ServerId(server)) {
            self.placement
                .set_eligible(&self.servers, ServerId(server), true);
        }
        true
    }

    /// Takes a fabric switch or link down (or back up), rerouting or
    /// killing the traffic crossing it.
    fn on_fabric_fault(&mut self, ctx: &mut Context<'_, DcEvent>, kind: FaultKind) -> bool {
        let (now, down) = (ctx.now(), !kind.is_recovery());
        let (Some(net), Some(f)) = (self.net.as_mut(), self.faults.as_deref_mut()) else {
            return false;
        };
        let (outages, i, changed) = match kind {
            FaultKind::SwitchDown { switch: i } | FaultKind::SwitchUp { switch: i } => {
                let Some(node) = net.switches.get(i as usize).map(|s| s.node()) else {
                    return false;
                };
                (&mut f.switches, i, net.set_node_down(node, down))
            }
            FaultKind::LinkDown { link: i } | FaultKind::LinkUp { link: i } => {
                if i as usize >= net.topology.links().len() {
                    return false;
                }
                (&mut f.links, i, net.set_link_down(LinkId(i), down))
            }
            _ => return false,
        };
        if !changed {
            return false;
        }
        if down {
            outages.fail(i as usize, now);
            self.on_fabric_down(ctx);
        } else {
            // Recovery needs no in-flight fixups: the cleared mask (and
            // dropped route cache) lets new transfers use the component.
            outages.recover(i as usize, now);
        }
        true
    }

    /// A switch or link just died: every in-flight transfer whose route
    /// crosses it restarts on a surviving route, or — when no route
    /// survives — kills its dispatch and retries the consumer task.
    fn on_fabric_down(&mut self, ctx: &mut Context<'_, DcEvent>) {
        let Some(net) = self.net.as_ref() else { return };
        // A packet burst cannot reroute mid-flight: its consumer dispatch
        // restarts from scratch.
        let (doomed, severed) = (net.doomed_bursts(), net.severed_flows());
        let mut restarted = doomed.len() as u64;
        for dispatch in doomed {
            self.kill_dispatch(ctx, dispatch);
        }
        for key in severed {
            let Some(net) = self.net.as_mut() else { break };
            let (lost, unreachable) = net.restart_flow(ctx, key);
            restarted += u64::from(lost);
            if let Some(dispatch) = unreachable {
                self.kill_dispatch(ctx, dispatch);
            }
        }
        if let Some(f) = self.faults.as_mut() {
            f.transfer_retries += restarted;
        }
        self.flush_transfers(ctx);
    }

    /// Tears down a committed-but-not-started dispatch — frees the core
    /// reservation and drops the in-flight transfers feeding it — and
    /// pushes its task through the retry path.
    pub(super) fn kill_dispatch(&mut self, ctx: &mut Context<'_, DcEvent>, slot: u64) {
        let Some((sid, handle)) = self.dispatch_slots.remove(slot) else {
            return;
        };
        self.placement.release(&self.servers, sid);
        if let Some(net) = self.net.as_mut() {
            net.drop_edges(ctx, slot);
        }
        self.retry_task(ctx, handle.id.job, handle.id.index);
    }

    /// Pushes a fault-killed task through the retry policy: bounded
    /// attempts with exponential sim-time backoff, then abandonment.
    fn retry_task(&mut self, ctx: &mut Context<'_, DcEvent>, job: JobId, t: u32) {
        let f = self
            .faults
            .as_deref_mut()
            .expect("retry without fault state");
        let js = self.jobs.get_mut(job);
        if js.is_abandoned() {
            return;
        }
        let attempt = js.note_retry(t);
        if attempt > f.retry.max_retries {
            // Budget exhausted: the job stays in the table with
            // unfinished work and counts as unfinished forever.
            js.mark_abandoned();
            f.jobs_abandoned += 1;
            return;
        }
        f.retries_total += 1;
        if js.mark_fault_affected() {
            f.jobs_retried += 1;
        }
        js.clear_transfers(t);
        let slot = f.retry_slots.insert((job, t));
        ctx.schedule_in(f.retry.delay(attempt), DcEvent::RetryDispatch { slot });
    }

    /// A retry backoff expired: re-place the task (unless its job was
    /// abandoned in the meantime).
    pub(super) fn on_retry_dispatch(&mut self, ctx: &mut Context<'_, DcEvent>, slot: u64) {
        let f = self
            .faults
            .as_deref_mut()
            .expect("retry without fault state");
        let Some((job, t)) = f.retry_slots.remove(slot) else {
            return;
        };
        if self.jobs.get(job).is_abandoned() {
            return;
        }
        self.place_or_queue(ctx, job, t);
        self.flush_transfers(ctx);
    }

    /// The resilience section of the report at `end` (fault runs only;
    /// outages still open at the horizon count up to `end`).
    pub(super) fn resilience_report(&self, end: SimTime) -> Option<ResilienceReport> {
        let f = self.faults.as_deref()?;
        let horizon = self.cfg.duration.as_secs_f64();
        let server_downtime_s = f.servers.downtime_s(end);
        let cap = self.cfg.server_count as f64 * horizon;
        Some(ResilienceReport {
            faults_injected: f.faults_injected,
            server_downtime_s,
            availability: if cap > 0.0 {
                1.0 - server_downtime_s / cap
            } else {
                1.0
            },
            tasks_killed: f.tasks_killed,
            jobs_retried: f.jobs_retried,
            retries: f.retries_total,
            jobs_abandoned: f.jobs_abandoned,
            jobs_unfinished: self.jobs.in_flight() as u64,
            transfer_retries: f.transfer_retries,
            switch_downtime_s: f.switches.downtime_s(end),
            link_downtime_s: f.links.downtime_s(end),
            wan_link_downtime_s: 0.0,
            goodput_jobs_per_s: if horizon > 0.0 {
                self.jobs.completed() as f64 / horizon
            } else {
                0.0
            },
            clean: latency_report(&f.clean_lat).0,
            affected: latency_report(&f.affected_lat).0,
        })
    }
}
