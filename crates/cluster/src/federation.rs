//! The federation coordinator: N site [`Datacenter`]s advanced through
//! conservative lookahead windows (Chandy–Misra style), coupled only by
//! WAN job transfers and the geo-dispatch load snapshot.
//!
//! Between WAN deliveries the sites are independent shards, and nothing
//! a site does before `earliest event + WAN lookahead floor` can reach
//! another site — so the coordinator computes that safe horizon, runs
//! every site up to it ([`Engine::run_window`], concurrently on a pooled
//! scoped-thread substrate, or inline with one worker), then exchanges
//! the accumulated outboxes through the WAN in global send order and
//! refreshes the dispatch load snapshot, window after window. Every
//! worker count drives the identical coordination loop, so
//! [`FederationReport::to_json`] is byte-identical at any worker count.
//!
//! Each site is a complete, self-driven fabric built by
//! [`Simulation::new`] from its own [`SimConfig`](holdcsim::config::SimConfig) (derived by
//! [`ClusterConfig::site_configs`], per-site RNG substreams included), so
//! a federated site whose jobs all stay home retraces the corresponding
//! standalone run event for event — the property the cross-site
//! equivalence tests pin down.

use std::sync::Mutex;

use holdcsim::config::ClusterConfig;
use holdcsim::export::{json_f64, JsonObj};
use holdcsim::job::JobState;
use holdcsim::report::SimReport;
use holdcsim::sim::{finish_report, Datacenter, DcEvent, FedPort, Simulation};
use holdcsim_des::engine::Engine;
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_faults::{FaultEvent, FaultKind};
use holdcsim_obs::{MetricsData, ObsArtifacts, Observer, ProbePanel};

use crate::pool::run_windows;
use crate::wan::{Wan, WanReport};

/// One site fabric plus its observability tap.
type SiteEngine = Engine<Datacenter, Observer>;

/// A configured multi-datacenter federation, ready to run.
///
/// # Examples
///
/// ```
/// use holdcsim::config::{ClusterConfig, SimConfig, WanConfig};
/// use holdcsim_cluster::Federation;
/// use holdcsim_des::time::SimDuration;
/// use holdcsim_workload::presets::WorkloadPreset;
///
/// let base = SimConfig::server_farm(
///     4, 2, 0.3,
///     WorkloadPreset::WebSearch.template(),
///     SimDuration::from_secs(2),
/// );
/// let wan = WanConfig::full_mesh(2, 10_000_000_000, SimDuration::from_millis(20));
/// let report = Federation::new(&ClusterConfig::uniform(base, 2, wan)).run();
/// assert_eq!(report.sites.len(), 2);
/// assert!(report.jobs_completed() > 0);
/// ```
#[derive(Debug)]
pub struct Federation {
    sites: Vec<SiteEngine>,
    coord: Coordinator,
}

impl Federation {
    /// Builds every site fabric and the WAN from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on malformed configurations (no sites, zero
    /// [`ClusterConfig::job_bytes`], malformed WAN links).
    pub fn new(cfg: &ClusterConfig) -> Self {
        assert!(cfg.job_bytes > 0, "forwarded jobs carry payload");
        let site_cfgs = cfg.site_configs();
        let n = site_cfgs.len();
        let mut wan = Wan::build(&cfg.wan, n);
        let wan_faults: Vec<FaultEvent> = cfg
            .faults
            .as_ref()
            .map(|p| {
                p.wan_events()
                    .into_iter()
                    .filter(|e| e.at <= cfg.base.duration)
                    .collect()
            })
            .unwrap_or_default();
        if !wan_faults.is_empty() {
            wan.arm_faults();
        }
        let horizon = SimTime::ZERO + cfg.base.duration;
        let wan_panel =
            cfg.base.obs.metrics.map(|mc| {
                ProbePanel::new(mc, vec!["wan_in_flight_bytes", "wan_in_flight_transfers"])
            });
        let mut sites = Vec::with_capacity(n);
        let mut caps = Vec::with_capacity(n);
        for (i, sc) in site_cfgs.into_iter().enumerate() {
            caps.push((sc.server_count * sc.cores_per_server as usize) as f64);
            let mut engine = Simulation::new(sc).into_engine();
            engine.observer_mut().set_site(i as u32);
            engine.model_mut().attach_federation(FedPort {
                site: i as u32,
                geo: cfg.geo,
                site_loads: vec![0.0; n],
                wan_latency_s: wan.path_latency_s(i),
                outbox: Vec::new(),
                forwarded: 0,
            });
            sites.push(engine);
        }
        let lookahead = wan.lookahead();
        Federation {
            sites,
            coord: Coordinator {
                wan,
                wan_panel,
                lookahead,
                wan_faults,
                wan_fault_idx: 0,
                loads: vec![0.0; n],
                caps,
                job_bytes: cfg.job_bytes,
                horizon,
                deliveries: Vec::new(),
                sendbuf: Vec::new(),
            },
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Read access to a site's datacenter (tests and harnesses).
    pub fn site(&self, i: usize) -> &Datacenter {
        self.sites[i].model()
    }

    /// Runs the federation to its horizon with the default worker count
    /// (the machine's available parallelism, capped at the site count)
    /// and produces the report. Byte-identical to every other worker
    /// count.
    pub fn run(self) -> FederationReport {
        let workers = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        self.run_with_workers(workers)
    }

    /// Runs the federation with exactly `workers` pooled threads burning
    /// down site windows (clamped to `1..=site_count`). `1` runs inline
    /// without spawning, sites advanced in index order: the thread-free
    /// reference the parallel arms are pinned against byte for byte.
    #[allow(clippy::disallowed_methods)] // summary-only wall_s; excluded from to_json (see analysis.toml D002 entry)
    pub fn run_with_workers(self, workers: usize) -> FederationReport {
        let t0 = std::time::Instant::now();
        let Federation { sites, mut coord } = self;
        let cells: Vec<Mutex<SiteEngine>> = sites.into_iter().map(Mutex::new).collect();
        run_windows(
            workers,
            &cells,
            |engine: &mut SiteEngine, cap| {
                engine.run_window(cap);
            },
            |dispatch| coord.drive(&cells, dispatch),
        );
        let horizon = coord.horizon;
        let mut engines: Vec<SiteEngine> = cells
            .into_iter()
            .map(|c| c.into_inner().expect("site cell poisoned"))
            .collect();
        for e in &mut engines {
            // All events within the horizon are processed; this only
            // advances the site clock to the common end instant.
            e.run_until(horizon);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let mut sites = Vec::with_capacity(engines.len());
        let mut obs = Vec::with_capacity(engines.len());
        let mut forwarded = Vec::with_capacity(engines.len());
        let mut events = 0;
        for e in engines {
            let ev = e.events_processed();
            events += ev;
            let (dc, observer) = e.into_parts();
            forwarded.push(dc.jobs_forwarded());
            sites.push(finish_report(dc, horizon, ev, wall_s));
            obs.push(observer.finish(horizon));
        }
        let wan = coord.wan.report(horizon);
        let resilience = fed_resilience(&sites, &wan);
        FederationReport {
            sites,
            obs,
            forwarded,
            wan,
            wan_metrics: coord.wan_panel.map(|p| p.finish(horizon)),
            resilience,
            events_processed: events,
            wall_s,
        }
    }
}

/// Aggregates the per-site resilience sections plus the WAN fault stats
/// into the federation-wide section — `None` when no site and no WAN
/// fault schedule was armed, keeping fault-free report bytes unchanged.
fn fed_resilience(sites: &[SimReport], wan: &WanReport) -> Option<FederationResilience> {
    if sites.iter().all(|s| s.resilience.is_none()) && wan.faults.is_none() {
        return None;
    }
    // Jobs mid-WAN at the horizon belong to no site's table yet; they
    // count as unfinished here so the federation-wide ledger closes.
    let mut r = FederationResilience {
        faults_injected: 0,
        server_downtime_s: 0.0,
        availability: 1.0,
        tasks_killed: 0,
        jobs_retried: 0,
        retries: 0,
        jobs_abandoned: 0,
        transfer_retries: 0,
        jobs_unfinished: sites
            .iter()
            .map(|s| s.jobs_submitted - s.jobs_completed)
            .sum::<u64>()
            + (wan.transfers - wan.delivered),
        wan_restarts: wan.faults.map_or(0, |f| f.restarts),
        wan_parked: wan.faults.map_or(0, |f| f.parked),
        wan_link_downtime_s: wan.faults.map_or(0.0, |f| f.link_downtime_s),
    };
    // Per-site availability is `1 − downtime / (servers × horizon)`; the
    // rollup keeps the same server-second units so a one-site federation
    // matches its site's number exactly.
    let mut server_seconds = 0.0;
    for s in sites {
        server_seconds += s.servers.len() as f64 * s.duration.as_secs_f64();
        let Some(sr) = &s.resilience else { continue };
        r.faults_injected += sr.faults_injected;
        r.server_downtime_s += sr.server_downtime_s;
        r.tasks_killed += sr.tasks_killed;
        r.jobs_retried += sr.jobs_retried;
        r.retries += sr.retries;
        r.jobs_abandoned += sr.jobs_abandoned;
        r.transfer_retries += sr.transfer_retries;
    }
    if server_seconds > 0.0 {
        r.availability = 1.0 - r.server_downtime_s / server_seconds;
    }
    Some(r)
}

/// The federation-wide resilience rollup: per-site sections summed, the
/// availability re-weighted by each site's server-seconds, plus the
/// coordinator-level WAN fault outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationResilience {
    /// Applied (non-recovery) fault events across all sites.
    pub faults_injected: u64,
    /// Summed per-server down seconds across all sites.
    pub server_downtime_s: f64,
    /// `1 − downtime / total server-seconds` over the whole federation.
    pub availability: f64,
    /// Tasks killed mid-run by crashes across all sites.
    pub tasks_killed: u64,
    /// Distinct jobs that retried at least once.
    pub jobs_retried: u64,
    /// Total task retry dispatches.
    pub retries: u64,
    /// Jobs abandoned with the retry budget exhausted.
    pub jobs_abandoned: u64,
    /// Intra-site transfers severed by fabric faults.
    pub transfer_retries: u64,
    /// Jobs not completed by the horizon (in-site plus mid-WAN).
    pub jobs_unfinished: u64,
    /// WAN transfers restarted from source by link failures.
    pub wan_restarts: u64,
    /// WAN transfers that waited at the ingress without a path.
    pub wan_parked: u64,
    /// Summed WAN link down seconds.
    pub wan_link_downtime_s: f64,
}

impl FederationResilience {
    /// Renders the rollup as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .int("faults_injected", self.faults_injected)
            .num("server_downtime_s", self.server_downtime_s)
            .raw("availability", &json_f64(self.availability))
            .int("tasks_killed", self.tasks_killed)
            .int("jobs_retried", self.jobs_retried)
            .int("retries", self.retries)
            .int("jobs_abandoned", self.jobs_abandoned)
            .int("transfer_retries", self.transfer_retries)
            .int("jobs_unfinished", self.jobs_unfinished)
            .int("wan_restarts", self.wan_restarts)
            .int("wan_parked", self.wan_parked)
            .num("wan_link_downtime_s", self.wan_link_downtime_s)
            .finish()
    }
}

/// What the coordination loop does next.
enum Turn {
    /// Advance the WAN to this instant (hop completions, deliveries).
    Wan(SimTime),
    /// Apply the scripted WAN fault(s) at this instant: links flip,
    /// paths and the lookahead floor recompute, sites learn the new
    /// latencies.
    Fault(SimTime),
    /// Run every site up to this inclusive cap.
    Window(SimTime),
    /// Nothing remains inside the horizon.
    Done,
}

/// Everything the window loop owns besides the site engines themselves:
/// the WAN, the dispatch load snapshot, and the window scratch buffers.
#[derive(Debug)]
struct Coordinator {
    wan: Wan,
    /// Coordinator-level WAN probes (in-flight bytes/transfers), present
    /// only when the base config turns metrics on. Sampled at window
    /// boundaries and WAN turns.
    wan_panel: Option<ProbePanel>,
    /// The WAN lookahead floor ([`Wan::lookahead`]) over the currently
    /// surviving links, refreshed at every WAN fault turn; `None` means
    /// sends are impossible and windows are bounded by the horizon only.
    lookahead: Option<SimDuration>,
    /// Scripted WAN fault events, time-sorted; applied at dedicated
    /// coordinator turns so no committed window spans a topology change.
    wan_faults: Vec<FaultEvent>,
    /// Next unapplied entry in `wan_faults`.
    wan_fault_idx: usize,
    /// Per-site load snapshot (in-flight jobs per core), recomputed at
    /// window boundaries and republished to every [`FedPort`] only when
    /// it changed.
    loads: Vec<f64>,
    /// Per-site core counts (the load denominator).
    caps: Vec<f64>,
    job_bytes: u64,
    horizon: SimTime,
    /// Reusable delivery buffer.
    deliveries: Vec<(u32, JobState)>,
    /// Reusable outbox merge buffer: `(send time, src, dst, job)`.
    sendbuf: Vec<(SimTime, u32, u32, JobState)>,
}

impl Coordinator {
    /// Runs the window loop to the horizon. `dispatch(cap)` must run
    /// every site engine through [`Engine::run_window`]`(cap)` before
    /// returning — inline or on the worker pool; the trace cannot tell
    /// the difference.
    fn drive(&mut self, cells: &[Mutex<SiteEngine>], dispatch: &mut dyn FnMut(SimTime)) {
        loop {
            match self.next_turn(cells) {
                Turn::Wan(t) => self.wan_turn(cells, t),
                Turn::Fault(t) => self.fault_turn(cells, t),
                Turn::Window(cap) => {
                    self.publish_loads(cells);
                    dispatch(cap);
                    self.close_window(cells, cap);
                }
                Turn::Done => return,
            }
        }
    }

    /// Picks the next turn: the WAN when it holds the earliest event
    /// inside the horizon (ties go to the WAN so a delivery always
    /// precedes same-instant site work), then a due WAN fault (applied
    /// before any site processes events at or past its instant),
    /// otherwise the widest safe site window.
    fn next_turn(&mut self, cells: &[Mutex<SiteEngine>]) -> Turn {
        let mut earliest: Option<SimTime> = None;
        // The earliest pending site-local fault instant strictly after
        // `earliest`: committed windows close at it so capacity changes
        // reach the load snapshot within one window (see `window_cap`).
        let mut site_fault: Option<SimTime> = None;
        for cell in cells {
            let guard = cell.lock().expect("site cell");
            if let Some(t) = guard.peek_next_time() {
                if t <= self.horizon && earliest.is_none_or(|b| t < b) {
                    earliest = Some(t);
                }
            }
            if let Some(f) = guard.model().next_fault_at(guard.now()) {
                if site_fault.is_none_or(|b| f < b) {
                    site_fault = Some(f);
                }
            }
        }
        let next_wan = self.wan.next_time().filter(|&t| t <= self.horizon);
        let next_fault = self
            .wan_faults
            .get(self.wan_fault_idx)
            .map(|e| SimTime::ZERO + e.at)
            .filter(|&t| t <= self.horizon);
        match (next_wan, next_fault, earliest) {
            (Some(w), f, s) if f.is_none_or(|f| w <= f) && s.is_none_or(|s| w <= s) => Turn::Wan(w),
            (_, Some(f), s) if s.is_none_or(|s| f <= s) => Turn::Fault(f),
            (w, f, Some(s)) => Turn::Window(self.window_cap(w, f, site_fault, s)),
            // All remaining combinations have no site event; WAN-only
            // futures are consumed by the first two arms.
            _ => Turn::Done,
        }
    }

    /// The inclusive window cap for sites whose earliest event is at
    /// `start`, given the next WAN event at `next_wan` (already known to
    /// be strictly after `start`): strictly before the next WAN delivery
    /// could land — the earlier of the next WAN event and
    /// `start + lookahead` (sends issued inside the window deliver no
    /// earlier; max–min fair sharing only ever postpones in-flight
    /// completions, so both bounds stay conservative) — clamped to the
    /// horizon. Two fault clamps tighten it further: the window must end
    /// strictly before the next scripted WAN fault (`wan_fault` — sends
    /// after a topology change must route on the post-change paths and
    /// the lookahead floor may shrink at it), and closes *at* the next
    /// site-local fault instant (`site_fault` — the capacity change is
    /// then visible at the very next load publish). When the lookahead
    /// floor is zero the exclusive bound is empty, so the cap
    /// degenerates to `start` itself: events *at* one instant cannot
    /// affect other sites at that same instant (every WAN hop takes
    /// nonzero time), and processing them guarantees progress — no
    /// deadlock, no livelock.
    fn window_cap(
        &self,
        next_wan: Option<SimTime>,
        wan_fault: Option<SimTime>,
        site_fault: Option<SimTime>,
        start: SimTime,
    ) -> SimTime {
        let mut cap = self.horizon;
        if let Some(w) = next_wan {
            cap = cap.min(SimTime::from_nanos(w.as_nanos() - 1));
        }
        if let Some(f) = wan_fault {
            cap = cap.min(SimTime::from_nanos(f.as_nanos() - 1));
        }
        if let Some(f) = site_fault {
            cap = cap.min(f);
        }
        if let Some(floor) = self.lookahead {
            let exclusive = start.saturating_add(floor).as_nanos();
            cap = cap.min(SimTime::from_nanos(exclusive.saturating_sub(1)));
        }
        cap.max(start)
    }

    /// Applies every scripted WAN fault due at `t`: links flip (paths,
    /// in-flight restarts, and parked relaunches happen inside the WAN),
    /// then the lookahead floor and every site's WAN latency snapshot
    /// refresh against the surviving topology.
    fn fault_turn(&mut self, cells: &[Mutex<SiteEngine>], t: SimTime) {
        while let Some(ev) = self.wan_faults.get(self.wan_fault_idx) {
            if SimTime::ZERO + ev.at != t {
                break;
            }
            self.wan_fault_idx += 1;
            match ev.kind {
                FaultKind::WanLinkDown { link } => {
                    self.wan.set_link_down(t, link, true);
                }
                FaultKind::WanLinkUp { link } => {
                    self.wan.set_link_down(t, link, false);
                }
                // `FaultPlan::wan_events` only yields WAN kinds.
                _ => {}
            }
        }
        self.lookahead = self.wan.lookahead();
        for (i, cell) in cells.iter().enumerate() {
            let mut e = cell.lock().expect("site cell");
            if let Some(port) = e.model_mut().fed_port_mut() {
                port.wan_latency_s = self.wan.path_latency_s(i);
            }
        }
        self.sample_wan(t);
    }

    /// Advances the WAN to `t`, scheduling completed deliveries as
    /// first-class events on their destination sites.
    fn wan_turn(&mut self, cells: &[Mutex<SiteEngine>], t: SimTime) {
        let mut deliveries = std::mem::take(&mut self.deliveries);
        deliveries.clear();
        self.wan.advance(t, &mut deliveries);
        for (dst, job) in deliveries.drain(..) {
            let mut e = cells[dst as usize].lock().expect("site cell");
            let slot = e.model_mut().accept_remote_job(job);
            e.schedule_at(t, DcEvent::RemoteJobArrive { slot });
        }
        self.deliveries = deliveries;
        self.sample_wan(t);
    }

    /// Recomputes the per-site load snapshot and republishes it into
    /// every [`FedPort`] — only when it actually changed, and only at
    /// window boundaries (never per event), identically at any worker
    /// count. The denominator is the *surviving* capacity
    /// (cores minus fault-downed ones): a crash wave inflates the site's
    /// apparent load so geo dispatch drains away from it within one
    /// window, and a fully dead site reads as infinitely loaded.
    fn publish_loads(&mut self, cells: &[Mutex<SiteEngine>]) {
        let mut changed = false;
        for (i, cell) in cells.iter().enumerate() {
            let e = cell.lock().expect("site cell");
            let dc = e.model();
            let cap = self.caps[i] - dc.down_cores() as f64;
            let load = if cap > 0.0 {
                dc.jobs_in_flight() as f64 / cap
            } else {
                f64::INFINITY
            };
            if load != self.loads[i] {
                self.loads[i] = load;
                changed = true;
            }
        }
        if !changed {
            return;
        }
        for cell in cells {
            let mut e = cell.lock().expect("site cell");
            if let Some(port) = e.model_mut().fed_port_mut() {
                port.site_loads.clone_from(&self.loads);
            }
        }
    }

    /// Ships every outbox accumulated during the window through the WAN
    /// in global send order — send instant first, then site index (the
    /// per-site drains concatenate in index order and the sort is
    /// stable), then a site's own event order — interleaving WAN hop
    /// completions due at or before each send exactly as the per-event
    /// coordinator did.
    fn close_window(&mut self, cells: &[Mutex<SiteEngine>], cap: SimTime) {
        self.sendbuf.clear();
        for (i, cell) in cells.iter().enumerate() {
            let mut e = cell.lock().expect("site cell");
            if let Some(port) = e.model_mut().fed_port_mut() {
                for (at, target, job) in port.outbox.drain(..) {
                    self.sendbuf.push((at, i as u32, target, job));
                }
            }
        }
        let mut sends = std::mem::take(&mut self.sendbuf);
        sends.sort_by_key(|&(at, ..)| at);
        for (at, src, dst, job) in sends.drain(..) {
            while self.wan.next_time().is_some_and(|w| w <= at) {
                let w = self.wan.next_time().expect("peeked");
                let mut sink = std::mem::take(&mut self.deliveries);
                self.wan.advance(w, &mut sink);
                // The window cap sits strictly below every possible
                // delivery instant (and a hop never takes zero time), so
                // hops completing here are mid-path only. A delivery
                // would mean the lookahead bound was violated.
                assert!(
                    sink.is_empty(),
                    "conservative window admitted a WAN delivery at {w} (cap {cap})"
                );
                self.deliveries = sink;
            }
            self.wan.send(at, src, dst, self.job_bytes, job);
        }
        self.sendbuf = sends;
        self.sample_wan(cap);
    }

    /// Samples the coordinator-level WAN probes when the metrics period
    /// has elapsed (no-op when metrics are off).
    fn sample_wan(&mut self, now: SimTime) {
        if let Some(panel) = &mut self.wan_panel {
            if panel.due(now) {
                let values = [
                    self.wan.in_flight_bytes() as f64,
                    self.wan.in_flight() as f64,
                ];
                panel.record(now, &values);
            }
        }
    }
}

/// The outcome of a federated run: per-site reports plus the WAN and
/// federation-wide aggregates.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// One full report per site, in site order.
    pub sites: Vec<SimReport>,
    /// Per-site observability artifacts, in site order (all empty when
    /// observability is off in the base config).
    pub obs: Vec<ObsArtifacts>,
    /// Jobs each site forwarded off-site, in site order.
    pub forwarded: Vec<u64>,
    /// The WAN outcome.
    pub wan: WanReport,
    /// Coordinator-level WAN probe samples (present when metrics are on).
    pub wan_metrics: Option<MetricsData>,
    /// Federation-wide resilience rollup — present only when a fault
    /// schedule was armed somewhere (any site, or the WAN).
    pub resilience: Option<FederationResilience>,
    /// Engine events processed across all sites.
    pub events_processed: u64,
    /// Wall-clock seconds for the whole federated run. Deliberately
    /// excluded from [`FederationReport::to_json`] so exported artifacts
    /// stay bitwise identical across machines and worker counts.
    pub wall_s: f64,
}

impl FederationReport {
    /// Jobs submitted across the federation (forwarded jobs count at
    /// their execution site once delivered).
    pub fn jobs_submitted(&self) -> u64 {
        self.sites.iter().map(|s| s.jobs_submitted).sum()
    }

    /// Jobs completed across the federation.
    pub fn jobs_completed(&self) -> u64 {
        self.sites.iter().map(|s| s.jobs_completed).sum()
    }

    /// Jobs forwarded across the WAN.
    pub fn jobs_forwarded(&self) -> u64 {
        self.forwarded.iter().sum()
    }

    /// Total energy (servers + switches + WAN transport), joules.
    pub fn total_energy_j(&self) -> f64 {
        self.sites.iter().map(|s| s.total_energy_j()).sum::<f64>() + self.wan.energy_j
    }

    /// Count-weighted mean job latency across sites, seconds (exact).
    pub fn mean_latency_s(&self) -> f64 {
        let (mut n, mut sum) = (0u64, 0.0);
        for s in &self.sites {
            n += s.latency.count;
            sum += s.latency.count as f64 * s.latency.mean;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Federation-wide latency quantile, merged from the per-site
    /// empirical CDFs (count-weighted; exact up to each site's CDF
    /// resolution).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut points: Vec<(f64, f64)> = Vec::new();
        let mut total = 0.0;
        for s in &self.sites {
            if s.latency_cdf.is_empty() {
                continue;
            }
            let w = s.latency.count as f64 / s.latency_cdf.len() as f64;
            total += s.latency.count as f64;
            points.extend(s.latency_cdf.iter().map(|&(v, _)| (v, w)));
        }
        if points.is_empty() {
            return 0.0;
        }
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite latencies"));
        let target = q * total;
        let mut acc = 0.0;
        for &(v, w) in &points {
            acc += w;
            if acc >= target {
                return v;
            }
        }
        points.last().expect("nonempty").0
    }

    /// Renders a compact human-readable summary: one line per site plus
    /// the WAN and federation-wide aggregates.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.sites.iter().enumerate() {
            out.push_str(&format!(
                "site {i}: jobs {}/{} (fwd {}) | p95 {:.3} ms | energy {:.1} kJ\n",
                s.jobs_completed,
                s.jobs_submitted,
                self.forwarded[i],
                s.latency.p95 * 1e3,
                s.total_energy_j() / 1e3,
            ));
        }
        out.push_str(&format!(
            "wan: {} transfers ({} delivered) | {:.1} MB | {:.1} J | mean {:.1} ms\n",
            self.wan.transfers,
            self.wan.delivered,
            self.wan.payload_bytes as f64 / 1e6,
            self.wan.energy_j,
            self.wan.mean_transfer_s * 1e3,
        ));
        out.push_str(&format!(
            "federation: jobs {}/{} | latency mean {:.3} ms p95 {:.3} ms | {:.1} kJ | {} events\n",
            self.jobs_completed(),
            self.jobs_submitted(),
            self.mean_latency_s() * 1e3,
            self.latency_quantile(0.95) * 1e3,
            self.total_energy_j() / 1e3,
            self.events_processed,
        ));
        if let Some(r) = &self.resilience {
            out.push_str(&format!(
                "resilience: {:.4}% available | {} faults | {} killed | {} retried ({} retries, {} abandoned) | wan {} restarts {} parked {:.1} s down\n",
                r.availability * 100.0,
                r.faults_injected,
                r.tasks_killed,
                r.jobs_retried,
                r.retries,
                r.jobs_abandoned,
                r.wan_restarts,
                r.wan_parked,
                r.wan_link_downtime_s,
            ));
        }
        if self.wall_s > 0.0 {
            out.push_str(&format!(
                "engine: {} events in {:.3} s wall ({:.0} events/s)\n",
                self.events_processed,
                self.wall_s,
                self.events_processed as f64 / self.wall_s,
            ));
        }
        out
    }

    /// Serializes the report (per-site headline JSON, forwarded counts,
    /// WAN, aggregates) as one JSON object.
    pub fn to_json(&self) -> String {
        let sites = format!(
            "[{}]",
            self.sites
                .iter()
                .map(|s| s.to_json())
                .collect::<Vec<_>>()
                .join(",")
        );
        let forwarded = format!(
            "[{}]",
            self.forwarded
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let aggregate = JsonObj::new()
            .int("jobs_submitted", self.jobs_submitted())
            .int("jobs_completed", self.jobs_completed())
            .int("jobs_forwarded", self.jobs_forwarded())
            .raw("latency_mean_s", &json_f64(self.mean_latency_s()))
            .raw("latency_p95_s", &json_f64(self.latency_quantile(0.95)))
            .raw("energy_j", &json_f64(self.total_energy_j()))
            .int("events", self.events_processed)
            .finish();
        let mut obj = JsonObj::new()
            .raw("sites", &sites)
            .raw("forwarded", &forwarded)
            .raw("wan", &self.wan.to_json())
            .raw("aggregate", &aggregate);
        if let Some(r) = &self.resilience {
            obj = obj.raw("resilience", &r.to_json());
        }
        obj.finish()
    }
}
