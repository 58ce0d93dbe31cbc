//! The traced run: the benchmark's own driver steps the engine one event
//! at a time and times every step from outside, then attributes each
//! step to a simulator layer by the `DcEvent` kind the engine's event
//! trace recorded for it.
//!
//! A step span has no children, so its self time is its whole duration;
//! the time between steps (loop control and counter reads) is the
//! driver's own. Spans stay in memory and are written out when the run
//! ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use holdcsim::sim::Datacenter;
use holdcsim_des::engine::Engine;
use holdcsim_des::time::SimTime;
use holdcsim_obs::{Observer, TraceData, TraceRecord};

/// The layers a step is attributed to, in report order.
pub const LAYERS: [&str; 7] = [
    "sched.arrival",
    "server.complete",
    "server.power",
    "network.flow",
    "network.packet",
    "faults",
    "core.tick",
];

/// Index of `sched.arrival` in [`LAYERS`].
pub const ARRIVAL: usize = 0;

/// Index of `server.complete` in [`LAYERS`].
pub const COMPLETE: usize = 1;

/// The layer of a `DcEvent` kind. A kind missing here fails the traced
/// run rather than leaving its time unattributed.
fn layer_of(kind: &str) -> Option<usize> {
    Some(match kind {
        "JobArrival" | "RemoteJobArrive" => 0,
        "TaskComplete" => 1,
        "ServerTimer" | "ServerTransition" => 2,
        "FlowsAdvance" | "FlowAdmit" => 3,
        "PacketArrive" | "PacketRetry" | "LpiCheck" => 4,
        "FaultInject" | "FaultRecover" | "RetryDispatch" => 5,
        "Init" | "ControllerTick" | "StatsSample" => 6,
        _ => return None,
    })
}

/// Step spans written out per traced run; every step still counts in the
/// per-layer summaries.
const STEP_SPANS_WRITTEN: usize = 10_000;

/// What stepping one engine to its horizon recorded.
pub struct StepLog {
    /// Clock reading before the first step.
    pub start: Instant,
    /// Clock reading after the last step.
    pub end: Instant,
    /// Duration of each step, in step order, ns.
    pub step_ns: Vec<u64>,
    /// Start of each of the first [`STEP_SPANS_WRITTEN`] steps, ns after
    /// `start`.
    head_ns: Vec<u64>,
    /// Time spent between steps, ns: the driver's self time.
    pub driver_ns: u64,
    /// Most events pending on the calendar after any step.
    pub pending_peak: usize,
    /// Flows the fair-share solver re-rated, summed over the steps that
    /// admitted or retired a flow (each such step ends in one re-solve).
    pub touched: u64,
}

impl StepLog {
    /// The traced run's wall time, ns.
    pub fn wall_ns(&self) -> u64 {
        ns(self.end - self.start)
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `(flows ever admitted, flows active)`: changes exactly when a step
/// admitted or retired a flow.
fn flow_counts(engine: &Engine<Datacenter, Observer>) -> Option<(u64, usize)> {
    engine
        .model()
        .net()
        .map(|n| (n.flows.total_admitted(), n.flows.active_flows()))
}

/// Steps `engine` through every event at or before `end` (the events
/// `Engine::run_until(end)` would process), timing each step.
pub fn step_to(engine: &mut Engine<Datacenter, Observer>, end: SimTime) -> StepLog {
    let mut step_ns = Vec::new();
    let mut head_ns = Vec::with_capacity(STEP_SPANS_WRITTEN);
    let mut driver_ns = 0;
    let mut pending_peak = engine.pending_events();
    let mut touched = 0;
    let mut flows = flow_counts(engine);
    let start = Instant::now();
    let mut prev = start;
    while engine.peek_next_time().is_some_and(|t| t <= end) {
        let s = Instant::now();
        engine.step();
        let e = Instant::now();
        driver_ns += ns(s - prev);
        step_ns.push(ns(e - s));
        if head_ns.len() < STEP_SPANS_WRITTEN {
            head_ns.push(ns(s - start));
        }
        prev = e;
        pending_peak = pending_peak.max(engine.pending_events());
        let now = flow_counts(engine);
        if now != flows {
            touched += engine
                .model()
                .net()
                .map_or(0, |n| n.flows.last_solve_touched() as u64);
            flows = now;
        }
    }
    let fin = Instant::now();
    driver_ns += ns(fin - prev);
    StepLog {
        start,
        end: fin,
        step_ns,
        head_ns,
        driver_ns,
        pending_peak,
        touched,
    }
}

/// Host time per layer of one traced run.
pub struct Attribution {
    /// Steps per layer.
    pub count: [u64; LAYERS.len()],
    /// Self time per layer, ns.
    pub self_ns: [u64; LAYERS.len()],
    /// Step durations per layer, sorted, ns.
    pub by_layer: Vec<Vec<u64>>,
    /// Every step duration, sorted, ns.
    pub all: Vec<u64>,
}

/// Labels step `i` with the layer of trace record `i`'s kind, and checks
/// that the layers' self times plus the driver's add up to the traced
/// run's wall time to the nanosecond.
pub fn attribute(
    log: &StepLog,
    trace: &TraceData,
    kind_names: &[&str],
) -> Result<Attribution, String> {
    if trace.dropped > 0 || trace.records.len() != log.step_ns.len() {
        return Err(format!(
            "the event trace kept {} records for {} steps",
            trace.records.len(),
            log.step_ns.len()
        ));
    }
    let layer = kind_names
        .iter()
        .map(|k| layer_of(k).ok_or_else(|| format!("event kind {k} maps to no layer")))
        .collect::<Result<Vec<usize>, String>>()?;
    let mut a = Attribution {
        count: [0; LAYERS.len()],
        self_ns: [0; LAYERS.len()],
        by_layer: vec![Vec::new(); LAYERS.len()],
        all: log.step_ns.clone(),
    };
    for (rec, &d) in trace.records.iter().zip(&log.step_ns) {
        let l = *layer
            .get(usize::from(rec.info.kind))
            .ok_or("a trace record names an unknown event kind")?;
        a.count[l] += 1;
        a.self_ns[l] += d;
        a.by_layer[l].push(d);
    }
    let total = a.self_ns.iter().sum::<u64>() + log.driver_ns;
    if total != log.wall_ns() {
        return Err(format!(
            "layer self times plus driver time ({total} ns) differ from the traced wall time ({} ns)",
            log.wall_ns()
        ));
    }
    a.all.sort_unstable();
    for d in &mut a.by_layer {
        d.sort_unstable();
    }
    Ok(a)
}

/// The `q`-quantile of sorted samples, smoothed: the mean of the samples
/// ranked within ±0.5 % of the quantile's rank, so that a figure keeps
/// its digits instead of snapping to one clock tick.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let centre = q * last as f64;
    let half = sorted.len() as f64 / 200.0;
    let lo = (centre - half).floor().max(0.0) as usize;
    let hi = ((centre + half).ceil() as usize).min(last);
    let window = &sorted[lo..=hi];
    window.iter().sum::<u64>() as f64 / window.len() as f64
}

/// The p99 when at least 1 000 samples leave ten beyond it; with fewer,
/// the highest percentile that still has ten samples beyond it.
pub fn tail(sorted: &[u64]) -> f64 {
    let n = sorted.len() as f64;
    let q = if n >= 1000.0 {
        0.99
    } else {
        (1.0 - 10.0 / n).max(0.5)
    };
    quantile(sorted, q)
}

/// The spans of one traced child, kept in memory and written out as JSON
/// lines when the child ends: a root `run` span, one span per arm
/// (untraced run, traced run, federation arms), the first step spans of
/// the traced run under it, and one summary line per layer.
pub struct Spans {
    run_id: String,
    origin: Instant,
    lines: String,
    next_id: u64,
}

impl Spans {
    /// Opens the root span of run `run_id` now.
    pub fn new(run_id: String) -> Spans {
        Spans {
            run_id,
            origin: Instant::now(),
            lines: String::new(),
            next_id: 1,
        }
    }

    fn span(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let _ = writeln!(
            self.lines,
            r#"{{"run":"{}","id":{id},"name":"{name}","start_ns":{start_ns},"end_ns":{end_ns},"parent":{parent}}}"#,
            self.run_id
        );
        id
    }

    /// A span directly under the root, from `start` to `end`.
    pub fn arm(&mut self, name: &str, start: Instant, end: Instant) -> u64 {
        let (s, e) = (ns(start - self.origin), ns(end - self.origin));
        self.span(name, s, e, 0)
    }

    /// The first steps of `log` as spans under `parent`, named by kind.
    pub fn steps(
        &mut self,
        parent: u64,
        log: &StepLog,
        records: &[TraceRecord],
        kind_names: &[&str],
    ) {
        let base = ns(log.start - self.origin);
        for (i, &off) in log.head_ns.iter().enumerate() {
            let kind = records
                .get(i)
                .and_then(|r| kind_names.get(usize::from(r.info.kind)))
                .copied()
                .unwrap_or("?");
            let s = base + off;
            self.span(kind, s, s + log.step_ns[i], parent);
        }
    }

    /// One summary line per layer: steps, self time, p50 and tail.
    pub fn layers(&mut self, a: &Attribution) {
        for (i, layer) in LAYERS.iter().enumerate() {
            let _ = writeln!(
                self.lines,
                r#"{{"run":"{}","layer":"{layer}","steps":{},"self_ns":{},"p50_ns":{},"tail_ns":{}}}"#,
                self.run_id,
                a.count[i],
                a.self_ns[i],
                quantile(&a.by_layer[i], 0.5),
                tail(&a.by_layer[i])
            );
        }
    }

    /// Writes the spans to `path`, the root span closing now.
    pub fn write(self, path: &Path) -> Result<(), String> {
        let root = format!(
            r#"{{"run":"{}","id":0,"name":"run","start_ns":0,"end_ns":{},"parent":null}}"#,
            self.run_id,
            ns(self.origin.elapsed())
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, format!("{root}\n{}", self.lines))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}
