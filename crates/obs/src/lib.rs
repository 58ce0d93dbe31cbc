//! # holdcsim-obs
//!
//! Zero-overhead-when-off observability for the HolDCSim-RS stack: event
//! tracing, determinism fingerprints, metrics probes, and a self-profiler,
//! all hanging off the DES kernel's [`EventObserver`] hook.
//!
//! The design splits the cost question in two:
//!
//! - **Compile time**: an engine parameterized with
//!   [`NoObserver`](holdcsim_des::NoObserver) monomorphizes the hook, and
//!   the panic guard the engine arms around every handler, to nothing —
//!   crates that never instrument pay zero.
//! - **Run time**: the [`Observer`] here is a single concrete type carrying
//!   all four capabilities behind one cached `active` flag, so a run with
//!   every flag off pays one predicted branch per event. That lets the
//!   simulator keep a fixed `Engine<Datacenter, Observer>` type (no
//!   combinatorial monomorphization) while still meeting the bench gate.
//!
//! Capabilities (each independently optional via [`ObsConfig`]):
//!
//! - [`trace`] — structured event records, JSONL / Chrome trace-event
//!   export, last-K ring for panic context;
//! - [`fingerprint`] — rolling 64-bit event-stream hash checkpointed every
//!   K events, plus a bisecting diff between two fingerprint files;
//! - [`metrics`] — named probes sampled on a sim-time interval;
//! - [`profile`] — per-event-kind counts and sampled wall-clock
//!   attribution.
//!
//! The domain crates opt in by implementing [`TraceEvent`] for their event
//! alphabet and [`ProbeSource`] for their model.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fingerprint;
pub mod metrics;
pub mod profile;
pub mod trace;

use holdcsim_des::engine::{EventObserver, Model};
use holdcsim_des::time::SimTime;

pub use fingerprint::{Checkpoint, DiffOutcome, FingerprintConfig, Fingerprinter};
pub use metrics::{MetricsConfig, MetricsData, ProbePanel};
pub use profile::{ProfileConfig, ProfileData, Profiler};
pub use trace::{TraceConfig, TraceRecord, Tracer};

/// The observable identity of one event: a small kind discriminant plus up
/// to two entity ids (meaning is kind-specific; unused ids are 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventInfo {
    /// Kind discriminant, an index into [`TraceEvent::KIND_NAMES`].
    pub kind: u8,
    /// First entity id (e.g. server, flow, or switch index).
    pub a: u64,
    /// Second entity id (e.g. task or port index).
    pub b: u64,
}

/// An event alphabet that can be traced: names for every kind plus a cheap
/// projection of each event onto [`EventInfo`].
pub trait TraceEvent {
    /// Human-readable kind names, indexed by [`EventInfo::kind`] /
    /// [`kind`](TraceEvent::kind).
    const KIND_NAMES: &'static [&'static str];

    /// The kind discriminant alone — called for *every* event even when
    /// observability is off (for panic context), so it must be trivial.
    fn kind(&self) -> u8;

    /// Kind plus entity ids — only called when a capability is on.
    fn info(&self) -> EventInfo;
}

/// A model that exposes named gauges to the metrics probes.
pub trait ProbeSource {
    /// The probe names, fixed for the model's lifetime.
    fn probe_names(&self) -> Vec<&'static str>;

    /// Pushes one value per probe onto `out`, in
    /// [`probe_names`](Self::probe_names) order.
    fn probe_sample(&self, out: &mut Vec<f64>);
}

/// Which observability capabilities are on, and their knobs. The default is
/// everything off.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObsConfig {
    /// Event tracing (`--trace`).
    pub trace: Option<TraceConfig>,
    /// Determinism fingerprints (`--fingerprint`).
    pub fingerprint: Option<FingerprintConfig>,
    /// Metrics probes (`--metrics`).
    pub metrics: Option<MetricsConfig>,
    /// Self-profiling (`--profile`).
    pub profile: Option<ProfileConfig>,
}

impl ObsConfig {
    /// `true` when every capability is off.
    pub fn is_off(&self) -> bool {
        self.trace.is_none()
            && self.fingerprint.is_none()
            && self.metrics.is_none()
            && self.profile.is_none()
    }
}

/// The concrete observer wired into the simulator's engines.
///
/// Carries all four capabilities as `Option`s behind one cached `active`
/// flag: with everything off, [`EventObserver::on_event`] reduces to
/// recording the last event kind (for panic context) and one branch.
#[derive(Debug, Clone)]
pub struct Observer {
    site: Option<u32>,
    kind_names: &'static [&'static str],
    /// Sim time and kind of the most recent event, kept even when inactive
    /// so a handler panic can always be localized.
    last: (SimTime, u8),
    active: bool,
    tracer: Option<Tracer>,
    fingerprinter: Option<Fingerprinter>,
    panel: Option<ProbePanel>,
    profiler: Option<Profiler>,
    probe_scratch: Vec<f64>,
}

impl Observer {
    /// Builds an observer from `cfg` for an event alphabet with
    /// `kind_names` and a model exposing `probe_names`.
    pub fn new(
        cfg: &ObsConfig,
        kind_names: &'static [&'static str],
        probe_names: Vec<&'static str>,
    ) -> Self {
        let tracer = cfg.trace.map(Tracer::new);
        let fingerprinter = cfg.fingerprint.map(Fingerprinter::new);
        let panel = cfg.metrics.map(|m| ProbePanel::new(m, probe_names));
        let profiler = cfg.profile.map(|p| Profiler::new(p, kind_names.len()));
        let active =
            tracer.is_some() || fingerprinter.is_some() || panel.is_some() || profiler.is_some();
        Observer {
            site: None,
            kind_names,
            last: (SimTime::ZERO, 0),
            active,
            tracer,
            fingerprinter,
            panel,
            profiler,
            probe_scratch: Vec::new(),
        }
    }

    /// Builds an observer for `model`, pulling kind names and probe names
    /// from its [`TraceEvent`] / [`ProbeSource`] impls.
    pub fn for_model<M>(cfg: &ObsConfig, model: &M) -> Self
    where
        M: Model + ProbeSource,
        M::Event: TraceEvent,
    {
        Observer::new(
            cfg,
            <M::Event as TraceEvent>::KIND_NAMES,
            model.probe_names(),
        )
    }

    /// Labels this observer's output with a federation site id.
    pub fn set_site(&mut self, site: u32) {
        self.site = Some(site);
    }

    /// The active-capability path of `on_event`; kept out of the inlined
    /// hot path so the off case stays small.
    fn observe<M: ProbeSource>(&mut self, now: SimTime, info: EventInfo, model: &M) {
        if let Some(t) = &mut self.tracer {
            t.record(now, info);
        }
        if let Some(f) = &mut self.fingerprinter {
            f.record(now, info);
        }
        if let Some(p) = &mut self.profiler {
            p.record(info.kind);
        }
        if let Some(m) = &mut self.panel {
            if m.due(now) {
                self.probe_scratch.clear();
                model.probe_sample(&mut self.probe_scratch);
                m.record(now, &self.probe_scratch);
            }
        }
    }

    /// Closes every capability at sim time `end` and returns the artifacts.
    pub fn finish(self, end: SimTime) -> ObsArtifacts {
        ObsArtifacts {
            site: self.site,
            kind_names: self.kind_names,
            trace: self.tracer.map(|t| TraceData {
                dropped: t.dropped(),
                records: t.records().to_vec(),
            }),
            fingerprint: self.fingerprinter.map(|f| FingerprintFile {
                every: f.every(),
                checkpoints: f.finish(),
            }),
            metrics: self.panel.map(|p| p.finish(end)),
            profile: self.profiler.map(|p| p.finish(self.kind_names)),
        }
    }
}

impl<M> EventObserver<M> for Observer
where
    M: Model + ProbeSource,
    M::Event: TraceEvent,
{
    #[inline]
    fn on_event(&mut self, now: SimTime, event: &M::Event, model: &M) {
        self.last = (now, event.kind());
        if self.active {
            self.observe(now, event.info(), model);
        }
    }

    fn on_panic(&self, now: SimTime) {
        let (t, kind) = self.last;
        let name = trace::kind_name(self.kind_names, kind);
        let site_label = self
            .site
            .map(|s| format!(" (site {s})"))
            .unwrap_or_default();
        eprintln!("holdcsim: handler panicked at sim time {now}{site_label} while processing {name} (event at {t})");
        if let Some(tr) = &self.tracer {
            eprint!(
                "{}",
                trace::render_panic_dump(now, &tr.ring_tail(), self.kind_names, self.site)
            );
        }
    }
}

/// A finished trace: the retained records plus drop accounting.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// Retained records, oldest first (capped at the trace limit).
    pub records: Vec<TraceRecord>,
    /// Events dropped after the sink filled.
    pub dropped: u64,
}

/// A finished fingerprint: checkpoint cadence plus the checkpoints.
#[derive(Debug, Clone)]
pub struct FingerprintFile {
    /// Checkpoint cadence in events.
    pub every: u64,
    /// The checkpoints, in stream order (last one covers the whole run).
    pub checkpoints: Vec<Checkpoint>,
}

/// Everything an observed run leaves behind, with render methods for each
/// export format.
#[derive(Debug, Clone)]
pub struct ObsArtifacts {
    /// Federation site id, when the run was one site of a federation.
    pub site: Option<u32>,
    /// Kind names of the traced event alphabet.
    pub kind_names: &'static [&'static str],
    /// The trace, when tracing was on.
    pub trace: Option<TraceData>,
    /// The fingerprint checkpoints, when fingerprinting was on.
    pub fingerprint: Option<FingerprintFile>,
    /// The sampled probe series, when metrics were on.
    pub metrics: Option<MetricsData>,
    /// The per-kind profile, when profiling was on.
    pub profile: Option<ProfileData>,
}

impl ObsArtifacts {
    /// The trace as JSONL, one record per line.
    pub fn trace_jsonl(&self) -> Option<String> {
        self.trace
            .as_ref()
            .map(|t| trace::render_jsonl(&t.records, self.kind_names, self.site))
    }

    /// The trace as Chrome trace-event JSON (Perfetto-loadable).
    pub fn trace_chrome(&self) -> Option<String> {
        self.trace
            .as_ref()
            .map(|t| trace::render_chrome(&t.records, self.kind_names, self.site))
    }

    /// The fingerprint file (header + one line per checkpoint).
    pub fn fingerprint_file(&self) -> Option<String> {
        self.fingerprint
            .as_ref()
            .map(|f| fingerprint::render_file(f.every, self.site, &f.checkpoints))
    }

    /// The metrics as JSONL keyed by probe name.
    pub fn metrics_jsonl(&self) -> Option<String> {
        self.metrics.as_ref().map(|m| m.render_jsonl(self.site))
    }

    /// The `--profile` events/s-per-kind table.
    pub fn profile_table(&self) -> Option<String> {
        self.profile.as_ref().map(|p| p.render_table(self.site))
    }
}
