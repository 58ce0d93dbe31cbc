//! Structured event tracing: a capped in-memory sink plus a fixed-size
//! "last K events" ring buffer for panic context.
//!
//! Records are `(event index, sim time, kind, entity ids)` tuples. The sink
//! stops growing at the configured limit (later events are counted as
//! dropped, the ring keeps rolling), so tracing a long run cannot exhaust
//! memory. Export formats: JSONL (one record per line) and Chrome
//! trace-event JSON loadable in Perfetto / `chrome://tracing`.

use holdcsim_des::time::SimTime;

use crate::EventInfo;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Zero-based index of the event in the run's processed-event stream.
    pub n: u64,
    /// The simulation instant the event fired.
    pub t: SimTime,
    /// Kind + entity ids.
    pub info: EventInfo,
}

/// Tracing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum number of records kept in the sink (`--trace-limit`).
    pub limit: usize,
    /// Size of the last-K ring buffer dumped on a handler panic.
    pub ring: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            limit: 1_000_000,
            ring: 64,
        }
    }
}

/// The trace sink: capped record vector + last-K ring.
#[derive(Debug, Clone)]
pub struct Tracer {
    limit: usize,
    records: Vec<TraceRecord>,
    dropped: u64,
    ring: Vec<TraceRecord>,
    ring_cap: usize,
    ring_next: usize,
    count: u64,
}

impl Tracer {
    /// Creates an empty sink with the given caps.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            limit: cfg.limit,
            records: Vec::new(),
            dropped: 0,
            ring: Vec::with_capacity(cfg.ring.min(4096)),
            ring_cap: cfg.ring.max(1),
            ring_next: 0,
            count: 0,
        }
    }

    /// Appends one event to the sink (and always to the ring).
    #[inline]
    pub fn record(&mut self, t: SimTime, info: EventInfo) {
        let rec = TraceRecord {
            n: self.count,
            t,
            info,
        };
        self.count += 1;
        if self.records.len() < self.limit {
            self.records.push(rec);
        } else {
            self.dropped += 1;
        }
        if self.ring.len() < self.ring_cap {
            self.ring.push(rec);
        } else {
            self.ring[self.ring_next] = rec;
        }
        self.ring_next = (self.ring_next + 1) % self.ring_cap;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of events that arrived after the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring's contents, oldest first — the tail of the event stream.
    pub fn ring_tail(&self) -> Vec<TraceRecord> {
        if self.ring.len() < self.ring_cap {
            return self.ring.clone();
        }
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.ring_next..]);
        out.extend_from_slice(&self.ring[..self.ring_next]);
        out
    }
}

/// Renders records as JSONL: one
/// `{"n":…,"t_ns":…,"kind":"…","a":…,"b":…}` object per line
/// (plus `"site":…` when a federation site id is given).
pub fn render_jsonl(
    records: &[TraceRecord],
    kind_names: &'static [&'static str],
    site: Option<u32>,
) -> String {
    let mut out = String::with_capacity(records.len() * 64);
    for r in records {
        let name = kind_name(kind_names, r.info.kind);
        match site {
            Some(s) => out.push_str(&format!(
                "{{\"site\":{s},\"n\":{},\"t_ns\":{},\"kind\":\"{name}\",\"a\":{},\"b\":{}}}\n",
                r.n,
                r.t.as_nanos(),
                r.info.a,
                r.info.b
            )),
            None => out.push_str(&format!(
                "{{\"n\":{},\"t_ns\":{},\"kind\":\"{name}\",\"a\":{},\"b\":{}}}\n",
                r.n,
                r.t.as_nanos(),
                r.info.a,
                r.info.b
            )),
        }
    }
    out
}

/// Renders records as Chrome trace-event JSON (the `traceEvents` array
/// format), viewable in Perfetto or `chrome://tracing`.
///
/// Each record becomes an instant event (`"ph":"i"`) whose timestamp is the
/// sim time in microseconds; the federation site id (0 when absent) is used
/// as the `tid` so multi-site traces land on separate tracks.
pub fn render_chrome(
    records: &[TraceRecord],
    kind_names: &'static [&'static str],
    site: Option<u32>,
) -> String {
    let tid = site.unwrap_or(0);
    let mut out = String::with_capacity(records.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = kind_name(kind_names, r.info.kind);
        let ts_us = r.t.as_nanos() as f64 / 1_000.0;
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\
             \"ts\":{ts_us},\"args\":{{\"n\":{},\"a\":{},\"b\":{}}}}}",
            r.n, r.info.a, r.info.b
        ));
    }
    out.push_str("]}\n");
    out
}

/// Renders a panic-context dump: the sim time of the offending event plus
/// the ring's tail, newest last.
pub fn render_panic_dump(
    now: SimTime,
    tail: &[TraceRecord],
    kind_names: &'static [&'static str],
    site: Option<u32>,
) -> String {
    let mut out = String::new();
    let site_label = site.map(|s| format!(" (site {s})")).unwrap_or_default();
    out.push_str(&format!(
        "=== handler panic at sim time {now}{site_label}: last {} events ===\n",
        tail.len()
    ));
    for r in tail {
        out.push_str(&format!(
            "  #{:>10}  t={}  {} a={} b={}\n",
            r.n,
            r.t,
            kind_name(kind_names, r.info.kind),
            r.info.a,
            r.info.b
        ));
    }
    out
}

pub(crate) fn kind_name(kind_names: &'static [&'static str], kind: u8) -> &'static str {
    kind_names.get(kind as usize).copied().unwrap_or("?")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(kind: u8, a: u64) -> EventInfo {
        EventInfo { kind, a, b: 0 }
    }

    const NAMES: &[&str] = &["Alpha", "Beta"];

    #[test]
    fn sink_caps_at_limit_and_counts_drops() {
        let mut t = Tracer::new(TraceConfig { limit: 3, ring: 2 });
        for i in 0..5u64 {
            t.record(SimTime::from_nanos(i), info(0, i));
        }
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.count, 5);
        // The ring kept rolling past the sink cap: last two events.
        let tail = t.ring_tail();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].n, 3);
        assert_eq!(tail[1].n, 4);
    }

    #[test]
    fn jsonl_has_one_line_per_record() {
        let mut t = Tracer::new(TraceConfig { limit: 10, ring: 4 });
        t.record(SimTime::from_nanos(5), info(1, 7));
        let s = render_jsonl(t.records(), NAMES, None);
        assert_eq!(
            s,
            "{\"n\":0,\"t_ns\":5,\"kind\":\"Beta\",\"a\":7,\"b\":0}\n"
        );
        let s = render_jsonl(t.records(), NAMES, Some(3));
        assert!(s.starts_with("{\"site\":3,"));
    }

    #[test]
    fn chrome_trace_wraps_records_in_trace_events_array() {
        let mut t = Tracer::new(TraceConfig { limit: 10, ring: 4 });
        t.record(SimTime::from_nanos(1_500), info(0, 1));
        t.record(SimTime::from_nanos(2_000), info(1, 2));
        let s = render_chrome(t.records(), NAMES, Some(2));
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.contains("\"name\":\"Alpha\""));
        assert!(s.contains("\"tid\":2"));
        assert!(s.contains("\"ts\":1.5"));
        assert!(s.trim_end().ends_with("]}"));
    }

    #[test]
    fn panic_dump_mentions_time_and_tail() {
        let mut t = Tracer::new(TraceConfig { limit: 10, ring: 2 });
        t.record(SimTime::from_nanos(1), info(0, 1));
        t.record(SimTime::from_nanos(2), info(1, 2));
        let dump = render_panic_dump(SimTime::from_nanos(2), &t.ring_tail(), NAMES, None);
        assert!(dump.contains("handler panic at sim time"));
        assert!(dump.contains("Beta"));
    }
}
