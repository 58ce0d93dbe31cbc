//! Self-profiling: per-event-kind counts plus sampled wall-clock
//! attribution, surfaced as an events/s-per-kind table.
//!
//! Counting every event is cheap (one array increment); timing every event
//! is not, so handler cost is sampled 1-in-N. At a sampled event the
//! profiler stamps `Instant::now()` and remembers the kind; the *next*
//! event's arrival closes the interval and attributes the elapsed wall
//! clock to the remembered kind. That interval covers the handler plus the
//! engine's pop/dispatch overhead — exactly the per-event cost a throughput
//! number cares about — and costs two `Instant::now()` calls per sample
//! instead of two per event.

use std::time::Instant;

use crate::trace::kind_name;

/// Profiling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Sample 1 in `sample` events for wall-clock attribution
    /// (`--profile-sample`).
    pub sample: u32,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig { sample: 64 }
    }
}

/// The profiler: counts per kind, samples wall clock 1-in-N.
#[derive(Debug, Clone)]
pub struct Profiler {
    mask: u64,
    seen: u64,
    counts: Vec<u64>,
    sampled_ns: Vec<u64>,
    sampled_n: Vec<u64>,
    pending: Option<(u8, Instant)>,
}

impl Profiler {
    /// Creates a profiler for `kinds` event kinds, sampling roughly 1 in
    /// `cfg.sample` events (rounded up to a power of two).
    pub fn new(cfg: ProfileConfig, kinds: usize) -> Self {
        let sample = cfg.sample.max(1) as u64;
        Profiler {
            mask: sample.next_power_of_two() - 1,
            seen: 0,
            counts: vec![0; kinds],
            sampled_ns: vec![0; kinds],
            sampled_n: vec![0; kinds],
            pending: None,
        }
    }

    /// Records one event of `kind`, closing any pending wall-clock sample.
    #[inline]
    #[allow(clippy::disallowed_methods)] // the profiler's wall-clock sampling IS the product; obs is outside sim state
    pub fn record(&mut self, kind: u8) {
        if let Some(c) = self.counts.get_mut(kind as usize) {
            *c += 1;
        }
        if let Some((k, t0)) = self.pending.take() {
            let ns = t0.elapsed().as_nanos() as u64;
            self.sampled_ns[k as usize] += ns;
            self.sampled_n[k as usize] += 1;
        }
        if self.seen & self.mask == 0 && (kind as usize) < self.counts.len() {
            self.pending = Some((kind, Instant::now()));
        }
        self.seen += 1;
    }

    /// Closes the stream and produces the per-kind report.
    pub fn finish(mut self, kind_names: &'static [&'static str]) -> ProfileData {
        // A sample pending at the end of the run has no closing event;
        // drop it rather than attribute shutdown time to a handler.
        self.pending = None;
        ProfileData {
            kind_names,
            counts: self.counts,
            sampled_ns: self.sampled_ns,
            sampled_n: self.sampled_n,
        }
    }
}

/// Finished per-kind profile, ready for rendering.
#[derive(Debug, Clone)]
pub struct ProfileData {
    kind_names: &'static [&'static str],
    counts: Vec<u64>,
    sampled_ns: Vec<u64>,
    sampled_n: Vec<u64>,
}

impl ProfileData {
    /// Total events counted.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Renders the events/s-per-kind table shown by `--profile`.
    ///
    /// `est. wall` extrapolates each kind's mean sampled cost to its full
    /// count; `events/s` is the reciprocal of the mean per-event cost.
    pub fn render_table(&self, site: Option<u32>) -> String {
        let total: u64 = self.total_events();
        let est_total_ns: f64 = (0..self.counts.len()).map(|k| self.est_ns(k)).sum();
        let mut out = String::new();
        let site_label = site.map(|s| format!(" (site {s})")).unwrap_or_default();
        out.push_str(&format!(
            "profile{site_label}: {total} events, {} sampled\n",
            self.sampled_n.iter().sum::<u64>()
        ));
        out.push_str(&format!(
            "{:<18} {:>12} {:>8} {:>10} {:>10} {:>8} {:>12}\n",
            "kind", "count", "%events", "ns/event", "est.wall", "%wall", "events/s"
        ));
        let mut order: Vec<usize> = (0..self.counts.len()).collect();
        order.sort_by_key(|&k| std::cmp::Reverse(self.est_ns(k) as u64));
        for k in order {
            if self.counts[k] == 0 {
                continue;
            }
            let name = kind_name(self.kind_names, k as u8);
            let count = self.counts[k];
            let pct_events = 100.0 * count as f64 / total.max(1) as f64;
            let mean_ns = self.mean_ns(k);
            let est_s = self.est_ns(k) / 1e9;
            let pct_wall = if est_total_ns > 0.0 {
                100.0 * self.est_ns(k) / est_total_ns
            } else {
                0.0
            };
            let evps = if mean_ns > 0.0 { 1e9 / mean_ns } else { 0.0 };
            out.push_str(&format!(
                "{name:<18} {count:>12} {pct_events:>7.1}% {mean_ns:>10.0} {est_s:>9.3}s \
                 {pct_wall:>7.1}% {evps:>12.0}\n"
            ));
        }
        out
    }

    /// Mean sampled wall-clock nanoseconds per event of kind `k` (0 when
    /// nothing was sampled).
    fn mean_ns(&self, k: usize) -> f64 {
        if self.sampled_n[k] == 0 {
            0.0
        } else {
            self.sampled_ns[k] as f64 / self.sampled_n[k] as f64
        }
    }

    /// Estimated total wall-clock nanoseconds spent on kind `k`.
    fn est_ns(&self, k: usize) -> f64 {
        self.mean_ns(k) * self.counts[k] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["Alpha", "Beta"];

    #[test]
    fn counts_every_event() {
        let mut p = Profiler::new(ProfileConfig { sample: 4 }, 2);
        for i in 0..100u64 {
            p.record((i % 2) as u8);
        }
        let data = p.finish(NAMES);
        assert_eq!(data.total_events(), 100);
        assert_eq!(data.counts[0], 50);
        assert_eq!(data.counts[1], 50);
    }

    #[test]
    fn samples_roughly_one_in_n() {
        let mut p = Profiler::new(ProfileConfig { sample: 4 }, 1);
        for _ in 0..64 {
            p.record(0);
        }
        let data = p.finish(&["Only"]);
        // 64 events, 1-in-4 sampling: a sample opens at events 0,4,…,60 and
        // each is closed by the following event.
        let sampled: u64 = data.sampled_n.iter().sum();
        assert_eq!(sampled, 16);
    }

    #[test]
    fn table_lists_kinds_and_counts() {
        let mut p = Profiler::new(ProfileConfig { sample: 1 }, 2);
        for i in 0..10u64 {
            p.record((i % 2) as u8);
        }
        let data = p.finish(NAMES);
        let t = data.render_table(Some(1));
        assert!(t.contains("(site 1)"));
        assert!(t.contains("Alpha"));
        assert!(t.contains("Beta"));
        assert!(t.contains("10 events"));
    }

    #[test]
    fn out_of_range_kind_is_ignored() {
        let mut p = Profiler::new(ProfileConfig { sample: 1 }, 1);
        p.record(9);
        let data = p.finish(&["Only"]);
        assert_eq!(data.total_events(), 0);
    }
}
