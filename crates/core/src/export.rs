//! Plot-ready CSV/JSON rendering of [`SimReport`]
//! contents — the hand-rolled exporter that replaces a serde dependency,
//! since the workspace builds with no external crates (README
//! § Architecture). The [`JsonObj`] builder is also the substrate for the
//! `holdcsim-harness` JSONL trial artifacts.

use std::fmt::Write as _;

use crate::report::SimReport;

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON value: shortest round-trip decimal for
/// finite values, `null` for NaN/infinities (which JSON cannot carry).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An incremental JSON-object builder (insertion-ordered, no nesting
/// bookkeeping — callers pass pre-rendered JSON for nested values).
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj::default()
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
    }

    /// Adds a numeric field (`null` if not finite).
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.sep();
        let _ = write!(self.buf, r#""{}":{}"#, json_escape(key), json_f64(v));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.sep();
        let _ = write!(self.buf, r#""{}":{}"#, json_escape(key), v);
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, r#""{}":"{}""#, json_escape(key), json_escape(v));
        self
    }

    /// Adds a pre-rendered JSON value (object, array, literal) verbatim.
    pub fn raw(mut self, key: &str, v: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, r#""{}":{}"#, json_escape(key), v);
        self
    }

    /// Closes the object and returns the rendered JSON.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Renders the sampled time series (`time_s, active_jobs, active_servers,
/// server_power_w[, switch_power_w]`) as CSV.
pub fn series_csv(report: &SimReport) -> String {
    let s = &report.series;
    let has_switch = report.network.is_some();
    let mut out = String::new();
    out.push_str("time_s,active_jobs,active_servers,server_power_w");
    if has_switch {
        out.push_str(",switch_power_w");
    }
    out.push('\n');
    let step = s.period.as_secs_f64();
    let n = s
        .active_jobs
        .len()
        .min(s.active_servers.len())
        .min(s.server_power_w.len());
    for i in 0..n {
        let _ = write!(
            out,
            "{:.3},{},{},{:.3}",
            i as f64 * step,
            s.active_jobs[i],
            s.active_servers[i],
            s.server_power_w[i]
        );
        if has_switch {
            let _ = write!(
                out,
                ",{:.3}",
                s.switch_power_w.get(i).copied().unwrap_or(0.0)
            );
        }
        out.push('\n');
    }
    out
}

/// Renders per-server outcomes (`server, cpu_j, dram_j, platform_j,
/// utilization, active, wakeup, idle, shallow, deep`) as CSV — the Fig. 8
/// and Fig. 9 data in one table.
pub fn servers_csv(report: &SimReport) -> String {
    let mut out = String::from(
        "server,cpu_j,dram_j,platform_j,utilization,active,wakeup,idle,shallow,deep\n",
    );
    for (i, s) in report.servers.iter().enumerate() {
        let (a, w, idl, sh, dp) = s.residency;
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{:.3},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            i,
            s.cpu_energy_j,
            s.dram_energy_j,
            s.platform_energy_j,
            s.utilization,
            a,
            w,
            idl,
            sh,
            dp
        );
    }
    out
}

/// Renders the latency CDF (`latency_s, fraction`) as CSV (Fig. 11b).
pub fn latency_cdf_csv(report: &SimReport) -> String {
    let mut out = String::from("latency_s,fraction\n");
    for &(v, f) in &report.latency_cdf {
        let _ = writeln!(out, "{v:.6},{f:.6}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::Simulation;
    use holdcsim_des::time::SimDuration;
    use holdcsim_workload::presets::WorkloadPreset;

    fn small_report() -> SimReport {
        let cfg = SimConfig::server_farm(
            2,
            2,
            0.3,
            WorkloadPreset::WebSearch.template(),
            SimDuration::from_secs(3),
        );
        Simulation::new(cfg).run()
    }

    #[test]
    fn series_csv_is_rectangular() {
        let report = small_report();
        let csv = series_csv(&report);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 4, "no network: 4 columns");
        let cols = header.split(',').count();
        let mut rows = 0;
        for l in lines {
            assert_eq!(l.split(',').count(), cols, "ragged row {l}");
            rows += 1;
        }
        assert_eq!(rows, report.series.active_jobs.len());
    }

    #[test]
    fn servers_csv_has_one_row_per_server() {
        let report = small_report();
        let csv = servers_csv(&report);
        assert_eq!(csv.lines().count(), 1 + report.servers.len());
        // Residency fractions in each row parse and sum to ~1.
        for l in csv.lines().skip(1) {
            let f: Vec<f64> = l.split(',').skip(5).map(|x| x.parse().unwrap()).collect();
            let sum: f64 = f.iter().sum();
            assert!((sum - 1.0).abs() < 1e-2, "row {l}");
        }
    }

    #[test]
    fn json_obj_builds_ordered_objects() {
        let j = JsonObj::new()
            .str("name", "fig \"5\"")
            .int("trials", 24)
            .num("energy_j", 1.5)
            .num("bad", f64::NAN)
            .raw("nested", r#"{"a":1}"#)
            .finish();
        assert_eq!(
            j,
            r#"{"name":"fig \"5\"","trials":24,"energy_j":1.5,"bad":null,"nested":{"a":1}}"#
        );
    }

    #[test]
    fn json_escape_control_chars() {
        assert_eq!(json_escape("a\nb\t\"c\"\\"), "a\\nb\\t\\\"c\\\"\\\\");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn latency_cdf_csv_is_monotone() {
        let report = small_report();
        let csv = latency_cdf_csv(&report);
        let fracs: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(!fracs.is_empty());
        assert!(fracs.windows(2).all(|w| w[0] <= w[1]));
        assert!((fracs.last().unwrap() - 1.0).abs() < 1e-9);
    }
}
