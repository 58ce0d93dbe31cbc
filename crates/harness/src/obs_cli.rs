//! Shared CLI plumbing for the observability flags (`--trace`,
//! `--metrics`, `--fingerprint`, `--profile`) exposed by the `run`,
//! `federate`, and `sweep` subcommands.
//!
//! Parsing turns the flag map into an [`ObsConfig`] plus output paths;
//! [`ObsCli::emit`] writes whatever artifacts a finished run produced.
//! Multi-run surfaces (federation sites, sweep trials) pass a tag that is
//! spliced into each file name before the extension, so one `--fingerprint
//! fp.json` flag fans out to `fp.site0.json`, `fp.site1.json`, …

// Flag maps are `--key value` lookups, never iterated (lint D001); the
// harness layer also sits outside the deterministic sim state entirely.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::path::{Path, PathBuf};

use holdcsim_des::time::SimDuration;
use holdcsim_obs::{
    FingerprintConfig, MetricsConfig, MetricsData, ObsArtifacts, ObsConfig, ProfileConfig,
    TraceConfig,
};

/// Output format for `--trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line (the default).
    Jsonl,
    /// Chrome trace-event JSON, loadable in Perfetto / `chrome://tracing`.
    Chrome,
}

/// The parsed observability flags: capability config plus output routing.
#[derive(Debug, Clone)]
pub struct ObsCli {
    /// The capability switches handed to the simulator.
    pub cfg: ObsConfig,
    /// `--trace FILE` destination.
    pub trace_path: Option<PathBuf>,
    /// `--trace-format jsonl|chrome`.
    pub trace_format: TraceFormat,
    /// `--metrics FILE` destination.
    pub metrics_path: Option<PathBuf>,
    /// `--fingerprint FILE` destination.
    pub fingerprint_path: Option<PathBuf>,
}

impl ObsCli {
    /// The option keys every obs-aware subcommand accepts (for
    /// `parse_opts` allow-lists).
    pub const OPTS: [&'static str; 9] = [
        "trace",
        "trace-format",
        "trace-limit",
        "metrics",
        "metrics-period",
        "fingerprint",
        "fingerprint-every",
        "profile",
        "profile-sample",
    ];

    /// Builds the observability configuration from a parsed `--key value`
    /// map. Modifier flags without their base flag (e.g. `--trace-limit`
    /// without `--trace`) are rejected.
    #[allow(clippy::disallowed_types)] // keyed flag lookups; never iterated
    pub fn from_opts(opts: &HashMap<String, String>) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
        }
        // A cadence or sample rate of 0 would silently run as 1.
        fn at_least_one<T>(s: &str, what: &str) -> Result<T, String>
        where
            T: std::str::FromStr + PartialOrd + From<u8>,
        {
            let v: T = num(s, what)?;
            (v >= T::from(1))
                .then_some(v)
                .ok_or(format!("{what} must be at least 1: `{s}`"))
        }
        let mut cfg = ObsConfig::default();
        let trace_path = opts.get("trace").map(PathBuf::from);
        if trace_path.is_some() {
            let mut tc = TraceConfig::default();
            if let Some(s) = opts.get("trace-limit") {
                tc.limit = num(s, "trace limit")?;
            }
            cfg.trace = Some(tc);
        } else if opts.contains_key("trace-limit") || opts.contains_key("trace-format") {
            return Err("`--trace-limit`/`--trace-format` need `--trace FILE`".into());
        }
        let trace_format = match opts.get("trace-format").map(String::as_str) {
            None | Some("jsonl") => TraceFormat::Jsonl,
            Some("chrome") => TraceFormat::Chrome,
            Some(other) => return Err(format!("unknown trace format `{other}`")),
        };
        let metrics_path = opts.get("metrics").map(PathBuf::from);
        if metrics_path.is_some() {
            let mut mc = MetricsConfig::default();
            if let Some(s) = opts.get("metrics-period") {
                let secs: f64 = num(s, "metrics period")?;
                mc.period = SimDuration::from_secs_f64(secs);
                // Zero, negative and NaN periods round to 0 ns, which the
                // probe panel would silently replace with its default.
                if !secs.is_finite() || mc.period.is_zero() {
                    return Err(format!(
                        "metrics period must be finite and at least 1 ns: `{s}`"
                    ));
                }
            }
            cfg.metrics = Some(mc);
        } else if opts.contains_key("metrics-period") {
            return Err("`--metrics-period` needs `--metrics FILE`".into());
        }
        let fingerprint_path = opts.get("fingerprint").map(PathBuf::from);
        if fingerprint_path.is_some() {
            let mut fc = FingerprintConfig::default();
            if let Some(s) = opts.get("fingerprint-every") {
                fc.every = at_least_one(s, "fingerprint cadence")?;
            }
            cfg.fingerprint = Some(fc);
        } else if opts.contains_key("fingerprint-every") {
            return Err("`--fingerprint-every` needs `--fingerprint FILE`".into());
        }
        if opts.contains_key("profile") {
            let mut pc = ProfileConfig::default();
            if let Some(s) = opts.get("profile-sample") {
                pc.sample = at_least_one(s, "profile sample rate")?;
            }
            cfg.profile = Some(pc);
        } else if opts.contains_key("profile-sample") {
            return Err("`--profile-sample` needs `--profile`".into());
        }
        Ok(ObsCli {
            cfg,
            trace_path,
            trace_format,
            metrics_path,
            fingerprint_path,
        })
    }

    /// `true` when no flag was given (nothing to write).
    pub fn is_off(&self) -> bool {
        self.cfg.is_off()
    }

    /// Writes the artifacts of one finished run: trace/metrics/fingerprint
    /// files (with `tag` spliced before the extension when given) plus the
    /// profile table on stdout. Written paths are logged to stderr.
    pub fn emit(&self, arts: &ObsArtifacts, tag: Option<&str>) -> Result<(), String> {
        let mut written: Vec<PathBuf> = Vec::new();
        if let Some(path) = &self.trace_path {
            let content = match self.trace_format {
                TraceFormat::Jsonl => arts.trace_jsonl(),
                TraceFormat::Chrome => arts.trace_chrome(),
            };
            if let Some(content) = content {
                written.push(write_tagged(path, tag, &content)?);
            }
        }
        if let Some(path) = &self.metrics_path {
            if let Some(content) = arts.metrics_jsonl() {
                written.push(write_tagged(path, tag, &content)?);
            }
        }
        if let Some(path) = &self.fingerprint_path {
            if let Some(content) = arts.fingerprint_file() {
                written.push(write_tagged(path, tag, &content)?);
            }
        }
        for p in &written {
            eprintln!("[obs] wrote {}", p.display());
        }
        if let Some(table) = arts.profile_table() {
            print!("{table}");
        }
        Ok(())
    }

    /// Writes a coordinator-level metrics series (e.g. the federation's
    /// WAN probes) under the `--metrics` path with `tag` spliced in.
    pub fn emit_extra_metrics(&self, data: &MetricsData, tag: &str) -> Result<(), String> {
        if let Some(path) = &self.metrics_path {
            let p = write_tagged(path, Some(tag), &data.render_jsonl(None))?;
            eprintln!("[obs] wrote {}", p.display());
        }
        Ok(())
    }
}

/// Splices `tag` into `path` before the extension (`fp.json` + `site0` →
/// `fp.site0.json`) and writes `content` there.
fn write_tagged(path: &Path, tag: Option<&str>, content: &str) -> Result<PathBuf, String> {
    let p = match tag {
        None => path.to_path_buf(),
        Some(t) => match path.extension().and_then(|e| e.to_str()) {
            Some(ext) => path.with_extension(format!("{t}.{ext}")),
            None => path.with_extension(t),
        },
    };
    std::fs::write(&p, content).map_err(|e| format!("writing {}: {e}", p.display()))?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::disallowed_types)] // test helper building a flag map
    fn opts(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn empty_opts_turn_everything_off() {
        let cli = ObsCli::from_opts(&opts(&[])).unwrap();
        assert!(cli.is_off());
        assert!(cli.cfg.profile.is_none());
    }

    #[test]
    fn flags_populate_the_config() {
        let cli = ObsCli::from_opts(&opts(&[
            ("trace", "t.json"),
            ("trace-format", "chrome"),
            ("trace-limit", "100"),
            ("metrics", "m.jsonl"),
            ("metrics-period", "0.5"),
            ("fingerprint", "fp.json"),
            ("fingerprint-every", "1000"),
            ("profile", "true"),
            ("profile-sample", "16"),
        ]))
        .unwrap();
        assert_eq!(cli.trace_format, TraceFormat::Chrome);
        assert_eq!(cli.cfg.trace.unwrap().limit, 100);
        assert_eq!(
            cli.cfg.metrics.unwrap().period,
            SimDuration::from_secs_f64(0.5)
        );
        assert_eq!(cli.cfg.fingerprint.unwrap().every, 1000);
        assert_eq!(cli.cfg.profile.unwrap().sample, 16);
    }

    #[test]
    fn modifier_without_base_flag_is_rejected() {
        assert!(ObsCli::from_opts(&opts(&[("trace-limit", "9")])).is_err());
        assert!(ObsCli::from_opts(&opts(&[("metrics-period", "1")])).is_err());
        assert!(ObsCli::from_opts(&opts(&[("fingerprint-every", "2")])).is_err());
        assert!(ObsCli::from_opts(&opts(&[("profile-sample", "8")])).is_err());
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        for period in ["0", "-1", "nan", "inf", "1e-10"] {
            let err =
                ObsCli::from_opts(&opts(&[("metrics", "m.jsonl"), ("metrics-period", period)]))
                    .unwrap_err();
            assert!(err.contains("at least 1 ns"), "{period}: {err}");
        }
        for (flag, base) in [
            ("fingerprint-every", ("fingerprint", "fp.json")),
            ("profile-sample", ("profile", "true")),
        ] {
            let err = ObsCli::from_opts(&opts(&[base, (flag, "0")])).unwrap_err();
            assert!(err.contains("at least 1"), "--{flag} 0: {err}");
        }
        // The smallest legal values still parse.
        let cli = ObsCli::from_opts(&opts(&[
            ("metrics", "m.jsonl"),
            ("metrics-period", "1e-9"),
            ("fingerprint", "fp.json"),
            ("fingerprint-every", "1"),
            ("profile", "true"),
            ("profile-sample", "1"),
        ]))
        .unwrap();
        assert_eq!(cli.cfg.metrics.unwrap().period, SimDuration::from_nanos(1));
        assert_eq!(cli.cfg.fingerprint.unwrap().every, 1);
        assert_eq!(cli.cfg.profile.unwrap().sample, 1);
    }

    #[test]
    fn tags_are_spliced_before_the_extension() {
        let dir = std::env::temp_dir().join("holdcsim_obs_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("fp.json");
        let p = write_tagged(&base, Some("site1"), "x").unwrap();
        assert!(p.ends_with("fp.site1.json"));
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "x");
        let bare = write_tagged(&dir.join("fp"), Some("site2"), "y").unwrap();
        assert!(bare.ends_with("fp.site2"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
