//! The `holdcsim` CLI: one entry point for single runs, declarative
//! parallel sweeps, and paper-figure reproduction.
//!
//! ```text
//! holdcsim run   [--servers N] [--cores C] [--rho R] [--preset P] [--tau T]
//!                [--policy POL] [--duration S] [--seed S] [--json]
//! holdcsim sweep [--policies a,b] [--rhos 0.1,0.3] [--taus 0.4,1.6|active-idle]
//!                [--presets web-search,web-serving] [--servers 8,50] [--cores 4]
//!                [--replications N] [--duration S] [--seed S]
//!                [--threads N] [--out DIR] [--name NAME]
//! holdcsim fig <4|5|6|8|9|11|12|13|table1|footnote1> [--quick] [--threads N] [--seed S]
//! ```

// CLI flag maps are `--key value` lookups, never iterated (lint D001).
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use holdcsim::config::{
    ClusterConfig, NetworkConfig, PolicyKind, SimConfig, WanConfig, WanLinkMode,
};
use holdcsim::experiments::fat_tree_k_for;
use holdcsim::sim::{Datacenter, Simulation};
use holdcsim_cluster::Federation;
use holdcsim_des::time::SimDuration;
use holdcsim_faults::Components;
use holdcsim_harness::artifacts;
use holdcsim_harness::exec::{default_threads, run_plan};
use holdcsim_harness::figs::{self, FigScale};
use holdcsim_harness::grid::SweepPlan;
use holdcsim_harness::obs_cli::ObsCli;
use holdcsim_obs::fingerprint;
use holdcsim_sched::geo::GeoPolicy;
use holdcsim_workload::presets::WorkloadPreset;

const USAGE: &str = "holdcsim — HolDCSim-RS experiment runner

USAGE:
    holdcsim run   [--servers N] [--cores C] [--rho R] [--preset P] [--tau T]
                   [--policy POL] [--duration SECS] [--seed S] [--json]
                   [--faults SPEC|FILE] [--net] [OBS]
    holdcsim sweep [--policies a,b,c] [--rhos 0.1,0.3] [--taus 0.4,1.6]
                   [--presets web-search,web-serving] [--servers 8,50] [--cores 4]
                   [--replications N] [--duration SECS] [--seed S]
                   [--faults SPEC|FILE|none, |-separated arms]
                   [--threads N] [--out DIR] [--name NAME] [OBS]
    holdcsim fig   <4|5|6|8|9|11|12|13|table1|footnote1>
                   [--quick] [--threads N] [--seed S]
    holdcsim federate [--sites N] [--servers N] [--cores C] [--rho R] [--preset P]
                   [--affinity w1,w2,...] [--geo POL] [--spill L] [--latency-weight W]
                   [--wan-gbps G] [--wan-latency-ms L] [--wan-mode pipe|flow] [--hub]
                   [--job-bytes B] [--net] [--fed-workers N]
                   [--faults SPEC|FILE]
                   [--duration SECS] [--seed S] [--json] [OBS]
    holdcsim trace-diff A.json B.json

Observability ([OBS], accepted by run, federate, and sweep):
    --trace FILE [--trace-format jsonl|chrome] [--trace-limit N]
    --metrics FILE [--metrics-period SECS]
    --fingerprint FILE [--fingerprint-every K]
    --profile [--profile-sample N]

Policies:     round-robin, least-loaded, pack-first, random, network-aware.
Presets:      web-search, web-serving, provisioning.
Taus:         seconds, or `active-idle` for the no-sleep arm.
Geo policies: site-local (spill past --spill in-flight jobs/core),
              load-balanced, latency-aware (--latency-weight load units/s).

`federate` runs a multi-datacenter federation: N sites (each its own
fabric and RNG substream; --net, as on `run`, gives each a flow-mode fat
tree and the fan-out/fan-in communicating workload) behind
a full-mesh WAN (--hub for hub-and-spoke), with the aggregate arrival
rate split by --affinity weights and jobs geo-routed per --geo; prints
per-site and federation-wide reports. Sites advance concurrently
through conservative WAN-lookahead windows on --fed-workers pooled
threads (default: the machine's parallelism; 1 runs the sites inline,
without threads). Reports are byte-identical at any worker count.

Fault plans (--faults, accepted by run, sweep, federate):
an inline spec or a file of `;`/newline-separated entries (`#` comments):
    crash@2s:0            kill server 0 at t=2s (in-flight tasks fail)
    recover@4s:0          bring it back
    straggle@1s:3,0.5,2s  run server 3 at 0.5x speed for 2s
    switch-down@1s:0      fabric switch outage (switch-up@.. restores)
    link-down@1s:4        fabric link outage (link-up@.. restores)
    wan-down@1s:0         WAN link outage (wan-up@.. restores; federate)
    mtbf:server=2,mtbf=5s,mttr=500ms   stochastic crash/repair cycle
    retry:max=3,backoff=10ms,mult=2    bounded exponential re-dispatch
Prefix an entry with `site<k>.` under federate to target one site.
Times accept ns/us/ms/s suffixes. `sweep --faults` takes |-separated
arms (`none` is a fault-free arm) as an extra grid axis.

`trace-diff` compares two fingerprint files (written with --fingerprint)
and bisects to the first divergent checkpoint, or reports `identical`.
Federation/sweep observability files are tagged per site/trial
(fp.json -> fp.site0.json / fp.trial0.json); the profile table prints
one section per site/trial.
";

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    match s {
        "round-robin" => Ok(PolicyKind::RoundRobin),
        "least-loaded" => Ok(PolicyKind::LeastLoaded),
        "pack-first" => Ok(PolicyKind::PackFirst),
        "random" => Ok(PolicyKind::Random),
        "network-aware" => Ok(PolicyKind::NetworkAware),
        _ => Err(format!("unknown policy `{s}`")),
    }
}

fn parse_preset(s: &str) -> Result<WorkloadPreset, String> {
    match s {
        "web-search" => Ok(WorkloadPreset::WebSearch),
        "web-serving" => Ok(WorkloadPreset::WebServing),
        "provisioning" => Ok(WorkloadPreset::Provisioning),
        _ => Err(format!("unknown preset `{s}`")),
    }
}

fn parse_list<T, F: Fn(&str) -> Result<T, String>>(s: &str, f: F) -> Result<Vec<T>, String> {
    s.split(',').map(|x| f(x.trim())).collect()
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

/// Parses a site, server or core count, a utilization, a WAN rate or a
/// job payload, which the simulator asserts is finite and positive.
/// Every integer also reads as a finite f64, and NaN fails the `>`.
fn parse_positive<T>(s: &str, what: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + Default,
{
    let v: T = parse_num(s, what)?;
    let ok = s.parse::<f64>().is_ok_and(f64::is_finite) && v > T::default();
    ok.then_some(v)
        .ok_or(format!("{what} must be finite and positive: `{s}`"))
}

/// Parses a sleep delay τ, a WAN latency or an affinity weight, for
/// which zero is legal but a negative or NaN value is not: the first two
/// would reach `SimDuration::from_secs_f64`, which clamps them to zero,
/// and the simulator asserts the third.
fn parse_non_negative(s: &str, what: &str) -> Result<f64, String> {
    let v: f64 = parse_num(s, what)?;
    (v.is_finite() && v >= 0.0)
        .then_some(v)
        .ok_or(format!("{what} must be finite and non-negative: `{s}`"))
}

/// Parses a `--duration` in seconds: finite and positive, and at least
/// the 1 ns tick, below which `SimDuration::from_secs_f64` rounds the
/// run to nothing.
fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let d = SimDuration::from_secs_f64(parse_positive(s, "duration")?);
    if d.is_zero() {
        return Err(format!("duration must be at least 1 ns: `{s}`"));
    }
    Ok(d)
}

/// Splits `args` into `--key value` options; rejects unknown keys.
#[allow(clippy::disallowed_types)] // keyed flag lookups; never iterated
fn parse_opts(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{}`", args[i]))?;
        if !allowed.contains(&key) {
            return Err(format!("unknown option `--{key}`"));
        }
        // Flags (no value): --json, --quick, --hub, --net, --profile.
        if matches!(key, "json" | "quick" | "hub" | "net" | "profile") {
            opts.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("option `--{key}` needs a value"))?
            .clone();
        opts.insert(key.to_string(), value);
        i += 2;
    }
    Ok(opts)
}

/// `--net` on `run` and `federate`: a fat-tree fabric for `servers`
/// hosts with flow-model comm, shared by the one max-min fair-share
/// solver, and the fan-out/fan-in communicating workload in place of the
/// preset's (the presets are compute-only, so the fabric would otherwise
/// carry zero flows).
fn attach_net(cfg: &mut SimConfig, servers: usize) {
    cfg.template = holdcsim::experiments::net_scalability_template();
    let mut net = NetworkConfig::fat_tree(fat_tree_k_for(servers));
    net.comm = holdcsim::config::CommModel::Flow;
    cfg.network = Some(net);
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut allowed = vec![
        "servers", "cores", "rho", "preset", "tau", "policy", "duration", "seed", "json", "net",
        "faults",
    ];
    allowed.extend_from_slice(&ObsCli::OPTS);
    let opts = parse_opts(args, &allowed)?;
    let obs = ObsCli::from_opts(&opts)?;
    let get = |k: &str, d: &str| opts.get(k).cloned().unwrap_or_else(|| d.to_string());
    let servers: usize = parse_positive(&get("servers", "8"), "server count")?;
    let cores: u32 = parse_positive(&get("cores", "4"), "core count")?;
    let rho: f64 = parse_positive(&get("rho", "0.3"), "utilization")?;
    let preset = parse_preset(&get("preset", "web-search"))?;
    let duration = parse_duration(&get("duration", "30"))?;
    let seed: u64 = parse_num(&get("seed", "42"), "seed")?;
    let cfg = match opts.get("tau") {
        Some(t) if t != "active-idle" => holdcsim::experiments::delay_timer_farm(
            preset,
            rho,
            servers,
            cores,
            parse_non_negative(t, "tau")?,
            duration,
            seed,
        ),
        _ => {
            SimConfig::server_farm(servers, cores, rho, preset.template(), duration).with_seed(seed)
        }
    };
    let mut cfg = match opts.get("policy") {
        Some(p) => cfg.with_policy(parse_policy(p)?),
        None => cfg,
    };
    if opts.contains_key("net") {
        attach_net(&mut cfg, servers);
    }
    if let Some(s) = opts.get("faults") {
        cfg.faults = Some(holdcsim_faults::load_plan(s)?);
    }
    cfg.obs = obs.cfg;
    let sim = Simulation::new(cfg);
    if let Some(plan) = &sim.datacenter().config().faults {
        plan.check_targets(&site_components(sim.datacenter()))?;
    }
    let (report, arts) = sim.run_with_obs();
    if opts.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.summary());
    }
    obs.emit(&arts, None)?;
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let mut allowed = vec![
        "policies",
        "rhos",
        "taus",
        "presets",
        "servers",
        "cores",
        "replications",
        "duration",
        "seed",
        "faults",
        "threads",
        "out",
        "name",
    ];
    allowed.extend_from_slice(&ObsCli::OPTS);
    let opts = parse_opts(args, &allowed)?;
    let obs = ObsCli::from_opts(&opts)?;
    let mut plan = SweepPlan::new(opts.get("name").map_or("sweep", |s| s.as_str()));
    plan = plan.obs(obs.cfg);
    if let Some(s) = opts.get("policies") {
        plan = plan.policies(&parse_list(s, parse_policy)?);
    }
    if let Some(s) = opts.get("presets") {
        plan = plan.presets(&parse_list(s, parse_preset)?);
    }
    if let Some(s) = opts.get("rhos") {
        plan = plan.utilizations(&parse_list(s, |x| parse_positive(x, "utilization"))?);
    }
    if let Some(s) = opts.get("taus") {
        let taus = parse_list(s, |x| {
            if x == "active-idle" {
                Ok(None)
            } else {
                parse_non_negative(x, "tau").map(Some)
            }
        })?;
        plan = plan.taus_opt(&taus);
    }
    if let Some(s) = opts.get("servers") {
        plan = plan.servers(&parse_list(s, |x| parse_positive(x, "server count"))?);
    }
    if let Some(s) = opts.get("cores") {
        plan = plan.cores(&parse_list(s, |x| parse_positive(x, "core count"))?);
    }
    if let Some(s) = opts.get("replications") {
        plan = plan.replications(parse_num(s, "replications")?);
    }
    if let Some(s) = opts.get("duration") {
        plan = plan.duration(parse_duration(s)?);
    }
    if let Some(s) = opts.get("seed") {
        plan = plan.seed(parse_num(s, "seed")?);
    }
    if let Some(s) = opts.get("faults") {
        // Fault specs contain `,` and `;`, so arms split on `|`;
        // `none` is the fault-free arm. Validate each spec here so a
        // bad plan fails before any trial runs. Sweep farms are
        // server-only, and every arm runs on the smallest one.
        let farm = Components {
            sites: 1,
            servers: plan.servers.iter().copied().min().unwrap_or(0),
            switches: 0,
            links: 0,
            wan_links: 0,
        };
        let mut arms = Vec::new();
        for arm in s.split('|') {
            let arm = arm.trim();
            if arm == "none" {
                arms.push(None);
            } else {
                holdcsim_faults::load_plan(arm)?.check_targets(&farm)?;
                arms.push(Some(arm.to_string()));
            }
        }
        plan = plan.fault_specs(&arms);
    }
    let threads: usize = match opts.get("threads") {
        Some(s) => parse_num(s, "threads")?,
        None => default_threads(),
    };

    let size = plan.size().map_err(|e| e.to_string())?;
    eprintln!(
        "[{}] {} trials ({} points x {} replications) on {} threads",
        plan.name,
        size,
        size / plan.replications as usize,
        plan.replications,
        threads
    );
    let result = run_plan(&plan, threads, true).map_err(|e| e.to_string())?;

    // Console summary: the headline metrics with confidence intervals.
    for s in &result.summaries {
        let e = s.get("energy_j").expect("known metric");
        let p95 = s.get("latency_p95_s").expect("known metric");
        println!(
            "{} | energy {:.1} ± {:.1} J | p95 {:.2} ± {:.2} ms (n={})",
            s.point.label(),
            e.mean,
            e.ci95_half,
            p95.mean * 1e3,
            p95.ci95_half * 1e3,
            s.replications,
        );
    }

    let out = PathBuf::from(opts.get("out").map_or("artifacts", |s| s.as_str()));
    let paths = artifacts::write_artifacts(&out, &result).map_err(|e| e.to_string())?;
    for p in &paths {
        eprintln!("[{}] wrote {}", result.name, p.display());
    }
    if !obs.is_off() {
        for (i, arts) in result.obs.iter().enumerate() {
            obs.emit(arts, Some(&format!("trial{i}")))?;
        }
    }
    Ok(())
}

fn cmd_fig(args: &[String]) -> Result<(), String> {
    let which = args
        .first()
        .ok_or("`fig` needs a figure id (4, 5, 6, 8, 9, 11, 12, 13, table1, footnote1)")?
        .clone();
    let opts = parse_opts(&args[1..], &["quick", "threads", "seed"])?;
    let scale = FigScale {
        quick: opts.contains_key("quick"),
        threads: match opts.get("threads") {
            Some(s) => parse_num(s, "threads")?,
            None => default_threads(),
        },
        seed: match opts.get("seed") {
            Some(s) => parse_num(s, "seed")?,
            None => 42,
        },
    };
    match which.as_str() {
        "4" => figs::fig4(&scale),
        "5" => figs::fig5(&scale),
        "6" => figs::fig6(&scale),
        "8" => figs::fig8(&scale),
        "9" => figs::fig9(&scale),
        "11" => figs::fig11(&scale),
        "12" => figs::fig12(&scale),
        "13" => figs::fig13(&scale),
        "table1" | "1" => figs::table1(&scale),
        "footnote1" => figs::footnote1(&scale),
        other => {
            return Err(format!(
                "unknown figure `{other}` (try 4, 5, 6, 8, 9, 11, 12, 13, table1, footnote1)"
            ))
        }
    }
    Ok(())
}

fn cmd_federate(args: &[String]) -> Result<(), String> {
    let mut allowed = vec![
        "sites",
        "servers",
        "cores",
        "rho",
        "preset",
        "affinity",
        "geo",
        "spill",
        "latency-weight",
        "wan-gbps",
        "wan-latency-ms",
        "wan-mode",
        "hub",
        "job-bytes",
        "net",
        "duration",
        "seed",
        "json",
        "fed-workers",
        "faults",
    ];
    allowed.extend_from_slice(&ObsCli::OPTS);
    let opts = parse_opts(args, &allowed)?;
    let obs = ObsCli::from_opts(&opts)?;
    let get = |k: &str, d: &str| opts.get(k).cloned().unwrap_or_else(|| d.to_string());
    let sites: usize = parse_positive(&get("sites", "3"), "site count")?;
    let servers: usize = parse_positive(&get("servers", "8"), "server count")?;
    let cores: u32 = parse_positive(&get("cores", "4"), "core count")?;
    let rho: f64 = parse_positive(&get("rho", "0.3"), "utilization")?;
    let preset = parse_preset(&get("preset", "web-search"))?;
    let duration = parse_duration(&get("duration", "10"))?;
    let seed: u64 = parse_num(&get("seed", "42"), "seed")?;
    let mut base = SimConfig::server_farm(servers, cores, rho, preset.template(), duration);
    base.obs = obs.cfg;
    if opts.contains_key("net") {
        attach_net(&mut base, servers);
    }
    let gbps = get("wan-gbps", "10");
    let rate_bps = (parse_positive::<f64>(&gbps, "WAN rate")? * 1e9) as u64;
    if rate_bps == 0 {
        return Err(format!("WAN rate must be at least 1 bps: `{gbps}`"));
    }
    let latency = SimDuration::from_secs_f64(
        parse_non_negative(&get("wan-latency-ms", "10"), "WAN latency")? / 1e3,
    );
    let mut wan = if opts.contains_key("hub") {
        WanConfig::hub(sites, rate_bps, latency)
    } else {
        WanConfig::full_mesh(sites, rate_bps, latency)
    };
    wan = match get("wan-mode", "pipe").as_str() {
        "pipe" => wan.with_mode(WanLinkMode::Pipe),
        "flow" => wan.with_mode(WanLinkMode::Flow),
        other => return Err(format!("unknown WAN mode `{other}`")),
    };
    let geo = match get("geo", "site-local").as_str() {
        "site-local" => GeoPolicy::SiteLocalFirst {
            spill_load: parse_num(&get("spill", "1.0"), "spill load")?,
        },
        "load-balanced" => GeoPolicy::LoadBalanced,
        "latency-aware" => GeoPolicy::LatencyAware {
            latency_weight: parse_num(&get("latency-weight", "5.0"), "latency weight")?,
        },
        other => return Err(format!("unknown geo policy `{other}`")),
    };
    let mut cc = ClusterConfig::uniform(base, sites, wan)
        .with_geo(geo)
        .with_seed(seed);
    cc.job_bytes = parse_positive(&get("job-bytes", "1048576"), "job bytes")?;
    if let Some(s) = opts.get("faults") {
        cc.faults = Some(holdcsim_faults::load_plan(s)?);
    }
    if let Some(s) = opts.get("affinity") {
        let weights = parse_list(s, |x| parse_non_negative(x, "affinity weight"))?;
        if weights.len() != sites {
            return Err(format!(
                "--affinity needs one weight per site ({} != {sites})",
                weights.len()
            ));
        }
        let total: f64 = weights.iter().sum();
        if !(total > 0.0 && total.is_finite()) {
            return Err(format!("--affinity needs a finite, positive sum: `{s}`"));
        }
        for (spec, w) in cc.sites.iter_mut().zip(weights) {
            spec.affinity = Some(w);
        }
    }
    let fed = Federation::new(&cc);
    if let Some(plan) = &cc.faults {
        plan.check_targets(&Components {
            sites: fed.site_count(),
            wan_links: cc.wan.links.len(),
            ..site_components(fed.site(0))
        })?;
    }
    let report = if let Some(w) = opts.get("fed-workers") {
        fed.run_with_workers(parse_num(w, "federation worker count")?)
    } else {
        fed.run()
    };
    if opts.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.summary());
    }
    if !obs.is_off() {
        for arts in &report.obs {
            let tag = arts.site.map(|s| format!("site{s}"));
            obs.emit(arts, tag.as_deref())?;
        }
        if let Some(wm) = &report.wan_metrics {
            obs.emit_extra_metrics(wm, "wan")?;
        }
    }
    Ok(())
}

/// The components a built site offers fault plans: one site, its
/// servers and fabric, no WAN.
fn site_components(dc: &Datacenter) -> Components {
    let net = dc.net();
    Components {
        sites: 1,
        servers: dc.servers().len(),
        switches: net.map_or(0, |n| n.switches.len()),
        links: net.map_or(0, |n| n.topology.links().len()),
        wan_links: 0,
    }
}

fn cmd_trace_diff(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("`trace-diff` needs exactly two fingerprint files".into());
    };
    let read = |p: &str| -> Result<(u64, Vec<fingerprint::Checkpoint>), String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        fingerprint::parse_file(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (every_a, ca) = read(a)?;
    let (every_b, cb) = read(b)?;
    if every_a != every_b {
        return Err(format!(
            "checkpoint cadences differ ({every_a} vs {every_b} events); \
             re-run with the same --fingerprint-every"
        ));
    }
    print!("{}", fingerprint::render_diff(&fingerprint::diff(&ca, &cb)));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("fig") => cmd_fig(&args[1..]),
        Some("federate") => cmd_federate(&args[1..]),
        Some("trace-diff") => cmd_trace_diff(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_parse_flags_and_pairs() {
        let args: Vec<String> = ["--rho", "0.3", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_opts(&args, &["rho", "json"]).unwrap();
        assert_eq!(opts["rho"], "0.3");
        assert_eq!(opts["json"], "true");
    }

    #[test]
    fn unknown_option_is_rejected() {
        let args: Vec<String> = ["--bogus", "1"].iter().map(|s| s.to_string()).collect();
        assert!(parse_opts(&args, &["rho"]).is_err());
    }

    #[test]
    fn policy_and_preset_round_trip() {
        for p in [
            "round-robin",
            "least-loaded",
            "pack-first",
            "random",
            "network-aware",
        ] {
            parse_policy(p).unwrap();
        }
        for p in ["web-search", "web-serving", "provisioning"] {
            parse_preset(p).unwrap();
        }
        assert!(parse_policy("nope").is_err());
    }

    #[test]
    fn flow_solver_option_is_unknown() {
        // One fair-share solver, so no option selects one.
        let args = |a: &str| a.split(' ').map(String::from).collect::<Vec<_>>();
        for run in ["--net --flow-solver cohort", "--flow-solver reference"] {
            let err = cmd_run(&args(run)).unwrap_err();
            assert_eq!(err, "unknown option `--flow-solver`", "run {run}");
        }
    }

    #[test]
    fn sizes_and_utilizations_must_be_finite_and_positive() {
        assert_eq!(parse_positive::<u32>("4", "core count"), Ok(4));
        assert_eq!(parse_positive::<f64>("0.3", "utilization"), Ok(0.3));
        for bad in ["0", "-1", "nan", "inf", "x"] {
            assert!(
                parse_positive::<usize>(bad, "server count").is_err(),
                "{bad}"
            );
            assert!(parse_positive::<f64>(bad, "utilization").is_err(), "{bad}");
        }
        // Each command rejects them before a simulation can assert, and
        // a duration that rounds to 0 ns, which would simulate nothing.
        let args = |a: &str| a.split(' ').map(String::from).collect::<Vec<_>>();
        for bad in [
            "--servers 0",
            "--cores 0",
            "--rho 0",
            "--rho -0.3",
            "--rho nan",
            "--duration -1",
            "--duration nan",
            "--duration 0",
            "--duration 1e-12",
        ] {
            assert!(cmd_run(&args(bad)).is_err(), "run {bad}");
            assert!(cmd_federate(&args(bad)).is_err(), "federate {bad}");
        }
        for bad in [
            "--servers 8,0",
            "--cores 0",
            "--rhos 0.3,nan",
            "--duration -1",
            "--duration nan",
            "--duration 0",
        ] {
            assert!(cmd_sweep(&args(bad)).is_err(), "sweep {bad}");
        }
        // Federation only: no sites, a WAN rate under 1 bps, no payload.
        for bad in [
            "--sites 0",
            "--wan-gbps 0",
            "--wan-gbps nan",
            "--wan-gbps 1e-12",
            "--job-bytes 0",
        ] {
            assert!(cmd_federate(&args(bad)).is_err(), "federate {bad}");
        }
        // τ, a WAN latency and an affinity weight may be zero, but a
        // negative or NaN one clamps to zero or fails an assert, and so
        // does a zero affinity sum; an infinite sum gives no site load.
        for bad in ["--tau -1", "--tau nan"] {
            let err = cmd_run(&args(bad)).unwrap_err();
            assert!(err.contains("non-negative"), "run {bad}: {err}");
        }
        for bad in ["--taus -1", "--taus 0.4,nan"] {
            let err = cmd_sweep(&args(bad)).unwrap_err();
            assert!(err.contains("non-negative"), "sweep {bad}: {err}");
        }
        for bad in [
            "--wan-latency-ms -1",
            "--wan-latency-ms nan",
            "--sites 2 --affinity -1,2",
            "--sites 2 --affinity nan,1",
            "--sites 2 --affinity 0,0",
            "--sites 2 --affinity 1e308,1e308",
        ] {
            let err = cmd_federate(&args(bad)).unwrap_err();
            assert!(
                err.contains("non-negative") || err.contains("positive sum"),
                "federate {bad}: {err}"
            );
        }
        cmd_run(&args("--tau 0 --duration 0.05 --json")).unwrap();
        cmd_federate(&args(
            "--sites 2 --affinity 0,1 --wan-latency-ms 0 --duration 0.05 --json",
        ))
        .unwrap();
    }

    #[test]
    fn fault_plans_naming_missing_components_are_rejected() {
        let run = |opts: &str, plan: &str| {
            let mut a: Vec<String> = opts.split(' ').map(String::from).collect();
            a.extend(["--duration".into(), "0.05".into(), "--json".into()]);
            a.extend(["--faults".into(), plan.into()]);
            a
        };
        for (opts, plan, what) in [
            ("--servers 16", "crash@10ms:999", "server 999"),
            ("--servers 16", "switch-down@10ms:3", "switch 3"),
            ("--servers 16 --net", "link-down@10ms:5000", "link 5000"),
            (
                "--servers 16",
                "mtbf:server=99,mtbf=10ms,mttr=1ms",
                "server 99",
            ),
            ("--servers 16", "wan-down@10ms:0", "WAN link 0"),
        ] {
            let err = cmd_run(&run(opts, plan)).unwrap_err();
            assert!(err.contains(what), "run {plan}: {err}");
        }
        let err = cmd_federate(&run("--sites 3", "site7.crash@10ms:0")).unwrap_err();
        assert!(err.contains("site 7"), "{err}");
        let err = cmd_federate(&run("--sites 3", "wan-down@10ms:42")).unwrap_err();
        assert!(err.contains("WAN link 42"), "{err}");
        // Every component named here exists.
        cmd_run(&run(
            "--servers 16 --net",
            "crash@10ms:15; link-down@20ms:0",
        ))
        .unwrap();
        cmd_federate(&run("--sites 3", "site2.crash@10ms:7; wan-down@20ms:2")).unwrap();
    }

    #[test]
    fn sweep_fault_arms_must_fit_the_smallest_farm() {
        let out =
            std::env::temp_dir().join(format!("holdcsim-sweep-faults-{}", std::process::id()));
        let sweep = |opts: &str, arms: &str| {
            let mut a: Vec<String> = opts.split(' ').map(String::from).collect();
            a.extend(["--duration", "0.05", "--threads", "1", "--out"].map(String::from));
            a.push(out.display().to_string());
            a.extend(["--faults".into(), arms.into()]);
            cmd_sweep(&a)
        };
        for (opts, arms, what) in [
            ("--servers 8", "crash@1s:99", "server 99"),
            ("--servers 8", "switch-down@1s:0", "switch 0"),
            ("--servers 8,50", "none|crash@1s:9", "server 9"),
        ] {
            let err = sweep(opts, arms).unwrap_err();
            assert!(err.contains(what), "sweep {arms}: {err}");
        }
        assert!(!out.exists(), "a rejected plan runs no trial");
        sweep("--servers 8", "none|crash@1s:7; recover@2s:7").unwrap();
        std::fs::remove_dir_all(&out).unwrap();
    }
}
