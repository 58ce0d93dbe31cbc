//! One child's work (a plain run or a traced run of a workload) and the
//! `name value` line format that carries its figures to the parent.

use std::path::{Path, PathBuf};
use std::process::Output;
use std::time::Instant;

use holdcsim::config::{ClusterConfig, SimConfig};
use holdcsim::report::SimReport;
use holdcsim::sim::{finish_report, Datacenter, Simulation};
use holdcsim_cluster::{Federation, FederationReport};
use holdcsim_des::time::SimTime;
use holdcsim_obs::TraceConfig;

use crate::trace::{self, Spans, ARRIVAL, COMPLETE, LAYERS};
use crate::workloads::{geo_cluster_config, Workload, FED_WORKERS};

/// Trace records a traced run may keep; a run with more events fails
/// rather than leave steps without a layer.
const TRACE_LIMIT: usize = 8_000_000;

/// One child's figures: the report digest and named values.
#[derive(Debug)]
pub struct Unit {
    /// 64-bit FNV-1a digest of the report JSON, hex.
    pub digest: String,
    values: Vec<(String, f64)>,
}

impl Unit {
    fn new(report_json: &str) -> Unit {
        Unit {
            digest: digest(report_json),
            values: Vec::new(),
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// The value reported as `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// `digest <hex>`, then one `name value` line per figure.
    pub fn render(&self) -> String {
        let mut out = format!("digest {}\n", self.digest);
        for (name, v) in &self.values {
            out.push_str(&format!("{name} {v}\n"));
        }
        out
    }

    /// Reads a finished child's output back.
    pub fn parse(out: &Output) -> Result<Unit, String> {
        if !out.status.success() {
            return Err(format!("it exited with {}", out.status));
        }
        let mut unit = Unit {
            digest: String::new(),
            values: Vec::new(),
        };
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let malformed = || format!("malformed line {line:?}");
            let (name, value) = line.split_once(' ').ok_or_else(malformed)?;
            if name == "digest" {
                unit.digest = value.to_string();
            } else {
                unit.put(name, value.parse().map_err(|_| malformed())?);
            }
        }
        if unit.digest.is_empty() {
            return Err("it reported no digest".to_string());
        }
        Ok(unit)
    }
}

/// 64-bit FNV-1a over the report bytes, hex.
fn digest(json: &str) -> String {
    let h = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Simulation seeds per workload seed. Plain children take them in turn,
/// so that a run's cost covers several inputs and one seed's unusually
/// cheap or dear input does not decide it; traced children use the first.
pub const SUB_SEEDS: usize = 4;

/// Which simulation seed child `child` (counted from 1) runs.
pub fn sub_index(child: u64, traced: bool) -> usize {
    if traced {
        0
    } else {
        (child.saturating_sub(1) % SUB_SEEDS as u64) as usize
    }
}

/// The `i`-th simulation seed of workload seed `seed`.
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS as u64).wrapping_add(i as u64)
}

/// A plain child: the workload on its simulation seed with
/// instrumentation off, as users run it, and this process's peak
/// resident memory.
pub fn plain(w: Workload, seed: u64, i: usize) -> Result<Unit, String> {
    let seed = sub_seed(seed, i);
    let mut unit = if w == Workload::GeoPacket {
        let cc = geo_cluster_config(seed);
        let t0 = Instant::now();
        let fed = Federation::new(&cc);
        let t1 = Instant::now();
        let report = fed.run_with_workers(FED_WORKERS);
        let wall = t1.elapsed();
        check_federation(&report)?;
        let mut unit = Unit::new(&report.to_json());
        unit.put("setup_s", (t1 - t0).as_secs_f64());
        unit.put("wall_s", wall.as_secs_f64());
        unit
    } else {
        let run = Plain::run(w.sim_config(seed));
        check_fabric(w, &run)?;
        let mut unit = Unit::new(&run.json);
        unit.put("setup_s", run.setup_s);
        unit.put("wall_s", run.wall_s);
        unit
    };
    unit.put("peak_rss_mb", peak_rss_kib()? as f64 / 1024.0);
    Ok(unit)
}

/// A traced child: the per-layer figures of one traced run on the first
/// simulation seed, checked byte for byte against an untraced run of the
/// same configuration.
pub fn traced(w: Workload, seed: u64, child: u64) -> Result<Unit, String> {
    let mut spans = Spans::new(format!("{}/seed{seed}/child{child}", w.name()));
    let seed = sub_seed(seed, 0);
    let unit = if w == Workload::GeoPacket {
        let cc = geo_cluster_config(seed);
        let (serial, serial_s) = fed_arm(&cc, 1, "fed.serial", &mut spans);
        let (par, par_s) = fed_arm(&cc, FED_WORKERS, "fed.workers", &mut spans);
        let json = par.to_json();
        if serial.to_json() != json {
            return Err("the parallel federation's report differs from the serial one's".into());
        }
        check_federation(&par)?;
        let mut unit = Unit::new(&json);
        // One site's fabric, stepped standalone, gives the per-kind spans.
        traced_fabric(w.sim_config(seed), "site0", &mut spans, &mut unit)?;
        unit.put("cluster.window_speedup", serial_s / par_s);
        unit.put("cluster.jobs_forwarded", par.jobs_forwarded() as f64);
        unit.put("cluster.wan.transfers", par.wan.transfers as f64);
        unit.put("cluster.wan.link_bytes", par.wan.link_bytes as f64);
        unit
    } else {
        let mut unit = Unit::new("");
        let run = traced_fabric(w.sim_config(seed), w.name(), &mut spans, &mut unit)?;
        check_fabric(w, &run)?;
        unit.digest = digest(&run.json);
        for name in [
            "cluster.window_speedup",
            "cluster.jobs_forwarded",
            "cluster.wan.transfers",
            "cluster.wan.link_bytes",
        ] {
            unit.put(name, 0.0);
        }
        unit
    };
    spans.write(&span_path(w))?;
    Ok(unit)
}

/// One single-fabric run with instrumentation off.
struct Plain {
    report: SimReport,
    json: String,
    setup_s: f64,
    wall_s: f64,
    /// Deep sleeps entered across the farm.
    sleeps: u64,
}

impl Plain {
    fn run(cfg: SimConfig) -> Plain {
        let end = SimTime::ZERO + cfg.duration;
        let t0 = Instant::now();
        let sim = Simulation::new(cfg);
        let setup_s = t0.elapsed().as_secs_f64();
        let mut engine = sim.into_engine();
        let t1 = Instant::now();
        engine.run_until(end);
        let wall_s = t1.elapsed().as_secs_f64();
        let events = engine.events_processed();
        let (dc, _) = engine.into_parts();
        let sleeps = sleep_counts(&dc).0;
        let report = finish_report(dc, end, events, wall_s);
        Plain {
            json: report.to_json(),
            report,
            setup_s,
            wall_s,
            sleeps,
        }
    }
}

/// One federation arm on `workers` window-pool threads (1 = the serial
/// arm): its report and the run's wall time, set-up excluded.
fn fed_arm(
    cc: &ClusterConfig,
    workers: usize,
    name: &str,
    spans: &mut Spans,
) -> (FederationReport, f64) {
    let t0 = Instant::now();
    let fed = Federation::new(cc);
    let t1 = Instant::now();
    let report = fed.run_with_workers(workers);
    let t2 = Instant::now();
    spans.arm(name, t0, t2);
    (report, (t2 - t1).as_secs_f64())
}

/// Runs `cfg` untraced, then traced under the stepping driver; checks
/// that the traced report reproduces the untraced one byte for byte, and
/// adds the traced run's per-layer figures to `unit`. Returns the
/// untraced run.
fn traced_fabric(
    cfg: SimConfig,
    label: &str,
    spans: &mut Spans,
    unit: &mut Unit,
) -> Result<Plain, String> {
    let end = SimTime::ZERO + cfg.duration;
    let t0 = Instant::now();
    let plain = Plain::run(cfg.clone());
    spans.arm(&format!("{label}.untraced"), t0, Instant::now());

    let mut cfg = cfg;
    cfg.obs.trace = Some(TraceConfig {
        limit: TRACE_LIMIT,
        ring: 1,
    });
    let mut engine = Simulation::new(cfg).into_engine();
    let log = trace::step_to(&mut engine, end);
    let events = engine.events_processed();
    let (dc, observer) = engine.into_parts();
    let (sleeps, wakes) = sleep_counts(&dc);
    let (hits, misses) = dc.net().map_or((0, 0), |n| n.router.route_cache_stats());
    let switch_power: u64 = dc.net().map_or(0, |n| {
        n.switches
            .iter()
            .map(|s| {
                let (lpi, cards) = s.power_event_counts();
                lpi + cards
            })
            .sum()
    });
    let artifacts = observer.finish(end);
    let report = finish_report(dc, end, events, log.wall_ns() as f64 / 1e9);
    if report.to_json() != plain.json {
        return Err(format!(
            "{label}: the traced run's report differs from the untraced run's"
        ));
    }
    let trace_data = artifacts
        .trace
        .as_ref()
        .ok_or("the traced run kept no event trace")?;
    let attr = trace::attribute(&log, trace_data, artifacts.kind_names)?;
    let run = spans.arm(&format!("{label}.traced"), log.start, log.end);
    spans.steps(run, &log, &trace_data.records, artifacts.kind_names);
    spans.layers(&attr);

    let wall_ns = log.wall_ns() as f64;
    let net = report.network.as_ref();
    let res = report.resilience.as_ref();
    let lookups = hits + misses;
    unit.put("des.events", events as f64);
    unit.put("des.events_per_s", events as f64 / plain.wall_s);
    unit.put("des.step_ns.p50", trace::quantile(&attr.all, 0.5));
    unit.put("des.step_ns.p99", trace::tail(&attr.all));
    unit.put("des.pending_peak", log.pending_peak as f64);
    for (i, layer) in LAYERS.iter().enumerate() {
        unit.put(format!("{layer}.count"), attr.count[i] as f64);
        unit.put(
            format!("{layer}.self_share"),
            attr.self_ns[i] as f64 / wall_ns,
        );
    }
    unit.put("sched.arrival.p99_ns", trace::tail(&attr.by_layer[ARRIVAL]));
    unit.put("sched.global_queue_tasks", report.global_queue_tasks as f64);
    unit.put(
        "server.complete.p99_ns",
        trace::tail(&attr.by_layer[COMPLETE]),
    );
    unit.put("server.sleeps", sleeps as f64);
    unit.put("server.wakes", wakes as f64);
    unit.put("network.flow.admitted", net.map_or(0, |n| n.flows) as f64);
    unit.put("network.flow.touched", log.touched as f64);
    unit.put("network.route.hits", hits as f64);
    unit.put("network.route.misses", misses as f64);
    unit.put(
        "network.route.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    unit.put(
        "network.packet.forwarded",
        net.map_or(0, |n| n.packets_forwarded) as f64,
    );
    unit.put(
        "network.packet.dropped",
        net.map_or(0, |n| n.packets_dropped) as f64,
    );
    unit.put("network.switch.power_events", switch_power as f64);
    unit.put(
        "faults.tasks_killed",
        res.map_or(0, |r| r.tasks_killed) as f64,
    );
    unit.put("faults.retries", res.map_or(0, |r| r.retries) as f64);
    unit.put("bench.driver.self_share", log.driver_ns as f64 / wall_ns);
    unit.put("obs.trace_overhead", wall_ns / 1e9 / plain.wall_s - 1.0);
    Ok(plain)
}

/// Fails the run when a workload stops exercising the layer it exists
/// for, so that a configuration drift cannot hollow it out.
fn require(w: Workload, checks: &[(&str, u64)]) -> Result<(), String> {
    match checks.iter().find(|&&(_, v)| v == 0) {
        Some((name, _)) => Err(format!("exercise check failed on {}: {name} = 0", w.name())),
        None => Ok(()),
    }
}

fn check_fabric(w: Workload, run: &Plain) -> Result<(), String> {
    let r = &run.report;
    match w {
        Workload::Farm => require(
            w,
            &[
                ("server.sleeps", run.sleeps),
                (
                    "faults.tasks_killed",
                    r.resilience.as_ref().map_or(0, |f| f.tasks_killed),
                ),
            ],
        ),
        Workload::FabricFlow | Workload::FabricIncast => require(
            w,
            &[(
                "network.flow.admitted",
                r.network.as_ref().map_or(0, |n| n.flows),
            )],
        ),
        Workload::GeoPacket => Ok(()),
    }
}

fn check_federation(r: &FederationReport) -> Result<(), String> {
    let forwarded = r
        .sites
        .iter()
        .filter_map(|s| s.network.as_ref())
        .map(|n| n.packets_forwarded)
        .sum();
    require(
        Workload::GeoPacket,
        &[
            ("network.packet.forwarded", forwarded),
            ("cluster.jobs_forwarded", r.jobs_forwarded()),
        ],
    )
}

/// `(deep sleeps entered, resumes)` summed over the farm.
fn sleep_counts(dc: &Datacenter) -> (u64, u64) {
    dc.servers()
        .iter()
        .map(|s| s.sleep_counts())
        .fold((0, 0), |(a, b), (s, r)| (a + s, b + r))
}

/// Peak resident memory (`VmHWM`) of this process, KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "the process status has no VmHWM".to_string())
}

/// Where a traced child writes its spans: beside this package.
fn span_path(w: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.jsonl", w.name()))
}
