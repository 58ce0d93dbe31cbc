//! `perfbench`: the repository benchmark of HolDCSim-RS.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <farm|fabric-flow|fabric-incast|geo-packet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one deterministic simulation to a fixed simulated
//! horizon, so host time measures a fixed amount of simulated work. The
//! parent process runs the workload again and again for `--seconds`
//! seconds, each time in a fresh child process (one child at a time), and
//! prints one JSON object as the last line of its output: with
//! `--trace 0` the end-to-end metrics of runs with instrumentation off,
//! with `--trace 1` the per-layer metrics of separate traced runs. Each
//! value is the median over the run's children, except `wall_s`, the sum
//! of each simulation seed's fastest child. `README.md` beside this
//! package describes the workloads, the metrics and the layer map.

mod trace;
mod units;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use units::Unit;
use workloads::{Workload, DEFAULT_SEED};

/// End-to-end metrics, reported with `--trace 0`: name and unit.
const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported with `--trace 1`: name and unit. Metrics
/// in `count` or `bytes` are exact: every traced child of a run must
/// report the same value.
const PER_LAYER: &[(&str, &str)] = &[
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.step_ns.p50", "ns"),
    ("des.step_ns.p99", "ns"),
    ("des.pending_peak", "count"),
    ("sched.arrival.count", "count"),
    ("sched.arrival.self_share", "frac"),
    ("sched.arrival.p99_ns", "ns"),
    ("sched.global_queue_tasks", "count"),
    ("server.complete.count", "count"),
    ("server.complete.self_share", "frac"),
    ("server.complete.p99_ns", "ns"),
    ("server.power.count", "count"),
    ("server.power.self_share", "frac"),
    ("server.sleeps", "count"),
    ("server.wakes", "count"),
    ("network.flow.count", "count"),
    ("network.flow.self_share", "frac"),
    ("network.flow.admitted", "count"),
    ("network.flow.touched", "count"),
    ("network.route.hits", "count"),
    ("network.route.misses", "count"),
    ("network.route.hit_ratio", "frac"),
    ("network.packet.count", "count"),
    ("network.packet.self_share", "frac"),
    ("network.packet.forwarded", "count"),
    ("network.packet.dropped", "count"),
    ("network.switch.power_events", "count"),
    ("faults.count", "count"),
    ("faults.self_share", "frac"),
    ("faults.tasks_killed", "count"),
    ("faults.retries", "count"),
    ("core.tick.count", "count"),
    ("core.tick.self_share", "frac"),
    ("cluster.window_speedup", "x"),
    ("cluster.jobs_forwarded", "count"),
    ("cluster.wan.transfers", "count"),
    ("cluster.wan.link_bytes", "bytes"),
    ("bench.driver.self_share", "frac"),
    ("obs.trace_overhead", "frac"),
];

/// Children per run at the least, however short `--seconds` is: a median
/// needs a few samples, and the exact counters need two runs to compare.
const MIN_CHILDREN: u64 = 3;

const USAGE: &str = "usage: perfbench --workload <farm|fabric-flow|fabric-incast|geo-packet> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The parsed command line. A child process gets its parent's flags plus
/// `--child <k>`.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    child: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut child) =
        (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {USAGE}"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--child" => child = Some(value.parse::<u64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}; {USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        traced: traced.ok_or(USAGE)?,
        child,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.child {
        Some(k) => child(&args, k),
        None => parent(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A child process: one run of the workload, its figures printed as
/// `name value` lines for the parent.
fn child(args: &Args, k: u64) -> Result<(), String> {
    let unit = if args.traced {
        units::traced(args.workload, args.seed, k)?
    } else {
        units::plain(args.workload, args.seed, units::sub_index(k, false))?
    };
    print!("{}", unit.render());
    Ok(())
}

/// The parent process: runs children for `--seconds`, gates their
/// correctness, and prints the result line.
fn parent(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let seed = args.seed.to_string();
    let seconds = args.seconds.to_string();
    let trace = if args.traced { "1" } else { "0" };
    let budget = Duration::from_secs(args.seconds);
    // Plain children take the simulation seeds in turn: run whole rounds.
    let round = if args.traced {
        1
    } else {
        units::SUB_SEEDS as u64
    };
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut units = Vec::new();
    while attempted < MIN_CHILDREN || start.elapsed() < budget || attempted % round != 0 {
        attempted += 1;
        let k = attempted.to_string();
        let out = Command::new(&exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                seed.as_str(),
                "--seconds",
                seconds.as_str(),
                "--trace",
                trace,
                "--child",
                k.as_str(),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a child process: {e}"))?;
        match Unit::parse(&out) {
            Ok(unit) => units.push((units::sub_index(attempted, args.traced), unit)),
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: child {k} failed: {e}");
            }
        }
    }

    // Report digests are pinned for the default seed; on any other seed
    // every child must reproduce the bytes of the first child that ran
    // the same simulation seed. Exact counters must repeat bit for bit
    // across the children of a run.
    let mut want: [Option<String>; units::SUB_SEEDS] = Default::default();
    for (i, w) in want.iter_mut().enumerate() {
        *w = match args.seed {
            DEFAULT_SEED => Some(args.workload.pinned_digests()[i].to_string()),
            _ => units
                .iter()
                .find(|(j, _)| *j == i)
                .map(|(_, u)| u.digest.clone()),
        };
    }
    let metrics = if args.traced { PER_LAYER } else { END_TO_END };
    let exact: Vec<(&str, Option<f64>)> = metrics
        .iter()
        .filter(|(_, unit)| matches!(*unit, "count" | "bytes"))
        .map(|&(name, _)| (name, units.first().and_then(|(_, u)| u.get(name))))
        .collect();
    let before = units.len();
    units.retain(|(i, u)| {
        if want[*i].as_deref() != Some(u.digest.as_str()) {
            eprintln!(
                "perfbench: report digest {} of simulation seed {i} differs from {}",
                u.digest,
                want[*i].as_deref().unwrap_or("?")
            );
            return false;
        }
        if let Some((name, _)) = exact.iter().find(|&&(name, v)| u.get(name) != v) {
            eprintln!("perfbench: {name} differs between children of one run");
            return false;
        }
        true
    });
    failed += (before - units.len()) as u64;

    let mut fields = Vec::with_capacity(metrics.len());
    for &(name, unit) in metrics {
        let mut xs = units
            .iter()
            .map(|(_, u)| {
                u.get(name)
                    .ok_or_else(|| format!("a child did not report {name}"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        xs.sort_by(f64::total_cmp);
        let med = median(&xs);
        // The host shares its cores with other tenants, and a child runs
        // either undisturbed or up to ~1.5x slower for seconds at a time.
        // The fastest child of a simulation seed is that input's own cost
        // (the median would report the mix of quiet and noisy phases the
        // run happened to hit); `wall_s` sums it over the seeds.
        let value = if name == "wall_s" {
            (0..units::SUB_SEEDS)
                .filter_map(|i| {
                    units
                        .iter()
                        .filter(|(j, _)| *j == i)
                        .filter_map(|(_, u)| u.get(name))
                        .min_by(f64::total_cmp)
                })
                .sum()
        } else {
            med
        };
        eprintln!(
            "perfbench: {name:<28} {value:>16.6} {unit:<5} min {:.6} median {med:.6} max {:.6} n {}",
            xs.first().copied().unwrap_or(0.0),
            xs.last().copied().unwrap_or(0.0),
            xs.len()
        );
        fields.push(format!(
            r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
            json_number(value)
        ));
    }
    eprintln!(
        "perfbench: {} seed {}: {attempted} children, {failed} failed, host parallelism {}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        failed == 0,
        fields.join(", ")
    );
    Ok(())
}

/// The median of sorted values (0 when there are none).
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A value as a JSON number: Rust's shortest round-trip form, which keeps
/// every digit and never uses an exponent.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
