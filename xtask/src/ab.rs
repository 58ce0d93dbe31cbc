//! `cargo xtask ab`: compares two revisions on perfbench by the rule
//! every performance claim here follows. Each revision is built in a
//! detached `git worktree` under `target/ab/` (the change defaults to the
//! working tree) and each workload runs in interleaved pairs, the base
//! first in even pairs. The workloads, the run length and each end-to-end
//! metric's direction and bound come from the change tree's
//! `BENCHMARK.json`; README § Performance describes the output.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;

const USAGE: &str = "usage: cargo xtask ab <base-rev> [<change-rev>] [--pairs N] [--seconds S] \
                     [--seed N] [WORKLOAD...]";

/// The fewest interleaved pairs that can show a gain, and the default.
const CLAIM_PAIRS: usize = 10;

/// Arm names, indexed by arm.
const ARMS: [&str; 2] = ["base", "change"];

/// An exit code and its message: 2 for bad input, 1 for a failed build
/// or run.
type Failure = (u8, String);

/// `cargo xtask ab ...`: runs the comparison and prints its tables.
pub fn main(root: &Path, args: &[String]) -> ExitCode {
    let Err((code, msg)) = drive(root, args) else {
        return ExitCode::SUCCESS;
    };
    eprintln!("xtask ab: {msg}");
    if code == 2 {
        eprintln!("{USAGE}");
    }
    ExitCode::from(code)
}

/// An end-to-end metric of `BENCHMARK.json`: its name, whether lower is
/// better, and its regression bound as a fraction of the base median.
#[derive(Debug)]
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// Reads `(run_seconds, workloads, end-to-end metrics)` from
/// `BENCHMARK.json`. A missing or malformed key is an error: a comparison
/// never runs on a guessed setting.
fn read_bench(text: &str) -> Result<(u64, Vec<String>, Vec<Metric>), String> {
    fn key<'a>(v: &'a Json, k: &str) -> Result<&'a Json, String> {
        v.get(k).ok_or(format!("missing key `{k}`"))
    }
    fn list<'a>(v: &'a Json, k: &str) -> Result<&'a [Json], String> {
        let Json::Arr(xs) = key(v, k)? else {
            return Err(format!("`{k}` is not a list"));
        };
        Ok(xs)
    }
    let name = |v: &Json| -> Result<String, String> {
        Ok(key(v, "name")?.str().ok_or("bad `name`")?.to_string())
    };
    let metric = |m: &Json| -> Result<Metric, String> {
        let better = key(m, "better")?
            .str()
            .filter(|b| ["lower", "higher"].contains(b));
        let better = better.ok_or("`better` is neither \"lower\" nor \"higher\"")?;
        let bound = key(m, "bound")?
            .num()
            .filter(|b| *b >= 0.0)
            .ok_or("bad `bound`")?;
        let (name, lower_is_better) = (name(m)?, better == "lower");
        Ok(Metric {
            name,
            lower_is_better,
            bound,
        })
    };
    let doc = Json::parse(text)?;
    let secs = key(&doc, "run_seconds")?.num().filter(|s| *s >= 1.0);
    let (workloads, metrics) = (list(&doc, "workloads")?, list(&doc, "end_to_end")?);
    Ok((
        secs.ok_or("bad `run_seconds`")? as u64,
        workloads.iter().map(name).collect::<Result<_, _>>()?,
        metrics.iter().map(metric).collect::<Result<_, _>>()?,
    ))
}

/// One perfbench run: its result line, and every metric in it as
/// `(name, value, unit)`.
#[derive(Debug)]
struct RunResult {
    line: String,
    metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Reads perfbench's result line. A truncated line, `correct: false`,
    /// a failed child and a missing `required` metric are all errors.
    fn parse(line: &str, required: &[&str]) -> Result<RunResult, String> {
        let doc = Json::parse(line).map_err(|e| format!("bad result line ({e}): {line}"))?;
        let failed = doc.get("failed").and_then(Json::num);
        if doc.get("correct") != Some(&Json::Bool(true)) || failed != Some(0.0) {
            return Err(format!("the run is not correct: {line}"));
        }
        let Some(Json::Obj(entries)) = doc.get("metrics") else {
            return Err(format!("no metrics: {line}"));
        };
        let mut metrics = Vec::new();
        for (name, m) in entries {
            let value = m.get("value").and_then(Json::num);
            let unit = m.get("unit").and_then(Json::str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric `{name}` lacks a value or unit"));
            };
            metrics.push((name.clone(), value, unit.to_string()));
        }
        let run = RunResult {
            line: line.to_string(),
            metrics,
        };
        match required.iter().find(|m| run.get(m).is_none()) {
            Some(m) => Err(format!("the result line lacks `{m}`: {line}")),
            None => Ok(run),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        let found = self.metrics.iter().find(|(n, _, _)| n == name);
        found.map(|&(_, v, _)| v)
    }
}

/// `[q1, median, q3]` of `xs` (not empty), interpolating linearly
/// between order statistics.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let h = (s.len() - 1) as f64 * p;
        let lo = h.floor() as usize;
        s[lo] + (h - lo as f64) * (s[h.ceil() as usize] - s[lo])
    })
}

/// One end-to-end metric compared on one workload: each arm's quartiles,
/// the pairs the change won (ties count for neither), how far the
/// change's median beats the base's (negative: worse), the base's
/// interquartile range, the bound times the base median, and the verdict.
struct Comparison {
    base: [f64; 3],
    change: [f64; 3],
    wins: usize,
    gap: f64,
    iqr: f64,
    bound: f64,
    verdict: &'static str,
}

/// Compares `metric` pair by pair, `base[i]` against `change[i]`. The
/// verdict is the first that holds of:
/// - `gain`: the change won ≥ 9/10 of at least 10 pairs, and the gap
///   exceeds the base's interquartile range;
/// - `regression`: the change's median is worse than the base's by more
///   than the bound;
/// - `unresolved`: the base's interquartile range is wider than the
///   bound, unless every change run beats every base run;
/// - `flat`.
fn compare(metric: &Metric, base: &[f64], change: &[f64]) -> Comparison {
    let lower = metric.lower_is_better;
    let better = |c: f64, b: f64| if lower { c < b } else { c > b };
    let wins = base.iter().zip(change).filter(|(b, c)| better(**c, **b));
    let (wins, pairs) = (wins.count(), base.len());
    let (qb, qc) = (quartiles(base), quartiles(change));
    let gap = if lower { qb[1] - qc[1] } else { qc[1] - qb[1] };
    let (iqr, bound) = (qb[2] - qb[0], metric.bound * qb[1].abs());
    let every_run_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    let verdict = if pairs >= CLAIM_PAIRS && wins * 10 >= pairs * 9 && gap > iqr {
        "gain"
    } else if -gap > bound {
        "regression"
    } else if iqr > bound && !every_run_better {
        "unresolved"
    } else {
        "flat"
    };
    let (base, change) = (qb, qc);
    Comparison {
        base,
        change,
        wins,
        gap,
        iqr,
        bound,
        verdict,
    }
}

/// A metric of two traced runs: `(name, base, change)`, `None` where a
/// run lacks it.
type Row = (String, Option<f64>, Option<f64>);

/// The metrics of two traced runs that `pick(name, unit)` selects.
fn side_by_side(base: &RunResult, change: &RunResult, pick: fn(&str, &str) -> bool) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for (name, _, unit) in change.metrics.iter().chain(&base.metrics) {
        if pick(name, unit) && !rows.iter().any(|r| &r.0 == name) {
            rows.push((name.clone(), base.get(name), change.get(name)));
        }
    }
    rows
}

/// Exact counters, units `count` and `bytes`: they agree between the arms
/// unless the change alters the work done.
fn exact(_: &str, unit: &str) -> bool {
    matches!(unit, "count" | "bytes")
}

/// Runs git in `root` with its output muted, so stdout carries only the
/// tables; true if it succeeded.
fn git(root: &Path, args: &[&str]) -> bool {
    let mut git = Command::new("git");
    git.current_dir(root).args(args);
    let status = git.stdout(Stdio::null()).stderr(Stdio::null()).status();
    status.is_ok_and(|s| s.success())
}

/// The full commit id `rev` names, if it names one.
fn resolve(root: &Path, rev: &str) -> Option<String> {
    let (mut git, spec) = (Command::new("git"), format!("{rev}^{{commit}}"));
    git.args(["rev-parse", "--verify", "--quiet", &spec]);
    let out = git.current_dir(root).output().ok()?;
    let id = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && id.len() >= 12).then_some(id)
}

/// One side of the comparison: a source tree and its perfbench.
struct Arm {
    tree: PathBuf,
    /// The repository, when `tree` is a worktree added for this
    /// comparison; it is removed again on drop.
    repo: Option<PathBuf>,
}

impl Arm {
    /// A detached worktree of `commit` under `target/ab/`.
    fn checkout(root: &Path, name: &str, commit: &str) -> Result<Arm, Failure> {
        let tree = root.join(format!("target/ab/{name}-{}", &commit[..12]));
        let arm = Arm {
            tree,
            repo: Some(root.to_path_buf()),
        };
        // A tree left by an interrupted run would block `worktree add`.
        arm.remove();
        let tree = arm.tree.to_string_lossy().to_string();
        if !git(root, &["worktree", "add", "--detach", &tree, commit]) {
            return Err((1, format!("cannot check out {commit}")));
        }
        Ok(arm)
    }

    /// Removes the tree if this comparison added it.
    fn remove(&self) {
        if let Some(repo) = &self.repo {
            let tree = self.tree.to_string_lossy();
            git(repo, &["worktree", "remove", "--force", &tree]);
            let _ = std::fs::remove_dir_all(&self.tree);
            git(repo, &["worktree", "prune"]);
        }
    }

    fn build(&self) -> Result<(), Failure> {
        eprintln!("xtask ab: building perfbench in {}", self.tree.display());
        let mut cargo = Command::new("cargo");
        cargo.current_dir(&self.tree);
        cargo.args(["build", "--release", "--offline", "--manifest-path"]);
        cargo.arg(self.tree.join("perfbench/Cargo.toml"));
        cargo
            .arg("--target-dir")
            .arg(self.tree.join("perfbench/target"));
        match cargo.status() {
            Ok(s) if s.success() => Ok(()),
            _ => Err((1, "cannot build perfbench".to_string())),
        }
    }

    /// One perfbench run of workload `w`, read from the last line of its
    /// stdout: a `--trace 0` run reporting every `required` metric, or,
    /// without them, a `--trace 1` run.
    fn run(
        &self,
        w: &str,
        seed: u64,
        secs: u64,
        required: Option<&[&str]>,
    ) -> Result<RunResult, Failure> {
        let trace = if required.is_some() { "0" } else { "1" };
        let (seed, secs) = (seed.to_string(), secs.to_string());
        let mut perfbench = Command::new(self.tree.join("perfbench/target/release/perfbench"));
        perfbench.args(["--workload", w, "--trace", trace]);
        perfbench.args(["--seed", &seed, "--seconds", &secs]);
        let out = perfbench
            .current_dir(&self.tree)
            .stdin(Stdio::null())
            .output();
        let out = out.map_err(|e| (1, format!("cannot run perfbench: {e}")))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        RunResult::parse(line, required.unwrap_or_default()).map_err(|e| {
            let stderr = String::from_utf8_lossy(&out.stderr);
            (1, format!("{w} in {}: {e}\n{stderr}", self.tree.display()))
        })
    }
}

impl Drop for Arm {
    fn drop(&mut self) {
        self.remove();
    }
}

fn drive(root: &Path, argv: &[String]) -> Result<(), Failure> {
    // Seed 42 is the one whose report digests perfbench pins.
    let (mut revs, mut picked, mut secs, mut seed) = (vec![], vec![], None, 42);
    let mut pairs = CLAIM_PAIRS;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            // The second positional argument is the change, if it names a
            // commit; every other one after the base names a workload.
            let change = revs.len() == 1 && picked.is_empty() && resolve(root, arg).is_some();
            if revs.is_empty() || change {
                revs.push(arg.clone());
            } else {
                picked.push(arg.clone());
            }
            continue;
        };
        let n = it.next().and_then(|v| v.parse::<u64>().ok());
        let n = n.filter(|&n| n > 0 || flag == "seed");
        let n = n.ok_or((2, format!("--{flag} needs a positive integer")))?;
        match flag {
            "pairs" => pairs = n as usize,
            "seconds" => secs = Some(n),
            "seed" => seed = n,
            _ => return Err((2, format!("unknown option `--{flag}`"))),
        }
    }
    let id = |rev: &String| resolve(root, rev).ok_or((2, format!("`{rev}` names no commit")));
    let ids = revs.iter().map(id).collect::<Result<Vec<_>, _>>()?;
    let Some(base_id) = ids.first() else {
        return Err((2, "missing <base-rev>".to_string()));
    };
    let base = Arm::checkout(root, ARMS[0], base_id)?;
    let change = match ids.get(1) {
        Some(id) => Arm::checkout(root, ARMS[1], id)?,
        None => Arm {
            tree: root.to_path_buf(),
            repo: None,
        },
    };

    let text = std::fs::read_to_string(change.tree.join("BENCHMARK.json"));
    let bench = text.map_err(|e| e.to_string()).and_then(|t| read_bench(&t));
    let (run_seconds, all, metrics) = bench.map_err(|e| (2, format!("BENCHMARK.json: {e}")))?;
    if let Some(w) = picked.iter().find(|w| !all.contains(w)) {
        return Err((2, format!("`{w}` is not a workload of BENCHMARK.json")));
    }
    let workloads = if picked.is_empty() { &all } else { &picked };
    let secs = secs.unwrap_or(run_seconds);
    let arms = [&base, &change];
    for arm in arms {
        arm.build()?;
    }

    // runs[workload][arm] holds one run per pair, then the traced run.
    let e2e: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let mut runs: Vec<[Vec<RunResult>; 2]> = workloads.iter().map(|_| Default::default()).collect();
    for pair in 0..pairs {
        for (w, runs) in workloads.iter().zip(&mut runs) {
            for arm in if pair % 2 == 0 { [0, 1] } else { [1, 0] } {
                let run = arms[arm].run(w, seed, secs, Some(&e2e))?;
                let (n, name) = (pair + 1, ARMS[arm]);
                eprintln!("xtask ab: {w} pair {n}/{pairs} {name}: {}", run.line);
                runs[arm].push(run);
            }
        }
    }
    for (w, runs) in workloads.iter().zip(&mut runs) {
        eprintln!("xtask ab: traced runs of {w}");
        for (arm, runs) in arms.iter().zip(runs) {
            runs.push(arm.run(w, seed, secs, None)?);
        }
    }

    // Names, commit ids and perfbench's result lines are plain ASCII, so
    // `{:?}` quotes them as JSON strings; result lines are JSON already.
    let change_rev = revs.get(1).map_or("worktree", String::as_str);
    let mut md = format!(
        "### `cargo xtask ab {} {change_rev}`: {pairs} pairs × {secs} s per run, seed {seed}\n\n\
         | workload | metric | base median (q1–q3) | change median (q1–q3) | change won | gap \
         | base IQR | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n",
        revs[0]
    );
    let (mut summaries, mut deltas, mut rows) = (vec![], vec![], vec![]);
    let mut shares =
        String::from("\n| workload | self share | base | change |\n|---|---|---|---|\n");
    let q = |q: [f64; 3]| format!("{} ({}–{})", sig(q[1]), sig(q[0]), sig(q[2]));
    let cell = |v: Option<f64>| v.map_or("—".to_string(), sig);
    let num = |v: Option<f64>| v.map_or("null".to_string(), |x| x.to_string());
    for (w, runs) in workloads.iter().zip(&runs) {
        for m in &metrics {
            let value = |r: &RunResult| r.get(&m.name).expect("a required metric");
            let [b, c] = [0, 1].map(|arm| runs[arm][..pairs].iter().map(value).collect::<Vec<_>>());
            let c = compare(m, &b, &c);
            let (name, wins, verdict) = (&m.name, c.wins, c.verdict);
            let cells = [sig(c.gap), sig(c.iqr), sig(c.bound)].join(" | ");
            let (qb, qc) = (q(c.base), q(c.change));
            let row = format!("{qb} | {qc} | {wins}/{pairs} | {cells} | {verdict}");
            let _ = writeln!(md, "| {w} | {name} | {row} |");
            summaries.push(format!(
                "{{\"workload\": {w:?}, \"metric\": {name:?}, \"base\": {:?}, \"change\": {:?}, \
                 \"wins\": {wins}, \"gap\": {}, \"base_iqr\": {}, \"bound\": {}, \"verdict\": {verdict:?}}}",
                c.base, c.change, c.gap, c.iqr, c.bound
            ));
        }
        let (b, c) = (&runs[0][pairs], &runs[1][pairs]);
        for (name, vb, vc) in side_by_side(b, c, exact).into_iter().filter(|r| r.1 != r.2) {
            let (jb, jc) = (num(vb), num(vc));
            let delta = format!("\"metric\": {name:?}, \"base\": {jb}, \"change\": {jc}");
            deltas.push(format!("{{\"workload\": {w:?}, {delta}}}"));
            let (cb, cc) = (cell(vb), cell(vc));
            let _ = writeln!(shares, "| {w} | exact counter `{name}` | {cb} | {cc} |");
        }
        for (name, vb, vc) in side_by_side(b, c, |name, _| name.ends_with(".self_share")) {
            let _ = writeln!(shares, "| {w} | {name} | {} | {} |", cell(vb), cell(vc));
        }
        for (arm, runs) in ARMS.iter().zip(runs) {
            for (pair, r) in runs.iter().enumerate() {
                let (trace, line) = (usize::from(pair == pairs), &r.line);
                rows.push(format!("{{\"workload\": {w:?}, \"arm\": {arm:?}, \"trace\": {trace}, \"pair\": {pair}, \"result\": {line}}}"));
            }
        }
    }
    let _ = writeln!(
        md,
        "\nGap: how far the change's median beats the base's (negative: worse). Bound: the \
         `BENCHMARK.json` bound times the base median. Exact counters (`--trace 1`, one run per \
         arm) that differ: {}.\n{shares}",
        deltas.len()
    );

    let change_id = ids.get(1).map_or("worktree", |id| id.as_str());
    let list = |rows: &[String]| format!("[{}]", rows.join(",\n  "));
    let (rows, summaries, deltas) = (list(&rows), list(&summaries), list(&deltas));
    let doc = format!(
        "{{\"base\": {base_id:?}, \"change\": {change_id:?}, \"pairs\": {pairs}, \"seconds\": {secs}, \
         \"seed\": {seed},\n\"runs\": {rows},\n\"summaries\": {summaries},\n\"counter_deltas\": {deltas}}}\n"
    );
    let short = |id: &str| id[..id.len().min(12)].to_string();
    let file = format!("{}-{}.json", short(base_id), short(change_id));
    let out = root.join("target/ab").join(file);
    std::fs::write(&out, doc).map_err(|e| (1, format!("cannot write {}: {e}", out.display())))?;
    print!("{md}");
    eprintln!("xtask ab: wrote {}", out.display());
    Ok(())
}

/// `x` to four significant digits.
fn sig(x: f64) -> String {
    let digits = (3.0 - x.abs().log10().floor()).clamp(0.0, 12.0) as usize;
    format!("{x:.*}", if x == 0.0 { 0 } else { digits })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs with median 1.0 and quartiles 0.95–1.05.
    const BASE: [f64; 10] = [0.9, 0.9, 0.95, 0.95, 1.0, 1.0, 1.05, 1.05, 1.1, 1.1];

    fn metric(lower_is_better: bool, bound: f64) -> Metric {
        let name = "wall_s".to_string();
        Metric {
            name,
            lower_is_better,
            bound,
        }
    }

    fn verdict(bound: f64, base: &[f64], change: &[f64]) -> &'static str {
        compare(&metric(true, bound), base, change).verdict
    }

    #[test]
    fn quartiles_interpolate_and_wins_ignore_ties() {
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        let (base, change) = ([1.0; 4], [0.5, 1.0, 2.0, 0.9]);
        for (lower, wins) in [(true, 2), (false, 1)] {
            assert_eq!(compare(&metric(lower, 0.25), &base, &change).wins, wins);
        }
    }

    #[test]
    fn verdicts_hold_at_their_boundaries() {
        // 9/10 wins and a gap of 0.175 beyond the base IQR of 0.1: a gain.
        let lower = BASE.map(|b| b - 0.2);
        let mut change = lower;
        change[0] = 1.0;
        assert_eq!(verdict(0.25, &BASE, &change), "gain");
        // 8/10 wins is not a gain, nor are 9/9 (fewer than ten pairs).
        change[1] = 1.0;
        assert_eq!(verdict(0.25, &BASE, &change), "flat");
        assert_eq!(verdict(0.25, &BASE[..9], &lower[..9]), "flat");
        // A gap equal to the IQR (4.5 on 1..=10, quartiles 3.25–7.75) is
        // not a gain, though the change wins every pair.
        let base: Vec<f64> = (1..=10).map(f64::from).collect();
        let change: Vec<f64> = base.iter().map(|b| b - 4.5).collect();
        let c = compare(&metric(true, 10.0), &base, &change);
        assert_eq!((c.wins, c.gap, c.iqr, c.verdict), (10, 4.5, 4.5, "flat"));
        // Worse by exactly the bound is no regression; by more it is.
        assert_eq!(verdict(0.25, &[1.0; 10], &[1.25; 10]), "flat");
        assert_eq!(verdict(0.25, &[1.0; 10], &[1.5; 10]), "regression");
        // A base IQR (0.1) wider than the bound (0.05) is unresolved,
        // unless every change run beats every base run: here by less than
        // that base's IQR of 0.4, so no gain either.
        assert_eq!(verdict(0.05, &BASE, &BASE), "unresolved");
        let base = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.4, 1.4, 1.4, 1.4];
        assert_eq!(verdict(0.05, &base, &[0.99; 10]), "flat");
    }

    #[test]
    fn result_lines_must_be_whole_correct_and_complete() {
        let line = r#"{"correct": true, "attempted": 8, "failed": 0, "metrics": {"wall_s": {"value": 0.75, "unit": "s"}, "des.events": {"value": 9, "unit": "count"}}}"#;
        let run = RunResult::parse(line, &["wall_s"]).expect("a valid line");
        assert_eq!(run.get("wall_s"), Some(0.75));
        assert_eq!(run.get("des.events"), Some(9.0));
        for bad in [
            &line[..line.len() - 3],
            &line.replace("true", "false"),
            &line.replace("\"failed\": 0", "\"failed\": 1"),
        ] {
            assert!(RunResult::parse(bad, &[]).is_err(), "{bad}");
        }
        let err = RunResult::parse(line, &["peak_rss_mb"]).unwrap_err();
        assert!(err.contains("peak_rss_mb"), "{err}");
        // A counter that differs, or that only one arm reports, is a delta.
        let other = line
            .replace("\"value\": 9", "\"value\": 10")
            .replace("events", "pending");
        let other = RunResult::parse(&other, &[]).expect("a valid line");
        let want = [
            ("des.pending".into(), None, Some(10.0)),
            ("des.events".into(), Some(9.0), None),
        ];
        assert_eq!(side_by_side(&run, &other, exact), want);
    }

    #[test]
    fn benchmark_json_is_read_and_a_missing_key_fails() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (secs, workloads, metrics) = read_bench(&text).expect("BENCHMARK.json parses");
        assert_eq!((secs, workloads.len()), (20, 4));
        let bounds: Vec<f64> = metrics.iter().map(|m| m.bound).collect();
        assert_eq!(bounds, [0.25, 0.25, 0.2]);
        for key in ["run_seconds", "workloads", "better", "bound"] {
            let broken = text.replace(&format!("\"{key}\""), "\"renamed\"");
            assert!(read_bench(&broken).unwrap_err().contains(key), "{key}");
        }
    }
}
