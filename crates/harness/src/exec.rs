//! Batch execution of independent simulations on the window pool.
//!
//! A batch is one dispatch of [`holdcsim_cluster::pool::run_windows`]
//! over one cell per trial: workers pull cells from the pool's shared
//! counter, and each result stays in its trial's cell, so the output —
//! and everything aggregated from it — is bitwise identical regardless
//! of how many workers ran or how work interleaved.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use holdcsim::config::SimConfig;
use holdcsim::report::SimReport;
use holdcsim::sim::Simulation;
use holdcsim_cluster::pool::run_windows;
use holdcsim_des::time::SimTime;
use holdcsim_obs::ObsArtifacts;

use crate::agg::{aggregate, PointSummary, TrialMetrics, TrialOutcome};
use crate::grid::{GridError, SweepPlan};

/// Runs every config and returns the reports in input order.
///
/// The parallel primitive under [`run_plan`], also usable directly for
/// irregular experiments (the paper figures' arms) that don't fit a
/// rectangular grid. With `progress`, one line per finished trial is
/// written to stderr.
pub fn run_configs(
    configs: Vec<SimConfig>,
    threads: usize,
    progress: Option<&str>,
) -> Vec<SimReport> {
    run_configs_obs(configs, threads, progress)
        .into_iter()
        .map(|(report, _)| report)
        .collect()
}

/// One trial's pool cell: its config until a worker takes it, then its
/// outcome.
struct Trial {
    config: Option<SimConfig>,
    outcome: Option<(SimReport, ObsArtifacts)>,
}

/// [`run_configs`], but also returning each trial's observability
/// artifacts (empty unless the config's [`SimConfig::obs`] turns a
/// capability on).
pub fn run_configs_obs(
    configs: Vec<SimConfig>,
    threads: usize,
    progress: Option<&str>,
) -> Vec<(SimReport, ObsArtifacts)> {
    let n = configs.len();
    let cells: Vec<Mutex<Trial>> = configs
        .into_iter()
        .map(|c| {
            Mutex::new(Trial {
                config: Some(c),
                outcome: None,
            })
        })
        .collect();
    let done = AtomicUsize::new(0);
    // One window runs every trial; a trial has no window cap to honour.
    run_windows(
        threads,
        &cells,
        |trial: &mut Trial, _cap| {
            let cfg = trial.config.take().expect("each trial runs once");
            trial.outcome = Some(Simulation::new(cfg).run_with_obs());
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(label) = progress {
                eprintln!("[{label}] trial {finished}/{n} done");
            }
        },
        |dispatch| dispatch(SimTime::MAX),
    );
    cells
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("trial cell poisoned")
                .outcome
                .expect("all trials ran")
        })
        .collect()
}

/// The full outcome of a sweep: per-trial metrics plus per-point
/// cross-replication summaries.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The plan's name.
    pub name: String,
    /// Every trial, in expansion order.
    pub trials: Vec<TrialOutcome>,
    /// One aggregate per grid point.
    pub summaries: Vec<PointSummary>,
    /// Per-trial observability artifacts, in expansion order (all empty
    /// when the plan's [`SweepPlan::obs`] is off).
    pub obs: Vec<ObsArtifacts>,
}

/// Expands `plan` and runs all its trials on `threads` workers.
///
/// Per-trial seeds come from the plan's grid coordinates (see
/// [`SweepPlan::trials`]) and results are keyed by trial index, so the
/// returned [`SweepResult`] is identical at every thread count.
pub fn run_plan(
    plan: &SweepPlan,
    threads: usize,
    progress: bool,
) -> Result<SweepResult, GridError> {
    let trials = plan.trials()?;
    let points = plan.points()?;
    let configs: Vec<SimConfig> = trials
        .iter()
        .map(|t| {
            let mut cfg = t.config();
            cfg.obs = plan.obs;
            cfg
        })
        .collect();
    let label = progress.then(|| plan.name.clone());
    let results = run_configs_obs(configs, threads, label.as_deref());
    let mut reports = Vec::with_capacity(results.len());
    let mut obs = Vec::with_capacity(results.len());
    for (report, arts) in results {
        reports.push(report);
        obs.push(arts);
    }
    let outcomes: Vec<TrialOutcome> = trials
        .into_iter()
        .zip(reports.iter())
        .map(|(spec, report)| TrialOutcome {
            spec,
            metrics: TrialMetrics::from_report(report),
        })
        .collect();
    let summaries = aggregate(&points, &outcomes);
    Ok(SweepResult {
        name: plan.name.clone(),
        trials: outcomes,
        summaries,
        obs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::{summary_csv, trials_jsonl};
    use holdcsim_des::time::SimDuration;

    fn tiny_plan() -> SweepPlan {
        SweepPlan::new("determinism")
            .utilizations(&[0.1, 0.4])
            .replications(3)
            .duration(SimDuration::from_secs(5))
    }

    #[test]
    fn run_configs_preserves_input_order() {
        use holdcsim_workload::presets::WorkloadPreset;
        // Give every config a distinct horizon so any reordering (e.g.
        // storing results by completion order instead of by slot index)
        // is detectable in the output.
        let durations: Vec<SimDuration> = (1..=6).map(SimDuration::from_secs).collect();
        let configs: Vec<SimConfig> = durations
            .iter()
            .map(|&d| SimConfig::server_farm(2, 2, 0.2, WorkloadPreset::WebSearch.template(), d))
            .collect();
        let reports = run_configs(configs, 3, None);
        assert_eq!(reports.len(), durations.len());
        for (d, r) in durations.iter().zip(&reports) {
            assert_eq!(r.duration, *d);
        }
    }

    #[test]
    fn sweep_is_bitwise_identical_across_thread_counts() {
        let plan = tiny_plan();
        let serial = run_plan(&plan, 1, false).unwrap();
        let parallel = run_plan(&plan, 4, false).unwrap();
        // Identical per-trial metrics, bit for bit…
        assert_eq!(serial.trials, parallel.trials);
        // …identical aggregates…
        assert_eq!(serial.summaries, parallel.summaries);
        // …and identical rendered artifacts.
        assert_eq!(trials_jsonl(&serial), trials_jsonl(&parallel));
        assert_eq!(summary_csv(&serial), summary_csv(&parallel));
    }

    #[test]
    fn replications_differ_but_aggregate_counts_them_all() {
        let result = run_plan(&tiny_plan(), 4, false).unwrap();
        assert_eq!(result.trials.len(), 6);
        assert_eq!(result.summaries.len(), 2);
        for s in &result.summaries {
            assert_eq!(s.replications, 3);
        }
        // Different replicate seeds actually produce different runs.
        let a = &result.trials[0].metrics;
        let b = &result.trials[1].metrics;
        assert_ne!(a, b);
    }
}
