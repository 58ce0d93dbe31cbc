//! # holdcsim-harness
//!
//! Declarative, parallel experiment orchestration for HolDCSim-RS.
//!
//! Every result in the source paper is a sweep — policies × workloads ×
//! utilizations × timers × seeds — and this crate makes those sweeps
//! first-class:
//!
//! * [`grid`] — [`grid::SweepPlan`]: a parameter grid × N replications
//!   expanded into trials, each with a deterministic RNG stream derived
//!   from its grid coordinates (via `holdcsim_des::rng`), so results are
//!   bitwise identical at any thread count.
//! * [`exec`] — batch execution ([`exec::run_plan`] /
//!   [`exec::run_configs`]) with progress reporting, as one dispatch of
//!   the federation's window pool (`holdcsim_cluster::pool`) over one
//!   cell per trial; results are stored by trial index, never by
//!   completion order.
//! * [`agg`] — cross-replication aggregation: mean, sample standard
//!   deviation, and Student-t 95 % confidence intervals per metric per
//!   grid point.
//! * [`artifacts`] — JSONL/CSV artifact rendering and writing, built on
//!   `holdcsim::export`.
//! * [`figs`] — the paper's figures re-expressed as plans and batches of
//!   configs run in parallel, backing the `holdcsim fig <n>` CLI
//!   subcommand.
//! * [`bench_scale`] — the canned fault plan and the two-site federation
//!   that the repository benchmark (`perfbench/`) and the resilience
//!   tests build on.
//! * [`obs_cli`] — shared parsing/output plumbing for the observability
//!   flags (`--trace`, `--metrics`, `--fingerprint`, `--profile`).
//!
//! The `holdcsim` binary (`src/bin/holdcsim.rs`) exposes `run`, `sweep`,
//! `fig`, `federate`, and `trace-diff` subcommands over all of this.
//!
//! ## Example: a 24-trial grid, in parallel, with confidence intervals
//!
//! ```no_run
//! use holdcsim::config::PolicyKind;
//! use holdcsim_des::time::SimDuration;
//! use holdcsim_harness::exec::run_plan;
//! use holdcsim_harness::grid::SweepPlan;
//!
//! let plan = SweepPlan::new("demo")
//!     .policies(&[PolicyKind::PackFirst, PolicyKind::LeastLoaded, PolicyKind::RoundRobin])
//!     .utilizations(&[0.1, 0.3])
//!     .replications(4)
//!     .duration(SimDuration::from_secs(30));
//! let result = run_plan(&plan, 8, true).unwrap();
//! for s in &result.summaries {
//!     let e = s.get("energy_j").unwrap();
//!     println!("{}: {:.1} ± {:.1} J", s.point.label(), e.mean, e.ci95_half);
//! }
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod artifacts;
pub mod bench_scale;
pub mod exec;
pub mod figs;
pub mod grid;
pub mod obs_cli;

pub use agg::{MetricSummary, PointSummary, TrialMetrics, TrialOutcome, METRIC_NAMES};
pub use exec::{run_configs, run_plan, SweepResult};
pub use grid::{GridError, SweepPlan, TrialPoint, TrialSpec};
