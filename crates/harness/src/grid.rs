//! Declarative sweep plans: a parameter grid × N replications expanded
//! into fully-specified trials with deterministic per-trial RNG streams.
//!
//! The expansion order is the row-major cartesian product of the axes in
//! declaration order (policy, preset, servers, cores, utilization, τ,
//! fault plan), with replications innermost. Trial seeds are derived
//! from the plan seed and the trial's grid coordinates alone — never
//! from scheduling order — so a sweep is bitwise-reproducible at any
//! thread count.

use std::fmt;

use holdcsim::config::{PolicyKind, SimConfig};
use holdcsim::experiments::delay_timer_farm;
use holdcsim_des::rng::SimRng;
use holdcsim_des::time::SimDuration;
use holdcsim_obs::ObsConfig;
use holdcsim_workload::presets::WorkloadPreset;

/// Hard cap on the number of trials one plan may expand to.
pub const MAX_TRIALS: u128 = 1 << 20;

/// Why a plan could not be expanded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// An axis has no values, so the product grid is empty.
    EmptyAxis(&'static str),
    /// The cartesian product exceeds [`MAX_TRIALS`].
    TooLarge {
        /// The would-be trial count.
        size: u128,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::EmptyAxis(name) => write!(f, "sweep axis `{name}` is empty"),
            GridError::TooLarge { size } => {
                write!(f, "sweep expands to {size} trials (max {MAX_TRIALS})")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// One point of the parameter grid (everything but the replicate index).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialPoint {
    /// Placement policy.
    pub policy: PolicyKind,
    /// Workload preset.
    pub preset: WorkloadPreset,
    /// Farm size.
    pub servers: usize,
    /// Cores per server.
    pub cores: u32,
    /// Target utilization ρ.
    pub rho: f64,
    /// Delay timer τ in seconds; `None` runs the Active-Idle farm
    /// (no sleeping, no provisioning controller).
    pub tau_s: Option<f64>,
    /// Fault-plan spec for this arm (already validated by
    /// [`SweepPlan::fault_specs`]); `None` runs fault-free.
    pub faults: Option<String>,
}

impl TrialPoint {
    /// A compact `key=value` label for progress lines and artifacts.
    pub fn label(&self) -> String {
        let tau = match self.tau_s {
            Some(t) => format!("{t}"),
            None => "active-idle".to_string(),
        };
        let mut label = format!(
            "policy={:?} preset={} servers={} cores={} rho={} tau={}",
            self.policy, self.preset, self.servers, self.cores, self.rho, tau
        );
        if let Some(f) = &self.faults {
            label.push_str(&format!(" faults={f}"));
        }
        label
    }

    /// Builds the simulation configuration for this point, seeded with
    /// `seed`, over `duration`: the delay-timer farm when the point has a
    /// τ, the Active-Idle farm otherwise.
    pub fn config(&self, seed: u64, duration: SimDuration) -> SimConfig {
        let mut cfg = match self.tau_s {
            Some(tau) => delay_timer_farm(
                self.preset,
                self.rho,
                self.servers,
                self.cores,
                tau,
                duration,
                seed,
            ),
            None => SimConfig::server_farm(
                self.servers,
                self.cores,
                self.rho,
                self.preset.template(),
                duration,
            )
            .with_seed(seed),
        }
        .with_policy(self.policy);
        if let Some(spec) = &self.faults {
            cfg.faults = Some(holdcsim_faults::load_plan(spec).expect("validated fault spec"));
        }
        cfg
    }
}

/// A fully-specified trial: grid point × replicate, with the derived seed.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSpec {
    /// Position in the expanded trial list.
    pub index: usize,
    /// Index of [`Self::point`] in the plan's point list.
    pub point_index: usize,
    /// Replicate number within the point, `0..replications`.
    pub replicate: u32,
    /// The per-trial simulation seed (derived, deterministic).
    pub seed: u64,
    /// The grid point.
    pub point: TrialPoint,
    /// Simulated horizon.
    pub duration: SimDuration,
}

impl TrialSpec {
    /// Builds the simulation configuration for this trial.
    pub fn config(&self) -> SimConfig {
        self.point.config(self.seed, self.duration)
    }
}

/// A declarative sweep: axes × replications over a fixed horizon.
///
/// Build one with the fluent setters, then hand it to
/// [`crate::exec::run_plan`]:
///
/// ```
/// use holdcsim::config::PolicyKind;
/// use holdcsim_des::time::SimDuration;
/// use holdcsim_harness::grid::SweepPlan;
///
/// let plan = SweepPlan::new("taus")
///     .policies(&[PolicyKind::PackFirst, PolicyKind::LeastLoaded])
///     .utilizations(&[0.1, 0.3])
///     .taus_s(&[0.4, 1.6])
///     .replications(3);
/// assert_eq!(plan.size().unwrap(), 2 * 2 * 2 * 3);
/// ```
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Plan name (artifact prefix).
    pub name: String,
    /// Root seed; every trial stream is derived from it.
    pub seed: u64,
    /// Replications per grid point.
    pub replications: u32,
    /// Simulated horizon per trial.
    pub duration: SimDuration,
    /// Placement-policy axis.
    pub policies: Vec<PolicyKind>,
    /// Workload-preset axis.
    pub presets: Vec<WorkloadPreset>,
    /// Farm-size axis.
    pub servers: Vec<usize>,
    /// Cores-per-server axis.
    pub cores: Vec<u32>,
    /// Utilization axis.
    pub utilizations: Vec<f64>,
    /// Delay-timer axis (`None` entries are Active-Idle arms).
    pub taus: Vec<Option<f64>>,
    /// Fault-plan axis (`None` entries are fault-free arms).
    pub faults: Vec<Option<String>>,
    /// Observability applied to every trial (default: everything off).
    pub obs: ObsConfig,
}

impl SweepPlan {
    /// A single-point plan: PackFirst, web search, 8×4 at ρ=0.3,
    /// Active-Idle, one replication of 30 simulated seconds.
    pub fn new(name: &str) -> Self {
        SweepPlan {
            name: name.to_string(),
            seed: 42,
            replications: 1,
            duration: SimDuration::from_secs(30),
            policies: vec![PolicyKind::PackFirst],
            presets: vec![WorkloadPreset::WebSearch],
            servers: vec![8],
            cores: vec![4],
            utilizations: vec![0.3],
            taus: vec![None],
            faults: vec![None],
            obs: ObsConfig::default(),
        }
    }

    /// Sets the observability configuration applied to every trial.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the replication count.
    pub fn replications(mut self, n: u32) -> Self {
        self.replications = n;
        self
    }

    /// Sets the simulated horizon.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Sets the policy axis.
    pub fn policies(mut self, ps: &[PolicyKind]) -> Self {
        self.policies = ps.to_vec();
        self
    }

    /// Sets the workload axis.
    pub fn presets(mut self, ps: &[WorkloadPreset]) -> Self {
        self.presets = ps.to_vec();
        self
    }

    /// Sets the farm-size axis.
    pub fn servers(mut self, s: &[usize]) -> Self {
        self.servers = s.to_vec();
        self
    }

    /// Sets the cores-per-server axis.
    pub fn cores(mut self, c: &[u32]) -> Self {
        self.cores = c.to_vec();
        self
    }

    /// Sets the utilization axis.
    pub fn utilizations(mut self, rhos: &[f64]) -> Self {
        self.utilizations = rhos.to_vec();
        self
    }

    /// Sets the delay-timer axis (every entry a concrete τ).
    pub fn taus_s(mut self, taus: &[f64]) -> Self {
        self.taus = taus.iter().map(|&t| Some(t)).collect();
        self
    }

    /// Sets the delay-timer axis with explicit `None` (Active-Idle) arms.
    pub fn taus_opt(mut self, taus: &[Option<f64>]) -> Self {
        self.taus = taus.to_vec();
        self
    }

    /// Sets the fault-plan axis. `None` entries are fault-free arms;
    /// `Some` entries are plan specs (validate them with
    /// `holdcsim_faults::load_plan` before building the plan — trial
    /// expansion assumes each spec parses).
    pub fn fault_specs(mut self, specs: &[Option<String>]) -> Self {
        self.faults = specs.to_vec();
        self
    }

    /// The trial count this plan expands to, with an overflow guard.
    pub fn size(&self) -> Result<usize, GridError> {
        let axes: [(&'static str, usize); 8] = [
            ("policies", self.policies.len()),
            ("presets", self.presets.len()),
            ("servers", self.servers.len()),
            ("cores", self.cores.len()),
            ("utilizations", self.utilizations.len()),
            ("taus", self.taus.len()),
            ("faults", self.faults.len()),
            ("replications", self.replications as usize),
        ];
        let mut size: u128 = 1;
        for (name, len) in axes {
            if len == 0 {
                return Err(GridError::EmptyAxis(name));
            }
            size = size.saturating_mul(len as u128);
        }
        if size > MAX_TRIALS {
            return Err(GridError::TooLarge { size });
        }
        Ok(size as usize)
    }

    /// The grid points in expansion order (replications excluded).
    pub fn points(&self) -> Result<Vec<TrialPoint>, GridError> {
        let n = self.size()?;
        let mut out = Vec::with_capacity(n / self.replications as usize);
        for &policy in &self.policies {
            for &preset in &self.presets {
                for &servers in &self.servers {
                    for &cores in &self.cores {
                        for &rho in &self.utilizations {
                            for &tau_s in &self.taus {
                                for faults in &self.faults {
                                    out.push(TrialPoint {
                                        policy,
                                        preset,
                                        servers,
                                        cores,
                                        rho,
                                        tau_s,
                                        faults: faults.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Expands the full trial list: every point × every replicate, each
    /// with its derived seed.
    pub fn trials(&self) -> Result<Vec<TrialSpec>, GridError> {
        let points = self.points()?;
        let root = SimRng::seed_from(self.seed);
        let mut out = Vec::with_capacity(points.len() * self.replications as usize);
        for (point_index, point) in points.into_iter().enumerate() {
            for replicate in 0..self.replications {
                let seed = root
                    .substream_path(&[point_index as u64, replicate as u64])
                    .next_u64();
                out.push(TrialSpec {
                    index: out.len(),
                    point_index,
                    replicate,
                    seed,
                    point: point.clone(),
                    duration: self.duration,
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_plan_expands_to_replications() {
        let plan = SweepPlan::new("one").replications(4);
        assert_eq!(plan.size().unwrap(), 4);
        let trials = plan.trials().unwrap();
        assert_eq!(trials.len(), 4);
        assert!(trials.iter().all(|t| t.point_index == 0));
        assert_eq!(
            trials.iter().map(|t| t.replicate).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // Replicates get distinct derived seeds.
        let mut seeds: Vec<u64> = trials.iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn empty_axis_is_an_error() {
        let plan = SweepPlan::new("empty").utilizations(&[]);
        assert_eq!(plan.size(), Err(GridError::EmptyAxis("utilizations")));
        assert!(plan.trials().is_err());
    }

    #[test]
    fn zero_replications_is_an_error() {
        let plan = SweepPlan::new("noreps").replications(0);
        assert_eq!(plan.size(), Err(GridError::EmptyAxis("replications")));
    }

    #[test]
    fn cartesian_overflow_is_guarded() {
        let many: Vec<f64> = (0..4096).map(|i| i as f64 / 4096.0).collect();
        let plan = SweepPlan::new("huge")
            .utilizations(&many)
            .taus_s(&many)
            .replications(u32::MAX);
        match plan.size() {
            Err(GridError::TooLarge { size }) => assert!(size > MAX_TRIALS),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn expansion_order_is_row_major_and_stable() {
        let plan = SweepPlan::new("grid")
            .policies(&[PolicyKind::PackFirst, PolicyKind::LeastLoaded])
            .utilizations(&[0.1, 0.6]);
        let pts = plan.points().unwrap();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].policy, PolicyKind::PackFirst);
        assert_eq!(pts[0].rho, 0.1);
        assert_eq!(pts[1].rho, 0.6);
        assert_eq!(pts[2].policy, PolicyKind::LeastLoaded);
        // Expansion is a pure function of the plan.
        assert_eq!(plan.trials().unwrap(), plan.trials().unwrap());
    }

    #[test]
    fn trial_seeds_depend_only_on_coordinates() {
        // Adding a point leaves earlier points' replicate seeds intact
        // only when coordinates match; what matters is: the same
        // (plan seed, point_index, replicate) always derives the same
        // trial seed.
        let a = SweepPlan::new("a").replications(2).trials().unwrap();
        let b = SweepPlan::new("renamed").replications(2).trials().unwrap();
        assert_eq!(a[1].seed, b[1].seed);
        let c = SweepPlan::new("a")
            .seed(7)
            .replications(2)
            .trials()
            .unwrap();
        assert_ne!(a[1].seed, c[1].seed);
    }

    #[test]
    fn fault_axis_expands_and_reaches_config() {
        let plan = SweepPlan::new("faulty")
            .fault_specs(&[None, Some("crash@2s:0; recover@4s:0".to_string())]);
        assert_eq!(plan.size().unwrap(), 2);
        let trials = plan.trials().unwrap();
        // Fault-free arm keeps the pre-axis label byte-for-byte.
        assert_eq!(
            trials[0].point.label(),
            "policy=PackFirst preset=Web Search servers=8 cores=4 rho=0.3 tau=active-idle"
        );
        assert!(trials[1]
            .point
            .label()
            .ends_with(" faults=crash@2s:0; recover@4s:0"));
        assert!(trials[0].config().faults.is_none());
        let plan = trials[1].config().faults.expect("fault arm carries a plan");
        assert_eq!(plan.events.len(), 2);
    }

    #[test]
    fn config_reflects_point() {
        let mut plan = SweepPlan::new("cfg");
        plan.taus = vec![Some(0.5)];
        let trials = plan.trials().unwrap();
        let cfg = trials[0].config();
        assert_eq!(cfg.server_count, 8);
        assert_eq!(cfg.cores_per_server, 4);
        assert_eq!(cfg.seed, trials[0].seed);
        assert!(cfg.controller.is_some(), "delay-timer arm runs provisioned");
    }
}
