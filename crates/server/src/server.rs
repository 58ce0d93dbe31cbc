//! The multi-core server model (§III-A): local task queues, per-core
//! execution with DVFS scaling, hierarchical sleep states, delay timers,
//! and CPU/DRAM/platform energy accounting.
//!
//! A [`Server`] is a passive state machine: the simulation driver calls it
//! with the current time and a reusable [`EffectBuf`], then schedules the
//! [`Effect`]s left in the buffer. This keeps the model engine-agnostic,
//! directly unit-testable, and allocation-free on the per-event hot path.

use std::collections::VecDeque;

use holdcsim_des::stats::{Residency, TimeWeighted};
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_power::server_profile::ServerPowerProfile;
use holdcsim_power::states::{CoreCState, SystemState};
use holdcsim_workload::ids::TaskId;

use crate::policy::{DeepState, IdleDescent, SleepPolicy};
use crate::task::TaskHandle;

/// Identifies one server in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "srv{}", self.0)
    }
}

/// How the local scheduler queues tasks (§III-A, \[37\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalQueueMode {
    /// One shared FIFO; any free core pulls the head.
    Unified,
    /// One FIFO per core; arrivals join the shortest queue and never migrate.
    PerCore,
}

/// The server's operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// At least one core executing (S0).
    Active,
    /// S0, no work, cores halted in C1 — fully responsive.
    Idle,
    /// Package C6: cores and uncore gated, sub-millisecond wake.
    ShallowSleep,
    /// Deep sleep in the given ACPI system state (S3/S5).
    DeepSleep(SystemState),
    /// Entering deep sleep (cannot be aborted mid-flight).
    Suspending(SystemState),
    /// Waking from deep sleep.
    Resuming,
}

impl ServerMode {
    /// `true` in any state that can accept a dispatch without a system-level
    /// transition.
    pub fn is_awake(self) -> bool {
        matches!(
            self,
            ServerMode::Active | ServerMode::Idle | ServerMode::ShallowSleep
        )
    }

    /// The residency band this mode accounts under (Fig. 8's five bands).
    pub fn band(self) -> Band {
        match self {
            ServerMode::Active => Band::Active,
            ServerMode::Idle => Band::Idle,
            ServerMode::ShallowSleep => Band::ShallowSleep,
            ServerMode::DeepSleep(_) => Band::DeepSleep,
            ServerMode::Suspending(_) | ServerMode::Resuming => Band::Transition,
        }
    }
}

/// Residency bands reported by the paper's Fig. 8: Active, Wake-up
/// (transitions), Idle, Pkg C6, and System Sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Band {
    /// Executing tasks.
    Active,
    /// Suspend/resume transitions ("Wake-up" in the paper's figure).
    Transition,
    /// Responsive idle.
    Idle,
    /// Package C6 shallow sleep.
    ShallowSleep,
    /// System sleep (S3/S5).
    DeepSleep,
}

/// What the simulation driver must do after a server call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// A task began executing on `core`; schedule its completion.
    TaskStarted {
        /// Core index.
        core: u32,
        /// The task that started.
        id: TaskId,
        /// Time until completion (includes any wake padding).
        completes_in: SimDuration,
    },
    /// Arm the idle delay timer; deliver `timer_fired(gen)` after `after`.
    ArmTimer {
        /// Delay until the timer fires.
        after: SimDuration,
        /// Generation to echo back (stale generations are ignored).
        gen: u64,
    },
    /// A suspend/resume transition began; deliver `transition_done` after
    /// `after`.
    TransitionDoneIn {
        /// Transition latency.
        after: SimDuration,
    },
}

/// Inline capacity of an [`EffectBuf`]: covers a full dispatch burst on a
/// typical server (one `TaskStarted` per core) without touching the heap.
const INLINE_EFFECTS: usize = 8;

/// Placeholder for unused inline slots (never observable).
const NO_EFFECT: Effect = Effect::TransitionDoneIn {
    after: SimDuration::ZERO,
};

/// A reusable buffer of [`Effect`]s: a hand-rolled inline array that spills
/// to the heap only on bursts larger than the 8-effect inline capacity.
///
/// The driving loop owns one buffer and passes it to every server call, so
/// the per-event hot path performs no allocation. Server methods clear the
/// buffer on entry; the caller reads [`as_slice`](Self::as_slice) (or
/// derefs — the buffer derefs to `[Effect]`) afterwards.
///
/// # Examples
///
/// ```
/// use holdcsim_server::server::{Effect, EffectBuf};
/// use holdcsim_des::time::SimDuration;
///
/// let mut buf = EffectBuf::new();
/// buf.push(Effect::TransitionDoneIn { after: SimDuration::from_millis(1) });
/// assert_eq!(buf.len(), 1);
/// assert!(matches!(buf[0], Effect::TransitionDoneIn { .. }));
/// buf.clear();
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EffectBuf {
    /// Occupied inline slots (0 once spilled).
    len: usize,
    inline: [Effect; INLINE_EFFECTS],
    /// Overflow storage; when non-empty it holds *all* effects in order.
    spill: Vec<Effect>,
}

impl Default for EffectBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl EffectBuf {
    /// Creates an empty buffer (no heap allocation).
    pub fn new() -> Self {
        EffectBuf {
            len: 0,
            inline: [NO_EFFECT; INLINE_EFFECTS],
            spill: Vec::new(),
        }
    }

    /// Empties the buffer, keeping any spill capacity for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Appends an effect.
    pub fn push(&mut self, e: Effect) {
        if !self.spill.is_empty() {
            self.spill.push(e);
        } else if self.len < INLINE_EFFECTS {
            self.inline[self.len] = e;
            self.len += 1;
        } else {
            // First overflow: move the inline prefix so `spill` holds all.
            self.spill.extend_from_slice(&self.inline[..self.len]);
            self.spill.push(e);
            self.len = 0;
        }
    }

    /// The buffered effects in push order.
    pub fn as_slice(&self) -> &[Effect] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl std::ops::Deref for EffectBuf {
    type Target = [Effect];

    fn deref(&self) -> &[Effect] {
        self.as_slice()
    }
}

/// Configuration for one server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of cores.
    pub cores: u32,
    /// Power profile.
    pub profile: ServerPowerProfile,
    /// Local queueing discipline.
    pub queue_mode: LocalQueueMode,
    /// Sleep policy.
    pub policy: SleepPolicy,
    /// Initial P-state index into `profile.pstates` (defaults to nominal).
    pub pstate: usize,
    /// Per-core speed factors for heterogeneous processors (Table I's
    /// "heterogeneous architecture" row): empty means homogeneous 1.0.
    /// A factor of 0.5 halves a core's execution speed; busy power scales
    /// quadratically with the factor (frequency·voltage² heuristic).
    pub core_speeds: Vec<f64>,
    /// Number of processor sockets (Table I's "multiple sockets" row);
    /// cores are split evenly across sockets, each with its own uncore.
    /// While the server is active, a socket whose cores are all idle drops
    /// its uncore into the shallow package sleep (PC2) autonomously.
    pub sockets: u32,
}

impl ServerConfig {
    /// A `cores`-core server with the Xeon E5-2680 profile, unified queue,
    /// Active-Idle policy, nominal frequency.
    pub fn new(cores: u32) -> Self {
        let profile = ServerPowerProfile::xeon_e5_2680();
        let pstate = profile.pstates.len() - 1;
        ServerConfig {
            cores,
            profile,
            queue_mode: LocalQueueMode::Unified,
            policy: SleepPolicy::active_idle(),
            pstate,
            core_speeds: Vec::new(),
            sockets: 1,
        }
    }

    /// Replaces the sleep policy.
    pub fn with_policy(mut self, policy: SleepPolicy) -> Self {
        self.policy = policy;
        self
    }
}

#[derive(Debug)]
enum LocalQueues {
    Unified(VecDeque<TaskHandle>),
    PerCore(Vec<VecDeque<TaskHandle>>),
}

impl LocalQueues {
    fn len(&self) -> usize {
        match self {
            LocalQueues::Unified(q) => q.len(),
            LocalQueues::PerCore(qs) => qs.iter().map(|q| q.len()).sum(),
        }
    }

    fn push(&mut self, task: TaskHandle) {
        match self {
            LocalQueues::Unified(q) => q.push_back(task),
            LocalQueues::PerCore(qs) => {
                let (shortest, _) = qs
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, q)| q.len())
                    .expect("server has at least one core");
                qs[shortest].push_back(task);
            }
        }
    }

    fn pop_for(&mut self, core: u32) -> Option<TaskHandle> {
        match self {
            LocalQueues::Unified(q) => q.pop_front(),
            LocalQueues::PerCore(qs) => qs[core as usize].pop_front(),
        }
    }
}

/// The server model. See the [module docs](self) for the driving contract.
///
/// # Examples
///
/// ```
/// use holdcsim_server::server::{Effect, EffectBuf, Server, ServerConfig, ServerId, ServerMode};
/// use holdcsim_server::task::TaskHandle;
/// use holdcsim_des::time::{SimDuration, SimTime};
/// use holdcsim_workload::ids::{JobId, TaskId};
///
/// let mut s = Server::new(SimTime::ZERO, ServerId(0), ServerConfig::new(4));
/// let task = TaskHandle::new(TaskId::new(JobId(1), 0), SimDuration::from_millis(5));
/// let mut effects = EffectBuf::new();
/// s.submit(SimTime::ZERO, task, &mut effects);
/// assert!(matches!(effects[0], Effect::TaskStarted { core: 0, .. }));
/// assert_eq!(s.mode(), ServerMode::Active);
/// ```
#[derive(Debug)]
pub struct Server {
    id: ServerId,
    cfg: ServerConfig,
    mode: ServerMode,
    running: Vec<Option<TaskHandle>>,
    /// Core indices in dispatch preference order (fastest first).
    dispatch_order: Vec<u32>,
    queues: LocalQueues,
    timer_gen: u64,
    wake_after_suspend: bool,
    /// Fault-injection speed factor (straggler model): scales execution
    /// speed of subsequently started tasks; 1.0 means nominal.
    fault_speed: f64,
    // --- accounting ---
    residency: Residency<Band>,
    busy_cores_tw: TimeWeighted,
    cores_w: TimeWeighted,
    pkg_w: TimeWeighted,
    dram_w: TimeWeighted,
    platform_w: TimeWeighted,
    tasks_completed: u64,
    deep_sleeps: u64,
    resumes: u64,
}

impl Server {
    /// Creates a server at `now`, idle and fully responsive.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores == 0` or the profile has no P-states.
    pub fn new(now: SimTime, id: ServerId, cfg: ServerConfig) -> Self {
        assert!(cfg.cores > 0, "server needs at least one core");
        assert!(!cfg.profile.pstates.is_empty(), "profile has no P-states");
        assert!(
            cfg.core_speeds.is_empty() || cfg.core_speeds.len() == cfg.cores as usize,
            "core_speeds must be empty or one per core"
        );
        assert!(
            cfg.core_speeds.iter().all(|&s| s > 0.0),
            "core speeds must be positive"
        );
        assert!(
            cfg.sockets > 0 && cfg.cores.is_multiple_of(cfg.sockets),
            "cores must split evenly over sockets"
        );
        // Prefer faster cores; stable by index among equals.
        let mut dispatch_order: Vec<u32> = (0..cfg.cores).collect();
        if !cfg.core_speeds.is_empty() {
            dispatch_order.sort_by(|&a, &b| {
                cfg.core_speeds[b as usize]
                    .partial_cmp(&cfg.core_speeds[a as usize])
                    .expect("finite speeds")
                    .then(a.cmp(&b))
            });
        }
        let queues = match cfg.queue_mode {
            LocalQueueMode::Unified => LocalQueues::Unified(VecDeque::new()),
            LocalQueueMode::PerCore => {
                LocalQueues::PerCore(vec![VecDeque::new(); cfg.cores as usize])
            }
        };
        let mode = match cfg.policy.idle_descent {
            IdleDescent::StayIdle => ServerMode::Idle,
            IdleDescent::ShallowSleep => ServerMode::ShallowSleep,
        };
        let mut s = Server {
            id,
            running: vec![None; cfg.cores as usize],
            dispatch_order,
            queues,
            mode,
            timer_gen: 0,
            wake_after_suspend: false,
            fault_speed: 1.0,
            residency: Residency::new(now, mode.band()),
            busy_cores_tw: TimeWeighted::new(now, 0.0),
            cores_w: TimeWeighted::new(now, 0.0),
            pkg_w: TimeWeighted::new(now, 0.0),
            dram_w: TimeWeighted::new(now, 0.0),
            platform_w: TimeWeighted::new(now, 0.0),
            tasks_completed: 0,
            deep_sleeps: 0,
            resumes: 0,
            cfg,
        };
        s.refresh_power(now);
        s
    }

    // ------------------------------------------------------------------
    // Observers
    // ------------------------------------------------------------------

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Current operating mode.
    pub fn mode(&self) -> ServerMode {
        self.mode
    }

    /// Number of cores currently executing tasks.
    pub fn busy_cores(&self) -> u32 {
        self.running.iter().filter(|r| r.is_some()).count() as u32
    }

    /// Total cores.
    pub fn core_count(&self) -> u32 {
        self.cfg.cores
    }

    /// Tasks waiting in local queues (excludes running).
    pub fn queue_len(&self) -> usize {
        self.queues.len()
    }

    /// Queued plus running tasks — the "pending jobs" load signal the
    /// paper's controllers monitor.
    pub fn pending(&self) -> usize {
        self.queue_len() + self.busy_cores() as usize
    }

    /// `true` if a dispatch right now needs no system-level transition.
    pub fn is_awake(&self) -> bool {
        self.mode.is_awake()
    }

    /// Total tasks completed.
    pub fn tasks_completed(&self) -> u64 {
        self.tasks_completed
    }

    /// `(deep sleeps entered, resumes)` counters.
    pub fn sleep_counts(&self) -> (u64, u64) {
        (self.deep_sleeps, self.resumes)
    }

    /// The active sleep policy.
    pub fn policy(&self) -> SleepPolicy {
        self.cfg.policy
    }

    /// The current P-state index.
    pub fn pstate(&self) -> usize {
        self.cfg.pstate
    }

    /// Number of P-states in the profile.
    pub fn pstate_count(&self) -> usize {
        self.cfg.profile.pstates.len()
    }

    /// Residency accounting over Fig. 8's five bands.
    pub fn residency(&self) -> &Residency<Band> {
        &self.residency
    }

    /// Mean busy cores over time / total cores — the server's utilization.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy_cores_tw.time_average(now) / self.cfg.cores as f64
    }

    /// CPU energy (cores + uncore) in joules through `now`.
    pub fn cpu_energy_j(&self, now: SimTime) -> f64 {
        self.cores_w.integral(now) + self.pkg_w.integral(now)
    }

    /// DRAM energy in joules through `now`.
    pub fn dram_energy_j(&self, now: SimTime) -> f64 {
        self.dram_w.integral(now)
    }

    /// Platform energy in joules through `now`.
    pub fn platform_energy_j(&self, now: SimTime) -> f64 {
        self.platform_w.integral(now)
    }

    /// Total server energy in joules through `now`.
    pub fn energy_j(&self, now: SimTime) -> f64 {
        self.cpu_energy_j(now) + self.dram_energy_j(now) + self.platform_energy_j(now)
    }

    /// Instantaneous total power draw in watts.
    pub fn power_w(&self) -> f64 {
        self.cores_w.value() + self.pkg_w.value() + self.dram_w.value() + self.platform_w.value()
    }

    /// Instantaneous CPU (cores + uncore) power draw in watts — the
    /// RAPL-package observable used for Fig. 12 validation.
    pub fn cpu_power_w(&self) -> f64 {
        self.cores_w.value() + self.pkg_w.value()
    }

    // ------------------------------------------------------------------
    // Driving API
    // ------------------------------------------------------------------

    /// Submits a task at `now`. Clears `fx` and fills it with the follow-up
    /// effects the driver must schedule.
    pub fn submit(&mut self, now: SimTime, task: TaskHandle, fx: &mut EffectBuf) {
        fx.clear();
        self.timer_gen += 1; // any activity cancels a pending descent
        self.queues.push(task);
        match self.mode {
            ServerMode::Active | ServerMode::Idle | ServerMode::ShallowSleep => {
                self.dispatch_free_cores(now, fx);
            }
            ServerMode::DeepSleep(_) => {
                self.begin_resume(now, fx);
            }
            ServerMode::Suspending(_) => {
                self.wake_after_suspend = true;
            }
            ServerMode::Resuming => {}
        }
        self.note_load(now);
    }

    /// Reports that the task on `core` finished at `now`; returns the
    /// finished task id and clears/fills `fx` with follow-up effects.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not running a task.
    pub fn complete(&mut self, now: SimTime, core: u32, fx: &mut EffectBuf) -> TaskId {
        fx.clear();
        let finished = self.running[core as usize]
            .take()
            .expect("completion for an idle core");
        self.tasks_completed += 1;
        // Pull follow-on work for this core (it is warm: no wake padding).
        if let Some(next) = self.queues.pop_for(core) {
            let completes_in = next.execution_time(self.speed_ratio() * self.core_speed(core));
            self.running[core as usize] = Some(next);
            fx.push(Effect::TaskStarted {
                core,
                id: next.id,
                completes_in,
            });
        } else if self.busy_cores() == 0 && self.queue_len() == 0 {
            self.descend_idle(now, fx);
        }
        self.note_load(now);
        finished.id
    }

    /// The idle delay timer armed with `gen` fired at `now`.
    pub fn timer_fired(&mut self, now: SimTime, gen: u64, fx: &mut EffectBuf) {
        fx.clear();
        if gen != self.timer_gen {
            return; // stale: activity intervened
        }
        if matches!(self.mode, ServerMode::Idle | ServerMode::ShallowSleep) && self.pending() == 0 {
            if let Some((_, deep)) = self.cfg.policy.deep_after {
                self.begin_suspend(now, deep, fx);
            }
        }
    }

    /// A suspend or resume transition completed at `now`.
    ///
    /// # Panics
    ///
    /// Panics if no transition was in flight.
    pub fn transition_done(&mut self, now: SimTime, fx: &mut EffectBuf) {
        fx.clear();
        match self.mode {
            ServerMode::Suspending(s) => {
                if self.queue_len() > 0 || self.wake_after_suspend {
                    // Work (or an explicit wake) arrived mid-suspend: sleep
                    // completed, now immediately resume.
                    self.set_mode(now, ServerMode::DeepSleep(s));
                    self.deep_sleeps += 1;
                    self.begin_resume(now, fx);
                } else {
                    self.set_mode(now, ServerMode::DeepSleep(s));
                    self.deep_sleeps += 1;
                }
            }
            ServerMode::Resuming => {
                self.resumes += 1;
                self.set_mode(now, ServerMode::Idle);
                self.dispatch_free_cores(now, fx);
                if self.busy_cores() == 0 && self.queue_len() == 0 {
                    self.descend_idle(now, fx);
                }
            }
            other => panic!("transition_done in non-transitional mode {other:?}"),
        }
        self.note_load(now);
    }

    /// Control-plane: wake the server from deep sleep (pool managers,
    /// provisioning). No-op if it is already awake or resuming.
    pub fn request_wake(&mut self, now: SimTime, fx: &mut EffectBuf) {
        fx.clear();
        match self.mode {
            ServerMode::DeepSleep(_) => self.begin_resume(now, fx),
            ServerMode::Suspending(_) => self.wake_after_suspend = true,
            _ => {}
        }
    }

    /// Control-plane: swap the sleep policy at `now` (WASP pool moves).
    /// Re-evaluates idleness under the new policy.
    pub fn set_policy(&mut self, now: SimTime, policy: SleepPolicy, fx: &mut EffectBuf) {
        fx.clear();
        self.cfg.policy = policy;
        if matches!(self.mode, ServerMode::Idle | ServerMode::ShallowSleep) && self.pending() == 0 {
            self.timer_gen += 1;
            self.descend_idle(now, fx);
        }
    }

    /// Control-plane: change the P-state (takes effect for subsequently
    /// started tasks; in-flight tasks finish at their original speed).
    ///
    /// # Panics
    ///
    /// Panics if `pstate` is out of range for the profile.
    pub fn set_pstate(&mut self, now: SimTime, pstate: usize) {
        assert!(
            pstate < self.cfg.profile.pstates.len(),
            "P-state out of range"
        );
        self.cfg.pstate = pstate;
        self.refresh_power(now);
    }

    /// Fault injection: scales execution speed of subsequently started
    /// tasks (the straggler model; 1.0 restores nominal). In-flight tasks
    /// finish at their already-computed speed, and power is not rescaled —
    /// a straggling server burns nominal busy power.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is strictly positive.
    pub fn set_fault_speed(&mut self, factor: f64) {
        assert!(factor > 0.0, "fault speed factor must be positive");
        self.fault_speed = factor;
    }

    /// Fault injection: the server crashes at `now`. Every running and
    /// queued task is appended to `killed` (running tasks in core order,
    /// then queued tasks in queue order) for the driver to re-dispatch
    /// elsewhere; the server lands in S5 deep sleep (powered off, drawing
    /// S5 platform power) until an explicit recovery wake. Any in-flight
    /// timer or transition events become stale: the driver must guard
    /// them with its own crash generation counter, since the server
    /// cannot cancel already-scheduled events.
    pub fn fail(&mut self, now: SimTime, killed: &mut Vec<TaskHandle>) {
        self.timer_gen += 1; // cancel any pending descent timer
        self.wake_after_suspend = false;
        for slot in self.running.iter_mut() {
            if let Some(t) = slot.take() {
                killed.push(t);
            }
        }
        match &mut self.queues {
            LocalQueues::Unified(q) => killed.extend(q.drain(..)),
            LocalQueues::PerCore(qs) => {
                for q in qs.iter_mut() {
                    killed.extend(q.drain(..));
                }
            }
        }
        self.set_mode(now, ServerMode::DeepSleep(SystemState::S5));
        self.note_load(now);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn speed_ratio(&self) -> f64 {
        // Multiplying by the nominal 1.0 fault factor is IEEE-exact, so
        // fault-free runs stay bitwise identical.
        self.cfg.profile.speed_ratio(self.cfg.pstate) * self.fault_speed
    }

    /// Heterogeneity factor of `core` (1.0 when homogeneous).
    pub fn core_speed(&self, core: u32) -> f64 {
        self.cfg
            .core_speeds
            .get(core as usize)
            .copied()
            .unwrap_or(1.0)
    }

    /// Wake padding charged to the first dispatch out of the current mode.
    fn dispatch_pad(&self) -> SimDuration {
        match self.mode {
            ServerMode::Idle => self.cfg.profile.core.c1_wake,
            ServerMode::ShallowSleep => {
                self.cfg.profile.package.pc6_wake + self.cfg.profile.core.c6_wake
            }
            _ => SimDuration::ZERO,
        }
    }

    fn dispatch_free_cores(&mut self, now: SimTime, effects: &mut EffectBuf) {
        let pad = self.dispatch_pad();
        let speed = self.speed_ratio();
        let mut dispatched = false;
        for i in 0..self.dispatch_order.len() {
            let core = self.dispatch_order[i];
            if self.running[core as usize].is_some() {
                continue;
            }
            let Some(task) = self.queues.pop_for(core) else {
                match &self.queues {
                    LocalQueues::Unified(_) => break, // empty for everyone
                    LocalQueues::PerCore(_) => continue,
                }
            };
            let completes_in = pad + task.execution_time(speed * self.core_speed(core));
            self.running[core as usize] = Some(task);
            effects.push(Effect::TaskStarted {
                core,
                id: task.id,
                completes_in,
            });
            dispatched = true;
        }
        if dispatched {
            self.set_mode(now, ServerMode::Active);
        }
    }

    fn descend_idle(&mut self, now: SimTime, effects: &mut EffectBuf) {
        match self.cfg.policy.idle_descent {
            IdleDescent::StayIdle => self.set_mode(now, ServerMode::Idle),
            IdleDescent::ShallowSleep => self.set_mode(now, ServerMode::ShallowSleep),
        }
        if let Some((tau, _)) = self.cfg.policy.deep_after {
            self.timer_gen += 1;
            if tau.is_zero() {
                // Degenerate timer: descend immediately.
                let (_, deep) = self.cfg.policy.deep_after.expect("checked above");
                self.begin_suspend(now, deep, effects);
            } else {
                effects.push(Effect::ArmTimer {
                    after: tau,
                    gen: self.timer_gen,
                });
            }
        }
    }

    fn begin_suspend(&mut self, now: SimTime, deep: DeepState, effects: &mut EffectBuf) {
        debug_assert!(self.mode.is_awake());
        self.wake_after_suspend = false;
        self.set_mode(now, ServerMode::Suspending(deep.system_state()));
        effects.push(Effect::TransitionDoneIn {
            after: self.cfg.profile.platform.suspend_latency,
        });
    }

    fn begin_resume(&mut self, now: SimTime, effects: &mut EffectBuf) {
        let ServerMode::DeepSleep(s) = self.mode else {
            panic!("resume from non-sleep mode {:?}", self.mode);
        };
        self.set_mode(now, ServerMode::Resuming);
        effects.push(Effect::TransitionDoneIn {
            after: self.cfg.profile.platform.wake_latency(s),
        });
    }

    fn set_mode(&mut self, now: SimTime, mode: ServerMode) {
        self.mode = mode;
        self.residency.transition(now, mode.band());
        self.refresh_power(now);
    }

    fn note_load(&mut self, now: SimTime) {
        self.busy_cores_tw.set(now, self.busy_cores() as f64);
    }

    /// Recomputes the four component power draws from the logical state.
    fn refresh_power(&mut self, now: SimTime) {
        let p = &self.cfg.profile;
        let n = self.cfg.cores as f64;
        let busy = self.busy_cores() as f64;
        let (cores, pkg, dram, platform) = match self.mode {
            ServerMode::Active | ServerMode::Idle => {
                let busy_w = p.core_busy_power_w(self.cfg.pstate);
                let idle_w = p.core.idle_power_w(CoreCState::C1);
                // Heterogeneous cores: busy power scales ~quadratically
                // with the per-core speed factor.
                let busy_power: f64 = if self.cfg.core_speeds.is_empty() {
                    busy * busy_w
                } else {
                    self.running
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.is_some())
                        .map(|(i, _)| {
                            let s = self.cfg.core_speeds[i];
                            busy_w * s * s
                        })
                        .sum()
                };
                let dram = if busy > 0.0 {
                    p.dram.active_w
                } else {
                    p.dram.idle_w
                };
                // Per-socket uncore: a socket with no busy core drops into
                // the shallow package sleep autonomously while the rest of
                // the server keeps working. (Idle mode keeps socket 0's
                // uncore in PC0 so the server stays fully responsive.)
                let per_socket = self.cfg.cores / self.cfg.sockets;
                let pkg_power: f64 = (0..self.cfg.sockets)
                    .map(|sk| {
                        let lo = (sk * per_socket) as usize;
                        let hi = lo + per_socket as usize;
                        let socket_busy = self.running[lo..hi].iter().any(|r| r.is_some());
                        if socket_busy || (sk == 0 && self.mode == ServerMode::Idle) {
                            p.package.pc0_w
                        } else if self.mode == ServerMode::Idle {
                            p.package.pc2_w
                        } else {
                            // Active server: idle sockets nap in PC2.
                            if self.cfg.sockets == 1 {
                                p.package.pc0_w
                            } else {
                                p.package.pc2_w
                            }
                        }
                    })
                    .sum();
                (
                    busy_power + (n - busy) * idle_w,
                    pkg_power,
                    dram,
                    p.platform.s0_w,
                )
            }
            ServerMode::ShallowSleep => (
                n * p.core.idle_power_w(CoreCState::C6),
                p.package.pc6_w * self.cfg.sockets as f64,
                p.dram.idle_w,
                p.platform.s0_w,
            ),
            ServerMode::Suspending(_) | ServerMode::Resuming => (
                n * p.core.c0_idle_w,
                p.package.pc0_w * self.cfg.sockets as f64,
                p.dram.idle_w,
                p.platform.s0_w,
            ),
            ServerMode::DeepSleep(SystemState::S3) => {
                (0.0, 0.0, p.dram.self_refresh_w, p.platform.s3_w)
            }
            ServerMode::DeepSleep(_) => (0.0, 0.0, 0.0, p.platform.s5_w),
        };
        self.cores_w.set(now, cores);
        self.pkg_w.set(now, pkg);
        self.dram_w.set(now, dram);
        self.platform_w.set(now, platform);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim_workload::ids::JobId;

    fn th(job: u64, ms: u64) -> TaskHandle {
        TaskHandle::new(TaskId::new(JobId(job), 0), SimDuration::from_millis(ms))
    }

    fn active_idle_server(cores: u32) -> Server {
        Server::new(SimTime::ZERO, ServerId(0), ServerConfig::new(cores))
    }

    // Vec-returning wrappers over the EffectBuf driving API keep the
    // state-machine assertions below readable.
    fn submit(s: &mut Server, now: SimTime, t: TaskHandle) -> Vec<Effect> {
        let mut b = EffectBuf::new();
        s.submit(now, t, &mut b);
        b.to_vec()
    }

    fn complete(s: &mut Server, now: SimTime, core: u32) -> (TaskId, Vec<Effect>) {
        let mut b = EffectBuf::new();
        let id = s.complete(now, core, &mut b);
        (id, b.to_vec())
    }

    fn timer_fired(s: &mut Server, now: SimTime, gen: u64) -> Vec<Effect> {
        let mut b = EffectBuf::new();
        s.timer_fired(now, gen, &mut b);
        b.to_vec()
    }

    fn transition_done(s: &mut Server, now: SimTime) -> Vec<Effect> {
        let mut b = EffectBuf::new();
        s.transition_done(now, &mut b);
        b.to_vec()
    }

    /// A control-plane deep-sleep request: a policy that suspends to RAM
    /// the moment the server is idle.
    fn request_deep_sleep(s: &mut Server, now: SimTime) -> Vec<Effect> {
        set_policy(s, now, SleepPolicy::delay_timer(SimDuration::ZERO))
    }

    fn request_wake(s: &mut Server, now: SimTime) -> Vec<Effect> {
        let mut b = EffectBuf::new();
        s.request_wake(now, &mut b);
        b.to_vec()
    }

    fn set_policy(s: &mut Server, now: SimTime, p: SleepPolicy) -> Vec<Effect> {
        let mut b = EffectBuf::new();
        s.set_policy(now, p, &mut b);
        b.to_vec()
    }

    #[test]
    fn submit_starts_task_on_free_core() {
        let mut s = active_idle_server(2);
        let fx = submit(&mut s, SimTime::ZERO, th(1, 10));
        assert_eq!(fx.len(), 1);
        let Effect::TaskStarted {
            core, completes_in, ..
        } = fx[0]
        else {
            panic!()
        };
        assert_eq!(core, 0);
        // 10 ms + C1 wake (2 µs).
        assert_eq!(
            completes_in,
            SimDuration::from_millis(10) + SimDuration::from_micros(2)
        );
        assert_eq!(s.mode(), ServerMode::Active);
        assert_eq!(s.busy_cores(), 1);
    }

    #[test]
    fn excess_tasks_queue_and_chain_on_completion() {
        let mut s = active_idle_server(1);
        submit(&mut s, SimTime::ZERO, th(1, 10));
        let fx = submit(&mut s, SimTime::from_millis(1), th(2, 5));
        assert!(fx.is_empty(), "no free core: queue only");
        assert_eq!(s.queue_len(), 1);
        let (done, fx) = complete(&mut s, SimTime::from_millis(10), 0);
        assert_eq!(done, TaskId::new(JobId(1), 0));
        assert_eq!(fx.len(), 1);
        assert!(matches!(fx[0], Effect::TaskStarted { core: 0, .. }));
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.tasks_completed(), 1);
    }

    #[test]
    fn active_idle_never_arms_timer() {
        let mut s = active_idle_server(1);
        submit(&mut s, SimTime::ZERO, th(1, 10));
        let (_, fx) = complete(&mut s, SimTime::from_millis(10), 0);
        assert!(fx.is_empty());
        assert_eq!(s.mode(), ServerMode::Idle);
    }

    #[test]
    fn delay_timer_descends_to_deep_sleep() {
        let cfg =
            ServerConfig::new(1).with_policy(SleepPolicy::delay_timer(SimDuration::from_secs(1)));
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        submit(&mut s, SimTime::ZERO, th(1, 10));
        let (_, fx) = complete(&mut s, SimTime::from_millis(10), 0);
        let [Effect::ArmTimer { after, gen }] = fx[..] else {
            panic!("{fx:?}")
        };
        assert_eq!(after, SimDuration::from_secs(1));
        let t_fire = SimTime::from_millis(1_010);
        let fx = timer_fired(&mut s, t_fire, gen);
        let [Effect::TransitionDoneIn { after }] = fx[..] else {
            panic!("{fx:?}")
        };
        assert_eq!(after, SimDuration::from_millis(500)); // suspend latency
        assert!(matches!(s.mode(), ServerMode::Suspending(SystemState::S3)));
        let fx = transition_done(&mut s, t_fire + after);
        assert!(fx.is_empty());
        assert_eq!(s.mode(), ServerMode::DeepSleep(SystemState::S3));
        assert_eq!(s.sleep_counts(), (1, 0));
    }

    #[test]
    fn stale_timer_is_ignored() {
        let cfg =
            ServerConfig::new(1).with_policy(SleepPolicy::delay_timer(SimDuration::from_secs(1)));
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        submit(&mut s, SimTime::ZERO, th(1, 10));
        let (_, fx) = complete(&mut s, SimTime::from_millis(10), 0);
        let [Effect::ArmTimer { gen, .. }] = fx[..] else {
            panic!()
        };
        // New work arrives before the timer fires.
        submit(&mut s, SimTime::from_millis(500), th(2, 10));
        let fx = timer_fired(&mut s, SimTime::from_millis(1_010), gen);
        assert!(fx.is_empty());
        assert_eq!(s.mode(), ServerMode::Active);
    }

    #[test]
    fn arrival_during_deep_sleep_triggers_resume() {
        let cfg = ServerConfig::new(1)
            .with_policy(SleepPolicy::delay_timer(SimDuration::from_millis(100)));
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        submit(&mut s, SimTime::ZERO, th(1, 10));
        let (_, fx) = complete(&mut s, SimTime::from_millis(10), 0);
        let [Effect::ArmTimer { gen, .. }] = fx[..] else {
            panic!()
        };
        let fx = timer_fired(&mut s, SimTime::from_millis(110), gen);
        let [Effect::TransitionDoneIn { after }] = fx[..] else {
            panic!()
        };
        let t_asleep = SimTime::from_millis(110) + after;
        transition_done(&mut s, t_asleep);
        // A task arrives while asleep.
        let t_arrive = SimTime::from_secs(10);
        let fx = submit(&mut s, t_arrive, th(2, 10));
        let [Effect::TransitionDoneIn { after }] = fx[..] else {
            panic!("{fx:?}")
        };
        assert_eq!(after, SimDuration::from_secs(4)); // resume latency
        assert_eq!(s.mode(), ServerMode::Resuming);
        // Resume completes: queued task dispatches.
        let fx = transition_done(&mut s, t_arrive + after);
        assert_eq!(fx.len(), 1);
        assert!(matches!(fx[0], Effect::TaskStarted { .. }));
        assert_eq!(s.mode(), ServerMode::Active);
        assert_eq!(s.sleep_counts(), (1, 1));
    }

    #[test]
    fn arrival_during_suspend_queues_then_resumes() {
        let cfg = ServerConfig::new(1)
            .with_policy(SleepPolicy::delay_timer(SimDuration::from_millis(100)));
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        submit(&mut s, SimTime::ZERO, th(1, 10));
        let (_, fx) = complete(&mut s, SimTime::from_millis(10), 0);
        let [Effect::ArmTimer { gen, .. }] = fx[..] else {
            panic!()
        };
        timer_fired(&mut s, SimTime::from_millis(110), gen);
        // Mid-suspend arrival: no new transition event; it queues.
        let fx = submit(&mut s, SimTime::from_millis(200), th(2, 10));
        assert!(fx.is_empty());
        // Suspend finishes at 610 ms → immediately resumes.
        let fx = transition_done(&mut s, SimTime::from_millis(610));
        let [Effect::TransitionDoneIn { after }] = fx[..] else {
            panic!("{fx:?}")
        };
        assert_eq!(after, SimDuration::from_secs(4));
        assert_eq!(s.mode(), ServerMode::Resuming);
    }

    #[test]
    fn shallow_sleep_pads_first_dispatch() {
        let cfg = ServerConfig::new(2).with_policy(SleepPolicy::shallow_only());
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        assert_eq!(s.mode(), ServerMode::ShallowSleep);
        let fx = submit(&mut s, SimTime::ZERO, th(1, 10));
        let [Effect::TaskStarted { completes_in, .. }] = fx[..] else {
            panic!()
        };
        // pkg C6 wake (600 µs) + core C6 wake (200 µs) + 10 ms.
        assert_eq!(
            completes_in,
            SimDuration::from_millis(10) + SimDuration::from_micros(800)
        );
        // Returns to shallow sleep when idle again.
        let (_, _) = complete(&mut s, SimTime::from_millis(11), 0);
        assert_eq!(s.mode(), ServerMode::ShallowSleep);
    }

    #[test]
    fn request_deep_sleep_and_wake_roundtrip() {
        let shallow = SleepPolicy::shallow_only();
        let cfg = ServerConfig::new(1).with_policy(shallow);
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        let fx = request_deep_sleep(&mut s, SimTime::from_secs(1));
        let [Effect::TransitionDoneIn { after }] = fx[..] else {
            panic!()
        };
        transition_done(&mut s, SimTime::from_secs(1) + after);
        assert_eq!(s.mode(), ServerMode::DeepSleep(SystemState::S3));
        // Asleep, a policy swap waits for the next idle descent.
        assert!(set_policy(&mut s, SimTime::from_secs(5), shallow).is_empty());
        let fx = request_wake(&mut s, SimTime::from_secs(10));
        let [Effect::TransitionDoneIn { after }] = fx[..] else {
            panic!()
        };
        let fx = transition_done(&mut s, SimTime::from_secs(10) + after);
        assert!(fx.is_empty());
        // No work: descends straight back per policy.
        assert_eq!(s.mode(), ServerMode::ShallowSleep);
    }

    #[test]
    fn request_deep_sleep_refused_with_work() {
        let mut s = active_idle_server(1);
        submit(&mut s, SimTime::ZERO, th(1, 10));
        let fx = request_deep_sleep(&mut s, SimTime::from_millis(1));
        assert!(fx.is_empty());
        assert_eq!(s.mode(), ServerMode::Active);
    }

    #[test]
    fn per_core_queues_join_shortest() {
        let cfg = ServerConfig {
            queue_mode: LocalQueueMode::PerCore,
            ..ServerConfig::new(2)
        };
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        // Fill both cores, then queue two more: they split across queues.
        submit(&mut s, SimTime::ZERO, th(1, 10));
        submit(&mut s, SimTime::ZERO, th(2, 10));
        submit(&mut s, SimTime::ZERO, th(3, 10));
        submit(&mut s, SimTime::ZERO, th(4, 10));
        assert_eq!(s.queue_len(), 2);
        // Completing core 0 pulls from core 0's own queue.
        let (_, fx) = complete(&mut s, SimTime::from_millis(10), 0);
        assert_eq!(fx.len(), 1);
        assert!(matches!(fx[0], Effect::TaskStarted { core: 0, .. }));
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn power_levels_by_mode() {
        let profile = ServerPowerProfile::xeon_e5_2680();
        let cfg =
            ServerConfig::new(10).with_policy(SleepPolicy::delay_timer(SimDuration::from_secs(1)));
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        let idle_w = s.power_w();
        assert!(
            (idle_w - profile.idle_power_w(10, CoreCState::C1)).abs() < 1e-9,
            "idle {idle_w}"
        );
        // One busy core raises power by (busy − C1) + DRAM step.
        submit(&mut s, SimTime::ZERO, th(1, 10));
        let one_busy = s.power_w();
        assert!(one_busy > idle_w);
        let (_, fx) = complete(&mut s, SimTime::from_millis(10), 0);
        let [Effect::ArmTimer { gen, .. }] = fx[..] else {
            panic!()
        };
        // Deep sleep power is tiny.
        let fx = timer_fired(&mut s, SimTime::from_secs(2), gen);
        let [Effect::TransitionDoneIn { after }] = fx[..] else {
            panic!()
        };
        transition_done(&mut s, SimTime::from_secs(2) + after);
        let sleep_w = s.power_w();
        assert!(
            (sleep_w - (profile.platform.s3_w + profile.dram.self_refresh_w)).abs() < 1e-9,
            "sleep {sleep_w}"
        );
        assert!(sleep_w < idle_w / 10.0);
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let mut s = active_idle_server(4);
        submit(&mut s, SimTime::ZERO, th(1, 100));
        let now = SimTime::from_millis(50);
        let total = s.energy_j(now);
        let parts = s.cpu_energy_j(now) + s.dram_energy_j(now) + s.platform_energy_j(now);
        assert!((total - parts).abs() < 1e-9);
        assert!(total > 0.0);
    }

    #[test]
    fn residency_bands_accumulate() {
        let cfg =
            ServerConfig::new(1).with_policy(SleepPolicy::delay_timer(SimDuration::from_secs(1)));
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        submit(&mut s, SimTime::ZERO, th(1, 1_000));
        complete(&mut s, SimTime::from_secs(1), 0);
        let now = SimTime::from_secs(2);
        let active = s.residency().time_in_through(Band::Active, now);
        let idle = s.residency().time_in_through(Band::Idle, now);
        assert_eq!(active, SimDuration::from_secs(1));
        assert_eq!(idle, SimDuration::from_secs(1));
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut s = active_idle_server(2);
        submit(&mut s, SimTime::ZERO, th(1, 1_000));
        complete(&mut s, SimTime::from_secs(1), 0);
        // 1 of 2 cores busy for 1 s, then idle for 1 s: util = 0.25 at t=2.
        let u = s.utilization(SimTime::from_secs(2));
        assert!((u - 0.25).abs() < 1e-9, "util {u}");
    }

    #[test]
    fn set_policy_reevaluates_idleness() {
        let mut s = active_idle_server(1);
        assert_eq!(s.mode(), ServerMode::Idle);
        let fx = set_policy(
            &mut s,
            SimTime::from_secs(1),
            SleepPolicy::shallow_then_deep(SimDuration::from_secs(5)),
        );
        assert_eq!(s.mode(), ServerMode::ShallowSleep);
        assert!(matches!(fx[..], [Effect::ArmTimer { .. }]));
    }

    #[test]
    fn zero_tau_descends_immediately() {
        let cfg = ServerConfig::new(1).with_policy(SleepPolicy::delay_timer(SimDuration::ZERO));
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        submit(&mut s, SimTime::ZERO, th(1, 10));
        let (_, fx) = complete(&mut s, SimTime::from_millis(10), 0);
        assert!(
            matches!(fx[..], [Effect::TransitionDoneIn { .. }]),
            "{fx:?}"
        );
        assert!(matches!(s.mode(), ServerMode::Suspending(_)));
    }

    #[test]
    #[should_panic(expected = "completion for an idle core")]
    fn complete_on_idle_core_panics() {
        let mut s = active_idle_server(1);
        complete(&mut s, SimTime::ZERO, 0);
    }

    #[test]
    fn heterogeneous_dispatch_prefers_fast_cores() {
        // Core 1 is the "big" core (2x); it must be chosen first.
        let cfg = ServerConfig {
            core_speeds: vec![0.5, 2.0],
            ..ServerConfig::new(2)
        };
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        let fx = submit(&mut s, SimTime::ZERO, th(1, 10));
        let [Effect::TaskStarted {
            core, completes_in, ..
        }] = fx[..]
        else {
            panic!()
        };
        assert_eq!(core, 1);
        // 10 ms at 2x speed = 5 ms (+ C1 wake pad).
        assert_eq!(
            completes_in,
            SimDuration::from_millis(5) + SimDuration::from_micros(2)
        );
        // Second task lands on the little core and runs 2x slower.
        let fx = submit(&mut s, SimTime::ZERO, th(2, 10));
        let [Effect::TaskStarted {
            core, completes_in, ..
        }] = fx[..]
        else {
            panic!()
        };
        assert_eq!(core, 0);
        assert_eq!(completes_in, SimDuration::from_millis(20));
    }

    #[test]
    fn heterogeneous_busy_power_scales_quadratically() {
        let profile = ServerPowerProfile::xeon_e5_2680();
        let cfg = ServerConfig {
            core_speeds: vec![1.0, 2.0],
            ..ServerConfig::new(2)
        };
        let mut s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        let idle = s.power_w();
        submit(&mut s, SimTime::ZERO, th(1, 10)); // big core first: 4x busy power
        let big = s.power_w() - idle;
        submit(&mut s, SimTime::ZERO, th(2, 10)); // little core: 1x busy power
        let both = s.power_w() - idle;
        let busy_w = profile.core.c0_busy_w;
        let idle_c1 = profile
            .core
            .idle_power_w(holdcsim_power::states::CoreCState::C1);
        // First dispatch adds 4*busy - c1 idle + DRAM step.
        let dram_step = profile.dram.active_w - profile.dram.idle_w;
        assert!(
            (big - (4.0 * busy_w - idle_c1 + dram_step)).abs() < 1e-9,
            "big {big}"
        );
        assert!(
            ((both - big) - (busy_w - idle_c1)).abs() < 1e-9,
            "delta {}",
            both - big
        );
    }

    #[test]
    fn homogeneous_core_speed_defaults_to_one() {
        let s = active_idle_server(2);
        assert_eq!(s.core_speed(0), 1.0);
        assert_eq!(s.core_speed(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "core_speeds must be empty or one per core")]
    fn mismatched_core_speeds_rejected() {
        let cfg = ServerConfig {
            core_speeds: vec![1.0, 2.0],
            ..ServerConfig::new(4)
        };
        Server::new(SimTime::ZERO, ServerId(0), cfg);
    }

    #[test]
    #[should_panic(expected = "core speeds must be positive")]
    fn zero_core_speed_rejected() {
        let cfg = ServerConfig {
            core_speeds: vec![1.0, 0.0],
            ..ServerConfig::new(2)
        };
        Server::new(SimTime::ZERO, ServerId(0), cfg);
    }

    #[test]
    fn idle_socket_naps_in_pc2_while_other_works() {
        let profile = ServerPowerProfile::xeon_e5_2680();
        // 2 sockets x 2 cores; one task occupies socket 0 only.
        let cfg = ServerConfig {
            sockets: 2,
            ..ServerConfig::new(4)
        };
        let mut dual = Server::new(SimTime::ZERO, ServerId(0), cfg);
        submit(&mut dual, SimTime::ZERO, th(1, 10));
        let cfg1 = ServerConfig::new(4);
        let mut single = Server::new(SimTime::ZERO, ServerId(1), cfg1);
        submit(&mut single, SimTime::ZERO, th(1, 10));
        // Dual socket: pc0 (busy socket) + pc2 (napping socket);
        // single socket: pc0. Everything else matches.
        let delta = dual.power_w() - single.power_w();
        assert!(
            (delta - profile.package.pc2_w).abs() < 1e-9,
            "expected one extra PC2 uncore, got {delta}"
        );
        // Loading the second socket raises it to PC0.
        submit(&mut dual, SimTime::ZERO, th(2, 10));
        submit(&mut dual, SimTime::ZERO, th(3, 10)); // fills socket 0, spills to 1
        let both_busy = dual.power_w() - single.power_w();
        assert!(
            both_busy > delta,
            "second socket should wake: {both_busy} vs {delta}"
        );
    }

    #[test]
    fn shallow_sleep_gates_all_sockets() {
        let profile = ServerPowerProfile::xeon_e5_2680();
        let cfg = ServerConfig {
            sockets: 2,
            ..ServerConfig::new(4)
        }
        .with_policy(SleepPolicy::shallow_only());
        let s = Server::new(SimTime::ZERO, ServerId(0), cfg);
        let expected = profile.platform.s0_w
            + profile.dram.idle_w
            + 2.0 * profile.package.pc6_w
            + 4.0 * profile.core.c6_w;
        assert!(
            (s.power_w() - expected).abs() < 1e-9,
            "power {}",
            s.power_w()
        );
    }

    #[test]
    #[should_panic(expected = "cores must split evenly")]
    fn uneven_socket_split_rejected() {
        let cfg = ServerConfig {
            sockets: 2,
            ..ServerConfig::new(3)
        };
        Server::new(SimTime::ZERO, ServerId(0), cfg);
    }

    #[test]
    fn fail_kills_work_and_powers_off() {
        let profile = ServerPowerProfile::xeon_e5_2680();
        let mut s = active_idle_server(2);
        submit(&mut s, SimTime::ZERO, th(1, 10));
        submit(&mut s, SimTime::ZERO, th(2, 10));
        submit(&mut s, SimTime::ZERO, th(3, 10)); // queued
        let mut killed = Vec::new();
        s.fail(SimTime::from_millis(1), &mut killed);
        assert_eq!(killed.len(), 3);
        assert_eq!(s.mode(), ServerMode::DeepSleep(SystemState::S5));
        assert_eq!(s.busy_cores(), 0);
        assert_eq!(s.queue_len(), 0);
        assert!(
            (s.power_w() - profile.platform.s5_w).abs() < 1e-9,
            "crashed server draws S5 power, got {}",
            s.power_w()
        );
        // Recovery: a wake request resumes like any deep-sleep exit.
        let fx = request_wake(&mut s, SimTime::from_secs(1));
        assert!(matches!(fx[..], [Effect::TransitionDoneIn { .. }]));
    }

    #[test]
    fn fault_speed_slows_new_tasks_only() {
        let mut s = active_idle_server(2);
        s.set_fault_speed(0.5);
        let fx = submit(&mut s, SimTime::ZERO, th(1, 10));
        let [Effect::TaskStarted { completes_in, .. }] = fx[..] else {
            panic!("{fx:?}")
        };
        // 10 ms at half speed = 20 ms (+ C1 wake pad on first dispatch).
        assert_eq!(
            completes_in,
            SimDuration::from_millis(20) + SimDuration::from_micros(2)
        );
        s.set_fault_speed(1.0);
        let fx = submit(&mut s, SimTime::ZERO, th(2, 10));
        let [Effect::TaskStarted { completes_in, .. }] = fx[..] else {
            panic!("{fx:?}")
        };
        assert_eq!(completes_in, SimDuration::from_millis(10));
    }
}
