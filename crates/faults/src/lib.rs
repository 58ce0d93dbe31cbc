//! Deterministic fault schedules for the simulator: scripted and
//! MTBF/MTTR-drawn component failures, plus the retry policy the driver
//! applies when a fault kills in-flight work and the [`Outages`] ledger
//! it keeps downtime in.
//!
//! A [`FaultPlan`] is pure configuration — parsing and materializing it
//! performs no side effects, and all randomness flows through a
//! [`SimRng`] substream derived from [`FAULT_STREAM`], so the same plan
//! against the same seed always yields the same concrete event list
//! regardless of thread count or federation worker count. An empty plan
//! is the explicit "no faults" value: drivers skip every fault code path
//! and produce bitwise-identical reports to a plan-less run.

use holdcsim_des::rng::SimRng;
use holdcsim_des::time::{SimDuration, SimTime};

/// RNG substream id for fault schedules: `root.substream_path(&[FAULT_STREAM, ..])`.
pub const FAULT_STREAM: u64 = 0xFA17;

/// One typed fault (or recovery) against a numbered component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Server crashes: in-flight and queued tasks are killed and re-dispatched.
    ServerCrash {
        /// Target server index.
        server: u32,
    },
    /// Crashed server comes back (wakes through the normal resume path).
    ServerRecover {
        /// Target server index.
        server: u32,
    },
    /// Server degrades: tasks started while degraded run at `factor` speed.
    ServerStraggle {
        /// Target server index.
        server: u32,
        /// Execution speed multiplier in `(0, 1]` (0.5 = half speed).
        factor: f64,
    },
    /// Straggler interval ends; the server returns to full speed.
    ServerStraggleEnd {
        /// Target server index.
        server: u32,
    },
    /// Fabric switch dies: routes through it break, crossing work retries.
    SwitchDown {
        /// Switch index (into the topology's switch list).
        switch: u32,
    },
    /// Fabric switch returns.
    SwitchUp {
        /// Switch index.
        switch: u32,
    },
    /// Fabric link dies.
    LinkDown {
        /// Link index.
        link: u32,
    },
    /// Fabric link returns.
    LinkUp {
        /// Link index.
        link: u32,
    },
    /// WAN link dies: inter-site paths recompute, in-flight hops restart.
    WanLinkDown {
        /// WAN link index (into the cluster's WAN link list).
        link: u32,
    },
    /// WAN link returns.
    WanLinkUp {
        /// WAN link index.
        link: u32,
    },
}

impl FaultKind {
    /// `true` for the recovery half of a fault pair.
    pub fn is_recovery(self) -> bool {
        matches!(
            self,
            FaultKind::ServerRecover { .. }
                | FaultKind::ServerStraggleEnd { .. }
                | FaultKind::SwitchUp { .. }
                | FaultKind::LinkUp { .. }
                | FaultKind::WanLinkUp { .. }
        )
    }

    /// `true` for WAN-scoped faults (handled by the federation
    /// coordinator, not a site's own event loop).
    pub fn is_wan(self) -> bool {
        matches!(
            self,
            FaultKind::WanLinkDown { .. } | FaultKind::WanLinkUp { .. }
        )
    }
}

/// A concrete fault instant: offset from the run start, kind, and owning
/// site (0 for standalone runs; federated plans prefix entries with
/// `site<k>.` to target a specific site).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Offset from simulation start.
    pub at: SimDuration,
    /// What fails (or recovers).
    pub kind: FaultKind,
    /// Owning site (ignored for WAN faults, which are federation-global).
    pub site: u32,
}

/// How killed work is re-dispatched: bounded retries with exponential
/// backoff applied as a sim-time delay before re-placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per job before it is abandoned.
    pub max_retries: u32,
    /// Delay before the first re-dispatch.
    pub backoff: SimDuration,
    /// Backoff multiplier per subsequent retry.
    pub backoff_mult: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: SimDuration::from_millis(10),
            backoff_mult: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based):
    /// `backoff * mult^(attempt-1)`, exponent capped to keep the delay finite.
    pub fn delay(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(30) as i32;
        let ns = self.backoff.as_nanos() as f64 * self.backoff_mult.powi(exp);
        SimDuration::from_nanos(ns.round() as u64)
    }
}

/// Which of `n` numbered components are down, since when, and their
/// summed completed downtime — the outage ledger behind every downtime
/// figure in a resilience report.
#[derive(Debug, Clone)]
pub struct Outages {
    /// Per-component down stamp (`Some` while down).
    since: Vec<Option<SimTime>>,
    /// Components currently down.
    down: usize,
    /// Completed outages, seconds.
    closed_s: f64,
}

impl Outages {
    /// A ledger over `n` components, all up.
    pub fn new(n: usize) -> Self {
        Outages {
            since: vec![None; n],
            down: 0,
            closed_s: 0.0,
        }
    }

    /// Marks component `i` down at `now`. Returns `false` (and changes
    /// nothing) when `i` is unknown or already down.
    pub fn fail(&mut self, i: usize, now: SimTime) -> bool {
        let Some(slot @ None) = self.since.get_mut(i) else {
            return false;
        };
        *slot = Some(now);
        self.down += 1;
        true
    }

    /// Marks component `i` up at `now`, closing its outage. Returns
    /// `false` (and changes nothing) when `i` is unknown or already up.
    pub fn recover(&mut self, i: usize, now: SimTime) -> bool {
        let Some(t) = self.since.get_mut(i).and_then(Option::take) else {
            return false;
        };
        self.down -= 1;
        self.closed_s += now.saturating_duration_since(t).as_secs_f64();
        true
    }

    /// `true` while component `i` is down.
    pub fn is_down(&self, i: usize) -> bool {
        self.since.get(i).is_some_and(Option::is_some)
    }

    /// Components currently down.
    pub fn down_count(&self) -> usize {
        self.down
    }

    /// Summed downtime as of `end`: completed outages plus every open one
    /// counted up to `end`.
    pub fn downtime_s(&self, end: SimTime) -> f64 {
        self.since.iter().flatten().fold(self.closed_s, |acc, &t| {
            acc + end.saturating_duration_since(t).as_secs_f64()
        })
    }
}

/// How many of each component a run has — the bounds
/// [`FaultPlan::check_targets`] holds a plan's targets to. The fabric and
/// server counts hold for every site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Components {
    /// Sites (1 for a standalone run).
    pub sites: usize,
    /// Servers per site.
    pub servers: usize,
    /// Fabric switches per site (0 without a fabric).
    pub switches: usize,
    /// Fabric links per site (0 without a fabric).
    pub links: usize,
    /// WAN links (0 for a standalone run).
    pub wan_links: usize,
}

/// An MTBF/MTTR arm: one server alternates exponential up/down intervals
/// drawn from the fault RNG substream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomFaults {
    /// Owning site.
    pub site: u32,
    /// Target server index.
    pub server: u32,
    /// Mean time between failures.
    pub mtbf: SimDuration,
    /// Mean time to repair.
    pub mttr: SimDuration,
}

/// A deterministic fault schedule: scripted events, optional MTBF/MTTR
/// arms, and the retry policy for killed work.
///
/// # Examples
///
/// ```
/// use holdcsim_faults::{FaultKind, FaultPlan};
/// use holdcsim_des::time::SimDuration;
///
/// let plan = FaultPlan::parse("crash@2s:3; recover@4s:3; retry:max=5,backoff=20ms,mult=2").unwrap();
/// assert_eq!(plan.events.len(), 2);
/// assert_eq!(plan.retry.max_retries, 5);
/// assert!(matches!(plan.events[0].kind, FaultKind::ServerCrash { server: 3 }));
/// assert_eq!(plan.events[0].at, SimDuration::from_secs(2));
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::default().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Scripted fault instants.
    pub events: Vec<FaultEvent>,
    /// MTBF/MTTR arms expanded at materialization time.
    pub random: Vec<RandomFaults>,
    /// Retry policy for work killed by a fault.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// `true` when the plan injects nothing (drivers then skip every fault
    /// code path, keeping reports bitwise identical to a plan-less run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.random.is_empty()
    }

    /// Parses a plan spec: entries separated by `;` or newlines, `#`
    /// comment lines skipped. Entry forms (`<t>` is a duration like `2s`,
    /// `500ms`, `10us`):
    ///
    /// - `crash@<t>:<server>` / `recover@<t>:<server>`
    /// - `straggle@<t>:<server>,<factor>,<duration>` (expands to a
    ///   start/end pair)
    /// - `switch-down@<t>:<switch>` / `switch-up@<t>:<switch>`
    /// - `link-down@<t>:<link>` / `link-up@<t>:<link>`
    /// - `wan-down@<t>:<link>` / `wan-up@<t>:<link>`
    /// - `mtbf:server=<id>,mtbf=<t>,mttr=<t>` (random arm)
    /// - `retry:max=<n>,backoff=<t>,mult=<f>`
    ///
    /// Any entry may carry a `site<k>.` prefix to target site `k` of a
    /// federation (e.g. `site1.crash@2s:0`).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for raw in spec.split([';', '\n']) {
            let mut e = raw.trim();
            if e.is_empty() || e.starts_with('#') {
                continue;
            }
            let mut site = 0u32;
            if let Some(rest) = e.strip_prefix("site") {
                if let Some((num, tail)) = rest.split_once('.') {
                    site = num
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad site index in `{raw}`"))?;
                    e = tail;
                }
            }
            if let Some(rest) = e.strip_prefix("retry:") {
                plan.retry = parse_retry(rest)?;
            } else if let Some(rest) = e.strip_prefix("mtbf:") {
                plan.random.push(parse_mtbf(rest, site)?);
            } else {
                parse_event(e, site, &mut plan.events)?;
            }
        }
        Ok(plan)
    }

    /// The non-WAN entries owned by `site`, with site fields cleared —
    /// the sub-plan a federation hands to that site's standalone config.
    pub fn for_site(&self, site: u32) -> FaultPlan {
        FaultPlan {
            events: self
                .events
                .iter()
                .filter(|e| !e.kind.is_wan() && e.site == site)
                .map(|e| FaultEvent { site: 0, ..*e })
                .collect(),
            random: self
                .random
                .iter()
                .filter(|r| r.site == site)
                .map(|r| RandomFaults { site: 0, ..*r })
                .collect(),
            retry: self.retry,
        }
    }

    /// Checks that every entry names a component `run` has: a site, a
    /// server, a fabric switch or link, or a WAN link. The simulator
    /// treats an out-of-range target as a no-op, so front ends call this
    /// to reject such a plan instead of running it silently fault-free.
    pub fn check_targets(&self, run: &Components) -> Result<(), String> {
        let check = |what: &str, i: u32, have: usize| {
            if (i as usize) < have {
                return Ok(());
            }
            let s = match (have, what.ends_with("ch")) {
                (1, _) => "",
                (_, true) => "es",
                _ => "s",
            };
            Err(format!(
                "fault plan targets {what} {i}, but the run has {have} {what}{s}"
            ))
        };
        for e in &self.events {
            // WAN faults are federation-global: their site is ignored.
            if !e.kind.is_wan() {
                check("site", e.site, run.sites)?;
            }
            match e.kind {
                FaultKind::ServerCrash { server }
                | FaultKind::ServerRecover { server }
                | FaultKind::ServerStraggle { server, .. }
                | FaultKind::ServerStraggleEnd { server } => check("server", server, run.servers)?,
                FaultKind::SwitchDown { switch } | FaultKind::SwitchUp { switch } => {
                    check("switch", switch, run.switches)?
                }
                FaultKind::LinkDown { link } | FaultKind::LinkUp { link } => {
                    check("link", link, run.links)?
                }
                FaultKind::WanLinkDown { link } | FaultKind::WanLinkUp { link } => {
                    check("WAN link", link, run.wan_links)?
                }
            }
        }
        for r in &self.random {
            check("site", r.site, run.sites)?;
            check("server", r.server, run.servers)?;
        }
        Ok(())
    }

    /// The WAN-scoped scripted events, sorted by time (stable on ties).
    pub fn wan_events(&self) -> Vec<FaultEvent> {
        let mut ev: Vec<FaultEvent> = self
            .events
            .iter()
            .filter(|e| e.kind.is_wan())
            .copied()
            .collect();
        ev.sort_by_key(|e| e.at);
        ev
    }

    /// Expands the plan into a concrete, time-sorted event list over
    /// `[0, horizon]`: scripted events plus exponential up/down intervals
    /// drawn per MTBF arm from `rng` (derive it via
    /// `root.substream_path(&[FAULT_STREAM])` so schedules are independent
    /// of every other stream). WAN events are excluded — the federation
    /// coordinator owns those.
    pub fn materialize(&self, horizon: SimDuration, rng: &SimRng) -> Vec<FaultEvent> {
        let mut out: Vec<FaultEvent> = self
            .events
            .iter()
            .filter(|e| !e.kind.is_wan() && e.at <= horizon)
            .copied()
            .collect();
        for (i, arm) in self.random.iter().enumerate() {
            // One substream per arm: draws are independent of other arms.
            let mut r = rng.substream_path(&[i as u64]);
            let mut t = 0.0f64;
            let end = horizon.as_secs_f64();
            let (up_rate, down_rate) = (
                1.0 / arm.mtbf.as_secs_f64().max(1e-9),
                1.0 / arm.mttr.as_secs_f64().max(1e-9),
            );
            loop {
                t += r.exp(up_rate);
                if t >= end {
                    break;
                }
                out.push(FaultEvent {
                    at: SimDuration::from_secs_f64(t),
                    kind: FaultKind::ServerCrash { server: arm.server },
                    site: arm.site,
                });
                t += r.exp(down_rate);
                if t >= end {
                    break;
                }
                out.push(FaultEvent {
                    at: SimDuration::from_secs_f64(t),
                    kind: FaultKind::ServerRecover { server: arm.server },
                    site: arm.site,
                });
            }
        }
        // Stable: scripted order first, then arm order, on equal instants.
        out.sort_by_key(|e| e.at);
        out
    }
}

/// Parses `spec` as a plan, or — when it names a readable file — parses
/// the file's contents (the CLI's `--faults <spec|file>` form).
pub fn load_plan(spec_or_path: &str) -> Result<FaultPlan, String> {
    match std::fs::read_to_string(spec_or_path) {
        Ok(text) => FaultPlan::parse(&text),
        Err(_) => FaultPlan::parse(spec_or_path),
    }
}

/// Parses a duration literal: number (decimals allowed) + `ns`/`us`/`ms`/`s`.
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    let (num, scale_ns) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = s.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1e9)
    } else {
        return Err(format!("duration `{s}` needs a unit (ns/us/ms/s)"));
    };
    let x: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration `{s}`"))?;
    if !x.is_finite() || x < 0.0 {
        return Err(format!("duration `{s}` must be finite and non-negative"));
    }
    Ok(SimDuration::from_nanos((x * scale_ns).round() as u64))
}

fn parse_event(e: &str, site: u32, out: &mut Vec<FaultEvent>) -> Result<(), String> {
    let (head, tail) = e
        .split_once('@')
        .ok_or_else(|| format!("entry `{e}` is not `<kind>@<time>:<target>`"))?;
    let (time, target) = tail
        .split_once(':')
        .ok_or_else(|| format!("entry `{e}` is missing `:<target>`"))?;
    let at = parse_duration(time)?;
    let head = head.trim();
    let idx = |t: &str| -> Result<u32, String> {
        t.trim()
            .parse()
            .map_err(|_| format!("bad target index in `{e}`"))
    };
    let kind = match head {
        "crash" => FaultKind::ServerCrash {
            server: idx(target)?,
        },
        "recover" => FaultKind::ServerRecover {
            server: idx(target)?,
        },
        "straggle" => {
            let mut parts = target.splitn(3, ',');
            let server = idx(parts.next().unwrap_or(""))?;
            let factor: f64 = parts
                .next()
                .ok_or_else(|| format!("straggle in `{e}` needs `<server>,<factor>,<dur>`"))?
                .trim()
                .parse()
                .map_err(|_| format!("bad straggle factor in `{e}`"))?;
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(format!("straggle factor in `{e}` must be in (0, 1]"));
            }
            let dur = parse_duration(
                parts
                    .next()
                    .ok_or_else(|| format!("straggle in `{e}` needs a duration"))?,
            )?;
            out.push(FaultEvent {
                at,
                kind: FaultKind::ServerStraggle { server, factor },
                site,
            });
            out.push(FaultEvent {
                at: at + dur,
                kind: FaultKind::ServerStraggleEnd { server },
                site,
            });
            return Ok(());
        }
        "switch-down" => FaultKind::SwitchDown {
            switch: idx(target)?,
        },
        "switch-up" => FaultKind::SwitchUp {
            switch: idx(target)?,
        },
        "link-down" => FaultKind::LinkDown { link: idx(target)? },
        "link-up" => FaultKind::LinkUp { link: idx(target)? },
        "wan-down" => FaultKind::WanLinkDown { link: idx(target)? },
        "wan-up" => FaultKind::WanLinkUp { link: idx(target)? },
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    out.push(FaultEvent { at, kind, site });
    Ok(())
}

fn parse_retry(rest: &str) -> Result<RetryPolicy, String> {
    let mut r = RetryPolicy::default();
    for kv in rest.split(',') {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("retry option `{kv}` is not `key=value`"))?;
        match k.trim() {
            "max" => {
                r.max_retries = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad retry max `{v}`"))?
            }
            "backoff" => r.backoff = parse_duration(v)?,
            "mult" => {
                let m: f64 = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad retry mult `{v}`"))?;
                if !(m >= 1.0 && m.is_finite()) {
                    return Err(format!("retry mult `{v}` must be >= 1"));
                }
                r.backoff_mult = m;
            }
            other => return Err(format!("unknown retry option `{other}`")),
        }
    }
    Ok(r)
}

fn parse_mtbf(rest: &str, site: u32) -> Result<RandomFaults, String> {
    let (mut server, mut mtbf, mut mttr) = (None, None, None);
    for kv in rest.split(',') {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("mtbf option `{kv}` is not `key=value`"))?;
        match k.trim() {
            "server" => {
                server = Some(
                    v.trim()
                        .parse()
                        .map_err(|_| format!("bad mtbf server `{v}`"))?,
                )
            }
            "mtbf" => mtbf = Some(parse_duration(v)?),
            "mttr" => mttr = Some(parse_duration(v)?),
            other => return Err(format!("unknown mtbf option `{other}`")),
        }
    }
    Ok(RandomFaults {
        site,
        server: server.ok_or("mtbf arm needs server=<id>")?,
        mtbf: mtbf.ok_or("mtbf arm needs mtbf=<dur>")?,
        mttr: mttr.ok_or("mtbf arm needs mttr=<dur>")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scripted_events_and_retry() {
        let p = FaultPlan::parse(
            "crash@2s:3;recover@4s:3\nswitch-down@1500ms:2; switch-up@2500ms:2;\
             retry:max=2,backoff=5ms,mult=3",
        )
        .unwrap();
        assert_eq!(p.events.len(), 4);
        assert_eq!(p.retry.max_retries, 2);
        assert_eq!(p.retry.backoff, SimDuration::from_millis(5));
        assert_eq!(p.retry.backoff_mult, 3.0);
        assert_eq!(p.events[2].at, SimDuration::from_millis(1500));
        assert!(matches!(
            p.events[2].kind,
            FaultKind::SwitchDown { switch: 2 }
        ));
    }

    #[test]
    fn straggle_expands_to_pair() {
        let p = FaultPlan::parse("straggle@1s:5,0.25,2s").unwrap();
        assert_eq!(p.events.len(), 2);
        assert!(
            matches!(p.events[0].kind, FaultKind::ServerStraggle { server: 5, factor } if factor == 0.25)
        );
        assert_eq!(p.events[1].at, SimDuration::from_secs(3));
        assert!(matches!(
            p.events[1].kind,
            FaultKind::ServerStraggleEnd { server: 5 }
        ));
    }

    #[test]
    fn site_prefix_and_for_site_split() {
        let p =
            FaultPlan::parse("site1.crash@2s:0; crash@3s:1; wan-down@1s:0; wan-up@5s:0").unwrap();
        let s0 = p.for_site(0);
        let s1 = p.for_site(1);
        assert_eq!(s0.events.len(), 1);
        assert_eq!(s1.events.len(), 1);
        assert_eq!(s1.events[0].site, 0, "site field cleared in sub-plan");
        assert_eq!(p.wan_events().len(), 2);
        assert!(p.wan_events()[0].at < p.wan_events()[1].at);
    }

    #[test]
    fn mtbf_arm_materializes_deterministically() {
        let p = FaultPlan::parse("mtbf:server=0,mtbf=2s,mttr=500ms").unwrap();
        let rng = SimRng::seed_from(42).substream_path(&[FAULT_STREAM]);
        let a = p.materialize(SimDuration::from_secs(60), &rng);
        let b = p.materialize(SimDuration::from_secs(60), &rng);
        assert_eq!(a, b);
        assert!(a.len() > 10, "60s / ~2.5s cycle should fire repeatedly");
        // Alternating crash/recover, sorted by time.
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(matches!(a[0].kind, FaultKind::ServerCrash { server: 0 }));
        assert!(matches!(a[1].kind, FaultKind::ServerRecover { server: 0 }));
    }

    #[test]
    fn empty_plan_materializes_empty_without_rng_draws() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        let rng = SimRng::seed_from(1);
        assert!(p.materialize(SimDuration::from_secs(10), &rng).is_empty());
    }

    #[test]
    fn retry_delay_grows_exponentially() {
        let r = RetryPolicy {
            max_retries: 5,
            backoff: SimDuration::from_millis(10),
            backoff_mult: 2.0,
        };
        assert_eq!(r.delay(1), SimDuration::from_millis(10));
        assert_eq!(r.delay(2), SimDuration::from_millis(20));
        assert_eq!(r.delay(3), SimDuration::from_millis(40));
    }

    #[test]
    fn duration_units_parse() {
        assert_eq!(parse_duration("2s").unwrap(), SimDuration::from_secs(2));
        assert_eq!(
            parse_duration("1.5ms").unwrap(),
            SimDuration::from_micros(1500)
        );
        assert_eq!(
            parse_duration("250ns").unwrap(),
            SimDuration::from_nanos(250)
        );
        assert!(parse_duration("5").is_err());
        assert!(parse_duration("-1s").is_err());
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(FaultPlan::parse("explode@1s:0").is_err());
        assert!(FaultPlan::parse("crash@1s").is_err());
        assert!(FaultPlan::parse("straggle@1s:0,1.5,1s").is_err());
        assert!(FaultPlan::parse("retry:max=x").is_err());
        assert!(FaultPlan::parse("mtbf:server=0,mtbf=1s").is_err());
    }

    #[test]
    fn outages_track_state_and_accumulate_downtime() {
        let t = SimTime::from_millis;
        let mut o = Outages::new(3);
        assert!(o.fail(1, t(100)));
        assert!(!o.fail(1, t(150)), "already down");
        assert!(!o.fail(3, t(150)), "unknown component");
        assert!(!o.recover(0, t(150)), "already up");
        assert!(o.fail(2, t(200)));
        assert!(o.is_down(1) && o.is_down(2) && !o.is_down(0) && !o.is_down(9));
        assert_eq!(o.down_count(), 2);
        assert!(o.recover(1, t(400)));
        assert_eq!(o.down_count(), 1);
        // 300 ms closed on component 1, plus component 2 open since 200 ms.
        assert!((o.downtime_s(t(1000)) - 1.1).abs() < 1e-12);
        assert!((o.downtime_s(t(400)) - 0.5).abs() < 1e-12);
        assert_eq!(Outages::new(0).downtime_s(t(5)), 0.0);
    }

    #[test]
    fn check_targets_rejects_missing_components() {
        let run = Components {
            sites: 2,
            servers: 16,
            switches: 4,
            links: 32,
            wan_links: 1,
        };
        let check = |spec: &str| FaultPlan::parse(spec).unwrap().check_targets(&run);
        check(
            "crash@1s:15; straggle@1s:0,0.5,1s; switch-down@1s:3; link-up@1s:31; \
             wan-down@1s:0; site1.mtbf:server=15,mtbf=1s,mttr=1s; site9.wan-up@2s:0",
        )
        .unwrap();
        for (spec, what) in [
            ("crash@1s:16", "server 16"),
            ("recover@1s:999", "server 999"),
            ("straggle@1s:20,0.5,1s", "server 20"),
            ("switch-up@1s:4", "switch 4"),
            ("link-down@1s:32", "link 32"),
            ("wan-down@1s:1", "WAN link 1"),
            ("mtbf:server=99,mtbf=1s,mttr=1s", "server 99"),
            ("site2.crash@1s:0", "site 2"),
            ("site3.mtbf:server=0,mtbf=1s,mttr=1s", "site 3"),
        ] {
            let err = check(spec).unwrap_err();
            assert!(err.contains(what), "{spec}: {err}");
        }
        assert!(FaultPlan::default()
            .check_targets(&Components::default())
            .is_ok());
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let p = FaultPlan::parse("# storm scenario\n\ncrash@1s:0\n# done\n").unwrap();
        assert_eq!(p.events.len(), 1);
    }
}
