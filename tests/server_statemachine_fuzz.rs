//! Property-style fuzzing of the server state machine: random but
//! causally-valid operation sequences must never panic, and the
//! accounting invariants must hold at every step. Cases are drawn from
//! the kernel's deterministic [`SimRng`] so every failure reproduces
//! from the fixed seed.

use holdcsim_des::rng::SimRng;
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_power::server_profile::ServerPowerProfile;
use holdcsim_server::policy::SleepPolicy;
use holdcsim_server::server::{Band, Effect, LocalQueueMode, Server, ServerConfig, ServerMode};
use holdcsim_server::task::TaskHandle;
use holdcsim_workload::ids::{JobId, TaskId};

/// A pending obligation the driver owes the server.
#[derive(Debug, Clone, Copy)]
enum Due {
    Complete { at: SimTime, core: u32 },
    Timer { at: SimTime, gen: u64 },
    Transition { at: SimTime },
}

impl Due {
    fn at(&self) -> SimTime {
        match *self {
            Due::Complete { at, .. } | Due::Timer { at, .. } | Due::Transition { at } => at,
        }
    }
}

fn policy_from(i: u8) -> SleepPolicy {
    match i % 4 {
        0 => SleepPolicy::active_idle(),
        1 => SleepPolicy::delay_timer(SimDuration::from_millis(50)),
        2 => SleepPolicy::shallow_only(),
        _ => SleepPolicy::shallow_then_deep(SimDuration::from_millis(30)),
    }
}

/// Drive a server with an arbitrary interleaving of submissions and
/// due-event deliveries; assert it never wedges and its books balance.
#[test]
fn random_op_sequences_keep_invariants() {
    let mut rng = SimRng::seed_from(0x5EED_F022);
    for _case in 0..64 {
        let policy_sel = rng.below(4) as u8;
        let cores = 1 + rng.below(3) as u32;
        let ops_n = 1 + rng.below(119) as usize;
        let ops: Vec<(u8, u64)> = (0..ops_n)
            .map(|_| (rng.below(4) as u8, 1 + rng.below(39)))
            .collect();

        let profile = ServerPowerProfile::xeon_e5_2680();
        let cfg = ServerConfig {
            cores,
            pstate: profile.pstates.len() - 1,
            profile,
            queue_mode: LocalQueueMode::Unified,
            policy: policy_from(policy_sel),
            core_speeds: Vec::new(),
            sockets: 1,
        };
        let mut server = Server::new(SimTime::ZERO, cfg);
        let mut now = SimTime::ZERO;
        let mut due: Vec<Due> = Vec::new();
        let mut fx = Vec::new();
        let mut job = 0u64;
        let mut submitted = 0u64;

        let absorb = |fx: &[Effect], now: SimTime, due: &mut Vec<Due>| {
            for &e in fx {
                match e {
                    Effect::TaskStarted {
                        core, completes_in, ..
                    } => {
                        due.push(Due::Complete {
                            at: now + completes_in,
                            core,
                        });
                    }
                    Effect::ArmTimer { after, gen } => {
                        due.push(Due::Timer {
                            at: now + after,
                            gen,
                        });
                    }
                    Effect::TransitionDoneIn { after } => {
                        due.push(Due::Transition { at: now + after });
                    }
                }
            }
        };

        for (kind, step_ms) in ops {
            now += SimDuration::from_millis(step_ms);
            if kind == 0 || due.is_empty() {
                // Submit a fresh task.
                job += 1;
                submitted += 1;
                let t = TaskHandle {
                    id: TaskId::new(JobId(job), 0),
                    service: SimDuration::from_millis(5),
                    intensity: 1.0,
                };
                server.submit(now, t, &mut fx);
                absorb(&fx, now, &mut due);
            } else {
                // Deliver the earliest obligation (events fire in order).
                let idx = due
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, d)| d.at())
                    .map(|(i, _)| i)
                    .expect("nonempty");
                let d = due.swap_remove(idx);
                now = now.max(d.at());
                match d {
                    Due::Complete { core, .. } => {
                        server.complete(now, core, &mut fx);
                        absorb(&fx, now, &mut due);
                    }
                    Due::Timer { gen, .. } => {
                        server.timer_fired(now, gen, &mut fx);
                        absorb(&fx, now, &mut due);
                    }
                    Due::Transition { .. } => {
                        server.transition_done(now, &mut fx);
                        absorb(&fx, now, &mut due);
                    }
                }
            }

            // --- invariants after every step ---
            assert!(server.busy_cores() <= server.core_count());
            assert!(server.power_w() >= 0.0);
            let bands: f64 = [
                Band::Active,
                Band::Transition,
                Band::Idle,
                Band::ShallowSleep,
                Band::DeepSleep,
            ]
            .iter()
            .map(|&b| server.residency().fraction_in(b, now))
            .sum();
            if now > SimTime::ZERO {
                assert!((bands - 1.0).abs() < 1e-9, "bands sum {bands}");
            }
            // Busy implies Active; asleep implies no busy cores.
            if server.busy_cores() > 0 {
                assert_eq!(server.mode(), ServerMode::Active);
            }
            if !server.is_awake() {
                assert_eq!(server.busy_cores(), 0);
            }
        }

        // Drain all obligations; everything submitted eventually completes.
        while let Some((idx, _)) = due
            .iter()
            .enumerate()
            .min_by_key(|(_, d)| d.at())
            .map(|(i, d)| (i, d.at()))
        {
            let d = due.swap_remove(idx);
            now = now.max(d.at());
            match d {
                Due::Complete { core, .. } => {
                    server.complete(now, core, &mut fx);
                    absorb(&fx, now, &mut due);
                }
                Due::Timer { gen, .. } => {
                    server.timer_fired(now, gen, &mut fx);
                    absorb(&fx, now, &mut due);
                }
                Due::Transition { .. } => {
                    server.transition_done(now, &mut fx);
                    absorb(&fx, now, &mut due);
                }
            }
        }
        assert_eq!(server.tasks_completed(), submitted);
        assert_eq!(server.busy_cores(), 0);
        assert_eq!(server.queue_len(), 0);
        // Energy is finite and monotone with the horizon.
        let energy_j = |t: SimTime| {
            server.cpu_energy_j(t) + server.dram_energy_j(t) + server.platform_energy_j(t)
        };
        let e1 = energy_j(now);
        let e2 = energy_j(now + SimDuration::from_secs(1));
        assert!(e1.is_finite() && e2 > e1);
    }
}
