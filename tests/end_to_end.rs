//! Cross-crate integration tests: whole simulations exercised through the
//! public API, asserting physical and queueing-theoretic invariants.

use holdcsim::config::ArrivalConfig;
use holdcsim::prelude::*;

fn farm(servers: usize, cores: u32, rho: f64, secs: u64) -> SimConfig {
    SimConfig::server_farm(
        servers,
        cores,
        rho,
        WorkloadPreset::WebSearch.template(),
        SimDuration::from_secs(secs),
    )
}

#[test]
fn mm1_latency_matches_theory() {
    // One single-core server, Poisson arrivals: an M/M/1 queue.
    // E[T] = 1/(mu - lambda); with 5 ms service and rho = 0.5, E[T] = 10 ms.
    let cfg = farm(1, 1, 0.5, 300);
    let report = Simulation::new(cfg).run();
    let mean = report.latency.mean;
    assert!((mean - 0.010).abs() < 0.0015, "M/M/1 mean latency {mean}");
}

#[test]
fn mmc_latency_beats_mm1_at_same_load() {
    // M/M/4 at the same per-core load has shorter waits than M/M/1.
    let r1 = Simulation::new(farm(1, 1, 0.7, 120)).run();
    let r4 = Simulation::new(farm(1, 4, 0.7, 120)).run();
    assert!(
        r4.latency.mean < r1.latency.mean,
        "M/M/4 {} vs M/M/1 {}",
        r4.latency.mean,
        r1.latency.mean
    );
}

#[test]
fn utilization_matches_offered_load() {
    let report = Simulation::new(farm(8, 4, 0.4, 60)).run();
    let util = report.mean_utilization();
    assert!((util - 0.4).abs() < 0.05, "measured utilization {util}");
}

#[test]
fn energy_equals_power_integral() {
    // Active-idle farm: energy must lie between idle-floor and peak-cap.
    let cfg = farm(4, 4, 0.3, 60);
    let profile = cfg.server_profile.clone();
    let report = Simulation::new(cfg).run();
    let idle_floor = 4.0 * profile.idle_power_w(4, holdcsim_power::states::CoreCState::C1) * 60.0;
    let peak_cap = 4.0 * profile.peak_power_w(4) * 60.0;
    let e = report.server_energy_j();
    assert!(
        e >= idle_floor * 0.99,
        "energy {e} below idle floor {idle_floor}"
    );
    assert!(e <= peak_cap * 1.01, "energy {e} above peak cap {peak_cap}");
}

#[test]
fn residency_bands_partition_time() {
    let cfg = farm(4, 2, 0.2, 30)
        .with_sleep_policy(SleepPolicy::delay_timer(SimDuration::from_millis(300)))
        .with_policy(PolicyKind::PackFirst);
    let report = Simulation::new(cfg).run();
    for (i, s) in report.servers.iter().enumerate() {
        let (a, w, idle, c6, deep) = s.residency;
        let sum = a + w + idle + c6 + deep;
        assert!((sum - 1.0).abs() < 1e-6, "server {i} bands sum {sum}");
    }
}

#[test]
fn all_jobs_complete_when_arrivals_stop_early() {
    // Arrivals only in the first second; horizon long enough to drain.
    let mut cfg = farm(4, 2, 0.3, 30);
    let mut rng = holdcsim_des::rng::SimRng::seed_from(1);
    let times: Vec<SimTime> = (0..500)
        .map(|_| SimTime::from_nanos((rng.uniform_f64() * 1e9) as u64))
        .collect();
    cfg.arrivals = ArrivalConfig::Trace(times);
    let report = Simulation::new(cfg).run();
    assert_eq!(report.jobs_submitted, 500);
    assert_eq!(report.jobs_completed, 500);
}

#[test]
fn global_queue_holds_overflow() {
    // One single-core server, burst of 50 simultaneous jobs, global queue.
    let mut cfg = farm(1, 1, 0.1, 30);
    cfg.use_global_queue = true;
    cfg.arrivals = ArrivalConfig::Trace(vec![SimTime::from_millis(1); 50]);
    let report = Simulation::new(cfg).run();
    assert_eq!(report.jobs_completed, 50);
    assert!(report.global_queue_tasks > 0, "queue never used");
}

#[test]
fn per_core_queues_have_higher_tail_than_unified() {
    // [37]: per-core queueing suffers head-of-line blocking at high load.
    let mut uni = farm(4, 4, 0.85, 60);
    uni.queue_mode = LocalQueueMode::Unified;
    let mut per = farm(4, 4, 0.85, 60);
    per.queue_mode = LocalQueueMode::PerCore;
    let ru = Simulation::new(uni).run();
    let rp = Simulation::new(per).run();
    assert!(
        rp.latency.p99 > ru.latency.p99,
        "per-core p99 {} should exceed unified p99 {}",
        rp.latency.p99,
        ru.latency.p99
    );
}

#[test]
fn deep_sleep_trades_latency_for_energy() {
    let base = farm(8, 2, 0.1, 60);
    let ai = Simulation::new(base.clone().with_sleep_policy(SleepPolicy::active_idle())).run();
    let dt = Simulation::new(
        base.with_policy(PolicyKind::PackFirst)
            .with_sleep_policy(SleepPolicy::delay_timer(SimDuration::from_millis(200))),
    )
    .run();
    assert!(dt.server_energy_j() < ai.server_energy_j());
    // Spare servers actually reached deep sleep.
    let sleeps: u64 = dt.servers.iter().map(|s| s.sleep_counts.0).sum();
    assert!(sleeps > 0, "no server ever slept");
}

#[test]
fn dvfs_slows_execution_and_cuts_core_power() {
    use holdcsim_des::time::SimTime as T;
    use holdcsim_server::server::{Effect, EffectBuf, Server, ServerConfig, ServerId};
    use holdcsim_server::task::TaskHandle;
    use holdcsim_workload::ids::{JobId, TaskId};

    let profile = holdcsim_power::server_profile::ServerPowerProfile::xeon_e5_2680();
    let mk = |pstate: usize| {
        let mut cfg = ServerConfig::new(1);
        cfg.pstate = pstate;
        Server::new(T::ZERO, ServerId(0), cfg)
    };
    let mut slow = mk(0);
    let mut fast = mk(profile.pstates.len() - 1);
    let t = TaskHandle::new(TaskId::new(JobId(1), 0), SimDuration::from_millis(10));
    let mut fx_slow = EffectBuf::new();
    let mut fx_fast = EffectBuf::new();
    slow.submit(T::ZERO, t, &mut fx_slow);
    fast.submit(T::ZERO, t, &mut fx_fast);
    let d = |fx: &[Effect]| match fx[0] {
        Effect::TaskStarted { completes_in, .. } => completes_in,
        _ => panic!(),
    };
    assert!(
        d(&fx_slow) > d(&fx_fast) * 2,
        "slow {} fast {}",
        d(&fx_slow),
        d(&fx_fast)
    );
    assert!(slow.power_w() < fast.power_w());
}

#[test]
fn warmup_excludes_early_jobs_from_latency() {
    let mut with_warmup = farm(2, 2, 0.3, 20);
    with_warmup.warmup = SimDuration::from_secs(10);
    let with_warmup = Simulation::new(with_warmup).run();
    let without = Simulation::new(farm(2, 2, 0.3, 20)).run();
    // Same arrivals, but warm-up halves the measured population.
    assert_eq!(with_warmup.jobs_completed, without.jobs_completed);
    assert!(with_warmup.latency.count < without.latency.count);
    assert!(with_warmup.latency.count > 0);
}

#[test]
fn multi_socket_second_uncore_naps_at_partial_load() {
    // A second socket costs extra uncore power, but autonomous PC2 naps
    // keep it well below a second always-on PC0 uncore.
    let mut dual = farm(4, 4, 0.2, 30);
    dual.sockets_per_server = 2;
    dual.policy = PolicyKind::PackFirst;
    let mut single = farm(4, 4, 0.2, 30);
    single.policy = PolicyKind::PackFirst;
    let profile = single.server_profile.clone();
    let rd = Simulation::new(dual).run();
    let rs = Simulation::new(single).run();
    assert_eq!(rd.jobs_completed, rs.jobs_completed);
    let extra = rd.cpu_energy_j() - rs.cpu_energy_j();
    // The extra uncore costs something...
    assert!(extra > 0.0, "second socket should not be free");
    // ...but less than a second PC0 uncore on every server all run long.
    let always_on_bound = profile.package.pc0_w * 4.0 * 30.0;
    assert!(
        extra < always_on_bound * 0.95,
        "naps should undercut always-on: extra {extra} vs bound {always_on_bound}"
    );
}

#[test]
fn simulation_matches_erlang_c() {
    // One 8-core server at rho = 0.7 is an M/M/8 queue; the simulated mean
    // time in system must track the Erlang C formula.
    use holdcsim_des::analysis::MMc;
    let cfg = farm(1, 8, 0.7, 240);
    let report = Simulation::new(cfg).run();
    let mu = 1.0 / 0.005; // web search mean 5 ms
    let lambda = 0.7 * 8.0 * mu;
    let theory = MMc::new(lambda, mu, 8).mean_time_in_system();
    let sim = report.latency.mean;
    assert!(
        (sim / theory - 1.0).abs() < 0.08,
        "simulated {sim} vs Erlang C {theory}"
    );
}
