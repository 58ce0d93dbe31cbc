//! Paper-figure front-ends behind `holdcsim fig`: each function
//! reproduces one figure/table of Yao et al. (IISWC 2019) and prints its
//! rows or series (CSV or a markdown table on stdout, `#` notes on
//! stderr). A figure with several runs builds their configs in
//! [`holdcsim::experiments`], runs them as one batch on the window pool
//! through [`crate::exec`], and reduces the reports next to its printer.

use holdcsim::experiments::{self, scalability};
use holdcsim::report::SimReport;
use holdcsim::sim::Simulation;
use holdcsim::validation::{server_power_validation, switch_power_validation};
use holdcsim_des::time::SimDuration;
use holdcsim_workload::presets::WorkloadPreset;

use crate::exec::{run_configs, run_plan};
use crate::grid::SweepPlan;

/// Scale knobs shared by all figures.
#[derive(Debug, Clone, Copy)]
pub struct FigScale {
    /// Reduced-scale run (CI-friendly).
    pub quick: bool,
    /// Worker threads.
    pub threads: usize,
    /// Root seed.
    pub seed: u64,
}

impl FigScale {
    fn pick(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Fig. 4: provisioning controller tracking a diurnal trace. Prints the
/// sampled `time_s,active_jobs,active_servers` series as CSV, decimated
/// to ~200 points.
pub fn fig4(scale: &FigScale) {
    let servers = scale.pick(50, 10) as usize;
    let duration = SimDuration::from_secs(scale.pick(1_200, 60));
    eprintln!("# Fig. 4 — provisioning ({servers} servers, {duration})");
    let r = Simulation::new(experiments::fig4_config(servers, duration, scale.seed)).run();
    let (jobs, active) = (&r.series.active_jobs, &r.series.active_servers);
    let step = r.series.period.as_secs_f64();
    println!("time_s,active_jobs,active_servers");
    let stride = (jobs.len() / 200).max(1);
    for i in (0..jobs.len()).step_by(stride) {
        println!("{:.0},{:.1},{:.0}", i as f64 * step, jobs[i], active[i]);
    }
    let min = active.iter().copied().fold(f64::MAX, f64::min);
    let max = active.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "# active servers ranged {min:.0}..{max:.0} of {servers}; {} jobs completed; p95 {:.1} ms",
        r.jobs_completed,
        r.latency.p95 * 1e3,
    );
}

/// Fig. 5: farm energy vs single delay-timer τ — the U-shaped curves —
/// run as one parallel sweep per workload preset.
pub fn fig5(scale: &FigScale) {
    let servers = scale.pick(50, 8) as usize;
    let duration = SimDuration::from_secs(scale.pick(150, 30));
    let rhos = [0.1, 0.3, 0.6];
    for (preset, taus) in [
        (
            WorkloadPreset::WebSearch,
            vec![0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.0, 5.0],
        ),
        (
            WorkloadPreset::WebServing,
            vec![0.2, 0.5, 1.2, 2.4, 4.8, 8.0, 14.0, 20.0],
        ),
    ] {
        eprintln!("# Fig. 5 — {preset} ({servers} servers x 4 cores, {duration})");
        let plan = SweepPlan::new(&format!("fig5-{preset}"))
            .seed(scale.seed)
            .duration(duration)
            .presets(&[preset])
            .servers(&[servers])
            .cores(&[4])
            .utilizations(&rhos)
            .taus_s(&taus);
        let result = run_plan(&plan, scale.threads, false).expect("fig5 grid is valid");
        // Point order is ρ-major, τ-minor: one energy curve per ρ.
        let energy = |ri: usize, ti: usize| {
            let s = &result.summaries[ri * taus.len() + ti];
            s.get("energy_j").expect("known metric").mean
        };
        print!("tau_s");
        for rho in &rhos {
            print!(",energy_MJ_rho{rho}");
        }
        println!();
        for (ti, &tau) in taus.iter().enumerate() {
            print!("{tau}");
            for ri in 0..rhos.len() {
                print!(",{:.4}", energy(ri, ti) / 1e6);
            }
            println!();
        }
        for (ri, rho) in rhos.iter().enumerate() {
            let optimal = (0..taus.len())
                .min_by(|&a, &b| {
                    energy(ri, a)
                        .partial_cmp(&energy(ri, b))
                        .expect("finite energy")
                })
                .map_or(0.0, |ti| taus[ti]);
            eprintln!("#   rho={rho}: optimal tau = {optimal:.2} s");
        }
    }
}

/// Fig. 6: dual delay timers vs Active-Idle vs best single τ. The three
/// arms of every (farm, workload, ρ) cell run concurrently.
pub fn fig6(scale: &FigScale) {
    let duration = SimDuration::from_secs(scale.pick(120, 30));
    let farms: Vec<usize> = if scale.quick { vec![8] } else { vec![20, 100] };
    let cells: Vec<(usize, WorkloadPreset, f64, f64)> = farms
        .iter()
        .flat_map(|&servers| {
            [
                (WorkloadPreset::WebSearch, 0.4),
                (WorkloadPreset::WebServing, 4.8),
            ]
            .into_iter()
            .flat_map(move |(preset, tau)| {
                [0.1, 0.3, 0.6]
                    .into_iter()
                    .map(move |rho| (servers, preset, rho, tau))
            })
        })
        .collect();
    let configs = cells
        .iter()
        .flat_map(|&(servers, preset, rho, tau)| {
            experiments::fig6_configs(preset, rho, servers, 4, tau, duration, scale.seed)
        })
        .collect();
    let reports = run_configs(configs, scale.threads, None);
    println!(
        "| farm | workload | rho | E(active-idle) MJ | E(single) MJ | E(dual) MJ | reduction vs AI | reduction vs single | p95 dual ms |"
    );
    for (&(servers, preset, rho, _), arms) in cells.iter().zip(reports.chunks_exact(3)) {
        let [active_idle, single, dual] = arms else {
            unreachable!("three arms per cell")
        };
        let (e_ai, e_single, e_dual) = (
            active_idle.server_energy_j(),
            single.server_energy_j(),
            dual.server_energy_j(),
        );
        println!(
            "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.1}% | {:.1}% | {:.1} |",
            servers,
            preset,
            rho,
            e_ai / 1e6,
            e_single / 1e6,
            e_dual / 1e6,
            (1.0 - e_dual / e_ai) * 100.0,
            (1.0 - e_dual / e_single) * 100.0,
            dual.latency.p95 * 1e3,
        );
    }
}

/// Fig. 8: WASP state-residency stacked bars for utilizations 0.1–0.9,
/// both workload presets, run as one batch.
pub fn fig8(scale: &FigScale) {
    let servers = scale.pick(10, 4) as usize;
    let cores = scale.pick(10, 4) as u32;
    let duration = SimDuration::from_secs(scale.pick(120, 30));
    let rhos: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let presets = [WorkloadPreset::WebSearch, WorkloadPreset::WebServing];
    let configs = presets
        .iter()
        .flat_map(|&preset| {
            experiments::fig8_configs(preset, &rhos, servers, cores, duration, scale.seed)
        })
        .collect();
    let reports = run_configs(configs, scale.threads, None);
    for (preset, reports) in presets.iter().zip(reports.chunks_exact(rhos.len())) {
        eprintln!("# Fig. 8 — {preset} ({servers} servers x {cores} cores, {duration})");
        println!("rho,active,wakeup,idle,pkg_c6,sys_sleep,p90_ms");
        for (rho, r) in rhos.iter().zip(reports) {
            let [a, w, i, c6, s3] = r.mean_residency();
            println!(
                "{rho:.1},{a:.3},{w:.3},{i:.3},{c6:.3},{s3:.3},{:.2}",
                r.latency.p90 * 1e3
            );
        }
    }
}

/// Fig. 9: per-server energy breakdown (CPU / DRAM / platform),
/// delay-timer vs workload-adaptive pools, run as one batch.
pub fn fig9(scale: &FigScale) {
    let servers = scale.pick(10, 4) as usize;
    let cores = scale.pick(10, 4) as u32;
    let duration = SimDuration::from_secs(scale.pick(300, 40));
    eprintln!("# Fig. 9 — breakdown ({servers} servers x {cores} cores, {duration})");
    let configs = experiments::fig9_configs(servers, cores, duration, scale.seed);
    let reports = run_configs(configs.into(), scale.threads, None);
    let (delay_timer, adaptive) = (&reports[0], &reports[1]);
    println!("strategy,server,cpu_kJ,dram_kJ,platform_kJ");
    for (name, r) in [
        ("delay-timer", delay_timer),
        ("workload-adaptive", adaptive),
    ] {
        for (i, s) in r.servers.iter().enumerate() {
            println!(
                "{name},{},{:.2},{:.2},{:.2}",
                i + 1,
                s.cpu_energy_j / 1e3,
                s.dram_energy_j / 1e3,
                s.platform_energy_j / 1e3
            );
        }
    }
    let (total_dt, total_ad) = (delay_timer.server_energy_j(), adaptive.server_energy_j());
    eprintln!(
        "# totals: delay-timer {:.1} kJ, adaptive {:.1} kJ -> {:.1}% saving (paper: 39%)",
        total_dt / 1e3,
        total_ad / 1e3,
        (1.0 - total_ad / total_dt) * 100.0
    );
}

/// Fig. 11: Server-Load-Balance vs Server-Network-Aware placement on a
/// fat tree (k=4): power table plus the ρ=0.3 response-time CDF. Both
/// utilizations run as one batch.
pub fn fig11(scale: &FigScale) {
    let jobs = scale.pick(2_000, 300) as usize;
    let flow_bytes = scale.pick(100_000_000, 10_000_000);
    let drain = SimDuration::from_secs(scale.pick(30, 10));
    let rhos = [0.3, 0.6];
    let configs = rhos
        .iter()
        .flat_map(|&rho| experiments::fig11_configs(rho, jobs, flow_bytes, drain, scale.seed))
        .collect();
    let reports = run_configs(configs, scale.threads, None);
    let network_w = |r: &SimReport| r.network.as_ref().map_or(0.0, |n| n.mean_switch_power_w);
    println!("| rho | policy | server W | network W | p95 ms | jobs |");
    for (rho, pair) in rhos.iter().zip(reports.chunks_exact(2)) {
        let [balanced, aware] = pair else {
            unreachable!("two policies per utilization")
        };
        for (name, r) in [
            ("server-load-balance", balanced),
            ("server-network-aware", aware),
        ] {
            println!(
                "| {rho} | {name} | {:.1} | {:.1} | {:.1} | {} |",
                r.mean_server_power_w(),
                network_w(r),
                r.latency.p95 * 1e3,
                r.jobs_completed
            );
        }
        eprintln!(
            "# rho={rho}: server saving {:.1}%, network saving {:.1}% (paper: ~20% / ~18%)",
            (1.0 - aware.mean_server_power_w() / balanced.mean_server_power_w()) * 100.0,
            (1.0 - network_w(aware) / network_w(balanced)) * 100.0
        );
    }
    // Fig. 11b: latency CDF for rho = 0.3.
    let (balanced, aware) = (&reports[0], &reports[1]);
    println!();
    println!(
        "# CDF at rho={}: cdf_fraction,balanced_latency_s,aware_latency_s",
        rhos[0]
    );
    let n = 50;
    for i in 1..=n {
        let q = i as f64 / n as f64;
        let pick = |cdf: &[(f64, f64)]| -> f64 {
            let idx = ((q * cdf.len() as f64).ceil() as usize).clamp(1, cdf.len());
            cdf[idx - 1].0
        };
        println!(
            "{:.2},{:.4},{:.4}",
            q,
            pick(&balanced.latency_cdf),
            pick(&aware.latency_cdf)
        );
    }
}

/// Table I: event-throughput scalability across farm sizes.
pub fn table1(scale: &FigScale) {
    let sizes: Vec<usize> = if scale.quick {
        vec![100, 1_000]
    } else {
        vec![1_000, 5_000, 20_480]
    };
    let duration = SimDuration::from_millis(scale.pick(2_000, 200));
    eprintln!("# Table I — scalability ({duration} simulated per size)");
    println!("| servers | events | wall s | events/s | jobs |");
    for p in scalability(&sizes, duration, scale.seed) {
        println!(
            "| {} | {} | {:.3} | {:.0} | {} |",
            p.servers, p.events, p.wall_s, p.events_per_s, p.jobs
        );
    }
}

/// Fig. 12: server power validation — simulated 10-core Xeon E5-2680
/// package power vs the reference model, replaying an NLANR-like trace.
pub fn fig12(scale: &FigScale) {
    let duration = SimDuration::from_secs(scale.pick(1_000, 60));
    eprintln!("# Fig. 12 — server power validation ({duration})");
    let r = server_power_validation(duration, scale.seed);
    println!("time_s,simulated_W,reference_W");
    let stride = (r.simulated_w.len() / 200).max(1);
    for i in (0..r.simulated_w.len()).step_by(stride) {
        println!("{i},{:.3},{:.3}", r.simulated_w[i], r.reference_w[i]);
    }
    eprintln!(
        "# mean |diff| = {:.3} W ({:.2}% of mean power), diff sd = {:.3} W (paper: 0.22 W / ~1.3%)",
        r.mean_abs_diff_w,
        100.0 * r.mean_abs_diff_w / r.mean_reference_w,
        r.diff_std_w
    );
}

/// Fig. 13/14: switch power validation — a 24-port Cisco WS-C2960-24-S
/// star serving a Wikipedia-like trace for 2 hours, simulated switch
/// power vs the log-driven reference model.
pub fn fig13(scale: &FigScale) {
    let duration = SimDuration::from_secs(scale.pick(7_200, 120));
    eprintln!("# Fig. 13 — switch power validation ({duration})");
    let r = switch_power_validation(duration, scale.seed);
    println!("time_s,simulated_W,reference_W");
    let stride = (r.simulated_w.len() / 240).max(1);
    for i in (0..r.simulated_w.len()).step_by(stride) {
        println!("{i},{:.3},{:.3}", r.simulated_w[i], r.reference_w[i]);
    }
    eprintln!(
        "# mean |diff| = {:.3} W, diff sd = {:.3} W (paper: <0.12 W, sd 0.04 W); mean power {:.2} W",
        r.mean_abs_diff_w, r.diff_std_w, r.mean_simulated_w
    );
}

/// Footnote 1 of §IV-B: the single delay timer under bursty (MMPP)
/// arrivals — energy stays low but QoS collapses as bursts catch servers
/// in deep sleep, motivating the workload-adaptive framework of §IV-C.
pub fn footnote1(scale: &FigScale) {
    let servers = scale.pick(50, 8) as usize;
    let duration = SimDuration::from_secs(scale.pick(150, 40));
    let ratios = [1.0, 2.0, 5.0, 10.0, 20.0];
    eprintln!("# Footnote 1 — delay timer (tau = 0.4 s) under MMPP bursts");
    let configs = experiments::footnote1_configs(
        WorkloadPreset::WebSearch,
        0.3,
        &ratios,
        0.4,
        servers,
        4,
        duration,
        scale.seed,
    );
    let reports = run_configs(configs, scale.threads, None);
    println!("burst_ratio,energy_MJ,p95_ms,p99_ms");
    for (ratio, r) in ratios.iter().zip(&reports) {
        println!(
            "{ratio},{:.4},{:.1},{:.1}",
            r.server_energy_j() / 1e6,
            r.latency.p95 * 1e3,
            r.latency.p99 * 1e3
        );
    }
}
