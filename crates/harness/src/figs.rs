//! Paper-figure front-ends behind `holdcsim fig`: each function
//! reproduces one figure/table of Yao et al. (IISWC 2019) and prints its
//! rows or series (CSV or a markdown table on stdout, `#` notes on
//! stderr); the sweeps run in parallel through [`crate::exec`].

use holdcsim::experiments::{
    self, fig6_from_reports, fig8_residency, scalability, DelayTimerCurve,
};
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
    let r = experiments::fig4_provisioning(servers, duration, scale.seed);
    println!("time_s,active_jobs,active_servers");
    let stride = (r.time_s.len() / 200).max(1);
    for i in (0..r.time_s.len()).step_by(stride) {
        println!(
            "{:.0},{:.1},{:.0}",
            r.time_s[i], r.active_jobs[i], r.active_servers[i]
        );
    }
    let min = r.active_servers.iter().copied().fold(f64::MAX, f64::min);
    let max = r.active_servers.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "# active servers ranged {min:.0}..{max:.0} of {servers}; {} jobs completed; p95 {:.1} ms",
        r.report.jobs_completed,
        r.report.latency.p95 * 1e3,
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
        // Point order is ρ-major, τ-minor: regroup into one curve per ρ.
        let curves: Vec<DelayTimerCurve> = rhos
            .iter()
            .enumerate()
            .map(|(ri, &rho)| DelayTimerCurve {
                rho,
                points: taus
                    .iter()
                    .enumerate()
                    .map(|(ti, &tau)| {
                        let s = &result.summaries[ri * taus.len() + ti];
                        (tau, s.get("energy_j").expect("known metric").mean)
                    })
                    .collect(),
            })
            .collect();
        print!("tau_s");
        for c in &curves {
            print!(",energy_MJ_rho{}", c.rho);
        }
        println!();
        for (i, &tau) in taus.iter().enumerate() {
            print!("{tau}");
            for c in &curves {
                print!(",{:.4}", c.points[i].1 / 1e6);
            }
            println!();
        }
        for c in &curves {
            eprintln!(
                "#   rho={}: optimal tau = {:.2} s",
                c.rho,
                c.optimal_tau_s()
            );
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
    for (i, &(servers, preset, rho, _)) in cells.iter().enumerate() {
        let arms: &[_; 3] = reports[3 * i..3 * i + 3]
            .try_into()
            .expect("three arms per cell");
        let r = fig6_from_reports(rho, servers, arms);
        println!(
            "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.1}% | {:.1}% | {:.1} |",
            servers,
            preset,
            rho,
            r.energy_active_idle_j / 1e6,
            r.energy_single_j / 1e6,
            r.energy_dual_j / 1e6,
            r.reduction_vs_active_idle() * 100.0,
            r.reduction_vs_single() * 100.0,
            r.p95_dual_s * 1e3,
        );
    }
}

/// Fig. 8: WASP state-residency stacked bars for utilizations 0.1–0.9,
/// both workload presets.
pub fn fig8(scale: &FigScale) {
    let servers = scale.pick(10, 4) as usize;
    let cores = scale.pick(10, 4) as u32;
    let duration = SimDuration::from_secs(scale.pick(120, 30));
    let rhos: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    for preset in [WorkloadPreset::WebSearch, WorkloadPreset::WebServing] {
        eprintln!("# Fig. 8 — {preset} ({servers} servers x {cores} cores, {duration})");
        println!("rho,active,wakeup,idle,pkg_c6,sys_sleep,p90_ms");
        for b in fig8_residency(preset, &rhos, servers, cores, duration, scale.seed) {
            let (a, w, i, c6, s3) = b.bands;
            println!(
                "{:.1},{a:.3},{w:.3},{i:.3},{c6:.3},{s3:.3},{:.2}",
                b.rho,
                b.p90_s * 1e3
            );
        }
    }
}

/// Fig. 9: per-server energy breakdown (CPU / DRAM / platform),
/// delay-timer vs workload-adaptive pools.
pub fn fig9(scale: &FigScale) {
    let servers = scale.pick(10, 4) as usize;
    let cores = scale.pick(10, 4) as u32;
    let duration = SimDuration::from_secs(scale.pick(300, 40));
    eprintln!("# Fig. 9 — breakdown ({servers} servers x {cores} cores, {duration})");
    let r = experiments::fig9_breakdown(servers, cores, duration, scale.seed);
    println!("strategy,server,cpu_kJ,dram_kJ,platform_kJ");
    for (name, rows) in [
        ("delay-timer", &r.delay_timer),
        ("workload-adaptive", &r.adaptive),
    ] {
        for (i, (c, d, p)) in rows.iter().enumerate() {
            println!(
                "{name},{},{:.2},{:.2},{:.2}",
                i + 1,
                c / 1e3,
                d / 1e3,
                p / 1e3
            );
        }
    }
    eprintln!(
        "# totals: delay-timer {:.1} kJ, adaptive {:.1} kJ -> {:.1}% saving (paper: 39%)",
        r.total_delay_timer_j / 1e3,
        r.total_adaptive_j / 1e3,
        r.adaptive_saving() * 100.0
    );
}

/// Fig. 11: Server-Load-Balance vs Server-Network-Aware placement on a
/// fat tree (k=4): power table plus the ρ=0.3 response-time CDF.
pub fn fig11(scale: &FigScale) {
    let jobs = scale.pick(2_000, 300) as usize;
    let flow_bytes = scale.pick(100_000_000, 10_000_000);
    let drain = SimDuration::from_secs(scale.pick(30, 10));
    println!("| rho | policy | server W | network W | p95 ms | jobs |");
    let mut cdfs = Vec::new();
    for rho in [0.3, 0.6] {
        let r = experiments::fig11_joint(rho, jobs, flow_bytes, drain, scale.seed);
        for (name, p) in [
            ("server-load-balance", &r.balanced),
            ("server-network-aware", &r.aware),
        ] {
            println!(
                "| {rho} | {name} | {:.1} | {:.1} | {:.1} | {} |",
                p.server_power_w,
                p.network_power_w,
                p.p95_s * 1e3,
                p.jobs
            );
        }
        eprintln!(
            "# rho={rho}: server saving {:.1}%, network saving {:.1}% (paper: ~20% / ~18%)",
            r.server_saving() * 100.0,
            r.network_saving() * 100.0
        );
        cdfs.push((rho, r));
    }
    // Fig. 11b: latency CDF for rho = 0.3.
    if let Some((rho, r)) = cdfs.first() {
        println!();
        println!("# CDF at rho={rho}: cdf_fraction,balanced_latency_s,aware_latency_s");
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
                pick(&r.balanced.latency_cdf),
                pick(&r.aware.latency_cdf)
            );
        }
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
    println!("burst_ratio,energy_MJ,p95_ms,p99_ms");
    for p in experiments::footnote1_burstiness(
        WorkloadPreset::WebSearch,
        0.3,
        &ratios,
        0.4,
        servers,
        4,
        duration,
        scale.seed,
    ) {
        println!(
            "{},{:.4},{:.1},{:.1}",
            p.burst_ratio,
            p.energy_j / 1e6,
            p.p95_s * 1e3,
            p.p99_s * 1e3
        );
    }
}
