//! # holdcsim-bench
//!
//! Dependency-free benchmarks (`benches/`, `harness = false`) for
//! HolDCSim-RS. The paper's figures and tables are reproduced by
//! `holdcsim fig <id>` (`holdcsim-harness`), not here.
//!
//! Benchmarks accept `--quick` for a reduced sample count (useful in CI)
//! and use the [`bench()`] mini-harness below (best-of-N wall-clock
//! timing via `std::time::Instant`), so `cargo bench` needs no external
//! benchmarking crate and CI's `cargo bench --no-run` keeps the sources
//! compiling.

use std::time::Instant;

/// `true` if the process arguments request a reduced-scale run.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Times `f` for `samples` runs after one warm-up and prints the best and
/// mean wall-clock per run, plus throughput when `elements` is given (the
/// number of items one run processes). Returns the best seconds/run.
#[allow(clippy::disallowed_methods)] // wall-clock is the measurement itself
pub fn bench<R>(name: &str, samples: u32, elements: Option<u64>, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f()); // warm-up
    let mut best = f64::MAX;
    let mut total = 0.0;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
    }
    let mean = total / samples.max(1) as f64;
    match elements {
        Some(n) => println!(
            "{name:<40} best {best:>11.6} s  mean {mean:>11.6} s  {:>12.0} elem/s",
            n as f64 / best.max(1e-12)
        ),
        None => println!("{name:<40} best {best:>11.6} s  mean {mean:>11.6} s"),
    }
    best
}
