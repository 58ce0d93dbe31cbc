//! Workspace task runner: the entry points CI uses to gate every PR.
//!
//! ```text
//! cargo xtask analyze [--deny]   # static determinism lints (holdcsim-lint)
//! cargo xtask miri [--require]   # Miri lane: kernel structures under the interpreter
//! cargo xtask tsan [--require]   # ThreadSanitizer lane: the window pool
//! cargo xtask determinism [--release]
//!                                # dynamic smoke: same seed twice ⇒ identical fingerprints
//! cargo xtask gate               # analyze --deny + determinism (the local pre-push check)
//! cargo xtask ab <base-rev> [<change-rev>] [--pairs N] [--seconds S] [--seed N] [WORKLOAD...]
//!                                # interleaved A/B of two revisions on perfbench (see ab.rs)
//! ```
//!
//! The sanitizer lanes need nightly components (`miri`, `rust-src`) that
//! are not always installed — an offline checkout cannot fetch them — so
//! by default a missing component **skips** the lane with a loud message
//! and exit 0. CI passes `--require`, which turns a missing component
//! into a failure; the workflow installs the components first.

mod ab;
mod json;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(|s| s.as_str()) {
        Some("analyze") => analyze(&root, args.iter().any(|a| a == "--deny")),
        Some("miri") => miri(&root, args.iter().any(|a| a == "--require")),
        Some("tsan") => tsan(&root, args.iter().any(|a| a == "--require")),
        Some("determinism") => determinism(&root, args.iter().any(|a| a == "--release")),
        Some("ab") => ab::main(&root, &args[1..]),
        Some("gate") => {
            let a = analyze(&root, true);
            if a != ExitCode::SUCCESS {
                return a;
            }
            determinism(&root, false)
        }
        other => {
            eprintln!(
                "usage: cargo xtask <analyze [--deny] | miri [--require] | tsan [--require] | \
                 determinism [--release] | gate | ab <base-rev> [<change-rev>] [--pairs N] \
                 [--seconds S] [--seed N] [WORKLOAD...]>"
            );
            if other.is_none() {
                ExitCode::from(2)
            } else {
                eprintln!("unknown task `{}`", other.unwrap_or(""));
                ExitCode::from(2)
            }
        }
    }
}

/// The workspace root is the parent of this crate's manifest dir.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// `cargo xtask analyze [--deny]`: run the determinism lints in-process.
fn analyze(root: &Path, deny: bool) -> ExitCode {
    let outcome = match holdcsim_analysis::gate(root, &root.join("analysis.toml")) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask analyze: io error: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.render());
    if outcome.config_error.is_some() || !outcome.stale.is_empty() {
        ExitCode::from(2)
    } else if deny && !outcome.unsuppressed.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// True when `component` is installed for the nightly toolchain.
fn nightly_has(component: &str) -> bool {
    let out = Command::new("rustup")
        .args(["component", "list", "--toolchain", "nightly"])
        .output();
    match out {
        Ok(o) => String::from_utf8_lossy(&o.stdout)
            .lines()
            .any(|l| l.starts_with(component) && l.contains("(installed)")),
        Err(_) => false,
    }
}

fn skip_or_fail(lane: &str, missing: &str, install: &str, require: bool) -> ExitCode {
    if require {
        eprintln!("xtask {lane}: FAILED — {missing} is not installed (run `{install}`)");
        ExitCode::from(1)
    } else {
        println!(
            "xtask {lane}: SKIPPED — {missing} is not installed; run `{install}` \
             (CI runs this lane with --require)"
        );
        ExitCode::SUCCESS
    }
}

/// `cargo xtask miri`: run the unsafe-adjacent kernel structures
/// (`SlotWindow`, `LazyHeap`, `EventQueue`) under the Miri interpreter.
/// The randomized model tests shrink themselves under `cfg(miri)` so the
/// lane finishes in minutes, not hours.
fn miri(root: &Path, require: bool) -> ExitCode {
    if !nightly_has("miri") {
        return skip_or_fail(
            "miri",
            "the nightly `miri` component",
            "rustup component add miri --toolchain nightly",
            require,
        );
    }
    let status = Command::new("cargo")
        .current_dir(root)
        .args([
            "+nightly",
            "miri",
            "test",
            "-p",
            "holdcsim-des",
            "--lib",
            "slot_window",
            "lazy_heap",
            "queue",
        ])
        .status();
    match status {
        Ok(s) if s.success() => {
            println!("xtask miri: PASS (SlotWindow / LazyHeap / EventQueue under Miri)");
            ExitCode::SUCCESS
        }
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xtask miri: failed to spawn cargo: {e}");
            ExitCode::from(1)
        }
    }
}

/// `cargo xtask tsan`: build std + the scoped-thread tests with
/// ThreadSanitizer and run the worker-count determinism suites. There is
/// one thread pool, `holdcsim_cluster::pool`, and it is the one place
/// real threads touch shared state: it runs federation windows
/// (`parallel_windows_bitwise_identical_to_serial` matches the filter)
/// and the harness's sweeps and figures
/// (`sweep_is_bitwise_identical_across_thread_counts`).
fn tsan(root: &Path, require: bool) -> ExitCode {
    if !nightly_has("rust-src") {
        return skip_or_fail(
            "tsan",
            "the nightly `rust-src` component (TSan needs -Zbuild-std for an instrumented std)",
            "rustup component add rust-src --toolchain nightly",
            require,
        );
    }
    let host = host_triple();
    let status = Command::new("cargo")
        .current_dir(root)
        .env("RUSTFLAGS", "-Zsanitizer=thread")
        .env("RUSTDOCFLAGS", "-Zsanitizer=thread")
        .args([
            "+nightly",
            "test",
            "-Zbuild-std",
            "--target",
            &host,
            "-p",
            "holdcsim-harness",
            "-p",
            "holdcsim-cluster",
            "bitwise_identical",
        ])
        .status();
    match status {
        Ok(s) if s.success() => {
            println!("xtask tsan: PASS (window pool: federation windows, sweeps, figures)");
            ExitCode::SUCCESS
        }
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xtask tsan: failed to spawn cargo: {e}");
            ExitCode::from(1)
        }
    }
}

fn host_triple() -> String {
    let out = Command::new("rustc").args(["-vV"]).output();
    if let Ok(o) = out {
        for line in String::from_utf8_lossy(&o.stdout).lines() {
            if let Some(h) = line.strip_prefix("host: ") {
                return h.trim().to_string();
            }
        }
    }
    "x86_64-unknown-linux-gnu".to_string()
}

/// `cargo xtask determinism`: the dynamic closing of the loop — run the
/// same seed twice through `holdcsim run --fingerprint`, and twice
/// through the federation's 4-worker conservative-window arm
/// (`holdcsim federate --fed-workers 4`), with the binary the static
/// gate just blessed, and require `trace-diff` to report identical
/// (per site, for the federated pair). A hazard the lints missed that
/// reaches the event stream shows up here as a bisected divergence.
fn determinism(root: &Path, release: bool) -> ExitCode {
    let mut build = vec!["build", "--bin", "holdcsim"];
    if release {
        build.push("--release");
    }
    let status = Command::new("cargo")
        .current_dir(root)
        .args(&build)
        .status();
    if !matches!(status, Ok(s) if s.success()) {
        eprintln!("xtask determinism: build failed");
        return ExitCode::from(1);
    }
    let bin = root
        .join("target")
        .join(if release { "release" } else { "debug" })
        .join("holdcsim");
    let tmp = std::env::temp_dir().join(format!("holdcsim-xtask-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("xtask determinism: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let diff_identical = |a: &Path, b: &Path| -> Result<(), String> {
        let out = Command::new(&bin)
            .current_dir(root)
            .arg("trace-diff")
            .arg(a)
            .arg(b)
            .output()
            .map_err(|e| format!("failed to spawn trace-diff: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if out.status.success() && text.starts_with("identical") {
            Ok(())
        } else {
            Err(format!("double-run fingerprints differ:\n{text}"))
        }
    };
    let check = || -> Result<(), String> {
        // Arm 1: a standalone farm, same seed twice.
        let fp_a = tmp.join("fp_a.json");
        let fp_b = tmp.join("fp_b.json");
        for fp in [&fp_a, &fp_b] {
            let status = Command::new(&bin)
                .current_dir(root)
                .args([
                    "run",
                    "--servers",
                    "8",
                    "--duration",
                    "2",
                    "--seed",
                    "1234",
                    "--fingerprint",
                ])
                .arg(fp)
                .stdout(std::process::Stdio::null())
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                return Err("`holdcsim run --fingerprint` failed".into());
            }
        }
        diff_identical(&fp_a, &fp_b)?;
        // Arm 2: a forwarding federation on the 4-worker window pool,
        // same seed twice; per-site fingerprints are written as
        // fed_X.site0.json / fed_X.site1.json.
        for name in ["fed_a.json", "fed_b.json"] {
            let status = Command::new(&bin)
                .current_dir(root)
                .args([
                    "federate",
                    "--sites",
                    "2",
                    "--servers",
                    "4",
                    "--duration",
                    "1",
                    "--seed",
                    "77",
                    "--geo",
                    "load-balanced",
                    "--affinity",
                    "2,1",
                    "--fed-workers",
                    "4",
                    "--fingerprint",
                ])
                .arg(tmp.join(name))
                .stdout(std::process::Stdio::null())
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                return Err("`holdcsim federate --fed-workers 4 --fingerprint` failed".into());
            }
        }
        for site in ["site0", "site1"] {
            diff_identical(
                &tmp.join(format!("fed_a.{site}.json")),
                &tmp.join(format!("fed_b.{site}.json")),
            )
            .map_err(|e| format!("federate {site}: {e}"))?;
        }
        Ok(())
    };
    let outcome = check();
    let _ = std::fs::remove_dir_all(&tmp);
    match outcome {
        Ok(()) => {
            println!(
                "xtask determinism: PASS (same seed twice ⇒ trace-diff identical, \
                 run + federate --fed-workers 4)"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask determinism: FAILED — {e}");
            ExitCode::from(1)
        }
    }
}
