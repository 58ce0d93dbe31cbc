//! `holdcsim-analysis`: repo-specific determinism lints for the
//! HolDCSim-RS source tree.
//!
//! The simulator's core contract is byte-identical reports at any
//! worker count. PR 6 built the *dynamic* half of enforcing that
//! (fingerprints + `trace-diff` bisection); this crate is the *static*
//! half: a dependency-free AST-lite walker ([`lexer`] + [`source`])
//! over every workspace crate, running the lint family in [`lints`]
//! (D001–D004, U001, P001, and the workspace pass N001) under a
//! checked-in `analysis.toml` allowlist ([`config`]) where every
//! suppression carries a reason and stale entries are errors.
//!
//! Entry points: the `holdcsim-lint` binary, `cargo xtask analyze
//! --deny` (the CI gate), and [`analyze_sources`] / [`analyze_tree`] /
//! [`gate`] for tests and tooling.

pub mod config;
pub mod lexer;
pub mod lints;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use config::{parse as parse_allowlist, AllowEntry, Applied};
pub use lints::{Finding, LINTS};

/// Lints an in-memory file set as if each file lived at its
/// workspace-relative, `/`-separated path. The path selects each lint's
/// scope (crate, hot-path module, report path) and the file's role:
/// files under a `tests/` directory are skipped, examples and
/// `perfbench/` only supply N001 callers, and every other file is
/// linted. This is what lets fixture tests exercise every scope, N001's
/// cross-file one included, without touching the real tree.
pub fn analyze_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    let parsed: Vec<source::SourceFile> = files
        .iter()
        .filter(|(path, _)| !path.split('/').any(|dir| dir == "tests"))
        .map(|(path, src)| source::SourceFile::parse(path, src))
        .collect();
    let mut findings: Vec<Finding> = parsed
        .iter()
        .filter(|f| !lints::caller_only(&f.rel_path))
        .flat_map(lints::run_lints)
        .collect();
    findings.extend(lints::n001(&parsed));
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    findings
}

/// Walks the workspace source tree under `root` and lints it through
/// [`analyze_sources`]: every `.rs` file of `crates/*/src`, `xtask/src`
/// and the umbrella `src/`, plus the N001 callers in `examples/` and
/// `perfbench/src`. Traversal order is sorted, so findings are
/// deterministic — the lint engine holds itself to the contract it
/// enforces.
pub fn analyze_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for dir in source_roots(root)? {
        collect_rs(&dir, &mut paths)?;
    }
    paths.sort();
    let files = paths
        .iter()
        .map(|p| Ok((rel_unix(root, p), fs::read_to_string(p)?)))
        .collect::<io::Result<Vec<(String, String)>>>()?;
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    Ok(analyze_sources(&refs))
}

/// The directories [`analyze_tree`] reads: every `crates/<name>/src`,
/// plus `src/`, `xtask/src`, `examples/` and `perfbench/src` when
/// present.
fn source_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = Vec::new();
    for top in ["src", "xtask/src", "examples", "perfbench/src"] {
        let p = root.join(top);
        if p.is_dir() {
            roots.push(p);
        }
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        names.sort();
        for c in names {
            let dir = c.join("src");
            if dir.is_dir() {
                roots.push(dir);
            }
        }
    }
    Ok(roots)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_unix(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Outcome of a full gate run: findings after the allowlist, plus the
/// errors that fail the gate regardless of findings.
#[derive(Debug)]
pub struct GateOutcome {
    /// Findings no allowlist entry covers.
    pub unsuppressed: Vec<Finding>,
    /// Count of allowlisted findings.
    pub suppressed: usize,
    /// Allowlist entries that matched nothing (always an error).
    pub stale: Vec<AllowEntry>,
    /// Allowlist parse/validation error, if any.
    pub config_error: Option<String>,
}

impl GateOutcome {
    /// Renders the outcome as the CLI/xtask report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(e) = &self.config_error {
            out.push_str(&format!("error: {e}\n"));
            return out;
        }
        for f in &self.unsuppressed {
            out.push_str(&format!(
                "{}:{}: {} {}\n    {}\n    hint: {}\n",
                f.path, f.line, f.lint, f.message, f.line_text, f.hint
            ));
        }
        for e in &self.stale {
            out.push_str(&format!(
                "analysis.toml:{}: error: stale [[allow]] entry (lint {}, path {}) matches \
                 no finding — remove it\n",
                e.line, e.lint, e.path
            ));
        }
        let mut counts: Vec<(&str, usize)> = Vec::new();
        for f in &self.unsuppressed {
            match counts.iter_mut().find(|(l, _)| *l == f.lint) {
                Some((_, n)) => *n += 1,
                None => counts.push((f.lint, 1)),
            }
        }
        let per_lint = counts
            .iter()
            .map(|(l, n)| format!("{l}×{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "holdcsim-lint: {} finding(s){}{}; {} suppressed by analysis.toml; {} stale entr{}\n",
            self.unsuppressed.len(),
            if per_lint.is_empty() { "" } else { " (" },
            if per_lint.is_empty() {
                String::new()
            } else {
                format!("{per_lint})")
            },
            self.suppressed,
            self.stale.len(),
            if self.stale.len() == 1 { "y" } else { "ies" },
        ));
        out
    }
}

/// Runs the full gate: lint the tree under `root`, apply the allowlist
/// at `config_path` (an absent file means an empty allowlist).
pub fn gate(root: &Path, config_path: &Path) -> io::Result<GateOutcome> {
    let entries = if config_path.is_file() {
        match config::parse(&fs::read_to_string(config_path)?) {
            Ok(e) => e,
            Err(msg) => {
                return Ok(GateOutcome {
                    unsuppressed: Vec::new(),
                    suppressed: 0,
                    stale: Vec::new(),
                    config_error: Some(msg),
                })
            }
        }
    } else {
        Vec::new()
    };
    let findings = analyze_tree(root)?;
    let applied = config::apply(findings, &entries);
    Ok(GateOutcome {
        unsuppressed: applied.unsuppressed,
        suppressed: applied.suppressed,
        stale: applied.stale,
        config_error: None,
    })
}
