//! Fixture tests: every lint id is demonstrated by a pair of source
//! files under `tests/fixtures/` — one that must trigger it and one
//! that must stay clean — run with pretend workspace paths that select
//! the lint's scope: the per-file lints through [`run_lints`] one file
//! at a time, N001 through [`analyze_sources`] over in-memory file
//! lists. A second group round-trips findings through an
//! `analysis.toml` allowlist, including the stale-entry ⇒ error
//! contract.

use holdcsim_analysis::lints::run_lints;
use holdcsim_analysis::source::SourceFile;
use holdcsim_analysis::{analyze_sources, config, Finding};

/// The per-file lints over one source text at `rel_path`.
fn analyze_source(rel_path: &str, src: &str) -> Vec<Finding> {
    run_lints(&SourceFile::parse(rel_path, src))
}

/// Lint ids present in `findings`, deduped, in first-seen order.
fn ids(findings: &[Finding]) -> Vec<&'static str> {
    let mut seen = Vec::new();
    for f in findings {
        if !seen.contains(&f.lint) {
            seen.push(f.lint);
        }
    }
    seen
}

fn assert_only(findings: &[Finding], lint: &str) {
    assert!(
        !findings.is_empty(),
        "expected at least one {lint} finding, got none"
    );
    for f in findings {
        assert_eq!(
            f.lint, lint,
            "expected only {lint} findings, got {} at {}:{} ({})",
            f.lint, f.path, f.line, f.message
        );
    }
}

// ---------------------------------------------------------------------
// D001 — HashMap/HashSet iteration in simulation crates.
// ---------------------------------------------------------------------

#[test]
fn d001_triggers_on_hash_iteration_in_sim_crate() {
    let findings = analyze_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d001_trigger.rs"),
    );
    assert_only(&findings, "D001");
    // Both the `for .. in pending.iter()` loop and the `.keys()` chain.
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings[0].message.contains("`pending`"));
    assert!(findings[1].message.contains("`index`"));
    assert!(findings.iter().all(|f| !f.hint.is_empty() && f.line > 0));
}

#[test]
fn d001_clean_btreemap_lookups_and_test_models_pass() {
    let findings = analyze_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d001_clean.rs"),
    );
    assert_eq!(ids(&findings), Vec::<&str>::new(), "{findings:#?}");
}

#[test]
fn d001_out_of_scope_outside_sim_crates() {
    // Same triggering source, but in the observability crate: D001 only
    // polices crates whose state drives the simulation trajectory.
    let findings = analyze_source(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/d001_trigger.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---------------------------------------------------------------------
// D002 — wall-clock reads outside obs/harness timing.
// ---------------------------------------------------------------------

#[test]
fn d002_triggers_on_wall_clock_in_sim_crate() {
    let findings = analyze_source(
        "crates/network/src/fixture.rs",
        include_str!("fixtures/d002_trigger.rs"),
    );
    assert_only(&findings, "D002");
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings[0].message.contains("Instant::now"));
    assert!(findings[1].message.contains("SystemTime::now"));
}

#[test]
fn d002_clean_sim_time_only_passes() {
    let findings = analyze_source(
        "crates/network/src/fixture.rs",
        include_str!("fixtures/d002_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn d002_out_of_scope_in_obs_crate() {
    let findings = analyze_source(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/d002_trigger.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---------------------------------------------------------------------
// D003 — RNG construction bypassing substream derivation.
// ---------------------------------------------------------------------

#[test]
fn d003_triggers_on_raw_rng_construction() {
    let findings = analyze_source(
        "crates/sched/src/fixture.rs",
        include_str!("fixtures/d003_trigger.rs"),
    );
    assert_only(&findings, "D003");
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings[0].message.contains("seed_from"));
    assert!(findings[1].message.contains("SimRng::new"));
}

#[test]
fn d003_clean_substream_derivation_passes() {
    let findings = analyze_source(
        "crates/sched/src/fixture.rs",
        include_str!("fixtures/d003_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---------------------------------------------------------------------
// D004 — order-sensitive f64 accumulation in report paths.
// ---------------------------------------------------------------------

#[test]
fn d004_triggers_on_hash_order_accumulation_in_report_path() {
    // The obs crate is outside D001's scope, so the report path isolates
    // D004: both the chained `.sum()` and the `for`-body `+=` forms.
    let findings = analyze_source(
        "crates/obs/src/export.rs",
        include_str!("fixtures/d004_trigger.rs"),
    );
    assert_only(&findings, "D004");
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings[0].message.contains("`samples`"));
    assert!(findings[1].message.contains("`per_server`"));
}

#[test]
fn d004_clean_sorted_accumulation_passes() {
    let findings = analyze_source(
        "crates/obs/src/export.rs",
        include_str!("fixtures/d004_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn d004_out_of_scope_outside_report_paths() {
    // Outside report/stats paths the accumulation is D001's business
    // (and here the crate is outside D001's scope too).
    let findings = analyze_source(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/d004_trigger.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---------------------------------------------------------------------
// U001 — `unsafe` without a SAFETY comment.
// ---------------------------------------------------------------------

#[test]
fn u001_triggers_on_uncommented_unsafe() {
    let findings = analyze_source(
        "crates/workload/src/fixture.rs",
        include_str!("fixtures/u001_trigger.rs"),
    );
    assert_only(&findings, "U001");
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn u001_clean_safety_comment_passes() {
    let findings = analyze_source(
        "crates/workload/src/fixture.rs",
        include_str!("fixtures/u001_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---------------------------------------------------------------------
// P001 — panics in engine hot-path modules.
// ---------------------------------------------------------------------

#[test]
fn p001_triggers_on_panics_in_hot_path_module() {
    let findings = analyze_source(
        "crates/des/src/engine.rs",
        include_str!("fixtures/p001_trigger.rs"),
    );
    assert_only(&findings, "P001");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    assert!(findings[0].message.contains("unwrap"));
    assert!(findings[1].message.contains("expect"));
    assert!(findings[2].message.contains("panic!"));
}

#[test]
fn p001_clean_option_propagation_and_test_asserts_pass() {
    let findings = analyze_source(
        "crates/des/src/engine.rs",
        include_str!("fixtures/p001_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn p001_out_of_scope_outside_hot_path_modules() {
    let findings = analyze_source(
        "crates/core/src/model.rs",
        include_str!("fixtures/p001_trigger.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---------------------------------------------------------------------
// N001 — public items without a non-test caller (a workspace pass).
// ---------------------------------------------------------------------

/// The names of the items N001 reports in `findings`, in order.
fn n001_names(findings: &[Finding]) -> Vec<String> {
    findings
        .iter()
        .filter(|f| f.lint == "N001")
        .map(|f| f.message.split('`').nth(1).unwrap_or("").to_string())
        .collect()
}

#[test]
fn n001_triggers_on_items_only_docs_strings_recursion_and_tests_name() {
    let findings = analyze_sources(&[(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/n001_trigger.rs"),
    )]);
    assert_only(&findings, "N001");
    assert_eq!(
        n001_names(&findings),
        [
            "pub fn merge_counts",
            "pub fn depth",
            "pub struct Probe",
            "pub const LIMIT"
        ],
        "{findings:#?}"
    );
    assert!(findings[0].line_text.starts_with("pub fn merge_counts("));
}

#[test]
fn n001_clean_callers_pub_crate_and_trait_impls_pass() {
    let findings = analyze_sources(&[(
        "crates/core/src/bin/fixture.rs",
        include_str!("fixtures/n001_clean.rs"),
    )]);
    assert!(findings.is_empty(), "{findings:#?}");
}

const LIB: &str = "pub fn probe() {}\npub fn other() {}\n";

#[test]
fn n001_callers_in_other_crates_examples_and_perfbench_count() {
    let callers = [
        "crates/core/src/sim.rs",
        "examples/quickstart.rs",
        "perfbench/src/main.rs",
        "src/lib.rs",
        "xtask/src/main.rs",
    ];
    for caller in callers {
        let findings = analyze_sources(&[
            ("crates/des/src/lib.rs", LIB),
            (caller, "fn main() { holdcsim_des::probe(); }\n"),
        ]);
        assert_eq!(n001_names(&findings), ["pub fn other"], "caller {caller}");
    }
}

#[test]
fn n001_test_regions_and_tests_dirs_are_no_callers() {
    let test_only = [
        (
            "crates/core/src/sim.rs",
            "#[cfg(test)]\nmod tests { fn t() { probe(); } }\n",
        ),
        ("crates/core/src/sim.rs", "#[test]\nfn t() { probe(); }\n"),
        (
            "crates/core/src/sim.rs",
            "/// Calls `probe()`.\nfn f() { g(\"probe\"); }\n",
        ),
        ("tests/end_to_end.rs", "fn main() { probe(); }\n"),
        ("crates/des/tests/model.rs", "fn main() { probe(); }\n"),
        // A re-export names the items but calls neither.
        (
            "crates/core/src/lib.rs",
            "pub use holdcsim_des::{other, probe};\n",
        ),
    ];
    for (path, src) in test_only {
        let findings = analyze_sources(&[("crates/des/src/lib.rs", LIB), (path, src)]);
        assert_eq!(
            n001_names(&findings),
            ["pub fn probe", "pub fn other"],
            "{path}: {src}"
        );
    }
}

#[test]
fn n001_polices_only_crate_sources() {
    // An uncalled `pub fn` outside `crates/*/src` is no finding:
    // examples, perfbench, the umbrella crate and xtask only call.
    for path in [
        "examples/quickstart.rs",
        "perfbench/src/main.rs",
        "src/lib.rs",
        "xtask/src/main.rs",
    ] {
        assert!(analyze_sources(&[(path, LIB)]).is_empty(), "{path}");
    }
}

#[test]
fn n001_entry_goes_stale_when_its_item_gains_a_caller() {
    let entries = config::parse(
        r#"
        [[allow]]
        lint = "N001"
        path = "crates/des/src/lib.rs"
        contains = "fn probe("
        reason = "fixture: only a test observes it"
        "#,
    )
    .expect("valid allowlist");
    let uncalled = config::apply(analyze_sources(&[("crates/des/src/lib.rs", LIB)]), &entries);
    assert_eq!(uncalled.suppressed, 1);
    assert_eq!(n001_names(&uncalled.unsuppressed), ["pub fn other"]);
    assert!(uncalled.stale.is_empty());
    let called = config::apply(
        analyze_sources(&[
            ("crates/des/src/lib.rs", LIB),
            ("examples/quickstart.rs", "fn main() { probe(); }\n"),
        ]),
        &entries,
    );
    assert_eq!(called.suppressed, 0);
    assert_eq!(called.stale.len(), 1);
    assert_eq!(called.stale[0].lint, "N001");
}

// ---------------------------------------------------------------------
// Allowlist round-trip: suppression, contains-narrowing, stale ⇒ error.
// ---------------------------------------------------------------------

fn trigger_findings() -> Vec<Finding> {
    analyze_source(
        "crates/des/src/engine.rs",
        include_str!("fixtures/p001_trigger.rs"),
    )
}

#[test]
fn allowlist_suppresses_matching_findings() {
    let entries = config::parse(
        r#"
        [[allow]]
        lint = "P001"
        path = "crates/des/src/engine.rs"
        reason = "fixture: documented invariants"
        "#,
    )
    .expect("valid allowlist");
    let applied = config::apply(trigger_findings(), &entries);
    assert!(
        applied.unsuppressed.is_empty(),
        "{:#?}",
        applied.unsuppressed
    );
    assert_eq!(applied.suppressed, 3);
    assert!(applied.stale.is_empty());
}

#[test]
fn allowlist_contains_narrows_to_matching_lines() {
    let entries = config::parse(
        r#"
        [[allow]]
        lint = "P001"
        path = "crates/des/src/engine.rs"
        contains = "expect("
        reason = "fixture: only the documented expect"
        "#,
    )
    .expect("valid allowlist");
    let applied = config::apply(trigger_findings(), &entries);
    // The unwrap and the panic! survive; only the expect is suppressed.
    assert_eq!(applied.suppressed, 1);
    assert_eq!(applied.unsuppressed.len(), 2, "{:#?}", applied.unsuppressed);
    assert!(applied
        .unsuppressed
        .iter()
        .all(|f| !f.line_text.contains("expect(")));
}

#[test]
fn allowlist_subtree_prefix_matches_whole_directory() {
    let entries = config::parse(
        r#"
        [[allow]]
        lint = "P001"
        path = "crates/des/"
        reason = "fixture: whole-kernel waiver"
        "#,
    )
    .expect("valid allowlist");
    let applied = config::apply(trigger_findings(), &entries);
    assert_eq!(applied.suppressed, 3);
    assert!(applied.unsuppressed.is_empty());
}

#[test]
fn stale_allowlist_entry_is_an_error() {
    let entries = config::parse(
        r#"
        [[allow]]
        lint = "P001"
        path = "crates/des/src/engine.rs"
        reason = "fixture: matches everything here"

        [[allow]]
        lint = "D001"
        path = "crates/core/src/nonexistent.rs"
        reason = "fixture: matches nothing, must surface as stale"
        "#,
    )
    .expect("valid allowlist");
    let applied = config::apply(trigger_findings(), &entries);
    assert!(applied.unsuppressed.is_empty());
    // The unmatched entry comes back as stale — the gate treats any
    // stale entry as a hard error so the allowlist shrinks over time.
    assert_eq!(applied.stale.len(), 1);
    assert_eq!(applied.stale[0].lint, "D001");
    assert_eq!(applied.stale[0].path, "crates/core/src/nonexistent.rs");
}

#[test]
fn allowlist_rejects_missing_or_empty_reason() {
    let missing = config::parse(
        r#"
        [[allow]]
        lint = "P001"
        path = "crates/des/src/engine.rs"
        "#,
    );
    assert!(missing.is_err(), "entry without reason must be rejected");
    let empty = config::parse(
        r#"
        [[allow]]
        lint = "P001"
        path = "crates/des/src/engine.rs"
        reason = "   "
        "#,
    );
    assert!(empty.is_err(), "blank reason must be rejected");
}

#[test]
fn allowlist_rejects_unknown_lint_ids() {
    let bad = config::parse(
        r#"
        [[allow]]
        lint = "D999"
        path = "crates/des/src/engine.rs"
        reason = "fixture"
        "#,
    );
    assert!(bad.is_err(), "unknown lint id must be rejected");
}
