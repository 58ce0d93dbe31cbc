//! The lint family: repo-specific determinism and hygiene rules.
//!
//! Every lint here encodes a contract the simulator has already paid
//! for breaking once, or is about to depend on for the parallelism
//! work:
//!
//! * **D001** — iteration over `HashMap`/`HashSet` in simulation crates.
//!   PR 3 fixed a real bug of exactly this class: `FlowNet` collected
//!   completions in `HashMap` iteration order, so same-seed runs
//!   diverged in-process. Simulation state must iterate in a
//!   deterministic order (`SlotWindow`, `BTreeMap`, or sorted keys).
//! * **D002** — wall-clock reads (`Instant::now`, `SystemTime::now`)
//!   outside the observability/harness timing modules. Sim-crate logic
//!   must depend only on sim time.
//! * **D003** — RNG construction (`SimRng::seed_from`/`new`) that
//!   bypasses `SimRng::substream_path`. Ad-hoc seeding couples streams
//!   to call order instead of grid coordinates.
//! * **D004** — order-sensitive `f64` accumulation over unordered
//!   collections in report/stats paths. Float addition does not
//!   commute bitwise; summing a `HashMap` in hash order makes reports
//!   machine-dependent.
//! * **U001** — `unsafe` without a `// SAFETY:` comment within the
//!   three preceding lines.
//! * **P001** — `unwrap`/`expect`/`panic!` in the enumerated engine
//!   hot-path modules; invariants there should be documented (and
//!   allowlisted) or converted to recoverable forms.
//! * **N001** — a plain-`pub` item in `crates/*/src` that no non-test
//!   code names outside its own definition. Unlike the others it is a
//!   workspace pass ([`n001`]): the caller may live in any file.
//!
//! Lints run over the token stream of [`SourceFile`]; all but U001 skip
//! `#[cfg(test)]`/`#[test]` regions (see [`crate::source`]).

use std::collections::BTreeMap;

use crate::lexer::{TokKind, Token};
use crate::source::{matching_brace, SourceFile};

/// One lint hit: where, what, and how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint id (`"D001"`, ...).
    pub lint: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
    /// Trimmed text of the offending line (allowlist `contains` matches
    /// against this).
    pub line_text: String,
}

/// `(id, summary)` for every lint, for `holdcsim-lint --list`.
pub const LINTS: &[(&str, &str)] = &[
    (
        "D001",
        "iteration over HashMap/HashSet in simulation crates (des/core/network/sched/cluster)",
    ),
    (
        "D002",
        "wall-clock read (Instant::now / SystemTime::now) outside obs/harness timing modules",
    ),
    (
        "D003",
        "RNG constructed via SimRng::seed_from/new instead of SimRng::substream_path",
    ),
    (
        "D004",
        "order-sensitive f64 accumulation over an unordered collection in report/stats paths",
    ),
    ("U001", "`unsafe` without a `// SAFETY:` comment nearby"),
    ("P001", "unwrap/expect/panic! in an engine hot-path module"),
    (
        "N001",
        "plain-`pub` item in crates/*/src that no non-test code names outside its definition",
    ),
];

/// True when `id` names a known lint.
pub fn is_known_lint(id: &str) -> bool {
    LINTS.iter().any(|(l, _)| *l == id)
}

/// Crates whose state drives the simulation trajectory: D001 scope.
const SIM_CRATES: &[&str] = &["des", "core", "network", "sched", "cluster"];

/// Crates allowed to read the wall clock (the observability layer, the
/// CLI harness, the analysis tooling and xtask).
const WALL_CLOCK_CRATES: &[&str] = &["obs", "harness", "analysis", "xtask"];

/// Engine hot-path modules: P001 scope. These are the files on the
/// per-event path where a panic aborts a multi-hour sweep.
const HOT_PATH_FILES: &[&str] = &[
    "crates/des/src/engine.rs",
    "crates/des/src/queue.rs",
    "crates/des/src/slot_window.rs",
    "crates/des/src/lazy_heap.rs",
    "crates/network/src/flow.rs",
    "crates/network/src/flow_cohort.rs",
    "crates/network/src/routing.rs",
    "crates/network/src/switch.rs",
    "crates/network/src/packet.rs",
    "crates/core/src/sim.rs",
    "crates/core/src/sim/faults.rs",
    "crates/core/src/sim/controller.rs",
    "crates/core/src/netstate.rs",
    "crates/core/src/placement.rs",
    "crates/sched/src/policy.rs",
    "crates/sched/src/queue.rs",
    "crates/cluster/src/federation.rs",
    "crates/cluster/src/wan.rs",
];

/// Methods that observe a hash collection's (arbitrary) order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// True when `rel_path` is a report/stats path: D004 scope.
fn is_report_path(rel_path: &str) -> bool {
    rel_path.contains("/stats/")
        || rel_path.ends_with("report.rs")
        || rel_path.ends_with("export.rs")
        || rel_path.ends_with("agg.rs")
        || rel_path.ends_with("metrics.rs")
}

/// Runs every lint over one file.
pub fn run_lints(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let sites = hash_iteration_sites(f);
    d001(f, &sites, &mut out);
    d002(f, &mut out);
    d003(f, &mut out);
    d004(f, &sites, &mut out);
    u001(f, &mut out);
    p001(f, &mut out);
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

fn finding(
    f: &SourceFile,
    lint: &'static str,
    line: u32,
    message: String,
    hint: &'static str,
) -> Finding {
    Finding {
        lint,
        path: f.rel_path.clone(),
        line,
        message,
        hint,
        line_text: f.line_text(line).to_string(),
    }
}

fn is_punct(t: &Token, c: &str) -> bool {
    t.kind == TokKind::Punct && t.text == c
}

fn is_ident(t: &Token, name: &str) -> bool {
    t.kind == TokKind::Ident && t.text == name
}

/// Names in this file bound to a `HashMap`/`HashSet`: struct fields and
/// parameters (`name: HashMap<..>`), let-bindings (`let name =
/// HashMap::new()`), including `std::collections::`-qualified forms.
fn hash_typed_names(f: &SourceFile) -> Vec<String> {
    let toks = &f.tokens;
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if !(is_ident(&toks[i], "HashMap") || is_ident(&toks[i], "HashSet")) {
            continue;
        }
        // Rewind over a `std :: collections ::` path prefix.
        let mut p = i;
        while p >= 3
            && is_punct(&toks[p - 1], ":")
            && is_punct(&toks[p - 2], ":")
            && toks[p - 3].kind == TokKind::Ident
        {
            p -= 3;
        }
        // ...and over reference sigils: `name: &'a mut HashMap<..>`.
        while p >= 1
            && (is_punct(&toks[p - 1], "&")
                || is_ident(&toks[p - 1], "mut")
                || toks[p - 1].kind == TokKind::Lifetime)
        {
            p -= 1;
        }
        if p == 0 {
            continue;
        }
        let before = &toks[p - 1];
        // `name : HashMap<..>` — a field, param, or ascribed binding.
        // (A single colon: `p - 2` must not also be a colon, which would
        // be a path we already rewound past.)
        if is_punct(before, ":")
            && p >= 2
            && !is_punct(&toks[p - 2], ":")
            && toks[p - 2].kind == TokKind::Ident
        {
            names.push(toks[p - 2].text.clone());
        }
        // `let [mut] name = HashMap::new()` and friends.
        if is_punct(before, "=") && p >= 2 && toks[p - 2].kind == TokKind::Ident {
            names.push(toks[p - 2].text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// A place where a hash collection's order becomes observable.
struct IterSite {
    /// Token index of the *collection name* identifier.
    name_idx: usize,
    name: String,
    /// Token index just past the iteration call (for D004's chained-
    /// accumulation scan): the `(` of `.iter()` etc., or the name itself
    /// for a bare `for _ in map` loop.
    after_idx: usize,
}

/// Finds iteration sites over the file's hash-typed names: direct
/// method calls (`m.iter()`, `m.keys()`, ...) and `for` loops whose
/// iterated expression mentions a hash-typed name.
fn hash_iteration_sites(f: &SourceFile) -> Vec<IterSite> {
    let toks = &f.tokens;
    let names = hash_typed_names(f);
    if names.is_empty() {
        return Vec::new();
    }
    let mut sites: Vec<IterSite> = Vec::new();
    let mut claimed = vec![false; toks.len()];
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !names.iter().any(|n| n == &toks[i].text) {
            continue;
        }
        if i + 3 < toks.len()
            && is_punct(&toks[i + 1], ".")
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
            && is_punct(&toks[i + 3], "(")
        {
            claimed[i] = true;
            sites.push(IterSite {
                name_idx: i,
                name: toks[i].text.clone(),
                after_idx: i + 3,
            });
        }
    }
    // `for pat in <expr mentioning a hash name> {`
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "for") {
            continue;
        }
        // Find `in` at bracket depth 0 (the pattern may destructure).
        let mut depth = 0i64;
        let mut j = i + 1;
        let mut in_idx = None;
        while j < toks.len() && j < i + 64 {
            let t = &toks[j];
            if is_punct(t, "(") || is_punct(t, "[") {
                depth += 1;
            } else if is_punct(t, ")") || is_punct(t, "]") {
                depth -= 1;
            } else if depth == 0 && is_ident(t, "in") {
                in_idx = Some(j);
                break;
            } else if is_punct(t, "{") || is_punct(t, ";") {
                break;
            }
            j += 1;
        }
        let Some(in_idx) = in_idx else { continue };
        // Scan the iterated expression up to the loop body `{`.
        let mut k = in_idx + 1;
        let mut depth = 0i64;
        while k < toks.len() {
            let t = &toks[k];
            if is_punct(t, "(") || is_punct(t, "[") {
                depth += 1;
            } else if is_punct(t, ")") || is_punct(t, "]") {
                depth -= 1;
            } else if depth == 0 && is_punct(t, "{") {
                break;
            } else if t.kind == TokKind::Ident && !claimed[k] && names.iter().any(|n| n == &t.text)
            {
                claimed[k] = true;
                sites.push(IterSite {
                    name_idx: k,
                    name: t.text.clone(),
                    after_idx: k,
                });
            }
            k += 1;
        }
    }
    sites.sort_by_key(|s| s.name_idx);
    sites
}

fn d001(f: &SourceFile, sites: &[IterSite], out: &mut Vec<Finding>) {
    if !SIM_CRATES.contains(&f.crate_name.as_str()) {
        return;
    }
    for s in sites {
        if f.in_test[s.name_idx] {
            continue;
        }
        let line = f.tokens[s.name_idx].line;
        out.push(finding(
            f,
            "D001",
            line,
            format!(
                "iteration over HashMap/HashSet `{}`: order is arbitrary and varies per process",
                s.name
            ),
            "use SlotWindow/BTreeMap, or collect and sort keys before iterating; \
             if order provably cannot reach simulation state or outputs, allowlist \
             in analysis.toml with a reason",
        ));
    }
}

fn d002(f: &SourceFile, out: &mut Vec<Finding>) {
    if WALL_CLOCK_CRATES.contains(&f.crate_name.as_str()) {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        if (is_ident(&toks[i], "Instant") || is_ident(&toks[i], "SystemTime"))
            && is_punct(&toks[i + 1], ":")
            && is_punct(&toks[i + 2], ":")
            && is_ident(&toks[i + 3], "now")
            && !f.in_test[i]
        {
            out.push(finding(
                f,
                "D002",
                toks[i].line,
                format!(
                    "wall-clock read `{}::now` in a simulation crate",
                    toks[i].text
                ),
                "simulation logic must depend only on sim time; move timing into the \
                 obs/harness layer, or allowlist summary-only uses (never serialized \
                 into reports) in analysis.toml with a reason",
            ));
        }
    }
}

fn d003(f: &SourceFile, out: &mut Vec<Finding>) {
    if WALL_CLOCK_CRATES.contains(&f.crate_name.as_str()) || f.rel_path == "crates/des/src/rng.rs" {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        if is_ident(&toks[i], "SimRng")
            && is_punct(&toks[i + 1], ":")
            && is_punct(&toks[i + 2], ":")
            && (is_ident(&toks[i + 3], "seed_from") || is_ident(&toks[i + 3], "new"))
            && !f.in_test[i]
        {
            out.push(finding(
                f,
                "D003",
                toks[i].line,
                format!("raw RNG construction `SimRng::{}`", toks[i + 3].text),
                "derive component streams from the run's root seed via \
                 SimRng::substream_path so streams depend on coordinates, not call \
                 order; allowlist root-seed entry points in analysis.toml with a reason",
            ));
        }
    }
}

fn d004(f: &SourceFile, sites: &[IterSite], out: &mut Vec<Finding>) {
    if !is_report_path(&f.rel_path) {
        return;
    }
    let toks = &f.tokens;
    for s in sites {
        if f.in_test[s.name_idx] {
            continue;
        }
        if !accumulates(f, s) {
            continue;
        }
        out.push(finding(
            f,
            "D004",
            toks[s.name_idx].line,
            format!(
                "f64 accumulation over unordered `{}` in a report/stats path: float \
                 addition is order-sensitive, so the result is machine-dependent",
                s.name
            ),
            "iterate in sorted order (BTreeMap / sorted keys) before summing, or \
             accumulate with an order-insensitive scheme",
        ));
    }
}

/// True when the iteration at `s` feeds an accumulation: the call chain
/// reaches `.sum(` / `.fold(` / `.product(` before the statement ends,
/// or the site is a `for` loop whose body contains `+=` / `-=` / `*=`.
fn accumulates(f: &SourceFile, s: &IterSite) -> bool {
    let toks = &f.tokens;
    // Chained accumulation: scan to end of statement at depth 0.
    let mut depth = 0i64;
    let mut k = s.after_idx;
    while k + 2 < toks.len() {
        let t = &toks[k];
        if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && is_punct(t, ";") {
            break;
        } else if is_punct(t, ".")
            && (is_ident(&toks[k + 1], "sum")
                || is_ident(&toks[k + 1], "fold")
                || is_ident(&toks[k + 1], "product"))
        {
            return true;
        }
        k += 1;
    }
    // `for` body accumulation: find the body `{` after the site, then
    // look for a compound assignment inside it.
    let mut k = s.name_idx;
    let mut depth = 0i64;
    while k < toks.len() {
        let t = &toks[k];
        if is_punct(t, "(") || is_punct(t, "[") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") {
            depth -= 1;
        } else if depth <= 0 && is_punct(t, "{") {
            let close = matching_brace(toks, k);
            return toks[k..close].windows(2).any(|w| {
                (is_punct(&w[0], "+") || is_punct(&w[0], "-") || is_punct(&w[0], "*"))
                    && is_punct(&w[1], "=")
            });
        } else if depth <= 0 && is_punct(t, ";") {
            break;
        }
        k += 1;
    }
    false
}

fn u001(f: &SourceFile, out: &mut Vec<Finding>) {
    for t in &f.tokens {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        if f.comment_near(t.line, 3, "SAFETY") {
            continue;
        }
        out.push(finding(
            f,
            "U001",
            t.line,
            "`unsafe` without a `// SAFETY:` comment".to_string(),
            "state the invariant that makes this sound in a `// SAFETY:` comment \
             within the three lines above the `unsafe` keyword",
        ));
    }
}

fn p001(f: &SourceFile, out: &mut Vec<Finding>) {
    if !HOT_PATH_FILES.contains(&f.rel_path.as_str()) {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if f.in_test[i] {
            continue;
        }
        let hit = if i + 2 < toks.len()
            && is_punct(&toks[i], ".")
            && (is_ident(&toks[i + 1], "unwrap") || is_ident(&toks[i + 1], "expect"))
            && is_punct(&toks[i + 2], "(")
        {
            Some(toks[i + 1].text.clone())
        } else if i + 1 < toks.len() && is_ident(&toks[i], "panic") && is_punct(&toks[i + 1], "!") {
            Some("panic!".to_string())
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(finding(
                f,
                "P001",
                toks[i].line,
                format!("`{what}` in an engine hot-path module"),
                "a panic here aborts a whole sweep; return a Result, use a checked \
                 accessor with a default, or allowlist the documented invariant in \
                 analysis.toml with a reason",
            ));
        }
    }
}

/// Item kinds N001 reports on. `mod`, `use` and fields are out of scope.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// True for files whose identifiers count as N001 callers but which no
/// lint reports on: examples and `perfbench/`.
pub fn caller_only(rel_path: &str) -> bool {
    rel_path.starts_with("examples/") || rel_path.starts_with("perfbench/")
}

/// A plain-`pub` item: its name token and the token span `start..=end`
/// of its definition (from `pub` to the closing `}` or `;`).
struct PubItem {
    kind_idx: usize,
    name_idx: usize,
    start: usize,
    end: usize,
}

/// N001 over the whole file set. An identifier token in a non-test
/// region of any file counts as a caller of every item of that name,
/// except the tokens inside the item's own definition, so recursion is
/// no caller, and those inside a `use` declaration, so an import or a
/// re-export is none either. A name shared with another item hides both.
pub fn n001(files: &[SourceFile]) -> Vec<Finding> {
    let items: Vec<(&SourceFile, PubItem)> = files
        .iter()
        .filter(|f| {
            f.rel_path.starts_with("crates/") && f.rel_path.split('/').nth(2) == Some("src")
        })
        .flat_map(|f| pub_items(f).into_iter().map(move |it| (f, it)))
        .collect();
    let mut mentions: BTreeMap<&str, usize> = items
        .iter()
        .map(|(f, it)| (f.tokens[it.name_idx].text.as_str(), 0))
        .collect();
    for f in files {
        let mut in_use = false;
        for (t, &test) in f.tokens.iter().zip(&f.in_test) {
            if in_use {
                in_use = !is_punct(t, ";");
            } else if is_ident(t, "use") {
                in_use = true;
            } else if !test && t.kind == TokKind::Ident {
                if let Some(n) = mentions.get_mut(t.text.as_str()) {
                    *n += 1;
                }
            }
        }
    }
    let mut out = Vec::new();
    for (f, it) in items {
        let name = f.tokens[it.name_idx].text.as_str();
        let own = (it.start..=it.end)
            .filter(|&k| !f.in_test[k] && is_ident(&f.tokens[k], name))
            .count();
        if mentions[name] > own {
            continue;
        }
        out.push(finding(
            f,
            "N001",
            f.tokens[it.name_idx].line,
            format!(
                "`pub {} {name}` has no caller: no non-test code outside its definition names it",
                f.tokens[it.kind_idx].text
            ),
            "delete it, with any state only it reads and any test that only tests it; keep \
             an oracle that tests compare against, or the only way a test can observe a \
             behaviour that stays, with an analysis.toml entry scoped by `contains` whose \
             reason names that test",
        ));
    }
    out
}

/// The plain-`pub` items of one file's non-test regions. `pub(crate)`
/// and other restricted visibilities are rustc `dead_code`'s business.
fn pub_items(f: &SourceFile) -> Vec<PubItem> {
    let toks = &f.tokens;
    let mut items = Vec::new();
    for start in 0..toks.len() {
        if !is_ident(&toks[start], "pub") || f.in_test[start] {
            continue;
        }
        // Skip qualifiers: `const fn`, `unsafe`, `async`, `extern "C"`.
        let mut k = start + 1;
        while k + 1 < toks.len()
            && (is_ident(&toks[k], "unsafe")
                || is_ident(&toks[k], "async")
                || is_ident(&toks[k], "extern")
                || toks[k].kind == TokKind::Str
                || (is_ident(&toks[k], "const") && toks[k + 1].kind == TokKind::Ident && {
                    let next = toks[k + 1].text.as_str();
                    matches!(next, "fn" | "unsafe" | "async" | "extern")
                }))
        {
            k += 1;
        }
        let Some(kind) = toks.get(k).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if !ITEM_KINDS.contains(&kind.text.as_str()) {
            continue;
        }
        let braced = matches!(kind.text.as_str(), "fn" | "struct" | "enum" | "trait");
        let mut name_idx = k + 1;
        if kind.text == "static" && toks.get(name_idx).is_some_and(|t| is_ident(t, "mut")) {
            name_idx += 1;
        }
        if toks.get(name_idx).is_none_or(|t| t.kind != TokKind::Ident) {
            continue;
        }
        items.push(PubItem {
            kind_idx: k,
            name_idx,
            start,
            end: item_end(toks, name_idx, braced),
        });
    }
    items
}

/// Index of the token that ends the item whose name sits at `from`: the
/// first `;` outside brackets, or, for a `braced` item (fn, struct,
/// enum, trait), the `}` matching its first top-level `{`.
fn item_end(toks: &[Token], from: usize, braced: bool) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(from) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" if depth == 0 && braced => return matching_brace(toks, k),
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            ";" if depth == 0 => return k,
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}
